"""Field arithmetic tests, anchored on hand-checked GF(7) facts and
independent digit-vector oracles for the extension fields."""
from __future__ import annotations

import math
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from mdlab import caps, field
from mdlab.errors import CapExceeded, CompositeModulus, ZeroInverse
from mdlab.field import extension_field, power_map_is_bijective, prime_field


def gf4_oracle_add(a: int, b: int) -> int:
    # digit-vector addition mod 2, base-2 digits
    return ((a ^ b) & 1) | (((a >> 1) ^ (b >> 1)) << 1)


def gf4_oracle_mul(a: int, b: int) -> int:
    # long multiplication of bit-vectors, then reduction by t^2 + t + 1
    r = 0
    for i in range(2):
        if (b >> i) & 1:
            r ^= a << i
    for i in (3, 2):
        if (r >> i) & 1:
            r ^= 0b111 << (i - 2)
    return r & 3


def pow_oracle(ctx, a: int, e: int) -> int:
    acc = 1
    for _ in range(e):
        acc = ctx.mul(acc, a)
    return acc


class TestConstruction:
    def test_gf7(self):
        ctx = prime_field(7)
        assert (ctx.p, ctx.k, ctx.q) == (7, 1, 7)
        assert ctx.modulus is None

    def test_gf2(self):
        assert prime_field(2).q == 2

    def test_composite_reports_factor(self):
        with pytest.raises(CompositeModulus) as ei:
            prime_field(6)
        assert ei.value.factor == 2

    def test_gf4_modulus(self):
        # oracle: the only monic quadratic over GF(2) without a root,
        # checked by exhaustive root enumeration
        irreducible = []
        for c0, c1 in product(range(2), repeat=2):
            if all((x * x + c1 * x + c0) % 2 != 0 for x in range(2)):
                irreducible.append((c0, c1, 1))
        assert irreducible == [(1, 1, 1)]
        assert extension_field(2, 2).modulus == (1, 1, 1)

    def test_gf9_modulus(self):
        # oracle: t^2 + 1 is root-free over GF(3) and lex-smallest
        first = None
        for c0, c1 in product(range(3), repeat=2):
            if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
                first = (c0, c1, 1)
                break
        assert first == (1, 0, 1)
        assert extension_field(3, 2).modulus == (1, 0, 1)

    def test_degree_one_is_prime_field(self):
        assert extension_field(5, 1) == prime_field(5)

    def test_caps(self):
        with pytest.raises(CapExceeded):
            extension_field(2, caps.MAX_EXTENSION_DEGREE + 1)
        with pytest.raises(CapExceeded):
            extension_field(41, 4)  # 41^4 > enumeration cap
        with pytest.raises(CompositeModulus):
            extension_field(4, 2)


class TestArithmetic:
    def test_gf7_add(self):
        ctx = prime_field(7)
        assert ctx.add(1, 6) == 0

    def test_gf7_mul(self):
        ctx = prime_field(7)
        assert ctx.mul(3, 4) == 5

    def test_gf7_inv(self):
        ctx = prime_field(7)
        assert ctx.inv(3) == 5
        assert ctx.mul(3, ctx.inv(3)) == 1

    def test_inv_one(self):
        for ctx in (prime_field(7), extension_field(2, 2)):
            assert ctx.inv(1) == 1

    def test_inv_zero(self):
        with pytest.raises(ZeroInverse):
            prime_field(7).inv(0)

    def test_add_identity(self):
        for ctx in (prime_field(11), extension_field(3, 2)):
            for a in ctx.elements():
                assert ctx.add(a, 0) == a
                assert ctx.mul(a, 1) == a

    def test_gf4_against_digit_oracle(self):
        ctx = extension_field(2, 2)
        assert ctx.add(2, 3) == 1
        assert ctx.mul(2, 2) == 3
        for a in range(4):
            for b in range(4):
                assert ctx.add(a, b) == gf4_oracle_add(a, b)
                assert ctx.mul(a, b) == gf4_oracle_mul(a, b)

    def test_sub_neg_consistency(self):
        for ctx in (prime_field(5), extension_field(2, 3)):
            for a in ctx.elements():
                for b in ctx.elements():
                    assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))

    def test_negative_reduction_prime_only(self):
        assert prime_field(11).element(-2) == 9
        with pytest.raises(ValueError):
            extension_field(2, 2).element(-1)


class TestPow:
    def test_fermat_gf7(self):
        ctx = prime_field(7)
        for x in ctx.elements():
            assert ctx.pow(x, 7) == x

    def test_zero_exponent(self):
        for ctx in (prime_field(3), extension_field(3, 2)):
            for a in ctx.elements():
                assert ctx.pow(a, 0) == 1

    def test_gf11_pow_oracle(self):
        ctx = prime_field(11)
        assert ctx.pow(8, 4) == 4
        assert pow_oracle(ctx, 8, 4) == 4

    def test_pow_matches_repeated_mul(self):
        for ctx in (prime_field(13), extension_field(2, 3), extension_field(3, 2)):
            for a in ctx.elements():
                for e in range(0, 2 * ctx.q + 2):
                    assert ctx.pow(a, e) == pow_oracle(ctx, a, e)

    def test_exponent_periodicity(self):
        for ctx in (prime_field(11), extension_field(2, 4)):
            for a in ctx.elements():
                for e in range(1, 3 * ctx.q):
                    reduced = 1 + ((e - 1) % (ctx.q - 1))
                    if a == 0:
                        assert ctx.pow(a, e) == 0
                    else:
                        assert ctx.pow(a, e) == ctx.pow(a, reduced)


class TestFieldProperties:
    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                     (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
    def test_axioms_exhaustive(self, p, k):
        # associativity and distributivity on all triples, q <= 16
        ctx = extension_field(p, k)
        assert ctx.q <= 16
        elems = list(ctx.elements())
        for a in elems:
            for b in elems:
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                for c in elems:
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                    assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
                    assert ctx.add(a, ctx.add(b, c)) == ctx.add(ctx.add(a, b), c)

    @pytest.mark.parametrize("p,k", [(7, 1), (2, 3), (3, 2), (101, 1), (3, 6)])
    def test_inverse_law(self, p, k):
        ctx = extension_field(p, k)
        for a in range(1, ctx.q):
            assert ctx.mul(a, ctx.inv(a)) == 1

    @pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (2, 4), (31, 1)])
    def test_power_map_bijectivity(self, p, k):
        # exhaustive image check: a -> a^m permutes GF(q) iff gcd(m, q-1) = 1
        ctx = extension_field(p, k)
        for m in range(1, ctx.q):
            image = {ctx.pow(a, m) for a in ctx.elements()}
            assert (len(image) == ctx.q) == power_map_is_bijective(ctx, m)
            assert power_map_is_bijective(ctx, m) == (math.gcd(m, ctx.q - 1) == 1)


# --- digit-vector oracle for GF(p^k), independent of the field tables ---

def oracle_digits(ctx, code: int) -> list[int]:
    return [code // ctx.p**i % ctx.p for i in range(ctx.k)]


def oracle_code(ctx, digits) -> int:
    return sum(d * ctx.p**i for i, d in enumerate(digits))


def oracle_add(ctx, a: int, b: int) -> int:
    return oracle_code(ctx, [(x + y) % ctx.p for x, y in
                             zip(oracle_digits(ctx, a), oracle_digits(ctx, b))])


def oracle_neg(ctx, a: int) -> int:
    return oracle_code(ctx, [-x % ctx.p for x in oracle_digits(ctx, a)])


def oracle_mul(ctx, a: int, b: int) -> int:
    # schoolbook product of the digit polynomials, then long division by the
    # canonical modulus from the top coefficient down
    p, k = ctx.p, ctx.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(oracle_digits(ctx, a)):
        for j, y in enumerate(oracle_digits(ctx, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for j, mc in enumerate(ctx.modulus):
            prod[top - k + j] = (prod[top - k + j] - c * mc) % p
    assert not any(prod[k:])
    return oracle_code(ctx, prod[:k])


def oracle_pow(ctx, a: int, e: int) -> int:
    result, base = 1, a
    while e:
        if e & 1:
            result = oracle_mul(ctx, result, base)
        base = oracle_mul(ctx, base, base)
        e >>= 1
    return result


def prime_divisors(n: int) -> list[int]:
    return [r for r in range(2, n + 1) if n % r == 0 and all(r % d for d in range(2, r))]


SMALL_EXTENSIONS = [(p, k) for p in (2, 3, 5, 7) for k in range(2, 7) if p**k <= 81]
LARGE_EXTENSIONS = [(7, 6), (5, 4), (13, 3), (127, 2)]


class TestZechTables:
    @pytest.mark.parametrize("p,k", SMALL_EXTENSIONS)
    def test_ops_match_oracle_exhaustively(self, p, k):
        ctx = extension_field(p, k)
        q = ctx.q
        for a in range(q):
            assert ctx.neg(a) == oracle_neg(ctx, a)
            assert ctx.add(a, ctx.neg(a)) == 0
            for e in (0, 1, 2, q - 2, q - 1, q, q + 1, 3 * q + 5):
                assert ctx.pow(a, e) == oracle_pow(ctx, a, e), (a, e)
            if a:
                assert ctx.inv(a) == oracle_pow(ctx, a, q - 2)
            for b in range(q):
                assert ctx.add(a, b) == oracle_add(ctx, a, b), (a, b)
                assert ctx.mul(a, b) == oracle_mul(ctx, a, b), (a, b)
                assert ctx.sub(a, b) == oracle_add(ctx, a, oracle_neg(ctx, b)), (a, b)

    @pytest.mark.parametrize("p,k", SMALL_EXTENSIONS + LARGE_EXTENSIONS)
    def test_table_structure(self, p, k):
        ctx = extension_field(p, k)
        exp, log, zech = ctx._tables
        q, n = ctx.q, ctx.q - 1
        g = exp[1]
        assert oracle_pow(ctx, g, n) == 1
        assert all(oracle_pow(ctx, g, n // r) != 1 for r in prime_divisors(n))
        assert len(exp) == 2 * n and exp[n:] == exp[:n]
        assert log[0] == -1
        assert sorted(exp[:n]) == list(range(1, q))
        assert all(log[exp[i]] == i for i in range(n))
        for i in range(n):
            one_plus = oracle_add(ctx, 1, exp[i])
            assert zech[i] == (log[one_plus] if one_plus else -1)

    @pytest.mark.parametrize("p,k", LARGE_EXTENSIONS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_ops_match_oracle_random(self, p, k, data):
        ctx = extension_field(p, k)
        a = data.draw(st.integers(0, ctx.q - 1))
        b = data.draw(st.integers(0, ctx.q - 1))
        e = data.draw(st.integers(0, 5 * ctx.q))
        assert ctx.add(a, b) == oracle_add(ctx, a, b)
        assert ctx.mul(a, b) == oracle_mul(ctx, a, b)
        assert ctx.neg(a) == oracle_neg(ctx, a)
        assert ctx.sub(a, b) == oracle_add(ctx, a, oracle_neg(ctx, b))
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.pow(a, e) == oracle_pow(ctx, a, e)
        if a:
            assert ctx.inv(a) == oracle_pow(ctx, a, ctx.q - 2)

    @pytest.mark.parametrize("p,k", SMALL_EXTENSIONS + LARGE_EXTENSIONS)
    def test_canonical_modulus_is_irreducible(self, p, k):
        modulus = extension_field(p, k).modulus
        assert gf_irreducible_p([ZZ(c) for c in reversed(modulus)], p, ZZ)
        assert len(modulus) == k + 1 and modulus[-1] == 1

    def test_tables_built_lazily_and_once(self, monkeypatch):
        extension_field.cache_clear()
        ctx = extension_field(3, 3)
        assert "_tables" not in vars(ctx)
        product_ = ctx.mul(5, 7)
        assert "_tables" in vars(ctx)

        def rebuild(*args):
            raise AssertionError("tables rebuilt")

        monkeypatch.setattr(field, "_zech_tables", rebuild)
        again = extension_field(3, 3)
        assert again is ctx
        assert again.mul(5, 7) == product_
