"""Polynomial tests: hand-checked GF(7)/GF(11) values, sequential-multiply
oracles for powmod, and exhaustive-evaluation oracles for root counts."""
from __future__ import annotations

import math
import random

import pytest

import mdlab.poly
from mdlab import caps
from mdlab.errors import (
    BothZero,
    CapExceeded,
    DegreeTooSmall,
    MethodDisagreement,
    ZeroModulus,
    ZeroPolynomial,
)
from mdlab.field import extension_field, prime_field
from mdlab.poly import (
    RootCount,
    X,
    distinct_root_count,
    eval_at,
    make_poly,
    monic,
    mul,
    nontrivial_root_count,
    nontrivial_root_counts,
    poly_gcd,
    poly_mod,
    poly_powmod,
    scale,
    sub,
    trinomial,
)


def schoolbook_mul(ctx, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def roots_by_scan(ctx, f):
    return tuple(x for x in ctx.elements() if eval_at(ctx, f, x) == 0)


class TestEval:
    def test_gf7_cubic(self):
        ctx = prime_field(7)
        f = make_poly(ctx, [6, 3, 0, 1])  # X^3 + 3X + 6
        assert eval_at(ctx, f, 0) == 6
        assert eval_at(ctx, f, 1) == 3
        assert eval_at(ctx, f, 2) == 6
        assert eval_at(ctx, f, 3) == 0

    def test_zero_poly(self):
        for ctx in (prime_field(5), extension_field(2, 2)):
            for x in ctx.elements():
                assert eval_at(ctx, (), x) == 0


class TestTrinomial:
    def test_gf11_example(self):
        ctx = prime_field(11)
        assert trinomial(ctx, 4, -2, 1) == (1, 9, 0, 0, 1)

    def test_square_of_x_minus_one(self):
        ctx = prime_field(7)
        assert trinomial(ctx, 2, -2, 1) == (1, 5, 1)

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            trinomial(prime_field(11), 1, -2, 1)

    @pytest.mark.parametrize("ctx,cap", [
        (prime_field(11), caps.MAX_TRINOMIAL_DEGREE),
        (extension_field(2, 2), caps.MAX_EXTENSION_TRINOMIAL_DEGREE),
    ])
    def test_degree_cap(self, ctx, cap):
        assert len(trinomial(ctx, cap, 1, 1)) == cap + 1
        with pytest.raises(CapExceeded):
            trinomial(ctx, cap + 1, 1, 1)


class TestZeroResults:
    @pytest.mark.parametrize("p,k", [(7, 1), (2, 2)])
    def test_scale_by_zero_and_monic_of_zero(self, p, k):
        ctx = extension_field(p, k)
        assert scale(ctx, make_poly(ctx, [1, 2, 3]), 0) == ()
        assert monic(ctx, ()) == ()


class TestGcd:
    def test_gcd_with_zero_is_monic_scaling(self):
        ctx = prime_field(7)
        f = make_poly(ctx, [2, 4, 6])
        assert poly_gcd(ctx, f, ()) == monic(ctx, f)
        assert poly_gcd(ctx, f, ())[-1] == 1

    def test_shared_root(self):
        ctx = prime_field(7)
        f = trinomial(ctx, 2, -2, 1)  # (X-1)^2
        g = make_poly(ctx, [-1, 1])   # X - 1
        assert poly_gcd(ctx, f, g) == (6, 1)

    def test_gf11_root_collector(self):
        # oracle: roots of X^4 - 2X + 1 by scan, expected gcd is the
        # product of (X - r) built with an independent schoolbook multiply
        ctx = prime_field(11)
        f = trinomial(ctx, 4, -2, 1)
        xq_minus_x = make_poly(ctx, [0, -1] + [0] * 9 + [1])  # X^11 - X
        roots = roots_by_scan(ctx, f)
        assert roots == (1, 5, 8)
        expected = (1,)
        for r in roots:
            expected = schoolbook_mul(ctx, expected, (ctx.neg(r), 1))
        g = poly_gcd(ctx, f, xq_minus_x)
        assert len(g) - 1 == 3
        assert g == expected

    def test_both_zero(self):
        with pytest.raises(BothZero):
            poly_gcd(prime_field(5), (), ())


class TestPowmod:
    def test_x_to_q_mod_linear(self):
        for ctx in (prime_field(7), extension_field(3, 2)):
            m = (ctx.neg(1), 1)  # X - 1
            assert poly_powmod(ctx, X, ctx.q, m) == (1,)

    def test_exponent_one(self):
        ctx = prime_field(11)
        f = trinomial(ctx, 4, -2, 1)
        assert poly_powmod(ctx, X, 1, f) == X

    def test_gf11_against_sequential_multiply(self):
        ctx = prime_field(11)
        f = trinomial(ctx, 4, -2, 1)
        acc = (1,)
        for _ in range(11):
            acc = poly_mod(ctx, schoolbook_mul(ctx, acc, X), f)
        assert poly_powmod(ctx, X, 11, f) == acc

    def test_zero_modulus(self):
        with pytest.raises(ZeroModulus):
            poly_powmod(prime_field(5), X, 3, ())

    def test_mod_by_zero(self):
        with pytest.raises(ZeroModulus):
            poly_mod(prime_field(5), X, ())

    @pytest.mark.parametrize("e,modulus,message", [
        (3, (2,), "degree >= 1"),
        (-1, (1, 0, 1), "negative exponent"),
    ])
    def test_refuses_constant_modulus_and_negative_exponent(self, e, modulus, message):
        with pytest.raises(ValueError, match=message):
            poly_powmod(prime_field(5), X, e, modulus)


class TestRootCount:
    def test_gf11_quartic(self):
        ctx = prime_field(11)
        rc = distinct_root_count(ctx, trinomial(ctx, 4, -2, 1))
        assert rc.distinct == 3
        assert rc.roots == (1, 5, 8)

    def test_gf11_octic(self):
        ctx = prime_field(11)
        rc = distinct_root_count(ctx, trinomial(ctx, 8, -2, 1))
        assert rc.distinct == 3
        assert rc.roots == (1, 2, 3)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
    def test_double_root_counted_once(self, p):
        ctx = prime_field(p)
        assert distinct_root_count(ctx, trinomial(ctx, 2, -2, 1)).distinct == 1

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            distinct_root_count(prime_field(5), ())

    def test_constant_has_no_roots(self):
        ctx = prime_field(5)
        for method in ("bruteforce", "gcd", "both"):
            assert distinct_root_count(ctx, (3,), method=method).distinct == 0

    def test_unknown_method(self):
        ctx = prime_field(5)
        with pytest.raises(ValueError, match="unknown method 'fast'"):
            distinct_root_count(ctx, trinomial(ctx, 3, 1, 1), method="fast")

    def test_gcd_method_returns_no_roots_list(self):
        ctx = prime_field(11)
        rc = distinct_root_count(ctx, trinomial(ctx, 4, -2, 1), method="gcd")
        assert rc.distinct == 3
        assert rc.roots is None

    def test_methods_must_agree(self, monkeypatch):
        roots_gcd = mdlab.poly._roots_gcd

        def off_by_one(ctx, f):
            found = roots_gcd(ctx, f)
            return RootCount(found.distinct + 1, found.roots)

        monkeypatch.setattr(mdlab.poly, "_roots_gcd", off_by_one)
        ctx = prime_field(11)
        with pytest.raises(MethodDisagreement, match="bruteforce found"):
            distinct_root_count(ctx, trinomial(ctx, 4, -2, 1), "both")

    @pytest.mark.parametrize("method", ["bruteforce", "both"])
    def test_enumeration_cap_before_evaluation(self, monkeypatch, method):
        # 1048583 is the first prime above the cap 2^20
        ctx = prime_field(1048583)
        f = trinomial(ctx, 3, 1, 1)

        def no_eval(*args):
            raise AssertionError("evaluated over a field past the enumeration cap")

        monkeypatch.setattr(mdlab.poly, "eval_at", no_eval)
        with pytest.raises(CapExceeded,
                           match=r"enumeration of GF\(1048583\) exceeds cap 1048576"):
            distinct_root_count(ctx, f, method)


class TestNontrivialRootCount:
    def test_gf11(self):
        ctx = prime_field(11)
        assert nontrivial_root_count(ctx, 3) == 2
        assert nontrivial_root_count(ctx, 7) == 2

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_n_one_is_zero(self, p):
        assert nontrivial_root_count(prime_field(p), 1) == 0

    def test_n_zero_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            nontrivial_root_count(prime_field(5), 0)

    @pytest.mark.parametrize("p,k", [(3, 1), (7, 1), (2, 2), (3, 2), (11, 1)])
    def test_one_is_always_a_root(self, p, k):
        ctx = extension_field(p, k)
        minus_two = ctx.neg(ctx.add(1, 1))
        for n in range(1, 9):
            f = trinomial(ctx, n + 1, minus_two, 1)
            assert eval_at(ctx, f, 1) == 0


PRIMES_TO_113 = [p for p in range(2, 114) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class TestNontrivialRootCounts:
    # 257 - 1 = 2^8: the order loop's longest run on one prime
    @pytest.mark.parametrize("p", PRIMES_TO_113 + [257])
    def test_every_exponent_matches_the_per_exponent_count(self, p):
        ctx = prime_field(p)
        counts = nontrivial_root_counts(ctx)
        assert len(counts) == p and counts[0] == 0
        for n in range(1, p):
            assert counts[n] == nontrivial_root_count(ctx, n), n

    def test_gf2_is_all_zeros(self):
        assert nontrivial_root_counts(prime_field(2)) == [0, 0]

    @pytest.mark.parametrize("p", PRIMES_TO_113[1:])  # the odd primes below 120
    def test_reciprocal_exponents_biject_their_roots(self, p):
        # the theorem's bijection: for mn = 1 mod (p - 1), x -> x^(-m) maps
        # the nontrivial roots of X^(m+1) - 2X + 1 onto those of
        # X^(n+1) - 2X + 1, each root found by plain modular evaluation
        counts = nontrivial_root_counts(prime_field(p))

        def roots(e):
            return {x for x in range(2, p) if (pow(x, e + 1, p) - 2 * x + 1) % p == 0}

        for m in range(1, p):
            if math.gcd(m, p - 1) != 1:
                continue
            n = pow(m, -1, p - 1)
            roots_m, roots_n = roots(m), roots(n)
            assert {pow(x, -m, p) for x in roots_m} == roots_n, (m, n)
            assert len(roots_m) == len(roots_n) == counts[m] == counts[n], (m, n)

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 3)])
    def test_extension_field_refused(self, p, k):
        with pytest.raises(ValueError, match=rf"needs a prime field, got GF\({p}\^{k}\)"):
            nontrivial_root_counts(extension_field(p, k))


class TestMethodAgreement:
    @pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (2, 3), (3, 2)])
    def test_exhaustive_trinomials(self, p, k):
        ctx = extension_field(p, k)
        for d in range(2, ctx.q + 2):
            for a in ctx.elements():
                for b in ctx.elements():
                    f = trinomial(ctx, d, a, b)
                    brute = distinct_root_count(ctx, f, method="bruteforce")
                    by_gcd = distinct_root_count(ctx, f, method="gcd")
                    assert brute.distinct == by_gcd.distinct

    @pytest.mark.parametrize("p,k", [(101, 1), (13, 1), (2, 4)])
    def test_random_dense_polys(self, p, k):
        ctx = extension_field(p, k)
        rng = random.Random(20260809)
        for _ in range(60):
            coeffs = [rng.randrange(ctx.q) for _ in range(rng.randint(1, 25))]
            coeffs.append(rng.randrange(1, ctx.q))
            f = tuple(coeffs)
            brute = distinct_root_count(ctx, f, method="bruteforce")
            by_gcd = distinct_root_count(ctx, f, method="gcd")
            assert brute.distinct == by_gcd.distinct

    def test_gcd_degree_bound(self):
        ctx = prime_field(13)
        rng = random.Random(7)
        for _ in range(40):
            f = tuple(rng.randrange(13) for _ in range(rng.randint(0, 9))) + (rng.randrange(1, 13),)
            g = poly_gcd(ctx, f, make_poly(ctx, [0, -1] + [0] * 11 + [1]))
            assert len(g) - 1 <= min(len(f) - 1, ctx.q)


class TestTheoremAndExerciseProperties:
    def test_reciprocal_exponents_same_count(self):
        # for odd p <= 31 and mn = 1 mod (p-1), the two trinomial
        # root counts agree
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            ctx = prime_field(p)
            for m in range(1, p):
                for n in range(1, p):
                    if (m * n) % (p - 1) == 1:
                        assert nontrivial_root_count(ctx, m) == nontrivial_root_count(ctx, n)

    @pytest.mark.parametrize("p,k", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_prime_power_generalization(self, p, k):
        # X^(m+1) + aX + b and X^(n+1) + aX + b^m have equal root counts
        ctx = extension_field(p, k)
        q = ctx.q
        for m in range(1, q):
            for n in range(1, q):
                if (m * n) % (q - 1) != 1:
                    continue
                for a in ctx.elements():
                    for b in ctx.elements():
                        lhs = distinct_root_count(ctx, trinomial(ctx, m + 1, a, b))
                        rhs = distinct_root_count(ctx, trinomial(ctx, n + 1, a, ctx.pow(b, m)))
                        assert lhs.distinct == rhs.distinct

    def test_mul_matches_schoolbook(self):
        ctx = prime_field(101)
        rng = random.Random(3)
        for _ in range(50):
            f = tuple(rng.randrange(101) for _ in range(rng.randint(0, 30)))
            g = tuple(rng.randrange(101) for _ in range(rng.randint(0, 30)))
            from mdlab.poly import normalize
            assert mul(ctx, normalize(f), normalize(g)) == schoolbook_mul(ctx, normalize(f), normalize(g))
