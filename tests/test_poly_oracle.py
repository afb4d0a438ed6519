"""Prime-field polynomial kernels against sympy's galoistools and a dense
Horner oracle: products, remainders, monic gcds, the division identity
and sparse evaluation, over GF(2), GF(3), GF(199) and GF(2^31 - 1)."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_rem

from mdlab.field import prime_field
from mdlab.poly import add, eval_at, mul, normalize, poly_gcd, poly_mod

PRIMES = (2, 3, 199, (1 << 31) - 1)


def to_gf(f):
    """mdlab's ascending tuple as galoistools' descending list."""
    return list(reversed(f))


def from_gf(g):
    return tuple(int(c) for c in reversed(g))


def dense_horner(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


@st.composite
def poly(draw, p, max_len=40):
    coeffs = draw(st.lists(st.integers(0, p - 1), max_size=max_len))
    return normalize(coeffs)


@st.composite
def divisor(draw, p):
    """A nonzero divisor: dense, a trinomial X^d + aX + b, or a constant."""
    kind = draw(st.sampled_from(("dense", "trinomial", "constant")))
    lead = draw(st.integers(1, p - 1))
    if kind == "constant":
        return (lead,)
    if kind == "trinomial":
        d = draw(st.integers(2, 40))
        coeffs = [0] * (d + 1)
        coeffs[0] = draw(st.integers(0, p - 1))
        coeffs[1] = draw(st.integers(0, p - 1))
        coeffs[d] = lead
        return tuple(coeffs)
    return (*draw(st.lists(st.integers(0, p - 1), max_size=30)), lead)


@st.composite
def field_poly_divisor(draw):
    p = draw(st.sampled_from(PRIMES))
    g = draw(divisor(p))
    # f at most as long as g half of the time, so short dividends show up
    f = draw(poly(p, max_len=draw(st.sampled_from((len(g), 90)))))
    return p, f, g


class TestAgainstGaloistools:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), poly(p), poly(p))))
    def test_mul(self, case):
        p, f, g = case
        assert mul(prime_field(p), f, g) == from_gf(gf_mul(to_gf(f), to_gf(g), p, ZZ))

    @settings(max_examples=150, deadline=None)
    @given(field_poly_divisor())
    def test_poly_mod(self, case):
        p, f, g = case
        assert poly_mod(prime_field(p), f, g) == from_gf(gf_rem(to_gf(f), to_gf(g), p, ZZ))

    @settings(max_examples=150, deadline=None)
    @given(field_poly_divisor())
    def test_division_identity(self, case):
        # f = q*g + r, with q from galoistools and r and the arithmetic from mdlab
        p, f, g = case
        ctx = prime_field(p)
        quotient = from_gf(gf_div(to_gf(f), to_gf(g), p, ZZ)[0])
        remainder = poly_mod(ctx, f, g)
        assert len(remainder) < len(g)
        assert add(ctx, mul(ctx, quotient, g), remainder) == f

    @settings(max_examples=150, deadline=None)
    @given(field_poly_divisor())
    def test_poly_gcd_is_monic_gcd(self, case):
        p, f, g = case
        expected = from_gf(gf_gcd(to_gf(f), to_gf(g), p, ZZ))
        got = poly_gcd(prime_field(p), f, g)
        assert got == expected
        assert got[-1] == 1

    def test_trinomial_remainders_at_large_degree(self):
        # the sparse reduction loop, on dividends far above the divisor
        p = (1 << 31) - 1
        ctx = prime_field(p)
        for d in (9, 64, 400):
            g = (5, p - 2, *([0] * (d - 2)), 1)
            f = tuple((i * 7919 + 3) % p for i in range(3 * d)) + (1,)
            assert poly_mod(ctx, f, g) == from_gf(gf_rem(to_gf(f), to_gf(g), p, ZZ))


class TestEvalAgainstDenseHorner:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PRIMES).flatmap(
        lambda p: st.tuples(st.just(p), poly(p, max_len=60), st.integers(0, p - 1))))
    def test_dense(self, case):
        p, f, x = case
        assert eval_at(prime_field(p), f, x) == dense_horner(f, x, p)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(
        st.just(p),
        st.dictionaries(st.integers(0, 500), st.integers(1, p - 1), max_size=4),
        st.integers(0, p - 1))))
    def test_sparse(self, case):
        p, terms, x = case
        f = normalize(terms.get(e, 0) for e in range(max(terms, default=-1) + 1))
        assert eval_at(prime_field(p), f, x) == dense_horner(f, x, p)

    def test_zero_constant_and_x_zero(self):
        for p in PRIMES:
            ctx = prime_field(p)
            for x in {0, 1, p - 1, p // 2}:
                assert eval_at(ctx, (), x) == 0
                assert eval_at(ctx, (p - 1,), x) == p - 1
            for f in ((0, 1), (0, 0, 0, 1), (1, 0, 0, 1), (p - 1, 1, 0, 0, 0, 1)):
                assert eval_at(ctx, f, 0) == f[0]
