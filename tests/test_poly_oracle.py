"""Prime-field polynomial kernels against sympy's galoistools and a dense
Horner oracle: products, remainders, monic gcds (the blocked Euclid on
long operands too), modular powers, the division identity and sparse
evaluation, over GF(2), GF(3), GF(199) and GF(2^31 - 1)."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd, gf_mul, gf_pow_mod, gf_rem

from mdlab import poly as poly_module
from mdlab.field import prime_field
from mdlab.poly import (
    X,
    add,
    eval_at,
    monic,
    mul,
    normalize,
    poly_gcd,
    poly_mod,
    poly_powmod,
    sub,
    trinomial,
)

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


K = poly_module._GCD_BLOCK


def plain_euclid(ctx, f, g):
    """The remainder sequence of (f, g), one poly_mod per step."""
    seq = [f, g]
    while seq[-1]:
        seq.append(poly_mod(ctx, seq[-2], seq[-1]))
    return seq


def random_poly(rng, p, length, density=1.0):
    """length coefficients, each nonzero with probability density, and a
    nonzero top one."""
    if length == 0:
        return ()
    coeffs = [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(length - 1)]
    return (*coeffs, rng.randrange(1, p))


@st.composite
def gcd_operands(draw):
    """(p, f, g) with f and g up to about 400 coefficients: a planted
    common factor of degree 0-150 times two cofactors, dense or sparse
    (sparse operands give remainder steps that drop the degree by more
    than one), in either length order, or one of them zero."""
    p = draw(st.sampled_from(PRIMES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((1.0, 0.3, 0.03)))
    common = random_poly(rng, p, draw(st.integers(1, 151)), density)
    room = 401 - len(common)
    ctx = prime_field(p)
    f, g = (mul(ctx, common, random_poly(rng, p, draw(st.integers(1, room)), density))
            for _ in range(2))
    zero = draw(st.sampled_from((None, None, None, 0, 1)))
    if zero is not None:
        f, g = (f, ()) if zero else ((), g)
    return p, f, g


class TestBlockedGcd:
    """poly_gcd runs blocks of Euclid steps on the top 2K + 1 coefficients
    (K = poly._GCD_BLOCK) while the divisor is long; each case is checked
    against galoistools and against the plain remainder sequence."""

    @settings(max_examples=60, deadline=None)
    @given(gcd_operands())
    def test_matches_galoistools_and_plain_euclid(self, case):
        p, f, g = case
        ctx = prime_field(p)
        got = poly_gcd(ctx, f, g)
        assert got == from_gf(gf_gcd(to_gf(f), to_gf(g), p, ZZ))
        assert got == monic(ctx, plain_euclid(ctx, f, g)[-2])

    @pytest.mark.parametrize("p", PRIMES)
    def test_blocks_end_on_a_pair_of_the_remainder_sequence(self, p):
        # sequences built backwards from chosen quotients, with degree drops
        # on both sides of K; a kept quotient that is not the true one would
        # give a pair outside the sequence (with the same gcd, so only this
        # check sees it)
        ctx = prime_field(p)
        rng = random.Random(p)
        for degrees in ([1] * 300, [1, 2, 3, 7, 1, 1, K - 1, K, K + 1, 1, 5] * 4,
                        [rng.choice((1, 1, 1, 2, 3, K // 2)) for _ in range(150)]):
            last = random_poly(rng, p, rng.randint(1, 40))
            seq = [random_poly(rng, p, rng.randint(0, len(last) - 1)), last]
            for d in degrees:
                quotient = random_poly(rng, p, d + 1)
                seq.append(add(ctx, mul(ctx, quotient, seq[-1]), seq[-2]))
            seq.reverse()
            full = plain_euclid(ctx, seq[0], seq[1])
            assert full[:len(seq)] == seq
            pair = poly_module._euclid_blocks(seq[0], seq[1], p)
            assert len(pair[1]) <= 2 * K
            assert any(full[i:i + 2] == list(pair) for i in range(len(full) - 1))

    def test_root_count_routes_agree_at_degree_1500(self):
        # gcd(f, X^p - X) for a trinomial of degree 1500 at p = 2^31 - 1:
        # the blocked Euclid against the plain remainder sequence; 1 is the
        # only root of X^1500 - 2X + 1 there, so the gcd is X - 1
        p = (1 << 31) - 1
        ctx = prime_field(p)
        f = trinomial(ctx, 1500, -2, 1)
        g = sub(ctx, poly_powmod(ctx, X, p, f), X)
        assert poly_gcd(ctx, f, g) == monic(ctx, plain_euclid(ctx, f, g)[-2]) == (p - 1, 1)


EXPONENTS = (0, 1, 2, 2**5, 2**31, "p", "p^2", "random")


class TestPowmodAgainstGaloistools:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("base_kind", ("X", "constant", "dense"))
    @pytest.mark.parametrize("e", EXPONENTS)
    def test_matches_gf_pow_mod(self, p, base_kind, e):
        # bases as the callers pass them: X (root counting, Ben-Or's
        # test), constants and dense residues (the primitive-element test)
        rng = random.Random(f"{p}-{base_kind}-{e}")
        e = {"p": p, "p^2": p * p, "random": rng.randrange(1 << 62)}.get(e, e)
        ctx = prime_field(p)
        base = {"X": X, "constant": (rng.randrange(1, p),),
                "dense": random_poly(rng, p, rng.randint(2, 50))}[base_kind]
        for modulus in (random_poly(rng, p, rng.randint(2, 40)),
                        trinomial(ctx, rng.randint(2, 60), rng.randrange(p), rng.randrange(p))):
            want = from_gf(gf_pow_mod(to_gf(base), e, to_gf(modulus), p, ZZ))
            assert poly_powmod(ctx, base, e, modulus) == want


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
