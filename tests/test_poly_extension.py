"""Extension-field polynomial kernels against references built from the
FieldCtx methods (which test_field.py checks against a digit-vector
oracle): products, remainders and sparse evaluation over every GF(p^k)
with 4 <= q <= 81, plus GF(1021^2)."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab.field import extension_field
from mdlab.poly import eval_at, mul, normalize, poly_mod

FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(2, 7) if p**k <= 81] + [(1021, 2)]


def ref_mul(ctx, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return normalize(out)


def ref_mod(ctx, f, m):
    """Long division by m, lead inverse and all, one FieldCtx call per step."""
    dm = len(m) - 1
    inv_lead = ctx.inv(m[-1])
    r = list(f)
    for top in range(len(r) - 1, dm - 1, -1):
        c = ctx.mul(r[top], inv_lead)
        for i, mc in enumerate(m):
            r[top - dm + i] = ctx.sub(r[top - dm + i], ctx.mul(c, mc))
        assert r[top] == 0
    return normalize(r[:dm])


def ref_eval(ctx, f, x):
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def coefficient(q):
    """An element code, zero about half of the time."""
    return st.one_of(st.just(0), st.integers(0, q - 1))


@st.composite
def poly(draw, q, max_len=30):
    return normalize(draw(st.lists(coefficient(q), max_size=max_len)))


@st.composite
def divisor(draw, q):
    """A nonzero divisor, rarely monic: dense, a trinomial lead*X^d + aX + b,
    or a constant."""
    kind = draw(st.sampled_from(("dense", "trinomial", "constant")))
    lead = draw(st.integers(1, q - 1))
    if kind == "constant":
        return (lead,)
    if kind == "trinomial":
        d = draw(st.integers(2, 40))
        coeffs = [0] * (d + 1)
        coeffs[0] = draw(coefficient(q))
        coeffs[1] = draw(coefficient(q))
        coeffs[d] = lead
        return tuple(coeffs)
    return (*draw(st.lists(coefficient(q), max_size=25)), lead)


@st.composite
def field_poly_divisor(draw):
    ctx = extension_field(*draw(st.sampled_from(FIELDS)))
    g = draw(divisor(ctx.q))
    # f at most as long as g half of the time, so short dividends show up
    f = draw(poly(ctx.q, max_len=draw(st.sampled_from((len(g), 80)))))
    return ctx, f, g


def field_and(*parts):
    return st.sampled_from(FIELDS).map(lambda pk: extension_field(*pk)).flatmap(
        lambda ctx: st.tuples(st.just(ctx), *(part(ctx.q) for part in parts)))


class TestKernelsAgainstFieldCtx:
    @settings(max_examples=200, deadline=None)
    @given(field_and(poly, poly))
    def test_mul(self, case):
        ctx, f, g = case
        assert mul(ctx, f, g) == ref_mul(ctx, f, g)

    @settings(max_examples=200, deadline=None)
    @given(field_poly_divisor())
    def test_poly_mod(self, case):
        ctx, f, g = case
        assert poly_mod(ctx, f, g) == ref_mod(ctx, f, g)

    @settings(max_examples=200, deadline=None)
    @given(field_and(lambda q: poly(q, max_len=60), lambda q: st.integers(0, q - 1)))
    def test_eval_dense(self, case):
        ctx, f, x = case
        assert eval_at(ctx, f, x) == ref_eval(ctx, f, x)

    @settings(max_examples=200, deadline=None)
    @given(field_and(
        lambda q: st.dictionaries(st.integers(0, 300), st.integers(1, q - 1), max_size=4),
        lambda q: st.integers(0, q - 1)))
    def test_eval_sparse(self, case):
        ctx, terms, x = case
        f = normalize(terms.get(e, 0) for e in range(max(terms, default=-1) + 1))
        assert eval_at(ctx, f, x) == ref_eval(ctx, f, x)

    def test_eval_zero_point_and_cancellation(self):
        for p, k in FIELDS:
            ctx = extension_field(p, k)
            minus_one = ctx.neg(1)
            for f in ((), (ctx.q - 1,), (0, 1), (0, 0, 0, 1), (1, 0, 0, 1), (2, 1, 0, 0, 0, 1)):
                assert eval_at(ctx, f, 0) == (f[0] if f else 0)
            # X^2 - X and X^3 - X + 1: a Horner partial sum, X^2 - X, is 0 at
            # x = 1; X^2 - 1 cancels in the constant term
            for f in ((0, minus_one, 1), (1, minus_one, 0, 1), (minus_one, 0, 1)):
                for x in (1, ctx.q - 1):
                    assert eval_at(ctx, f, x) == ref_eval(ctx, f, x)
