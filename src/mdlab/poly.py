"""Univariate polynomials over a FieldCtx.

A polynomial is a tuple of element codes, index i holding the coefficient
of X^i, with trailing zeros trimmed; the zero polynomial is the empty
tuple. Two independent distinct-root counters are provided: exhaustive
evaluation (needs q small enough to enumerate) and deg gcd(f, X^q - X)
computed by modular exponentiation, which never materializes X^q and is
the fast path for very large prime fields.

Each field kind has one arithmetic path, and neither calls a FieldCtx
method per coefficient in ``mul``, ``poly_mod`` or ``eval_at``. Prime
fields (k = 1) work on plain residues with inline ``% p``. Extension
fields bind the field's Zech-logarithm tables as locals: a product of
two coefficients is a sum of logs, a sum goes through ``zech``, and each
remainder step folds the divisor's lead inverse and the sign into one log
offset per divisor term. Products and remainders skip zero coefficients,
so the sparse powers of X that ``poly_powmod`` starts from cost little.

Evaluation is Horner's rule over the nonzero terms only, on both kinds,
with each distinct gap power computed once per point (a product of logs
on extension fields), so a trinomial costs a few powers per point
whatever its degree. On the prime-field path:

- Products use Kronecker substitution (von zur Gathen & Gerhard, *Modern
  Computer Algebra*, 8.4): each coefficient goes into a byte-aligned slot
  of one big integer, wide enough that no convolution sum carries into
  the next slot, the two integers are multiplied once, and the product
  is cut back into slots from one ``to_bytes`` buffer. Packing and
  unpacking are linear in the operand size, so repeated squaring stays
  cheap even for degree-thousands operands.
- Reduction by a sparse modulus (the trinomial in ``poly_powmod``)
  touches only its nonzero coefficients, O(1) per degree step; reduction
  by a dense one (the gcd remainders) updates the whole window under the
  divisor in one list comprehension per step.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from . import caps
from .errors import (
    BothZero,
    CapExceeded,
    DegreeTooSmall,
    MethodDisagreement,
    ZeroModulus,
    ZeroPolynomial,
)

if TYPE_CHECKING:  # field builds GF(p^k) on the kernels below
    from .field import FieldCtx

Poly = tuple[int, ...]

X: Poly = (0, 1)
ONE: Poly = (1,)
ZERO: Poly = ()


def normalize(coeffs) -> Poly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def make_poly(ctx: FieldCtx, coeffs) -> Poly:
    """Build a polynomial from raw ints (reduced through ctx.element)."""
    return normalize(ctx.element(c) for c in coeffs)


def degree(f: Poly) -> int | None:
    """Degree of f, or None for the zero polynomial."""
    return len(f) - 1 if f else None


_last_plan: tuple = (None, None)  # (f, plan) of the last _horner_plan call


def _horner_plan(f: Poly) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]:
    """(gaps, steps, constant) for Horner over the nonzero terms of f:
    gaps holds each distinct exponent gap once, and steps runs from the
    leading term down to the lowest nonconstant one as (coefficient, index
    into gaps of the gap to the next nonzero term, or to X^0 after the
    last). The constant term is added at the end, with no X^0 factor.

    The plan of the last f is kept and found by identity, since exhaustive
    evaluation asks for the same f at every point; the kept reference
    stops its id from being reused."""
    global _last_plan
    last_f, plan = _last_plan
    if last_f is not f:
        exps = [e for e in range(len(f) - 1, 0, -1) if f[e]]
        diffs = [e - nxt for e, nxt in zip(exps, exps[1:] + [0])]
        gaps = tuple(sorted(set(diffs)))
        slot = {g: i for i, g in enumerate(gaps)}
        plan = gaps, tuple((f[e], slot[d]) for e, d in zip(exps, diffs)), f[0] if f else 0
        _last_plan = (f, plan)
    return plan


def eval_at(ctx: FieldCtx, f: Poly, x: int) -> int:
    """Horner evaluation of f at x over its nonzero terms only,
    acc = (acc + c) * x^gap, then plus the constant term."""
    gaps, steps, constant = _horner_plan(f)
    acc = 0
    if ctx.k == 1:
        p = ctx.p
        powers = [pow(x, g, p) for g in gaps]
        for c, i in steps:
            acc = (acc + c) * powers[i] % p
        return (acc + constant) % p
    if x == 0:  # every step multiplies by a positive power of x
        return constant
    exp, log, zech = ctx._tables
    n = ctx.q - 1
    lx = log[x]
    lpowers = [lx * g % n for g in gaps]
    for c, i in steps:  # c != 0; acc + c = acc * (1 + c / acc)
        lc = log[c]
        if acc:
            la = log[acc]
            z = zech[lc - la]
            if z < 0:
                acc = 0
                continue
            lc = la + z
        acc = exp[(lc + lpowers[i]) % n]
    if not (acc and constant):
        return acc or constant
    la = log[acc]
    z = zech[log[constant] - la]
    return 0 if z < 0 else exp[la + z]


def add(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] = ctx.add(out[i], c)
    return normalize(out)


def sub(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    return add(ctx, f, tuple(ctx.neg(c) for c in g))


def scale(ctx: FieldCtx, f: Poly, c: int) -> Poly:
    if c == 0:
        return ZERO
    return normalize(ctx.mul(a, c) for a in f)


def _mul_kronecker(f: Poly, g: Poly, p: int) -> Poly:
    # byte-aligned slots wide enough that convolution sums never carry
    # across slot boundaries
    bound = (p - 1) * (p - 1) * min(len(f), len(g))
    wb = (bound.bit_length() + 7) // 8
    fi = int.from_bytes(b"".join(c.to_bytes(wb, "little") for c in f), "little")
    # the same int object on both sides lets CPython square instead
    gi = fi if g is f else int.from_bytes(
        b"".join(c.to_bytes(wb, "little") for c in g), "little")
    size = (len(f) + len(g) - 1) * wb
    buf = (fi * gi).to_bytes(size, "little")
    return normalize([int.from_bytes(buf[i:i + wb], "little") % p
                      for i in range(0, size, wb)])


def mul(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    if ctx.k == 1:
        return _mul_kronecker(f, g, ctx.p)
    # schoolbook over the nonzero terms of both factors, in logs
    exp, log, zech = ctx._tables
    n = ctx.q - 1
    g_terms = [(j, log[b]) for j, b in enumerate(g) if b]
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            la = log[a]
            for j, lb in g_terms:
                t = la + lb  # < 2(q - 1), within the doubled exp
                o = out[i + j]
                if o:  # o + g^t = o * (1 + g^(t - log o))
                    lo = log[o]
                    z = zech[(t - lo) % n]
                    out[i + j] = 0 if z < 0 else exp[lo + z]
                else:
                    out[i + j] = exp[t]
    return normalize(out)


def monic(ctx: FieldCtx, f: Poly) -> Poly:
    if not f:
        return ZERO
    lead = f[-1]
    return f if lead == 1 else scale(ctx, f, ctx.inv(lead))


def poly_mod(ctx: FieldCtx, f: Poly, m: Poly) -> Poly:
    """Remainder of f modulo m (m nonzero)."""
    if not m:
        raise ZeroModulus("reduction modulo the zero polynomial")
    dm = len(m) - 1
    if dm == 0:
        return ZERO
    if ctx.k == 1:
        return _poly_mod_prime(f, m, ctx.p)
    exp, log, zech = ctx._tables
    n = ctx.q - 1
    # each step adds -(r[top] / lead) * m[i] under the leading term, so one
    # log offset per support term, log m[i] - log lead + log(-1), folds in
    # the lead inverse and the sign (log(-1) = (q - 1) / 2 for odd p, 0 for
    # p = 2)
    offset = (0 if ctx.p == 2 else n // 2) - log[m[-1]]
    support = [(i, (log[mc] + offset) % n) for i, mc in enumerate(m[:dm]) if mc]
    r = list(f)
    for top in range(len(r) - 1, dm - 1, -1):
        c = r[top]
        if c:
            lc = log[c]
            shift = top - dm
            for i, off in support:
                t = lc + off  # < 2(q - 1), within the doubled exp
                o = r[shift + i]
                if o:  # o + g^t = o * (1 + g^(t - log o))
                    lo = log[o]
                    z = zech[(t - lo) % n]
                    r[shift + i] = 0 if z < 0 else exp[lo + z]
                else:
                    r[shift + i] = exp[t]
    del r[dm:]  # entries at and above dm are never read again
    return normalize(r)


def _poly_mod_prime(f: Poly, m: Poly, p: int) -> Poly:
    """poly_mod over GF(p), deg m >= 1. Each step subtracts c * m under
    the leading term; entries at and above the current top are never read
    again, so they are dropped once at the end instead of zeroed."""
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    r = list(f)
    if 4 * (dm - m.count(0)) < dm:  # a sparse divisor: loop over its support
        support = [(i, m[i]) for i in compress(range(dm), m)]
        for top in range(len(r) - 1, dm - 1, -1):
            c = r[top]
            if c:
                c = c * inv_lead % p
                shift = top - dm
                for i, mc in support:
                    r[shift + i] = (r[shift + i] - c * mc) % p
    else:
        for top in range(len(r) - 1, dm - 1, -1):
            c = r[top]
            if c:
                c = c * inv_lead % p
                shift = top - dm
                # zip stops after the dm entries below top, before m[dm]
                r[shift:top] = [(a - c * b) % p for a, b in zip(r[shift:top], m)]
    del r[dm:]
    return normalize(r)


def poly_gcd(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    if not f and not g:
        raise BothZero("gcd(0, 0) is undefined")
    while g:
        f, g = g, poly_mod(ctx, f, g)
    return monic(ctx, f)


def poly_powmod(ctx: FieldCtx, base: Poly, e: int, modulus: Poly) -> Poly:
    """base**e reduced modulo modulus, by repeated squaring."""
    if not modulus:
        raise ZeroModulus("powmod modulo the zero polynomial")
    if len(modulus) - 1 < 1:
        raise ValueError("powmod modulus must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    result = poly_mod(ctx, ONE, modulus)
    base = poly_mod(ctx, base, modulus)
    while e:
        if e & 1:
            result = poly_mod(ctx, mul(ctx, result, base), modulus)
        e >>= 1
        if e:
            base = poly_mod(ctx, mul(ctx, base, base), modulus)
    return result


def trinomial(ctx: FieldCtx, d: int, a: int, b: int) -> Poly:
    """X^d + aX + b; a and b may be negative ints for prime fields."""
    if d < 2:
        raise DegreeTooSmall(f"trinomial degree must be >= 2, got {d}")
    cap = caps.MAX_TRINOMIAL_DEGREE if ctx.k == 1 else caps.MAX_EXTENSION_TRINOMIAL_DEGREE
    if d > cap:
        raise CapExceeded(f"trinomial degree {d} over {ctx!r} exceeds cap {cap}")
    coeffs = [0] * (d + 1)
    coeffs[0] = ctx.element(b)
    coeffs[1] = ctx.element(a)
    coeffs[d] = 1
    return normalize(coeffs)


@dataclass(frozen=True)
class RootCount:
    """Distinct-root count; the sorted roots tuple is present only when the
    count came from exhaustive enumeration."""

    distinct: int
    roots: Poly | None


def _roots_bruteforce(ctx: FieldCtx, f: Poly) -> RootCount:
    roots = tuple(x for x in ctx.elements() if eval_at(ctx, f, x) == 0)
    return RootCount(distinct=len(roots), roots=roots)


def _roots_gcd(ctx: FieldCtx, f: Poly) -> RootCount:
    if len(f) == 1:
        return RootCount(distinct=0, roots=None)
    # gcd(f, X^q - X) = product of (X - r) over the distinct roots r of f
    xq = poly_powmod(ctx, X, ctx.q, f)
    g = poly_gcd(ctx, f, sub(ctx, xq, X))
    return RootCount(distinct=len(g) - 1, roots=None)


def distinct_root_count(ctx: FieldCtx, f: Poly, method: str = "auto") -> RootCount:
    """Count distinct roots of f in GF(q).

    method: "bruteforce" (exhaustive evaluation, returns the roots),
    "gcd" (deg gcd(f, X^q - X), enumeration-free), "both" (runs both and
    insists they agree), or "auto" (both when q is small enough, gcd
    otherwise).
    """
    if not f:
        raise ZeroPolynomial("root count of the zero polynomial")
    if method == "auto":
        method = "both" if ctx.q <= caps.MAX_BOTH_METHOD_ORDER else "gcd"
    if method == "bruteforce":
        if ctx.q > caps.MAX_ENUMERATION_ORDER:
            raise CapExceeded(f"bruteforce over GF({ctx.q}) exceeds enumeration cap")
        return _roots_bruteforce(ctx, f)
    if method == "gcd":
        return _roots_gcd(ctx, f)
    if method == "both":
        by_eval = _roots_bruteforce(ctx, f)
        by_gcd = _roots_gcd(ctx, f)
        if by_eval.distinct != by_gcd.distinct:
            raise MethodDisagreement(
                f"bruteforce found {by_eval.distinct} distinct roots, gcd {by_gcd.distinct}")
        return by_eval
    raise ValueError(f"unknown method {method!r}")


def nontrivial_root_count(ctx: FieldCtx, n: int) -> int:
    """Distinct roots of X^(n+1) - 2X + 1 other than the root 1.

    The coefficients sum to zero in every field, so 1 is always a root and
    the subtraction below never goes negative.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    minus_two = ctx.neg(ctx.add(1, 1))
    f = trinomial(ctx, n + 1, minus_two, 1)
    return distinct_root_count(ctx, f).distinct - 1
