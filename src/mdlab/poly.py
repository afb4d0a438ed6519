"""Univariate polynomials over a FieldCtx.

A polynomial is a tuple of element codes, index i holding the coefficient
of X^i, with trailing zeros trimmed; the zero polynomial is the empty
tuple. Two independent distinct-root counters are provided: exhaustive
evaluation (needs q small enough to enumerate) and deg gcd(f, X^q - X),
with X^q mod f from left-to-right binary exponentiation, which never
materializes X^q and is the fast path for very large prime fields.
For the family X^(n+1) - 2X + 1 over GF(p), ``nontrivial_root_counts``
tallies the roots of every exponent n at once, in one pass over the
field in discrete logs, and certifies each element's contribution by
modular powers and multiplicative orders, with no discrete log.

Each field kind has one arithmetic path, and neither calls a FieldCtx
method per coefficient in ``mul``, ``poly_mod`` or ``eval_at``. Prime
fields (k = 1) work on plain residues with inline ``% p``. Extension
fields bind the field's Zech-logarithm tables as locals: a product of
two coefficients is a sum of logs, a sum goes through ``zech``, and each
remainder step folds the divisor's lead inverse and the sign into one log
offset per divisor term. Products and remainders skip zero coefficients.
``poly_powmod`` multiplies by X as a one-place shift, with no product at
all, so only its squarings go through ``mul``.

Evaluation is Horner's rule over the nonzero terms only, on both kinds,
with each distinct gap power computed once per point (a product of logs
on extension fields), so a trinomial costs a few powers per point
whatever its degree. On the prime-field path:

- Products use Kronecker substitution (von zur Gathen & Gerhard, *Modern
  Computer Algebra*, 8.4): each coefficient goes into a byte-aligned slot
  of one big integer, wide enough that no convolution sum carries into
  the next slot, the two integers are multiplied once, and the product
  is cut back into slots from one ``to_bytes`` buffer. Coefficients move
  between 8-byte ``struct`` words and slots by strided byte slices, so
  packing and unpacking are linear in the operand size with no Python
  step per coefficient beyond the final ``% p``, and repeated squaring
  stays cheap even for degree-thousands operands.
- Reduction by a sparse modulus (the trinomial in ``poly_powmod``)
  touches only its nonzero coefficients, O(1) per degree step; reduction
  by a dense one updates the whole window under the divisor in one list
  comprehension per step.
- The gcd of long operands runs Euclid in blocks (``_euclid_blocks``):
  the steps of a block run on the top 2 * ``_GCD_BLOCK`` + 1
  coefficients only, and their cofactor matrix is applied to the whole
  pair in one pair of big-integer products on the Kronecker packing.
  Plain Euclid steps finish the short remainders, as they run every
  step on extension fields.
"""
from __future__ import annotations

import math
import struct
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


def _pack(f, wb: int) -> int:
    """f as one big integer, coefficient i in the wb-byte slot i. Each
    coefficient is below 2^31 (p <= caps.MAX_PRIME), so it fits one
    little-endian 8-byte word and in wb bytes; the words' low bytes are
    copied into the slots by strided slices, not one coefficient at a
    time."""
    words = struct.pack(f"<{len(f)}Q", *f)
    buf = bytearray(len(f) * wb)
    for j in range(min(wb, 8)):
        buf[j::wb] = words[j::8]
    return int.from_bytes(buf, "little")


def _unpack(packed: int, slots: int, wb: int, p: int) -> Poly:
    """The wb-byte slots of packed (at most `slots` of them), reduced mod p.
    A slot holds at most 16 bytes (a sum of products of residues below
    2^31), read as a low and a high 8-byte word gathered by strided
    slices."""
    buf = packed.to_bytes(slots * wb, "little")
    low = bytearray(slots * 8)
    for j in range(min(wb, 8)):
        low[j::8] = buf[j::wb]
    low = struct.unpack(f"<{slots}Q", low)
    if wb <= 8:
        return normalize([c % p for c in low])
    high = bytearray(slots * 8)
    for j in range(8, wb):
        high[j - 8::8] = buf[j::wb]
    r = (1 << 64) % p
    return normalize([(h * r + c) % p for h, c in zip(struct.unpack(f"<{slots}Q", high), low)])


def _slot_bytes(bound: int) -> int:
    """Byte width of a slot that holds sums up to bound."""
    return (bound.bit_length() + 7) // 8


def _mul_kronecker(f: Poly, g: Poly, p: int) -> Poly:
    # byte-aligned slots wide enough that convolution sums never carry
    # across slot boundaries
    wb = _slot_bytes((p - 1) * (p - 1) * min(len(f), len(g)))
    fi = _pack(f, wb)
    # the same int object on both sides lets CPython square instead
    gi = fi if g is f else _pack(g, wb)
    return _unpack(fi * gi, len(f) + len(g) - 1, wb, p)


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
    r = list(f)
    if 4 * (dm - m.count(0)) < dm:  # a sparse divisor: loop over its support
        inv_lead = pow(m[-1], -1, p)
        support = [(i, m[i]) for i in compress(range(dm), m)]
        for top in range(len(r) - 1, dm - 1, -1):
            c = r[top]
            if c:
                c = c * inv_lead % p
                shift = top - dm
                for i, mc in support:
                    r[shift + i] = (r[shift + i] - c * mc) % p
        del r[dm:]
    else:
        _divmod_dense(r, m, p)
    return normalize(r)


def _divmod_dense(r: list[int], m, p: int) -> list[int]:
    """Reduce the list r modulo m over GF(p) in place (deg m >= 1), to its
    first deg m entries with no zeros trimmed, and return the quotient's
    coefficients, highest first. Each step updates the window under the
    divisor in one list comprehension."""
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    quotient = []
    for top in range(len(r) - 1, dm - 1, -1):
        c = r[top]
        if c:
            c = c * inv_lead % p
            shift = top - dm
            # zip stops after the dm entries below top, before m[dm]
            r[shift:top] = [(a - c * b) % p for a, b in zip(r[shift:top], m)]
        quotient.append(c)
    del r[dm:]
    return quotient


# Block size of the prime-field gcd: each block runs Euclid on the top
# 2 * _GCD_BLOCK + 1 coefficients and lowers the degree by about
# _GCD_BLOCK. Chosen by measurement on gcd(f, X^p - X) for trinomials f
# over GF(2^31 - 1) (2-vCPU Xeon VM, Python 3.11, best of 15-25 runs): at
# degree 1000, sizes 16 and 24 took 50-59 ms, 32 63-66 ms and 64 92-97
# ms; at degree 6000, 24 to 64 took 1.0-1.25 s and 16 1.2-1.6 s. 24 is
# near the best at both.
_GCD_BLOCK = 24


def _submul(a: list[int], c: list[int], b: list[int], p: int) -> list[int]:
    """a - c * b over GF(p); c is given highest coefficient first."""
    out = a + [0] * (len(c) + len(b) - 1 - len(a))
    lb = len(b)
    for i, ci in enumerate(reversed(c)):
        if ci:
            out[i:i + lb] = [(x - ci * y) % p for x, y in zip(out[i:i + lb], b)]
    return out


def _euclid_blocks(f: Poly, g: Poly, p: int) -> tuple[Poly, Poly]:
    """A pair of the remainder sequence of (f, g) over GF(p), longer
    member first, whose second member has degree below 2 * _GCD_BLOCK.

    Lehmer's blocking, after the half-gcd lemma (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, ch. 11): with s = deg f - 2K, the
    quotients of f div X^s and g div X^s equal the true quotients while
    the divisor's degree in that short sequence stays >= K. Their
    cofactor matrix, built on the short lists, maps (f, g) to two
    consecutive true remainders in one pair of big-integer products on
    the Kronecker packing, so a block costs a few linear passes over f
    where plain Euclid would update the whole window once per step."""
    K = _GCD_BLOCK
    if len(f) < len(g):  # plain Euclid's first step would swap them
        f, g = g, f
    while len(g) > 2 * K:
        s = len(f) - 1 - 2 * K
        if len(g) - 1 - s < K:  # a quotient of degree > K: one plain step
            f, g = g, _poly_mod_prime(f, g, p)
            continue
        a, b = list(f[s:]), list(g[s:])
        # with F, G = f[s:], g[s:]: (a, b) = (u0*F + v0*G, u1*F + v1*G), ascending lists
        u0, v0, u1, v1 = [1], [], [], [1]
        while len(b) > K:
            quotient = _divmod_dense(a, b, p)
            while a and a[-1] == 0:
                a.pop()
            a, b = b, a
            u0, u1 = u1, _submul(u0, quotient, u1, p)
            v0, v1 = v1, _submul(v0, quotient, v1, p)
        n = max(len(u0), len(v0), len(u1), len(v1))
        wb = _slot_bytes(2 * (p - 1) * (p - 1) * n)
        fi, gi = _pack(f, wb), _pack(g, wb)
        slots = len(f) + n - 1
        f, g = (_unpack(_pack(u, wb) * fi + _pack(v, wb) * gi, slots, wb, p)
                for u, v in ((u0, v0), (u1, v1)))
    return f, g


def poly_gcd(ctx: FieldCtx, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor, by Euclid's algorithm; over a prime
    field, blocks of steps on long operands go through _euclid_blocks
    first."""
    if not f and not g:
        raise BothZero("gcd(0, 0) is undefined")
    if ctx.k == 1:
        f, g = _euclid_blocks(f, g, ctx.p)
    while g:
        f, g = g, poly_mod(ctx, f, g)
    return monic(ctx, f)


def poly_powmod(ctx: FieldCtx, base: Poly, e: int, modulus: Poly) -> Poly:
    """base**e reduced modulo modulus, by left-to-right binary
    exponentiation: below the top bit of e, each bit squares the running
    result and each set bit multiplies it by the reduced base, which stays
    as short as the caller gave it. When that base is X (counting roots,
    any modulus of degree >= 2) the product is a one-place shift."""
    if not modulus:
        raise ZeroModulus("powmod modulo the zero polynomial")
    if len(modulus) - 1 < 1:
        raise ValueError("powmod modulus must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:
        return poly_mod(ctx, ONE, modulus)
    base = poly_mod(ctx, base, modulus)
    by_x = base == X
    result = base
    for bit in bin(e)[3:]:
        result = poly_mod(ctx, mul(ctx, result, result), modulus)
        if bit == "1":
            product = (0, *result) if by_x else mul(ctx, result, base)
            result = poly_mod(ctx, product, modulus)
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


def nontrivial_root_counts(ctx: FieldCtx) -> list[int]:
    """nontrivial_root_count(ctx, n) for every n in 1..p-1 at once, as the
    list indexed by n (entry 0 is 0), over a prime field GF(p).

    One pass over the field in discrete logs to a primitive root g. For
    x outside {0, 1, 1/2}, with i = log x and j = log(2x - 1), x is a root
    of X^d - 2X + 1 exactly when i*d = j mod (p - 1). That congruence is
    solvable only when h = gcd(i, p - 1) divides j, and then its solutions
    d in [2, p], one full residue system, are the h terms of a progression
    with step (p - 1)/h, and x adds one to the tally of each. x = 0 and
    x = 1/2 are never roots and x = 1 is the trivial one, so r(n) =
    tally[n + 1].

    Each x is also checked by powers alone, which need no log: its order
    is p - 1 divided by each prime divisor s while x^(order/s) = 1, and
    y = 2x - 1 lies in <x> exactly when y^order = 1. The log route must
    agree: (p - 1)/h is the order, h | j exactly when y lies in <x>, and
    its least solution d0 has x^d0 = y. Then the solutions of x^d = y
    are exactly d = d0 mod the order, the progression tallied, so every
    count is certified; any disagreement raises MethodDisagreement. Both
    routes take the prime divisors of p - 1 from field._prime_divisors."""
    if ctx.k != 1:
        raise ValueError(f"nontrivial_root_counts needs a prime field, got {ctx!r}")
    from .field import _prime_divisors  # field imports this module

    p = ctx.p
    tally = [0] * (p + 1)
    if p == 2:  # GF(2) holds only 0 and 1
        return tally[1:]
    r = p - 1
    primes = _prime_divisors(r)
    g = next(g for g in range(2, p) if all(pow(g, r // s, p) != 1 for s in primes))
    log = [0] * p
    x = 1
    for i in range(r):
        log[x] = i
        x = x * g % p
    half = (p + 1) // 2
    for x in range(2, p):
        if x == half:
            continue
        y = (2 * x - 1) % p
        order = r
        for s in primes:
            while order % s == 0 and pow(x, order // s, p) == 1:
                order //= s
        i, j = log[x], log[y]
        h = math.gcd(i, r)
        step = r // h
        if step != order or (j % h == 0) != (pow(y, order, p) == 1):
            raise MethodDisagreement(f"{ctx!r}: logs and powers disagree at x = {x}")
        if j % h:
            continue
        d0 = j // h * pow(i // h, -1, step) % step
        if pow(x, d0, p) != y:
            raise MethodDisagreement(f"{ctx!r}: the log route's x^{d0} is not 2x - 1 at x = {x}")
        for d in range(2 + (d0 - 2) % step, p + 1, step):
            tally[d] += 1
    return tally[1:]
