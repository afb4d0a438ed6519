"""Finite fields GF(p) and GF(p^k) with a dense integer element encoding.

Elements are plain ints in [0, q). For k = 1 the code is the residue mod p.
For k > 1 the base-p digits (d0, ..., d_{k-1}) of the code are the
coefficients of 1, t, ..., t^{k-1}, where t is a root of the canonical
modulus: the lexicographically smallest monic irreducible polynomial of
degree k over GF(p), coefficient sequences compared from the constant term
up. Plain-int elements are hashable, orderable, and free to copy, which is
what the digraph and report layers rely on.

Each field kind has one arithmetic path. Prime fields use modular ints.
Extension fields use Zech-logarithm tables (Lidl & Niederreiter, *Finite
Fields*, ch. 2): for a primitive element g, verified to have order q - 1,
``exp[i] = g^i``, ``log[x]`` and ``zech[i] = log(1 + g^i)``. Then
a * b = exp[log a + log b] and a + b = a * (1 + b/a) = exp[log a +
zech[log b - log a]], so every operation is a few array lookups and no
operation unpacks base-p digits. The tables are built on the first
arithmetic call of a context, never at import or by ``extension_field``
itself, and ``extension_field`` returns one shared context per (p, k), so
each process builds them at most once per field. The build is O(q) in
C-level array passes plus one Python loop of q steps; at the largest
enumerable fields (q close to 2^20) it takes under two seconds and keeps
16 MB (4-byte entries: ``exp`` 2(q - 1), ``log`` q, ``zech`` q - 1).

This module has no polynomial arithmetic of its own. The modulus search
(Ben-Or's irreducibility test: gcd(f, X^(p^i) - X) = 1 for i <= k/2), the
primitive-element order test and the columns of the multiplication map
all run on ``poly``'s prime-field kernels over GF(p).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import product, repeat
from operator import add, mod, mul
from typing import NamedTuple

from . import caps, poly
from .errors import CapExceeded, CompositeModulus, ZeroInverse

Coeffs = tuple[int, ...]


def _smallest_factor(n: int) -> int | None:
    """Smallest nontrivial divisor of n, or None when n is prime."""
    if n % 2 == 0:
        return 2 if n > 2 else None
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return None


def _check_prime(p: int) -> None:
    if p < 2:
        raise ValueError(f"characteristic must be >= 2, got {p}")
    if p > caps.MAX_PRIME:
        raise CapExceeded(f"characteristic {p} exceeds cap {caps.MAX_PRIME}")
    factor = _smallest_factor(p)
    if factor is not None:
        raise CompositeModulus(p, factor)


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with p prime and p**k == q. An order above MAX_PRIME is refused
    before trial division: no field under the caps is that large."""
    if q > caps.MAX_PRIME:
        raise CapExceeded(f"field order {q} exceeds cap {caps.MAX_PRIME}")
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _smallest_factor(q) or q
    k = 1
    while p**k < q:
        k += 1
    if p**k != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


# --- the canonical modulus and the tables, on poly's GF(p)[t] kernels ---

def _is_irreducible(gf: FieldCtx, f: Coeffs) -> bool:
    """Ben-Or's test (Probabilistic algorithms in finite fields, FOCS 1981):
    a monic f of degree k over GF(p) is irreducible iff gcd(f, X^(p^i) - X)
    = 1 for every 1 <= i <= k/2."""
    xp = poly.X
    for _ in range((len(f) - 1) // 2):
        xp = poly.poly_powmod(gf, xp, gf.p, f)  # X^(p^i) mod f
        if poly.poly_gcd(gf, f, poly.sub(gf, xp, poly.X)) != poly.ONE:
            return False
    return True


def _smallest_irreducible(p: int, k: int) -> Coeffs:
    """Lexicographically smallest monic irreducible of degree k over GF(p)."""
    gf = prime_field(p)
    # the lex order starts with the p^(k-1) candidates of constant term 0,
    # all divisible by t; starting the constant term at 1 skips them
    for tail in product(range(1, p), *[range(p)] * (k - 1)):
        candidate = (*tail, 1)
        if _is_irreducible(gf, candidate):
            return candidate
    raise AssertionError(f"no irreducible of degree {k} over GF({p})")


def _digits(code: int, p: int) -> Coeffs:
    """The base-p digits of an element code: its GF(p)[t] coefficient
    tuple, ascending and trimmed."""
    d = []
    while code:
        code, r = divmod(code, p)
        d.append(r)
    return tuple(d)


def _prime_divisors(n: int) -> list[int]:
    out = []
    while n > 1:
        r = _smallest_factor(n) or n
        out.append(r)
        while n % r == 0:
            n //= r
    return out


def _primitive_element(gf: FieldCtx, k: int, modulus: Coeffs) -> int:
    """Smallest code of order q - 1: g^((q-1)/r) != 1 for every prime r | q - 1."""
    p = gf.p
    q = p**k
    cofactors = [(q - 1) // r for r in _prime_divisors(q - 1)]
    for g in range(p, q):  # codes below p lie in GF(p), of order < q - 1
        dg = _digits(g, p)
        if all(poly.poly_powmod(gf, dg, e, modulus) != poly.ONE for e in cofactors):
            return g
    raise AssertionError(f"GF({p}^{k}) has no primitive element")


def _multiplication_map(gf: FieldCtx, k: int, modulus: Coeffs, g: int) -> array:
    """times_g[c] = code of g * c, for every code c at once.

    Multiplication by g is GF(p)-linear on digit vectors: digit i of g * c is
    sum_j M[i][j] * digit_j(c) mod p, with column j of M the digits of
    g * t^j. The sums run as C-level maps over per-digit arrays.
    """
    p = gf.p
    q = p**k
    dg = _digits(g, p)
    columns = []
    for j in range(k):
        col = poly.poly_mod(gf, poly.mul(gf, dg, _digits(p**j, p)), modulus)
        columns.append(col + (0,) * (k - len(col)))
    digit_arrays = []
    for j in range(k):  # digit_j(c) = c // p^j % p: runs of p^j, cycling
        block = array("i")
        for d in range(p):
            block.extend(array("i", [d]) * p**j)
        digit_arrays.append(block * p ** (k - 1 - j))
    sum_maps = partial(map, add)
    rows = []
    for i in range(k):
        # M is invertible (g != 0), so every row has a nonzero entry
        terms = [map(mul, digit_arrays[j], repeat(col[i]))
                 for j, col in enumerate(columns) if col[i]]
        reduced = map(mod, reduce(sum_maps, terms), repeat(p))
        rows.append(map(mul, reduced, repeat(p**i)))
    return array("i", reduce(sum_maps, rows))


class _ZechTables(NamedTuple):
    """Log tables of GF(p^k)* for a primitive element g = exp[1].

    exp[i] = g^i for 0 <= i < 2(q - 1), doubled so that a sum of two logs
    needs no reduction; log[x] for every code, -1 at 0; zech[i] =
    log(1 + g^i), -1 where 1 + g^i = 0.
    """

    exp: array
    log: array
    zech: array


def _zech_tables(p: int, k: int, modulus: Coeffs) -> _ZechTables:
    q = p**k
    n = q - 1
    gf = prime_field(p)
    g = _primitive_element(gf, k, modulus)
    times_g = _multiplication_map(gf, k, modulus, g)
    exp = array("i", [0]) * (2 * n)
    log = array("i", [-1]) * q
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = times_g[x]
    if x != 1 or log.count(-1) != 1:  # the walk must visit every unit once
        raise AssertionError(f"{g} does not have order {n} in GF({p}^{k})")
    exp[n:] = exp[:n]
    # log of 1 + c for every code c: adding 1 changes digit 0 only, so this
    # is log shifted by one code, wrapping within each run of p codes
    log_succ = log[1:] + log[:1]
    log_succ[p - 1::p] = log[::p]
    zech = array("i", map(log_succ.__getitem__, exp[:n]))
    return _ZechTables(exp, log, zech)


@dataclass(frozen=True)
class FieldCtx:
    """Immutable finite-field context; all operations are pure."""

    p: int
    k: int
    q: int
    modulus: Coeffs | None  # monic, length k + 1; None for prime fields

    def element(self, value: int) -> int:
        """Canonicalize an int into an element code.

        Negative values are reduced mod p for prime fields only; extension
        fields require codes already in [0, q).
        """
        if self.k == 1:
            return value % self.p
        if 0 <= value < self.q:
            return value
        raise ValueError(f"element code {value} outside [0, {self.q})")

    def elements(self) -> range:
        if self.q > caps.MAX_ENUMERATION_ORDER:
            raise CapExceeded(
                f"enumeration of GF({self.q}) exceeds cap {caps.MAX_ENUMERATION_ORDER}")
        return range(self.q)

    @cached_property
    def _tables(self) -> _ZechTables:
        """Zech-logarithm tables of an extension field, built on first use."""
        assert self.modulus is not None
        return _zech_tables(self.p, self.k, self.modulus)

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if a == 0:
            return b
        if b == 0:
            return a
        exp, log, zech = self._tables
        la = log[a]
        z = zech[log[b] - la]  # a negative index wraps mod q - 1
        return 0 if z < 0 else exp[la + z]

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if a == 0 or self.p == 2:
            return a
        exp, log, _ = self._tables
        return exp[log[a] + (self.q - 1) // 2]  # log(-1) = (q - 1) / 2

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        """a**e with the 0**0 = 1 convention; e may exceed q."""
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self.k == 1:
            return pow(a, e, self.p)
        exp, log, _ = self._tables
        return exp[log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroInverse(f"0 has no inverse in GF({self.q})")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables
        return exp[-log[a]]  # exp has period q - 1, so index 2(q - 1) - log a

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"


def prime_field(p: int) -> FieldCtx:
    """GF(p) for prime p; raises CompositeModulus with a witness factor."""
    _check_prime(p)
    return FieldCtx(p=p, k=1, q=p, modulus=None)


@lru_cache(maxsize=32)
def extension_field(p: int, k: int) -> FieldCtx:
    """GF(p^k) with the canonical (lex-smallest) irreducible modulus.

    Memoized: repeated calls return the same context, so the modulus is
    derived and the arithmetic tables are built once per (p, k).
    """
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if k > caps.MAX_EXTENSION_DEGREE:
        raise CapExceeded(f"extension degree {k} exceeds cap {caps.MAX_EXTENSION_DEGREE}")
    _check_prime(p)
    if k == 1:
        return prime_field(p)
    q = p**k
    if q > caps.MAX_ENUMERATION_ORDER:
        raise CapExceeded(f"field order {q} exceeds cap {caps.MAX_ENUMERATION_ORDER}")
    return FieldCtx(p=p, k=k, q=q, modulus=_smallest_irreducible(p, k))


def power_map_is_bijective(ctx: FieldCtx, m: int) -> bool:
    """Whether a -> a**m permutes the field: gcd(m, q - 1) == 1."""
    return math.gcd(m, ctx.q - 1) == 1
