"""Digraph isomorphism: explicit power-map certificates, invariant
fingerprints for cheap refutation, budgeted brute-force search, and
decide_iso, which stages them cheapest first.

A certificate is a tuple of length q^2 whose position i holds the image
index of vertex i. verify_iso is the single source of truth: every
certificate produced here is re-validated through it before being
returned.

The search uses one-dimensional directed color refinement seeded with the
loop flag (in- and out-degrees are useless here because every monomial
digraph is q-regular both ways), then backtracks over color-compatible
assignments with incremental arc consistency. The budget is counted in
node expansions, not wall-clock, so runs are machine-independent.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import caps
from .digraph import MonomialDigraph, Vertex
from .errors import (
    CapExceeded,
    CongruenceFailed,
    InvalidExponent,
    NotCoprime,
    SizeMismatch,
    VerificationFailed,
)
from .patterns import count_pattern, small_pattern_library

Certificate = tuple[int, ...]


class VerifyResult(NamedTuple):
    ok: bool
    witness: tuple[Vertex, Vertex] | None


def _check_permutation(mapping, order: int) -> None:
    if len(mapping) != order:
        raise SizeMismatch(f"certificate length {len(mapping)} != order {order}")
    seen = bytearray(order)
    for t in mapping:
        if not 0 <= t < order or seen[t]:
            raise ValueError("certificate is not a permutation")
        seen[t] = 1


def verify_iso(D1: MonomialDigraph, D2: MonomialDigraph, mapping) -> VerifyResult:
    """Exhaustively check that mapping preserves adjacency and
    non-adjacency; on failure reports the first violating source pair in
    index order."""
    if D1.order != D2.order:
        raise SizeMismatch(f"orders differ: {D1.order} vs {D2.order}")
    _check_permutation(mapping, D1.order)
    nbytes = len(D2.rows[0])
    for u in range(D1.order):
        permuted = bytearray(nbytes)
        for j in D1.out_indices(u):
            t = mapping[j]
            permuted[t >> 3] |= 1 << (t & 7)
        if bytes(permuted) != D2.rows[mapping[u]]:
            mu = mapping[u]
            for v in range(D1.order):
                if D1.has_arc_index(u, v) != D2.has_arc_index(mu, mapping[v]):
                    return VerifyResult(False, (D1.vertex_at(u), D1.vertex_at(v)))
            raise AssertionError("row mismatch without a differing bit")
    return VerifyResult(True, None)


def power_map_iso(D1: MonomialDigraph, D2: MonomialDigraph, k: int) -> Certificate:
    """Certificate (x, y) -> (x^k, y) from D1 = D(q;m1,n1) to D2 = D(q;m2,n2).

    Valid exactly when k*m2 = m1 and k*n2 = n1 mod (q-1): under the map,
    the image arc condition reads x2 + y2 = x1^(k*m2) * y1^(k*n2), and
    distinct exponents in {1, ..., q-1} give distinct power functions.
    """
    if D1.ctx != D2.ctx:
        raise SizeMismatch("digraphs live over different fields")
    ctx = D1.ctx
    q = ctx.q
    r = q - 1
    if math.gcd(k, r) != 1:
        raise NotCoprime(f"gcd({k}, {r}) != 1")
    if (k * D2.m - D1.m) % r:
        raise CongruenceFailed("k*m2 = m1", k * D2.m, D1.m, r)
    if (k * D2.n - D1.n) % r:
        raise CongruenceFailed("k*n2 = n1", k * D2.n, D1.n, r)
    mapping = [0] * (q * q)
    for x1 in range(q):
        base = ctx.pow(x1, k) * q
        row = x1 * q
        for x2 in range(q):
            mapping[row + x2] = base + x2
    cert = tuple(mapping)
    result = verify_iso(D1, D2, cert)
    if not result.ok:
        raise VerificationFailed(f"power map k={k} failed at {result.witness}")
    return cert


def find_power_map(D1: MonomialDigraph, D2: MonomialDigraph) -> tuple[int, Certificate] | None:
    """Smallest unit k whose power map carries D1 onto D2, or None."""
    r = D1.ctx.q - 1
    for k in range(1, r + 1):
        if math.gcd(k, r) != 1:
            continue
        if (k * D2.m - D1.m) % r == 0 and (k * D2.n - D1.n) % r == 0:
            return k, power_map_iso(D1, D2, k)
    return None


def frobenius_automorphism(D: MonomialDigraph) -> Certificate:
    """Self-isomorphism (x, y) -> (x^p, y^p); the identity on prime fields,
    a generator of the Galois action on extension fields."""
    ctx = D.ctx
    q = ctx.q
    mapping = [0] * (q * q)
    for x1 in range(q):
        base = ctx.pow(x1, ctx.p) * q
        row = x1 * q
        for x2 in range(q):
            mapping[row + x2] = base + ctx.pow(x2, ctx.p)
    cert = tuple(mapping)
    result = verify_iso(D, D, cert)
    if not result.ok:
        raise VerificationFailed(f"Frobenius map failed at {result.witness}")
    return cert


def unit_orbit(q: int, m: int, n: int) -> frozenset[tuple[int, int]]:
    """Orbit of (m, n) under multiplication by units mod (q-1), residues
    folded into {1, ..., q-1} (0 maps to q-1). Digraphs whose exponent
    pairs share an orbit are isomorphic via power maps."""
    r = q - 1
    if not (1 <= m <= r and 1 <= n <= r):
        raise InvalidExponent(f"exponents must be in [1, {r}]")

    def fold(x: int) -> int:
        x %= r
        return x if x else r

    return frozenset(
        (fold(k * m), fold(k * n)) for k in range(1, r + 1) if math.gcd(k, r) == 1
    )


def orbit_representative(orbit: frozenset[tuple[int, int]]) -> tuple[int, int]:
    return min(orbit)


# --- color refinement and fingerprints ---

def color_refinement(D: MonomialDigraph) -> list[int]:
    """Stable colors of 1-dimensional directed refinement seeded with
    (loop?, out-degree, in-degree). Color ids are assigned in sorted
    signature order each round, so isomorphic digraphs get identical
    color multisets."""
    n = D.order
    out_lists, in_lists, loop_flags = D.view
    seeds = [(loop_flags[i], len(out_lists[i]), len(in_lists[i])) for i in range(n)]
    ranks = {s: c for c, s in enumerate(sorted(set(seeds)))}
    colors = [ranks[s] for s in seeds]
    classes = len(ranks)
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted(Counter(colors[w] for w in out_lists[v]).items())),
                tuple(sorted(Counter(colors[w] for w in in_lists[v]).items())),
            )
            for v in range(n)
        ]
        ranks = {s: c for c, s in enumerate(sorted(set(sigs)))}
        colors = [ranks[sigs[v]] for v in range(n)]
        if len(ranks) == classes:  # refinement only ever splits classes
            return colors
        classes = len(ranks)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary; equal fingerprints are necessary but
    not sufficient for isomorphism. pattern_counts covers the full
    <= 3-vertex pattern library and is None (flagged off) when q exceeds
    the census cap."""

    loop_count: int
    two_cycle_count: int
    pattern_counts: tuple[int, ...] | None
    refinement_histogram: tuple[tuple[int, int], ...]


def cheap_invariants(D: MonomialDigraph) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The fingerprint without its pattern census: (loop count, 2-cycle
    count, refinement histogram)."""
    out_lists, _, loop_flags = D.view
    two_cycles = sum(
        1 for i, targets in enumerate(out_lists)
        for j in targets if j > i and D.has_arc_index(j, i)
    )
    histogram = tuple(sorted(Counter(color_refinement(D)).items()))
    return sum(loop_flags), two_cycles, histogram


def fingerprint(D: MonomialDigraph) -> Fingerprint:
    loop_count, two_cycles, histogram = cheap_invariants(D)
    try:
        counts: tuple[int, ...] | None = tuple(
            count_pattern(D, pat).subdigraphs for pat in small_pattern_library()
        )
    except CapExceeded:
        counts = None
    return Fingerprint(loop_count, two_cycles, counts, histogram)


# --- budgeted brute-force search ---

FOUND = "found"
NOT_ISOMORPHIC = "not_isomorphic"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | not_isomorphic | exhausted
    certificate: Certificate | None
    expansions: int


class _BudgetExhausted(Exception):
    pass


def brute_force_iso(D1: MonomialDigraph, D2: MonomialDigraph,
                    budget: int = caps.DEFAULT_SEARCH_BUDGET) -> SearchOutcome:
    """Search for an isomorphism D1 -> D2.

    Mismatched refinement histograms refute immediately. Otherwise source
    vertices are processed rarest color class first (ties by index) and
    every candidate image must be arc-consistent with all previously
    placed vertices, in both directions. Each candidate trial costs one
    expansion against the budget.
    """
    if D1.order != D2.order:
        raise SizeMismatch(f"orders differ: {D1.order} vs {D2.order}")
    n = D1.order
    colors1 = color_refinement(D1)
    colors2 = color_refinement(D2)
    if Counter(colors1) != Counter(colors2):
        return SearchOutcome(NOT_ISOMORPHIC, None, 0)

    class_size = Counter(colors1)
    order = sorted(range(n), key=lambda v: (class_size[colors1[v]], v))
    targets_by_color: dict[int, list[int]] = {}
    for v in range(n):
        targets_by_color.setdefault(colors2[v], []).append(v)

    loops1 = D1.view.loop_flags
    loops2 = D2.view.loop_flags
    mapping = [-1] * n
    used = bytearray(n)
    placed: list[int] = []
    expansions = 0

    def extend(depth: int) -> bool:
        nonlocal expansions
        if depth == n:
            return True
        v = order[depth]
        for c in targets_by_color[colors1[v]]:
            if used[c]:
                continue
            expansions += 1
            if expansions > budget:
                raise _BudgetExhausted
            ok = True
            for u in placed:
                mu = mapping[u]
                if (D1.has_arc_index(u, v) != D2.has_arc_index(mu, c)
                        or D1.has_arc_index(v, u) != D2.has_arc_index(c, mu)):
                    ok = False
                    break
            if ok and loops1[v] == loops2[c]:
                mapping[v] = c
                used[c] = 1
                placed.append(v)
                if extend(depth + 1):
                    return True
                placed.pop()
                used[c] = 0
                mapping[v] = -1
        return False

    try:
        if extend(0):
            cert = tuple(mapping)
            result = verify_iso(D1, D2, cert)
            if not result.ok:
                raise VerificationFailed(f"search certificate failed at {result.witness}")
            return SearchOutcome(FOUND, cert, expansions)
        return SearchOutcome(NOT_ISOMORPHIC, None, expansions)
    except _BudgetExhausted:
        return SearchOutcome(EXHAUSTED, None, expansions)


# --- staged decision ---

POWER_MAP = "power_map"
INVARIANTS = "invariants"
CENSUS = "census"
SEARCH = "search"


class Decision(NamedTuple):
    status: str  # found | not_isomorphic | exhausted
    stage: str  # power_map | invariants | census | search
    certificate: Certificate | None
    expansions: int
    power_k: int | None = None  # the unit k of a power-map certificate


class InvariantMemo:
    """Per-digraph invariants computed by decide_iso. Pass one memo to
    every decide_iso call of a scan, so that each digraph's invariants and
    pattern census are computed at most once however many pairs it is in."""

    def __init__(self):
        self._cheap: dict[MonomialDigraph, tuple] = {}
        self._prints: dict[MonomialDigraph, Fingerprint] = {}

    def cheap(self, D: MonomialDigraph) -> tuple:
        if D not in self._cheap:
            self._cheap[D] = cheap_invariants(D)
        return self._cheap[D]

    def fingerprint(self, D: MonomialDigraph) -> Fingerprint:
        if D not in self._prints:
            self._prints[D] = fingerprint(D)
        return self._prints[D]


def decide_iso(D1: MonomialDigraph, D2: MonomialDigraph,
               budget: int = caps.DEFAULT_SEARCH_BUDGET,
               memo: InvariantMemo | None = None) -> Decision:
    """Decide D1 ~ D2 by the cheapest evidence that settles it (staged
    refinement before search, as in McKay & Piperno, Practical graph
    isomorphism II, 2014):

    1. a power-map certificate, which exists exactly for same-orbit pairs;
    2. loop count, 2-cycle count and refinement histogram;
    3. the full fingerprint, whose <= 3-vertex pattern census dominates
       the cost, only when stage 2 ties;
    4. budgeted brute-force search.

    Stage 3 compares whole fingerprints, so a pair is refuted before
    search exactly when its fingerprints differ.
    """
    power = find_power_map(D1, D2)
    if power is not None:
        k, cert = power
        return Decision(FOUND, POWER_MAP, cert, 0, k)
    if memo is None:
        memo = InvariantMemo()
    if memo.cheap(D1) != memo.cheap(D2):
        return Decision(NOT_ISOMORPHIC, INVARIANTS, None, 0)
    if memo.fingerprint(D1) != memo.fingerprint(D2):
        return Decision(NOT_ISOMORPHIC, CENSUS, None, 0)
    outcome = brute_force_iso(D1, D2, budget)
    return Decision(outcome.status, SEARCH, outcome.certificate, outcome.expansions)


# --- helpers shared with tests and the harness ---

def permute_digraph(D: MonomialDigraph, mapping) -> MonomialDigraph:
    """Relabeled copy of D (arc (u,v) becomes (mapping[u], mapping[v]));
    parameter metadata is carried over verbatim."""
    _check_permutation(mapping, D.order)
    nbytes = len(D.rows[0])
    rows = [bytearray(nbytes) for _ in range(D.order)]
    for u in range(D.order):
        row = rows[mapping[u]]
        for v in D.out_indices(u):
            t = mapping[v]
            row[t >> 3] |= 1 << (t & 7)
    return MonomialDigraph(D.ctx, D.m, D.n, tuple(bytes(r) for r in rows))


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(list(cert), separators=(",", ":"))


def certificate_from_json(text: str, order: int) -> Certificate:
    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
        raise ValueError("certificate JSON must be an array of ints")
    cert = tuple(data)
    _check_permutation(cert, order)
    return cert
