"""Digraph isomorphism: explicit power-map certificates, invariant
fingerprints for cheap refutation, budgeted individualization-refinement
search, and decide_iso, which stages them cheapest first.

A certificate is a tuple of length q^2 whose position i holds the image
index of vertex i. verify_iso is the single source of truth: every
certificate produced here is re-validated through it before being
returned.

One refinement kernel serves both the invariants and the search:
directed color refinement, run on one digraph or on several jointly with
one shared color naming. Seeded with (loop flag, out-degree,
in-degree) it gives each digraph's stable colors; every monomial digraph
is q-regular both ways, so in practice only the loop flag splits the
seed. The search individualizes one vertex in each digraph with the same
fresh color and refines both jointly, pruning a branch as soon as their
signatures differ. The budget is counted in these expansions, not
wall-clock, so runs are machine-independent.

Only the digraph module encodes and decodes the packed target rows.
Refinement and the 2-cycle count read each digraph's out-lists and
in-lists from `MonomialDigraph.neighbor_lists`, views of packed rows
that read as int sequences, and refinement seeds the loop flag from
`MonomialDigraph.loop_indices`. permute_digraph assembles the rows that
`MonomialDigraph.relabeled_row` encodes, and verify_iso asks
`MonomialDigraph.first_relabeling_mismatch` for the first row that a
mapping does not carry onto the other digraph's. That method certifies a
product map (x1, x2) -> (f1(x1), f2(x2)), such as a power-map, Frobenius
or scaling certificate, one x1 block of q rows at a time on the packed
bytes, decoding only the first row; from the first block it cannot
certify, it checks each row on its own, sorting the images of one row
and laying every later row's out in the same order while it fits, so
the first mismatching row, and the witness, do not depend on the path.
decide_iso and brute_force_iso
share one cached result per digraph for its refinement colors, cheap
invariants and fingerprint, kept as private attributes of the digraph,
so they are dropped with it. The public color_refinement,
cheap_invariants and fingerprint compute their result afresh on every
call; only the colors and cheap invariants they build on are cached.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from . import caps
from .digraph import MonomialDigraph, Vertex, normalize_exponent
from .errors import (
    CapExceeded,
    CongruenceFailed,
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
    index order.

    `MonomialDigraph.first_relabeling_mismatch` compares every relabeled
    row of D1 with its row in D2 as bytes: a product map such as a power
    map is certified one x1 block of q rows at a time, decoding only the
    first row, and from the first block that is not, each row's images are
    laid out in the order that sorts the first row's. Either way every arc
    is checked, and only the first row that differs is scanned pair by
    pair, for the witness."""
    if D1.order != D2.order:
        raise SizeMismatch(f"orders differ: {D1.order} vs {D2.order}")
    _check_permutation(mapping, D1.order)
    u = D1.first_relabeling_mismatch(D2, mapping)
    if u is None:
        return VerifyResult(True, None)
    mu = mapping[u]
    for v in range(D1.order):
        if D1.has_arc_index(u, v) != D2.has_arc_index(mu, mapping[v]):
            return VerifyResult(False, (D1.vertex_at(u), D1.vertex_at(v)))
    raise AssertionError("row mismatch without a differing arc")


def _product_map(D1: MonomialDigraph, D2: MonomialDigraph, f1, f2, name: str) -> Certificate:
    """The certificate (x1, x2) -> (f1[x1], f2[x2]) from D1 to D2, checked
    by verify_iso; raises VerificationFailed naming the map otherwise."""
    q = D1.q
    cert = tuple(y1 * q + y2 for y1 in f1 for y2 in f2)
    result = verify_iso(D1, D2, cert)
    if not result.ok:
        raise VerificationFailed(f"{name} failed at {result.witness}")
    return cert


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
    return _product_map(D1, D2, [ctx.pow(x, k) for x in range(q)], range(q),
                        f"power map k={k}")


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
    frob = [ctx.pow(x, ctx.p) for x in range(ctx.q)]
    return _product_map(D, D, frob, frob, "Frobenius map")


def unit_orbit(q: int, m: int, n: int) -> frozenset[tuple[int, int]]:
    """Orbit of (m, n) under multiplication by units mod (q-1), residues
    taken into {1, ..., q-1} by normalize_exponent. Digraphs whose
    exponent pairs share an orbit are isomorphic via power maps."""
    r = q - 1
    return frozenset(
        (normalize_exponent(k * m, q), normalize_exponent(k * n, q))
        for k in range(1, r + 1) if math.gcd(k, r) == 1
    )


# --- color refinement and fingerprints ---

def _refine(digraphs, colorings):
    """Jointly refine colorings[i] of digraphs[i] to stability by
    1-dimensional directed refinement, or None as soon as two digraphs'
    signature multisets differ.

    Each round a vertex's signature is (color, out-neighbor color counts,
    in-neighbor color counts), and its new color is the rank of that
    signature among the first digraph's, so a color id means the same in
    every digraph."""
    classes = len(set(colorings[0]))
    while True:
        sigs = []
        for D, colors in zip(digraphs, colorings):
            out_lists, in_lists = D.neighbor_lists
            sigs.append([
                (
                    colors[v],
                    tuple(sorted(Counter(colors[w] for w in out_lists[v]).items())),
                    tuple(sorted(Counter(colors[w] for w in in_lists[v]).items())),
                )
                for v in range(D.order)
            ])
        first = Counter(sigs[0])
        if any(Counter(other) != first for other in sigs[1:]):
            return None
        ranks = {s: c for c, s in enumerate(sorted(first))}
        colorings = [[ranks[s] for s in vertex_sigs] for vertex_sigs in sigs]
        if len(ranks) == classes:  # refinement only ever splits classes
            return colorings
        classes = len(ranks)


def color_refinement(D: MonomialDigraph) -> list[int]:
    """Stable colors of 1-dimensional directed refinement seeded with
    (loop?, out-degree, in-degree). Color ids are assigned in sorted
    signature order each round, so isomorphic digraphs get identical
    color multisets."""
    out_lists, in_lists = D.neighbor_lists
    loops = set(D.loop_indices)
    seeds = [(i in loops, len(out_lists[i]), len(in_lists[i])) for i in range(D.order)]
    ranks = {s: c for c, s in enumerate(sorted(set(seeds)))}
    return _refine((D,), ([ranks[s] for s in seeds],))[0]


def _cached(D: MonomialDigraph, name: str, compute):
    """compute(D), computed on the first ask for D's invariant name and kept
    in D's own attributes as _iso_<name>, as cached_property keeps view."""
    attrs, key = vars(D), f"_iso_{name}"
    if key not in attrs:
        attrs[key] = compute(D)
    return attrs[key]


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary; equal fingerprints are necessary but
    not sufficient for isomorphism. pattern_counts covers the full
    <= 3-vertex pattern library, whose one-vertex loop pattern counts the
    loops, and is None (flagged off) when q exceeds the census cap."""

    two_cycle_count: int
    pattern_counts: tuple[int, ...] | None
    refinement_histogram: tuple[tuple[int, int], ...]


def cheap_invariants(D: MonomialDigraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The fingerprint without its pattern census: (2-cycle count,
    refinement histogram). No loop count: it is q on every built, converse
    or permuted digraph, so the loop flag only seeds the refinement."""
    out_lists, in_lists = D.neighbor_lists
    two_cycles = sum(
        1 for i, (targets, sources) in enumerate(zip(out_lists, in_lists))
        for j in set(targets).intersection(sources) if j > i
    )
    histogram = tuple(sorted(Counter(_cached(D, "colors", color_refinement)).items()))
    return two_cycles, histogram


def fingerprint(D: MonomialDigraph) -> Fingerprint:
    """D's full fingerprint. The pattern census runs on every call; the
    cheap invariants come from D's cached ones."""
    two_cycles, histogram = _cached(D, "cheap", cheap_invariants)
    try:
        counts: tuple[int, ...] | None = tuple(
            count_pattern(D, pat).subdigraphs for pat in small_pattern_library()
        )
    except CapExceeded:
        counts = None
    return Fingerprint(two_cycles, counts, histogram)


# --- decisions ---

FOUND = "found"
NOT_ISOMORPHIC = "not_isomorphic"
EXHAUSTED = "exhausted"

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


# --- budgeted individualization-refinement search ---

def brute_force_iso(D1: MonomialDigraph, D2: MonomialDigraph,
                    budget: int = caps.DEFAULT_SEARCH_BUDGET) -> Decision:
    """Search for an isomorphism D1 -> D2 by individualization-refinement
    (McKay & Piperno, Practical graph isomorphism II, 2014).

    Both digraphs start from their stable refinement colors, refined
    jointly; a refinement that fails refutes the pair at once. Each
    expansion takes the first vertex of D1's smallest non-singleton class
    (ties by color id), gives it and one same-colored candidate of D2 a
    fresh color, and refines jointly again; a failed refinement prunes the
    branch. A discrete coloring pairs the vertices by color, and that
    certificate must pass verify_iso. Expansions count against the budget.
    The search runs on an explicit stack, one frame (colorings, cell
    vertex, remaining candidates) per depth, so its depth is not bounded
    by the interpreter's recursion limit.
    """
    if D1.order != D2.order:
        raise SizeMismatch(f"orders differ: {D1.order} vs {D2.order}")
    n = D1.order  # above every color id, so it serves as the fresh color
    digraphs = (D1, D2)
    colorings = _refine(digraphs, (_cached(D1, "colors", color_refinement),
                                   _cached(D2, "colors", color_refinement)))
    stack = []
    expansions = 0
    while True:
        if colorings is not None:
            colors1, colors2 = colorings
            sizes = Counter(colors1)
            if len(sizes) == n:  # discrete: pair the vertices by color
                image = [0] * n
                for w, color in enumerate(colors2):
                    image[color] = w
                cert = tuple(image[color] for color in colors1)
                result = verify_iso(D1, D2, cert)
                if not result.ok:
                    raise VerificationFailed(f"search certificate failed at {result.witness}")
                return Decision(FOUND, SEARCH, cert, expansions)
            _, cell = min((size, color) for color, size in sizes.items() if size > 1)
            stack.append((colorings, colors1.index(cell),
                          iter([w for w, color in enumerate(colors2) if color == cell])))
        while stack and (w := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            return Decision(NOT_ISOMORPHIC, SEARCH, None, expansions)
        expansions += 1
        if expansions > budget:
            return Decision(EXHAUSTED, SEARCH, None, expansions)
        (colors1, colors2), v, _ = stack[-1]
        colors1, colors2 = colors1.copy(), colors2.copy()
        colors1[v] = colors2[w] = n
        colorings = _refine(digraphs, (colors1, colors2))


# --- staged decision ---

def decide_iso(D1: MonomialDigraph, D2: MonomialDigraph,
               budget: int = caps.DEFAULT_SEARCH_BUDGET) -> Decision:
    """Decide D1 ~ D2 by the cheapest evidence that settles it (staged
    refinement before search, as in McKay & Piperno, Practical graph
    isomorphism II, 2014):

    1. a power-map certificate, which exists exactly for same-orbit pairs;
    2. 2-cycle count and the refinement histogram that the loop flag
       seeds (every built, converse or permuted digraph has q loops);
    3. the full fingerprint, whose <= 3-vertex pattern census dominates
       the cost, only when stage 2 ties;
    4. budgeted brute-force search.

    Stage 3 compares whole fingerprints, so a pair is refuted before
    search exactly when its fingerprints differ. Each digraph's invariants
    and census are computed at most once by decide_iso and brute_force_iso,
    however many pairs it is in; a public fingerprint call does not count.
    """
    power = find_power_map(D1, D2)
    if power is not None:
        k, cert = power
        return Decision(FOUND, POWER_MAP, cert, 0, k)
    if _cached(D1, "cheap", cheap_invariants) != _cached(D2, "cheap", cheap_invariants):
        return Decision(NOT_ISOMORPHIC, INVARIANTS, None, 0)
    if _cached(D1, "print", fingerprint) != _cached(D2, "print", fingerprint):
        return Decision(NOT_ISOMORPHIC, CENSUS, None, 0)
    return brute_force_iso(D1, D2, budget)


# --- helpers shared with tests and the harness ---

def permute_digraph(D: MonomialDigraph, mapping) -> MonomialDigraph:
    """Relabeled copy of D (arc (u,v) becomes (mapping[u], mapping[v]));
    parameter metadata is carried over verbatim."""
    _check_permutation(mapping, D.order)
    rows = [b""] * D.order
    for u in range(D.order):
        rows[mapping[u]] = D.relabeled_row(u, mapping)
    return MonomialDigraph(D.ctx, D.m, D.n, tuple(rows))


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(list(cert), separators=(",", ":"))


def certificate_from_json(text: str, order: int) -> Certificate:
    data = json.loads(text)
    # type(x) is int: a JSON true or false loads as a bool, an int subclass
    if not isinstance(data, list) or not all(type(x) is int for x in data):
        raise ValueError("certificate JSON must be an array of ints")
    cert = tuple(data)
    _check_permutation(cert, order)
    return cert
