"""Counting small pattern subdigraphs inside a monomial digraph.

A Pattern is an explicit digraph on at most 5 vertices (caps.MAX_PATTERN_ORDER,
the one size cap), so any Pattern can be counted. Counting follows
the subdigraph convention: an embedding must reproduce every pattern arc
but pattern non-arcs are unconstrained. Copies are counted as
arc-preserving injections divided by the pattern's automorphism count.
Injections are counted by backtracking over host-vertex bitmasks: a step's
candidates are the free vertices (loop vertices only, for a looped pattern
vertex) ANDed with the out-mask of each placed predecessor's image and the
in-mask of each placed successor's; the last step is just a popcount. The
masks are the host's `view`, built once per digraph for all patterns.

The two-loops-plus-one-arc pattern (two distinguished vertices, a loop on
each, a single arc between them) has a dedicated counter that enumerates
ordered pairs of loop vertices, which is O(q^2) once loops are extracted.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from math import perm
from typing import NamedTuple

from . import caps
from .digraph import MonomialDigraph, build_digraph
from .errors import CapExceeded, EvenCharacteristic
from .field import FieldCtx
from .poly import nontrivial_root_count

Arc = tuple[int, int]


@dataclass(frozen=True)
class Pattern:
    order: int
    arcs: frozenset[Arc]

    def __post_init__(self):
        if not 1 <= self.order <= caps.MAX_PATTERN_ORDER:
            raise CapExceeded(
                f"pattern order must be in [1, {caps.MAX_PATTERN_ORDER}], got {self.order}")
        for a, b in self.arcs:
            if not (0 <= a < self.order and 0 <= b < self.order):
                raise ValueError(f"arc ({a}, {b}) outside vertex range")

    def converse(self) -> "Pattern":
        return Pattern(self.order, frozenset((b, a) for a, b in self.arcs))

    def canonical_key(self) -> tuple[Arc, ...]:
        """Minimum relabeling of the arc set; equal keys = isomorphic patterns."""
        return min(
            tuple(sorted((pi[a], pi[b]) for a, b in self.arcs))
            for pi in permutations(range(self.order))
        )


def looped_arc_pattern() -> Pattern:
    """Two vertices, a loop on each, one arc from the first to the second."""
    return Pattern(2, frozenset({(0, 0), (1, 1), (0, 1)}))


@lru_cache(maxsize=None)
def automorphism_count(pattern: Pattern) -> int:
    arcs = pattern.arcs
    return sum(
        1
        for pi in permutations(range(pattern.order))
        if frozenset((pi[a], pi[b]) for a, b in arcs) == arcs
    )


class PatternCount(NamedTuple):
    injections: int
    aut: int
    subdigraphs: int


def count_looped_arc(D: MonomialDigraph) -> int:
    """Copies of the two-loops-plus-arc pattern: ordered pairs of distinct
    loop vertices joined by an arc (its automorphism group is trivial)."""
    loops = D.loop_indices
    return sum(1 for a in loops for b in loops if a != b and D.has_arc_index(a, b))


def _count_injections(D: MonomialDigraph, pattern: Pattern) -> int:
    n, arcs = D.order, pattern.arcs
    deg = Counter(chain.from_iterable(arcs))
    core = sorted(deg, key=lambda v: (-deg[v], v))

    # per step: loop requirement, placed predecessors and placed successors
    steps = [((h, h) in arcs,
              [s for s in range(t) if (core[s], h) in arcs],
              [s for s in range(t) if (h, core[s]) in arcs])
             for t, h in enumerate(core)]

    out_masks, in_masks, loops = D.view
    images = [0] * len(core)
    last = len(core) - 1

    def place(t: int, free: int) -> int:
        needs_loop, forward, backward = steps[t]
        cand = free & loops if needs_loop else free
        for s in forward:
            cand &= out_masks[images[s]]
        for s in backward:
            cand &= in_masks[images[s]]
        if t == last:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            images[t] = low.bit_length() - 1
            total += place(t + 1, free ^ low)
            cand ^= low
        return total

    count = place(0, (1 << n) - 1) if core else 1
    # isolated pattern vertices go anywhere the core left free
    return count * perm(n - len(core), pattern.order - len(core))


def check_pattern_host(q: int) -> None:
    """Refuse a host digraph over GF(q) above the pattern-counting cap."""
    if q > caps.MAX_PATTERN_HOST_ORDER:
        raise CapExceeded(f"count_pattern is capped at q <= {caps.MAX_PATTERN_HOST_ORDER}")


def count_pattern(D: MonomialDigraph, pattern: Pattern) -> PatternCount:
    """Subdigraph copies of pattern in D by bitmask backtracking."""
    check_pattern_host(D.q)
    injections = _count_injections(D, pattern)
    aut = automorphism_count(pattern)
    if injections % aut:
        raise AssertionError(
            f"automorphism count {aut} does not divide injections {injections}")
    return PatternCount(injections, aut, injections // aut)


class FormulaCheck(NamedTuple):
    ok: bool
    pattern_count: int
    predicted: int
    roots: int  # the nontrivial root count r behind the prediction


def verify_looped_arc_formula(ctx: FieldCtx, n: int) -> FormulaCheck:
    """Check that D(q;1,n) holds exactly (q-1) * r copies of the
    two-loops-plus-arc pattern, r being the count of nontrivial roots of
    X^(n+1) - 2X + 1; defined for odd q only (the derivation halves)."""
    if ctx.p == 2:
        raise EvenCharacteristic("the loop count formula divides by 2")
    D = build_digraph(ctx, 1, n)
    counted = count_looped_arc(D)
    roots = nontrivial_root_count(ctx, n)
    predicted = (ctx.q - 1) * roots
    return FormulaCheck(counted == predicted, counted, predicted, roots)


@lru_cache(maxsize=None)
def small_pattern_library() -> tuple[Pattern, ...]:
    """Every digraph on at most 3 vertices, one per isomorphism class, in a
    fixed order (order, arc count, canonical arc tuple)."""
    seen: dict[tuple[int, tuple[Arc, ...]], Pattern] = {}
    for order in range(1, 4):
        cells = list(product(range(order), repeat=2))
        for bits in range(1 << len(cells)):
            arcs = frozenset(c for i, c in enumerate(cells) if (bits >> i) & 1)
            pat = Pattern(order, arcs)
            key = (order, pat.canonical_key())
            if key not in seen:
                seen[key] = pat
    return tuple(
        seen[key] for key in sorted(seen, key=lambda k: (k[0], len(k[1]), k[1]))
    )


# --- pattern literal text format: order line, then one "s t" arc per line ---

def parse_pattern(text: str) -> Pattern:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty pattern literal")
    try:
        order = int(lines[0])
    except ValueError:
        raise ValueError(f"malformed order line {lines[0]!r}") from None
    arcs = set()
    for ln in lines[1:]:
        try:
            tail, head = map(int, ln.split())
        except ValueError:
            raise ValueError(f"malformed arc line {ln!r}") from None
        arcs.add((tail, head))
    return Pattern(order, frozenset(arcs))


def format_pattern(pattern: Pattern) -> str:
    lines = [str(pattern.order)]
    lines.extend(f"{a} {b}" for a, b in sorted(pattern.arcs))
    return "\n".join(lines) + "\n"
