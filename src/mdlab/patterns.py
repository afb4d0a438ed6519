"""Counting small pattern subdigraphs inside a monomial digraph.

A Pattern is an explicit digraph on at most 8 vertices. Counting follows
the subdigraph convention: an embedding must reproduce every pattern arc
but pattern non-arcs are unconstrained. Copies are counted as
arc-preserving injections divided by the pattern's automorphism count.

The two-loops-plus-one-arc pattern (two distinguished vertices, a loop on
each, a single arc between them) has a dedicated counter that enumerates
ordered pairs of loop vertices, which is O(q^2) once loops are extracted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
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
    loops = D.loop_indices()
    return sum(
        1 for a in loops for b in loops if a != b and D.has_arc_index(a, b)
    )


def _count_injections(D: MonomialDigraph, pattern: Pattern) -> int:
    n = D.order
    deg = [0] * pattern.order
    for a, b in pattern.arcs:
        deg[a] += 1
        deg[b] += 1
    core = sorted((v for v in range(pattern.order) if deg[v]), key=lambda v: (-deg[v], v))
    isolated = pattern.order - len(core)

    out_lists, in_lists, loop_flags = D.view
    loop_list = [i for i in range(n) if loop_flags[i]]

    # per placement step: loop requirement plus arc checks against the
    # already-placed core prefix
    steps = []
    for t, h in enumerate(core):
        needs_loop = (h, h) in pattern.arcs
        checks = []
        anchor = None  # (position, use_out_list_of_image)
        for s in range(t):
            g = core[s]
            if (g, h) in pattern.arcs and g != h:
                checks.append((s, True))
                anchor = anchor or (s, True)
            if (h, g) in pattern.arcs and g != h:
                checks.append((s, False))
                anchor = anchor or (s, False)
        steps.append((needs_loop, checks, anchor))

    used = [False] * n
    images = [0] * len(core)

    def place(t: int) -> int:
        if t == len(core):
            return 1
        needs_loop, checks, anchor = steps[t]
        if anchor is not None:
            s, forward = anchor
            candidates = out_lists[images[s]] if forward else in_lists[images[s]]
        elif needs_loop:
            candidates = loop_list
        else:
            candidates = range(n)
        total = 0
        for c in candidates:
            if used[c] or (needs_loop and not loop_flags[c]):
                continue
            ok = True
            for s, forward in checks:
                img = images[s]
                if forward:
                    if not D.has_arc_index(img, c):
                        ok = False
                        break
                elif not D.has_arc_index(c, img):
                    ok = False
                    break
            if ok:
                used[c] = True
                images[t] = c
                total += place(t + 1)
                used[c] = False
        return total

    count = place(0)
    for i in range(isolated):
        count *= n - len(core) - i
    return count


def count_pattern(D: MonomialDigraph, pattern: Pattern) -> PatternCount:
    """Subdigraph copies of pattern in D by backtracking enumeration."""
    if pattern.order > caps.MAX_COUNT_PATTERN_ORDER:
        raise CapExceeded(
            f"count_pattern is capped at {caps.MAX_COUNT_PATTERN_ORDER} pattern vertices")
    if D.q > caps.MAX_PATTERN_HOST_ORDER:
        raise CapExceeded(
            f"count_pattern is capped at q <= {caps.MAX_PATTERN_HOST_ORDER}")
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


def verify_looped_arc_formula(ctx: FieldCtx, n: int) -> FormulaCheck:
    """Check that D(q;1,n) holds exactly (q-1) * r copies of the
    two-loops-plus-arc pattern, r being the count of nontrivial roots of
    X^(n+1) - 2X + 1; defined for odd q only (the derivation halves)."""
    if ctx.p == 2:
        raise EvenCharacteristic("the loop count formula divides by 2")
    D = build_digraph(ctx, 1, n)
    counted = count_looped_arc(D)
    predicted = (ctx.q - 1) * nontrivial_root_count(ctx, n)
    return FormulaCheck(counted == predicted, counted, predicted)


@lru_cache(maxsize=None)
def small_pattern_library(max_order: int = 3) -> tuple[Pattern, ...]:
    """Every digraph on at most max_order vertices, one per isomorphism
    class, in a fixed order (order, arc count, canonical arc tuple)."""
    seen: dict[tuple[int, tuple[Arc, ...]], Pattern] = {}
    for order in range(1, max_order + 1):
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
    order = int(lines[0])
    arcs = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed arc line {ln!r}")
        arcs.add((int(parts[0]), int(parts[1])))
    return Pattern(order, frozenset(arcs))


def format_pattern(pattern: Pattern) -> str:
    lines = [str(pattern.order)]
    lines.extend(f"{a} {b}" for a, b in sorted(pattern.arcs))
    return "\n".join(lines) + "\n"
