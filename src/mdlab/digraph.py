"""Monomial digraphs on GF(q) x GF(q) with dense bitset adjacency.

The vertex (x1, x2) has index code(x1) * q + code(x2); the adjacency
matrix is stored as one little-endian bitset row (a bytes object) per
source vertex, so arc tests are single bit lookups and whole-row
comparisons are memcmp. Rows are immutable and the digraph is safe to
share across workers. This module alone encodes and decodes rows:
`neighbor_lists` decodes each row once and transposes once, and keeps the
out-lists and in-lists on the digraph; relabeled_row() encodes the rows of
a relabeled copy (for verify_iso and permute_digraph) and converse() the
in-lists. Refinement in iso reads both lists, and the census reads the
in-lists, the rows and the loops as int bitmasks through `view`. The lists take about
285 MB at q = 181, and converse() leaves them cached on its source digraph.
"""
from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Iterator, NamedTuple

from . import caps
from .errors import CapExceeded, InvalidExponent
from .field import FieldCtx

Vertex = tuple[int, int]

# the set bits of each byte value, counted back from the end of the byte:
# bit b of the byte that ends at row bit e is row bit e + (b - 8)
_BYTE_BITS_FROM_END = tuple(tuple(b - 8 for b in range(8) if (v >> b) & 1)
                            for v in range(256))
# bytes.translate table: 0 for a zero byte, 1 for any other
_NONZERO = bytes(1 if v else 0 for v in range(256))
_inc = (1).__add__


def normalize_exponent(e: int, q: int) -> int:
    """Map e >= 1 into {1, ..., q-1}; x^e = x^normalize(e) on GF(q)."""
    if e < 1:
        raise InvalidExponent(f"exponent must be >= 1, got {e}")
    return 1 + (e - 1) % (q - 1)


class AdjacencyView(NamedTuple):
    """Adjacency as int bitmasks, bit j standing for vertex index j: the
    targets of each source, the sources of each target, and the loop
    vertices."""

    out_masks: tuple[int, ...]
    in_masks: tuple[int, ...]
    loop_mask: int


class MonomialDigraph:
    """D(q; m, n): arc (x1,x2) -> (y1,y2) iff x2 + y2 = x1^m * y1^n.

    Instances come from build_digraph or converse(); rows is the finished
    adjacency, one bitset per source index.
    """

    def __init__(self, ctx: FieldCtx, m: int, n: int, rows: tuple[bytes, ...]):
        self.ctx = ctx
        self.m = m
        self.n = n
        self.rows = rows
        self.q = ctx.q
        self.order = ctx.q * ctx.q

    # -- vertex indexing --

    def vertex_index(self, v: Vertex) -> int:
        return v[0] * self.q + v[1]

    def vertex_at(self, i: int) -> Vertex:
        return divmod(i, self.q)

    def vertices(self) -> Iterator[Vertex]:
        q = self.q
        return ((x1, x2) for x1 in range(q) for x2 in range(q))

    # -- arc queries --

    def has_arc_index(self, i: int, j: int) -> bool:
        return bool(self.rows[i][j >> 3] >> (j & 7) & 1)

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        return self.has_arc_index(self.vertex_index(u), self.vertex_index(v))

    def out_indices(self, i: int) -> list[int]:
        """Targets of source i in ascending order: the set bits of its row.

        The only row decoder. The zero runs between nonzero bytes come from
        one translate/split at C speed; their lengths accumulate into the
        end of each nonzero byte, which then expands through its bit table.
        """
        row = self.rows[i]
        gaps = row.translate(_NONZERO).split(b"\x01")
        gaps.pop()  # the zero run after the last nonzero byte
        return [(end << 3) + b
                for end in accumulate(map(_inc, map(len, gaps)))
                for b in _BYTE_BITS_FROM_END[row[end - 1]]]

    def out_neighbors(self, u: Vertex) -> list[Vertex]:
        """Targets of u, ordered by vertex index; always exactly q of them."""
        return [self.vertex_at(j) for j in self.out_indices(self.vertex_index(u))]

    def arcs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.order):
            for j in self.out_indices(i):
                yield (i, j)

    @cached_property
    def arc_count(self) -> int:
        return sum(int.from_bytes(row, "little").bit_count() for row in self.rows)

    # -- loops --

    def loop_indices(self) -> list[int]:
        return [i for i in range(self.order) if self.has_arc_index(i, i)]

    def loop_vertices(self) -> list[Vertex]:
        """Vertices carrying loops, sorted by index; always exactly q."""
        return [self.vertex_at(i) for i in self.loop_indices()]

    @cached_property
    def neighbor_lists(self) -> tuple[tuple, tuple]:
        """(out_lists, in_lists): the targets of each source and the sources
        of each target, as ascending index tuples. Each row is decoded once
        and the only transposition runs once; built on first use and kept."""
        out_lists = tuple(tuple(self.out_indices(i)) for i in range(self.order))
        incoming: list[list[int]] = [[] for _ in range(self.order)]
        for i, targets in enumerate(out_lists):
            for j in targets:
                incoming[j].append(i)
        return out_lists, tuple(map(tuple, incoming))

    def in_index_lists(self) -> tuple[tuple[int, ...], ...]:
        """Sources per target index, ascending: the in-lists of
        neighbor_lists."""
        return self.neighbor_lists[1]

    @cached_property
    def view(self) -> AdjacencyView:
        """The rows, the in_index_lists and the loops (bit i of row i) as int
        bitmasks, for the pattern census; built on first use and kept. The
        census is capped at q <= caps.MAX_PATTERN_HOST_ORDER, so the view
        is never built near the dense-matrix cap."""
        out_masks = tuple(int.from_bytes(row, "little") for row in self.rows)
        return AdjacencyView(out_masks,
                             tuple(sum(1 << i for i in sources)
                                   for sources in self.in_index_lists()),
                             sum(1 << i for i, mask in enumerate(out_masks) if mask >> i & 1))

    def relabeled_row(self, u: int, mapping) -> bytes:
        """The bitset row of mapping[u] in the copy of this digraph relabeled
        by mapping: the images under mapping of the targets of u."""
        row = bytearray(len(self.rows[0]))
        for j in self.out_indices(u):
            t = mapping[j]
            row[t >> 3] |= 1 << (t & 7)
        return bytes(row)

    def converse(self) -> "MonomialDigraph":
        """Arc-reversed digraph, rows from in_index_lists, which stay cached
        on this digraph; parameters (n, m)."""
        nbytes = len(self.rows[0])
        rows = []
        for sources in self.in_index_lists():
            row = bytearray(nbytes)
            for i in sources:
                row[i >> 3] |= 1 << (i & 7)
            rows.append(bytes(row))
        return MonomialDigraph(self.ctx, self.n, self.m, tuple(rows))

    def same_arcs(self, other: "MonomialDigraph") -> bool:
        return self.order == other.order and self.rows == other.rows

    def __repr__(self) -> str:
        return f"D({self.q};{self.m},{self.n})"

    def to_dot(self) -> str:
        """DOT text, one node line per vertex and one edge line per arc,
        both sorted by index; byte-identical across runs."""
        check_dot_order(self.q)
        def label(i: int) -> str:
            x1, x2 = self.vertex_at(i)
            return f'"({x1},{x2})"'
        lines = [f'digraph "D_{self.q}_{self.m}_{self.n}" {{']
        lines.extend(f"  {label(i)};" for i in range(self.order))
        lines.extend(f"  {label(i)} -> {label(j)};" for i, j in self.arcs())
        lines.append("}")
        return "\n".join(lines) + "\n"


def check_dot_order(q: int) -> None:
    """Refuse DOT export of a digraph over GF(q) above the DOT cap."""
    if q > caps.MAX_DOT_ORDER:
        raise CapExceeded(f"DOT export capped at q <= {caps.MAX_DOT_ORDER}")


def build_digraph(ctx: FieldCtx, m: int, n: int) -> MonomialDigraph:
    """Construct D(q; m, n); exponents are normalized into {1, ..., q-1}.

    Solves y2 = x1^m * y1^n - x2 for every (x1, x2, y1) in O(q^3) rather
    than a q^4 filter. The row of (x1, 0) is one int with one target per
    q-bit block y1; each next row comes from the last by whole-int
    rotations. Stepping the code x2 to x2 + 1 takes its j lowest base-p
    digits from p - 1 to 0 and raises digit j, each by 1 mod p, so it adds
    t^0 + ... + t^j. Subtracting t^i from every target moves the runs of
    p^i bits down one run in each block of p^(i+1) bits, run 0 wrapping to
    the top: over a prime field, a one-bit rotation of every q-bit block.
    """
    q = ctx.q
    if q > caps.MAX_DIGRAPH_ORDER:
        raise CapExceeded(f"q = {q} exceeds dense-matrix cap {caps.MAX_DIGRAPH_ORDER}")
    m, n = normalize_exponent(m, q), normalize_exponent(n, q)
    p, order = ctx.p, q * q
    nbytes, ones = (order + 7) >> 3, (1 << order) - 1
    # digit i: run s = p^i, the lowest run of every (s * p)-bit block, its shift to the top
    levels = [(s, ones // ((1 << s * p) - 1) * ((1 << s) - 1), s * (p - 1))
              for s in (p**i for i in range(ctx.k))]
    # after x2, rotate at each level i whose run p^i divides x2 + 1
    steps = [[lv for lv in levels if (x2 + 1) % lv[0] == 0] for x2 in range(q)]
    pm, pn = ([ctx.pow(x, e) for x in range(q)] for e in (m, n))
    rows = []
    for x1 in range(q):
        r = sum(1 << (y1 * q + ctx.mul(pm[x1], pn[y1])) for y1 in range(q))
        for step in steps:
            rows.append(r.to_bytes(nbytes, "little"))
            for s, low_runs, wrap in step:
                low = r & low_runs
                r = ((r ^ low) >> s) | (low << wrap)
    return MonomialDigraph(ctx, m, n, tuple(rows))
