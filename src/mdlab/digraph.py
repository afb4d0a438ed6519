"""Monomial digraphs on GF(q) x GF(q) with packed target rows.

The vertex (x1, x2) has index code(x1) * q + code(x2); each source
vertex's row is the immutable bytes of its ascending target indices,
packed as unsigned 16-bit ints (array type 'H'), so decoding a row is
one C-level unpack, arc tests bisect the row and whole-row comparisons
are memcmp. Every vertex of D(q; m, n) has out-degree q, so a row takes
2q bytes, 362 at q = 181. Rows are immutable bytes, and after
construction a digraph only gains cached results. The scans send their
worker processes parameters, not digraphs: once `neighbor_lists` is
built, a digraph holds memoryviews, which do not pickle.

The packed rows are the only adjacency encoding a digraph holds, and
this module alone encodes and decodes them. `neighbor_lists` gives each
out-list as a read-only view of its row and each in-list as a view of a
row of the packed transpose, for which it decodes each row once and
transposes once; converse() takes those transpose rows as its own
rows. relabeled_row() encodes the rows of a relabeled copy (for
permute_digraph), and first_relabeling_mismatch() compares them with
another digraph's rows (for verify_iso). Refinement in iso reads both
lists as int sequences, and the census reads the out-lists, the
in-lists and the loops as int bitmasks through `view`. At q = 181 the
rows of one digraph take about 13 MB, the transpose as much again and
its views about 21 MB.

A row holds one target per y1 block, in block order, and a product map
(x1, x2) -> (f1(x1), f2(x2)), such as a power or the Frobenius map, sends
every row's targets through the same block permutation y1 -> f1(y1). So
first_relabeling_mismatch() certifies such a map one x1 block of q rows
at a time, with big-int, bytes.translate and slice operations on the
packed rows, decoding only the first row. From the first block it cannot
certify, it checks each row on its own: the order that sorts the first
row's images sorts every row's under a product map, so it sorts once and
lays each later row's images out in that order, and sorts each row only
from the first row on which the order misses.
"""
from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from functools import cached_property
from operator import itemgetter
from typing import Iterator, NamedTuple

from . import caps
from .errors import CapExceeded, InvalidExponent
from .field import FieldCtx

Vertex = tuple[int, int]

# every vertex index, below q^2, fits the 16-bit packed targets
assert caps.MAX_DIGRAPH_ORDER ** 2 <= 1 << 16
# every y2, below q, fits a byte, which _product_blocks translates
assert caps.MAX_DIGRAPH_ORDER < 256


def _pack(targets) -> bytes:
    """The packed row of the ascending target indices in targets."""
    return array("H", targets).tobytes()


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
    adjacency, one packed row of ascending targets per source index.
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
        targets = memoryview(self.rows[i]).cast("H")
        k = bisect_left(targets, j)
        return k < len(targets) and targets[k] == j

    def has_arc(self, u: Vertex, v: Vertex) -> bool:
        return self.has_arc_index(self.vertex_index(u), self.vertex_index(v))

    def out_indices(self, i: int) -> list[int]:
        """Targets of source i in ascending order: its row unpacked, the
        only row decoder."""
        return memoryview(self.rows[i]).cast("H").tolist()

    def out_neighbors(self, u: Vertex) -> list[Vertex]:
        """Targets of u, ordered by vertex index; always exactly q of them."""
        return [self.vertex_at(j) for j in self.out_indices(self.vertex_index(u))]

    def arcs(self) -> Iterator[tuple[int, int]]:
        for i in range(self.order):
            for j in self.out_indices(i):
                yield (i, j)

    @cached_property
    def arc_count(self) -> int:
        return sum(map(len, self.rows)) >> 1

    # -- loops --

    @cached_property
    def loop_indices(self) -> tuple[int, ...]:
        """Loop vertex indices, ascending; one has_arc_index(i, i) each, once."""
        return tuple(i for i in range(self.order) if self.has_arc_index(i, i))

    def loop_vertices(self) -> list[Vertex]:
        """Vertices carrying loops, sorted by index; always exactly q (the
        solutions of 2*x2 = x1^(m+n)) for a built, converse or permuted digraph."""
        return [self.vertex_at(i) for i in self.loop_indices]

    @cached_property
    def neighbor_lists(self) -> tuple[tuple, tuple]:
        """(out_lists, in_lists): the targets of each source and the sources
        of each target, ascending, each a read-only view of a packed row
        that reads as a sequence of ints. An out-list views its row in rows
        and an in-list the packed transpose, for which each row is decoded
        once and the only transposition runs once; built on first use and
        kept."""
        incoming: list[list[int]] = [[] for _ in range(self.order)]
        for i in range(self.order):
            for j in self.out_indices(i):
                incoming[j].append(i)
        return (tuple(memoryview(row).cast("H") for row in self.rows),
                tuple(memoryview(_pack(sources)).cast("H") for sources in incoming))

    def in_index_lists(self) -> tuple[memoryview, ...]:
        """Sources per target index, ascending: the in-lists of
        neighbor_lists."""
        return self.neighbor_lists[1]

    @cached_property
    def view(self) -> AdjacencyView:
        """The out-lists of neighbor_lists, the in_index_lists and the
        loop_indices as int bitmasks, for the pattern census; built on first
        use and kept. The census is capped at
        q <= caps.MAX_PATTERN_HOST_ORDER, so the view is never built near
        the digraph cap."""
        out_masks, in_masks = (tuple(sum(1 << j for j in indices) for indices in lists)
                               for lists in (self.neighbor_lists[0], self.in_index_lists()))
        return AdjacencyView(out_masks, in_masks, sum(1 << i for i in self.loop_indices))

    def relabeled_row(self, u: int, mapping) -> bytes:
        """The row of mapping[u] in the copy of this digraph relabeled by
        mapping: the images under mapping of the targets of u, sorted."""
        return _pack(sorted(map(mapping.__getitem__, self.out_indices(u))))

    def first_relabeling_mismatch(self, other: "MonomialDigraph", mapping) -> int | None:
        """The first source u, in index order, whose relabeled_row differs
        from other's row of mapping[u], or None if mapping carries this
        digraph onto other; mapping must be a permutation of the indices.

        When mapping is a product map, _product_blocks certifies whole x1
        blocks of q rows at once. From the first block it cannot certify,
        each row is checked on its own: the images of the first row's
        targets fix one order, the one that sorts them, and each row's
        images are laid out in that order and compared with other's row.
        Other's row is ascending, so laid-out images equal to it are its
        targets, and a match is exact. From the first row of another width,
        or whose laid-out images differ, every row's images are sorted as
        relabeled_row sorts them, so a relabeling that is not a product map
        pays for one guess only.
        """
        rows = other.rows
        first = tuple(map(mapping.__getitem__, self.out_indices(0)))
        width = len(first)
        # lays images out in the first row's order while it fits
        layout = itemgetter(*sorted(range(width), key=first.__getitem__)) if width > 1 else None
        for u in range(self._product_blocks(other, mapping) * self.q, self.order):
            images = tuple(map(mapping.__getitem__, self.out_indices(u))) if u else first
            if layout is not None:
                if len(images) == width and _pack(layout(images)) == rows[mapping[u]]:
                    continue
                layout = None  # the order missed: sort every row from here on
            if _pack(sorted(images)) != rows[mapping[u]]:
                return u
        return None

    def _product_blocks(self, other: "MonomialDigraph", mapping) -> int:
        """How many leading x1 blocks of q rows mapping carries onto
        other's rows, each certified by a handful of C-level byte and
        big-int operations; 0 unless mapping is a product map
        (x1, x2) -> (f1[x1], f2[x2]) and every row holds q targets.

        A block's rows join into q^2 targets, row after row, the j-th of
        each in y1 block j. Less the offsets j * q, the joined targets give
        the y2 of every target in the low byte of its 16-bit digit; those
        bytes go through f2 by one translate, and the image row's block i
        is the source's block f1^-1(i), so q strided slice assignments
        reorder the columns. Widened and with the offsets added back, the
        block is the relabeled rows, ascending, which must equal the join
        of other's rows at mapping[lo:lo + q].
        """
        q = self.q
        f1 = [mapping[x1 * q] // q for x1 in range(q)]
        f2 = [mapping[x2] % q for x2 in range(q)]
        # f1 and f2 are read off the mapping, so it must be built from them
        if any(tuple(mapping[x1 * q:x1 * q + q]) != tuple([y1 * q + y2 for y2 in f2])
               for x1, y1 in enumerate(f1)):
            return 0
        # rows of q targets join into a block of q^2, and equal joins of
        # other's rows mean equal rows
        if set(map(len, self.rows)) | set(map(len, other.rows)) != {2 * q}:
            return 0
        size = 2 * q * q
        first_low = int(sys.byteorder == "big")  # the low byte of digit 0
        low, high = slice(first_low, None, 2), slice(1 - first_low, None, 2)
        offsets = int.from_bytes(_pack(list(range(0, q * q, q)) * q), sys.byteorder)
        zeros, digits = bytes(q * q), bytes(range(q))
        table = bytes(f2) + bytes(256 - q)  # y2 -> f2[y2], one byte each
        source = [0] * q  # source[i] = f1^-1(i), the column that image column i comes from
        for x1, y1 in enumerate(f1):
            source[y1] = x1
        wide = bytearray(size)  # the image's y2 in its low bytes; the high bytes stay 0
        rows = other.rows
        for x1 in range(q):
            lo = x1 * q
            try:
                packed = (int.from_bytes(b"".join(self.rows[lo:lo + q]), sys.byteorder)
                          - offsets).to_bytes(size, sys.byteorder)
            except OverflowError:  # negative: a borrow ran out of the top digit
                return x1
            y2 = packed[low]
            # a borrow leaves a high byte set in the digit it starts from, so
            # zero high bytes and low bytes below q mean each target lies in
            # its block j at j * q + y2
            if packed[high] != zeros or y2.translate(None, digits):
                return x1
            y2 = y2.translate(table)
            for i in range(q):
                wide[first_low + 2 * i::2 * q] = y2[source[i]::q]
            relabeled = (int.from_bytes(wide, sys.byteorder) + offsets).to_bytes(size, sys.byteorder)
            # one C-level gather of other's rows; q >= 2 indices give a tuple
            if relabeled != b"".join(itemgetter(*mapping[lo:lo + q])(rows)):
                return x1
        return q

    def converse(self) -> "MonomialDigraph":
        """Arc-reversed digraph, parameters (n, m), whose rows are the very
        bytes that this digraph's in_index_lists view."""
        return MonomialDigraph(self.ctx, self.n, self.m,
                               tuple(sources.obj for sources in self.in_index_lists()))

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
    than a q^4 filter, with one construction for both field kinds: y2 is
    read from the q x q table of c - x2, and each x1 lays out its q
    columns (one per y1, indexed by x2) as one q^2 array of packed targets
    y1 * q + y2, whose strided slices are the rows of (x1, x2). The
    offsets y1 * q are added to the whole array at once as one big int,
    whose 16-bit digits never carry since every target is below q^2.
    """
    q = ctx.q
    if q > caps.MAX_DIGRAPH_ORDER:
        raise CapExceeded(f"q = {q} exceeds digraph cap {caps.MAX_DIGRAPH_ORDER}")
    m, n = normalize_exponent(m, q), normalize_exponent(n, q)
    pm, pn = ([ctx.pow(x, e) for x in range(q)] for e in (m, n))
    columns = [_pack([ctx.sub(c, x2) for x2 in range(q)]) for c in range(q)]
    offsets = int.from_bytes(_pack([y1 * q for y1 in range(q) for _ in range(q)]), sys.byteorder)
    rows = []
    for x1 in range(q):
        block = b"".join([columns[ctx.mul(pm[x1], pn[y1])] for y1 in range(q)])
        packed = offsets + int.from_bytes(block, sys.byteorder)
        targets = memoryview(packed.to_bytes(len(block), sys.byteorder)).cast("H")
        rows.extend(targets[x2::q].tobytes() for x2 in range(q))
    return MonomialDigraph(ctx, m, n, tuple(rows))
