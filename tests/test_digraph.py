"""Digraph construction tests: a full golden fixture for D(3;1,2) and a
brute-force arc-equation oracle for everything else."""
from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdlab.errors import CapExceeded, InvalidExponent
from mdlab.digraph import MonomialDigraph, build_digraph
from mdlab.field import extension_field, prime_field
from mdlab.iso import decide_iso, fingerprint, permute_digraph
from mdlab.patterns import count_looped_arc

# All 27 arcs of D(3;1,2), listed vertex by vertex; each entry was
# hand-checked against the arc equation x2 + y2 = x1 * y1^2 over GF(3).
D312_ARCS = {
    (1, 0): [(0, 0), (2, 1), (1, 1)],
    (0, 0): [(1, 0), (2, 0), (0, 0)],
    (2, 0): [(0, 0), (2, 2), (1, 2)],
    (2, 1): [(1, 1), (0, 2), (2, 1)],
    (1, 1): [(1, 0), (2, 0), (0, 2)],
    (2, 2): [(1, 0), (2, 0), (0, 1)],
    (1, 2): [(2, 2), (0, 1), (1, 2)],
    (0, 2): [(2, 1), (1, 1), (0, 1)],
    (0, 1): [(2, 2), (1, 2), (0, 2)],
}


def arcs_by_equation(ctx, m, n):
    """Independent oracle: filter all q^4 ordered vertex pairs."""
    arcs = set()
    for x1 in ctx.elements():
        for x2 in ctx.elements():
            for y1 in ctx.elements():
                for y2 in ctx.elements():
                    lhs = ctx.add(x2, y2)
                    rhs = ctx.mul(ctx.pow(x1, m), ctx.pow(y1, n))
                    if lhs == rhs:
                        arcs.add(((x1, x2), (y1, y2)))
    return arcs


def arc_set(D):
    return {(D.vertex_at(i), D.vertex_at(j)) for i, j in D.arcs()}


class TestGoldenFixture:
    def test_exact_arc_set(self):
        D = build_digraph(prime_field(3), 1, 2)
        expected = {(u, v) for u, outs in D312_ARCS.items() for v in outs}
        assert arc_set(D) == expected
        assert D.arc_count == 27

    def test_named_arcs(self):
        D = build_digraph(prime_field(3), 1, 2)
        assert D.has_arc((2, 2), (1, 0))
        assert not D.has_arc((1, 0), (2, 2))
        assert D.has_arc((1, 2), (1, 2))

    def test_loops(self):
        D = build_digraph(prime_field(3), 1, 2)
        assert D.loop_vertices() == [(0, 0), (1, 2), (2, 1)]

    def test_out_neighbors(self):
        D = build_digraph(prime_field(3), 1, 2)
        assert D.out_neighbors((0, 0)) == [(0, 0), (1, 0), (2, 0)]
        assert D.out_neighbors((1, 0)) == [(0, 0), (1, 1), (2, 1)]


class TestConstruction:
    def test_exponent_normalization(self):
        ctx = prime_field(3)
        assert build_digraph(ctx, 1, 4).same_arcs(build_digraph(ctx, 1, 2))
        assert build_digraph(ctx, 1, 4).n == 2
        ctx11 = prime_field(11)
        assert build_digraph(ctx11, 13, 3).same_arcs(build_digraph(ctx11, 3, 3))

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            build_digraph(prime_field(3), 1, 0)
        with pytest.raises(InvalidExponent):
            build_digraph(prime_field(3), -1, 2)

    def test_matrix_cap(self):
        with pytest.raises(CapExceeded, match=r"^q = 191 exceeds digraph cap 181$"):
            build_digraph(prime_field(191), 1, 1)

    @pytest.mark.parametrize("p,k,m,n", [(3, 1, 1, 2), (5, 1, 2, 3), (2, 2, 1, 1),
                                         (7, 1, 3, 4), (3, 2, 2, 5)])
    def test_matches_equation_oracle(self, p, k, m, n):
        ctx = extension_field(p, k)
        D = build_digraph(ctx, m, n)
        assert arc_set(D) == arcs_by_equation(ctx, m, n)


class TestRegularity:
    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (13, 1)])
    def test_degrees_arcs_loops(self, p, k):
        ctx = extension_field(p, k)
        q = ctx.q
        for m in range(1, q) if q <= 7 else [1, q - 1]:
            for n in range(1, q) if q <= 7 else [2, q - 2]:
                D = build_digraph(ctx, m, n)
                assert D.arc_count == q**3
                shuffled = list(range(D.order))
                random.Random(q * q * m + n).shuffle(shuffled)
                # the loops solve 2*x2 = x1^(m+n), so relabeling and
                # reversing the arcs keep exactly q of them
                for G in (D, D.converse(), permute_digraph(D, shuffled)):
                    assert len(G.loop_vertices()) == q
                indeg = [0] * D.order
                for i in range(D.order):
                    outs = D.out_indices(i)
                    assert len(outs) == q
                    for j in outs:
                        indeg[j] += 1
                assert all(d == q for d in indeg)


class TestConverse:
    def test_involution(self):
        D = build_digraph(prime_field(5), 1, 2)
        assert D.converse().converse().same_arcs(D)

    def test_parameter_swap_identity(self):
        ctx3 = prime_field(3)
        assert build_digraph(ctx3, 1, 2).converse().same_arcs(build_digraph(ctx3, 2, 1))
        ctx11 = prime_field(11)
        assert build_digraph(ctx11, 1, 3).converse().same_arcs(build_digraph(ctx11, 3, 1))

    def test_metadata_records_swapped_params(self):
        C = build_digraph(prime_field(5), 1, 3).converse()
        assert (C.m, C.n) == (3, 1)

    @pytest.mark.parametrize("p,k,m,n", [(3, 1, 2, 2), (5, 1, 3, 2), (2, 2, 1, 2), (7, 1, 5, 1)])
    def test_converse_equals_swapped_build(self, p, k, m, n):
        ctx = extension_field(p, k)
        assert build_digraph(ctx, m, n).converse().same_arcs(build_digraph(ctx, n, m))

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    def test_converse_commutes_with_relabeling(self, p, k):
        # a relabeled digraph's rows are not those of any build
        ctx = extension_field(p, k)
        D = build_digraph(ctx, 1, ctx.q - 2 if ctx.q > 2 else 1)
        shuffled = list(range(D.order))
        random.Random(ctx.q).shuffle(shuffled)
        assert (permute_digraph(D, shuffled).converse().rows
                == permute_digraph(D.converse(), shuffled).rows)


def row_by_equation(ctx, m, n, x1, x2):
    """Oracle row of (x1, x2): one target y1*q + y2 per y1, where
    y2 = x1^m * y1^n - x2 in the field, packed as ascending 16-bit ints."""
    q = ctx.q
    targets = [y1 * q + ctx.sub(ctx.mul(ctx.pow(x1, m), ctx.pow(y1, n)), x2)
               for y1 in range(q)]
    return array("H", targets).tobytes()


def from_target_lists(ctx, lists):
    """A digraph on ctx.q^2 vertices whose row i packs the ascending lists[i]."""
    return MonomialDigraph(ctx, 1, 1, tuple(array("H", t).tobytes() for t in lists))


def check_against_sets(D, lists):
    """Every row reader of D against the arc set {(i, j) : j in lists[i]}."""
    order = range(D.order)
    arcs = {(i, j) for i in order for j in lists[i]}
    assert [D.out_indices(i) for i in order] == [list(t) for t in lists]
    assert all(D.has_arc_index(i, j) == ((i, j) in arcs) for i in order for j in order)
    assert list(D.arcs()) == sorted(arcs)
    assert D.arc_count == len(arcs)
    C = D.converse()
    assert [C.out_indices(j) for j in order] == [sorted(i for i, t in arcs if t == j)
                                                 for j in order]
    assert C.converse().same_arcs(D)
    assert D.same_arcs(from_target_lists(D.ctx, lists))
    out_masks, in_masks, loop_mask = D.view
    assert out_masks == tuple(sum(1 << j for j in lists[i]) for i in order)
    assert in_masks == tuple(sum(1 << i for i, t in arcs if t == j) for j in order)
    assert loop_mask == sum(1 << i for i in order if (i, i) in arcs)


class TestRowDecoder:
    @pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                     (2, 2), (2, 3), (3, 2)])
    def test_matches_bit_definition(self, p, k):
        ctx = extension_field(p, k)
        q = ctx.q
        D = build_digraph(ctx, 1, q - 2 if q > 2 else 1)
        shuffled = list(range(D.order))
        random.Random(q).shuffle(shuffled)
        for G in (D, D.converse(), permute_digraph(D, shuffled)):
            for i in range(G.order):
                assert G.out_indices(i) == [j for j in range(G.order)
                                            if G.has_arc_index(i, j)]

    def test_hand_picked_rows(self):
        # GF(3): 9 vertices; an empty row, one target, the last index
        # (order - 1), every index, a loop, and degrees 0 to 9
        lists = [[], [0], [8], list(range(9)), [3], [1, 2, 7], [0, 8], [], [4, 5, 6, 8]]
        check_against_sets(from_target_lists(prime_field(3), lists), lists)

    # hand-made bit patterns: the set bits of each byte string (bit j is
    # bit j & 7 of byte j >> 3) are the targets of the first and last rows
    # of a digraph over the smallest prime field with room for every bit
    @pytest.mark.parametrize("row", [
        b"",
        bytes(2),                 # no bits: two empty rows
        b"\xff\xff",              # every bit of two bytes: 16 targets
        b"\x08",                  # one target, bit 3
        b"\x00\x01",              # one target past the first byte
        b"\x05\x00\xa0\x81",      # several bits per byte
        b"\x80" + bytes(9) + b"\x03",
    ])
    def test_hand_made_rows(self, row):
        bits = [j for j in range(8 * len(row)) if row[j >> 3] >> (j & 7) & 1]
        q = next(p for p in (2, 3, 5, 7, 11) if p * p >= 8 * len(row))
        lists = [bits] + [[] for _ in range(q * q - 2)] + [bits]
        check_against_sets(from_target_lists(prime_field(q), lists), lists)

    def test_same_arcs_tells_rows_apart(self):
        ctx = prime_field(2)
        D = from_target_lists(ctx, [[1], [], [0, 3], [2]])
        assert not D.same_arcs(from_target_lists(ctx, [[1], [], [0, 2], [2]]))
        assert not D.same_arcs(from_target_lists(ctx, [[1], [0], [0, 3], [2]]))
        assert not D.same_arcs(build_digraph(prime_field(3), 1, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 4]).flatmap(lambda q: st.tuples(
        st.just(q), st.lists(st.sets(st.integers(0, q * q - 1)),
                             min_size=q * q, max_size=q * q))))
    def test_drawn_rows(self, drawn):
        q, sets = drawn
        ctx = extension_field(2, 2) if q == 4 else prime_field(q)
        lists = [sorted(t) for t in sets]
        check_against_sets(from_target_lists(ctx, lists), lists)


class TestRotationBuild:
    # (p, k) of the extension fields checked row by row; a prime q is (q, 1)
    EXTENSIONS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3),
                  32: (2, 5)}

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                                   4, 8, 9, 16, 25, 27, 32])
    def test_rows_match_arc_equation(self, q):
        ctx = extension_field(*self.EXTENSIONS.get(q, (q, 1)))
        for m, n in {(1, 1), (2, 3), (q - 1, 1), (5, max(1, q - 2))}:
            D = build_digraph(ctx, m, n)
            assert list(D.rows) == [row_by_equation(ctx, m, n, x1, x2)
                                    for x1 in range(q) for x2 in range(q)]

    @staticmethod
    def spot_check(ctx, m, n):
        """Every 97th row against the oracle, and q^3 arcs in all."""
        q = ctx.q
        D = build_digraph(ctx, m, n)
        assert D.arc_count == q**3
        for i in range(0, D.order, 97):
            assert D.rows[i] == row_by_equation(ctx, m, n, *divmod(i, q))

    def test_spot_check_at_cap(self):
        self.spot_check(prime_field(181), 7, 49)

    # extension fields too large to check in full, up to degree six
    @pytest.mark.parametrize("p,k", [(7, 2), (2, 6), (3, 4), (11, 2), (5, 3), (13, 2)])
    def test_spot_check_extension_field(self, p, k):
        self.spot_check(extension_field(p, k), 7, 49)


class TestAdjacencyView:
    @pytest.mark.parametrize("p,k,m,n", [(3, 1, 1, 2), (2, 2, 1, 3), (5, 1, 2, 3),
                                         (7, 1, 5, 2), (3, 2, 2, 5)])
    def test_view_matches_row_scans(self, p, k, m, n):
        D = build_digraph(extension_field(p, k), m, n)
        shuffled = list(range(D.order))
        random.Random(p * 100 + m * 10 + n).shuffle(shuffled)
        for G in (D, D.converse(), permute_digraph(D, shuffled)):
            out_masks, in_masks, loop_mask = G.view
            order = range(G.order)
            assert len(out_masks) == len(in_masks) == G.order
            assert all(out_masks[i] >> G.order == in_masks[i] >> G.order == 0 for i in order)
            assert all((out_masks[i] >> j & 1) == G.has_arc_index(i, j)
                       for i in order for j in order)
            assert all((in_masks[j] >> i & 1) == (out_masks[i] >> j & 1)
                       for i in order for j in order)
            assert loop_mask == sum(1 << i for i in order if G.has_arc_index(i, i))
            # the neighbor lists refinement reads, and the in-lists the view
            # reads: views of bytes rows, the out-lists of this digraph's rows
            # and the in-lists of its converse's
            out_lists, in_lists = G.neighbor_lists
            assert G.neighbor_lists is G.neighbor_lists
            assert G.in_index_lists() is G.neighbor_lists[1]
            assert all(isinstance(view, memoryview) and type(view.obj) is bytes
                       for view in out_lists + in_lists)
            assert all(view.obj is row for view, row in zip(out_lists, G.rows))
            converse_rows = G.converse().rows
            assert all(converse_rows[j] is sources.obj for j, sources in enumerate(in_lists))
            assert [list(t) for t in out_lists] == [G.out_indices(i) for i in order]
            transpose = {(j, i) for i in order for j in G.out_indices(i)}
            assert {(j, i) for j, sources in enumerate(in_lists) for i in sources} == transpose
            assert all(list(sources) == sorted(sources) for sources in in_lists)

    def test_view_is_built_once(self):
        D = build_digraph(prime_field(5), 1, 2)
        assert D.view is D.view

    def test_rows_decoded_once(self, monkeypatch):
        # a cross-orbit pair that runs refinement, the census and the search:
        # each row is decoded once, for the neighbor lists all three read,
        # and the diagonal is scanned once, for the loop indices that the
        # refinement seed, the census's loop mask and count_looped_arc read
        decoded, diagonal = [], []
        out_indices, has_arc_index = MonomialDigraph.out_indices, MonomialDigraph.has_arc_index
        def counted(self, i):
            decoded.append(self)
            return out_indices(self, i)
        def counted_arc_test(self, i, j):
            if i == j:
                diagonal.append(self)
            return has_arc_index(self, i, j)
        monkeypatch.setattr(MonomialDigraph, "out_indices", counted)
        monkeypatch.setattr(MonomialDigraph, "has_arc_index", counted_arc_test)
        ctx = extension_field(2, 2)
        D1, D2 = build_digraph(ctx, 1, 3), build_digraph(ctx, 3, 1)
        assert decide_iso(D1, D2).stage == "search"
        fingerprint(D1)
        fingerprint(D2)
        count_looped_arc(D1)
        count_looped_arc(D2)
        assert [sum(G is D for G in decoded) for D in (D1, D2)] == [D1.order, D2.order]
        assert [sum(G is D for G in diagonal) for D in (D1, D2)] == [D1.order, D2.order]


class TestLoopVertices:
    def test_odd_q_formula(self):
        # loops solve 2*s = u^(m+n); oracle here is the formula, the
        # implementation scans the adjacency diagonal
        ctx = prime_field(11)
        D = build_digraph(ctx, 1, 3)
        half = ctx.inv(2)
        expected = sorted((u, ctx.mul(ctx.pow(u, 4), half)) for u in range(11))
        assert D.loop_vertices() == expected

    def test_even_q_zero_column(self):
        ctx = extension_field(2, 2)
        D = build_digraph(ctx, 1, 1)
        assert D.loop_vertices() == [(0, s) for s in range(4)]


class TestDotExport:
    def test_counts_and_header(self):
        D = build_digraph(prime_field(3), 1, 2)
        dot = D.to_dot()
        lines = dot.splitlines()
        assert lines[0] == 'digraph "D_3_1_2" {'
        assert lines[-1] == "}"
        assert sum(1 for l in lines if "->" in l) == 27
        assert sum(1 for l in lines if l.endswith(";") and "->" not in l) == 9

    def test_deterministic(self):
        a = build_digraph(prime_field(3), 1, 2).to_dot()
        b = build_digraph(prime_field(3), 1, 2).to_dot()
        assert a == b
        assert a.encode() == b.encode()

    def test_cap(self):
        with pytest.raises(CapExceeded):
            build_digraph(prime_field(17), 1, 1).to_dot()
