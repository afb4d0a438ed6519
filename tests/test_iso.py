"""Isomorphism tests. networkx's VF2 matcher serves as the independent
oracle for the search; certificates are double-checked by scanning all
vertex pairs directly."""
from __future__ import annotations

import gc
import random
import sys
import weakref
from array import array
from collections import Counter
from itertools import combinations
from math import gcd

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mdlab.digraph
from mdlab.digraph import MonomialDigraph, build_digraph
from mdlab.errors import CongruenceFailed, NotCoprime, SizeMismatch
from mdlab.field import extension_field, prime_field, prime_power
from mdlab.iso import (
    CENSUS,
    EXHAUSTED,
    FOUND,
    INVARIANTS,
    NOT_ISOMORPHIC,
    POWER_MAP,
    SEARCH,
    brute_force_iso,
    certificate_from_json,
    certificate_to_json,
    cheap_invariants,
    color_refinement,
    decide_iso,
    find_power_map,
    fingerprint,
    frobenius_automorphism,
    permute_digraph,
    power_map_iso,
    unit_orbit,
    verify_iso,
)


def to_networkx(D):
    G = nx.DiGraph()
    G.add_nodes_from(range(D.order))
    G.add_edges_from(D.arcs())
    return G


def nx_isomorphic(D1, D2):
    return nx.algorithms.isomorphism.DiGraphMatcher(to_networkx(D1), to_networkx(D2)).is_isomorphic()


def violation_scan(D1, D2, mapping):
    """Oracle: first pair (u, v) in index order where adjacency disagrees."""
    for u in range(D1.order):
        for v in range(D1.order):
            if D1.has_arc_index(u, v) != D2.has_arc_index(mapping[u], mapping[v]):
                return (D1.vertex_at(u), D1.vertex_at(v))
    return None


def from_target_lists(ctx, lists):
    """A hand-made digraph on ctx.q^2 vertices whose row i packs the
    ascending lists[i]."""
    return MonomialDigraph(ctx, 1, 1, tuple(array("H", t).tobytes() for t in lists))


@st.composite
def relabeling_cases(draw):
    """(D1, D2, mapping): D1 hand-made (rows of any width, empty ones
    too), built, a converse or a permuted copy; mapping a random
    permutation or a product map (x1, x2) -> (f1[x1], f2[x2]), whose
    images the first row's order lays out ascending on every row of q
    targets; D2 the copy of D1 relabeled by mapping, or another digraph;
    and, in some cases, two images of mapping swapped afterwards."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    ctx = extension_field(2, 2) if q == 4 else prime_field(q)
    order = q * q
    kind = draw(st.sampled_from(["hand-made", "built", "converse", "permuted"]))
    if kind == "hand-made":
        sets = draw(st.lists(st.sets(st.integers(0, order - 1)),
                             min_size=order, max_size=order))
        D1 = from_target_lists(ctx, [sorted(t) for t in sets])
    else:
        D1 = build_digraph(ctx, draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1)))
        if kind == "converse":
            D1 = D1.converse()
        elif kind == "permuted":
            D1 = permute_digraph(D1, draw(st.permutations(range(order))))
    if draw(st.booleans()):
        mapping = list(draw(st.permutations(range(order))))
    else:
        f1, f2 = draw(st.permutations(range(q))), draw(st.permutations(range(q)))
        mapping = [y1 * q + y2 for y1 in f1 for y2 in f2]
    if draw(st.booleans()):
        D2 = permute_digraph(D1, mapping)
    else:
        D2 = build_digraph(ctx, draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1)))
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, order - 1), min_size=2, max_size=2, unique=True))
        mapping[a], mapping[b] = mapping[b], mapping[a]
    return D1, D2, tuple(mapping)


@st.composite
def product_map_cases(draw):
    """(D1, D2, mapping): mapping a product map (x1, x2) -> (f1[x1], f2[x2])
    with random f1 and f2, a power map (f1 = x^k, f2 the identity) or the
    Frobenius map (f1 = f2 = x^p); D1 a built digraph or a permuted copy of
    one, whose rows lose the block structure; D2 the copy of D1 relabeled
    by mapping, that copy with two rows of one block swapped, or another
    built digraph; and, in some cases, two images of mapping inside one
    random x1 block swapped afterwards."""
    q = draw(st.sampled_from([4, 5, 7, 8, 9, 25]))
    ctx = extension_field(*prime_power(q))
    order = q * q
    D1 = build_digraph(ctx, draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1)))
    kind = draw(st.sampled_from(["random", "power", "frobenius"]))
    if kind == "random":
        f1, f2 = draw(st.permutations(range(q))), draw(st.permutations(range(q)))
    elif kind == "power":
        k = draw(st.sampled_from([k for k in range(1, q) if gcd(k, q - 1) == 1]))
        f1, f2 = [ctx.pow(x, k) for x in range(q)], range(q)
    else:
        f1 = f2 = [ctx.pow(x, ctx.p) for x in range(q)]
    mapping = [y1 * q + y2 for y1 in f1 for y2 in f2]
    if draw(st.booleans()):
        D1 = permute_digraph(D1, draw(st.permutations(range(order))))
    target = draw(st.sampled_from(["copy", "swapped rows", "built"]))
    if target == "built":
        D2 = build_digraph(ctx, draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1)))
    else:
        D2 = permute_digraph(D1, mapping)
        if target == "swapped rows":
            lo = draw(st.integers(0, q - 1)) * q
            a, b = draw(st.lists(st.integers(lo, lo + q - 1), min_size=2, max_size=2, unique=True))
            rows = list(D2.rows)
            rows[a], rows[b] = rows[b], rows[a]
            D2 = MonomialDigraph(ctx, D2.m, D2.n, tuple(rows))
    if draw(st.booleans()):
        lo = draw(st.integers(0, q - 1)) * q
        a, b = draw(st.lists(st.integers(lo, lo + q - 1), min_size=2, max_size=2, unique=True))
        mapping[a], mapping[b] = mapping[b], mapping[a]
    return D1, D2, tuple(mapping)


def generator(ctx):
    """The smallest code of order q - 1 in GF(q)'s unit group."""
    q = ctx.q
    return next(a for a in range(1, q) if len({ctx.pow(a, e) for e in range(1, q)}) == q - 1)


class TestVerify:
    def test_identity_on_self(self):
        D = build_digraph(prime_field(5), 1, 2)
        assert verify_iso(D, D, tuple(range(D.order))).ok

    def test_power_map_example(self):
        ctx = prime_field(11)
        D1 = build_digraph(ctx, 1, 3)
        D2 = build_digraph(ctx, 7, 1)
        mapping = [0] * D1.order
        for x in range(11):
            for y in range(11):
                mapping[x * 11 + y] = pow(x, 3, 11) * 11 + y
        assert verify_iso(D1, D2, tuple(mapping)).ok

    def test_identity_fails_with_first_violation(self):
        D1 = build_digraph(prime_field(3), 1, 2)
        D2 = build_digraph(prime_field(3), 2, 1)
        ident = tuple(range(9))
        result = verify_iso(D1, D2, ident)
        assert not result.ok
        # independent scan confirms both that it is a violation and that
        # it is the first one in index order
        assert result.witness == violation_scan(D1, D2, ident) == ((1, 0), (2, 1))

    def test_broken_power_map_reports_first_violation(self):
        ctx = prime_field(11)
        D1 = build_digraph(ctx, 1, 3)
        D2 = build_digraph(ctx, 7, 1)
        cert = power_map_iso(D1, D2, 3)
        rng = random.Random(11)
        failures = 0
        for a, b in [(0, 1), (5, 60), (119, 120)] + [
                tuple(rng.sample(range(D1.order), 2)) for _ in range(5)]:
            broken = list(cert)
            broken[a], broken[b] = broken[b], broken[a]
            result = verify_iso(D1, D2, tuple(broken))
            assert result.witness == violation_scan(D1, D2, broken)
            assert result.ok == (result.witness is None)
            failures += not result.ok
        assert failures

    def test_broken_power_map_at_cap(self):
        # two swapped images of the q = 181 power map k = 7: the scan
        # reaches source 5, the first whose row moves, after 6 * 181^2 pairs
        ctx = prime_field(181)
        D1, D2 = build_digraph(ctx, 7, 49), build_digraph(ctx, 1, 7)
        broken = list(power_map_iso(D1, D2, 7))
        broken[5], broken[20000] = broken[20000], broken[5]
        result = verify_iso(D1, D2, tuple(broken))
        assert not result.ok
        assert result.witness == violation_scan(D1, D2, broken)
        assert result.witness[0] == (0, 5)

    @settings(max_examples=300, deadline=None)
    @given(relabeling_cases())
    def test_first_witness_on_any_rows(self, case):
        D1, D2, mapping = case
        result = verify_iso(D1, D2, mapping)
        assert result.witness == violation_scan(D1, D2, mapping)
        assert result.ok == (result.witness is None)

    @staticmethod
    def count_sorts(monkeypatch):
        """Calls of sorted made from mdlab.digraph from now on."""
        calls = []
        def counted(*args, **kwargs):
            calls.append(args)
            return sorted(*args, **kwargs)
        monkeypatch.setattr(mdlab.digraph, "sorted", counted, raising=False)
        return calls

    def test_power_map_sorts_one_row(self, monkeypatch):
        # D(31;7,19) -> D(31;1,7) by the k = 7 power map: every one of the
        # 961 rows is laid out in the first row's order; sorting each row
        # took 961 sorts
        ctx = prime_field(31)
        D1, D2 = build_digraph(ctx, 7, 19), build_digraph(ctx, 1, 7)
        cert = power_map_iso(D1, D2, 7)
        perm = list(range(D1.order))
        random.Random(31).shuffle(perm)
        P = permute_digraph(D1, perm)
        sorts = self.count_sorts(monkeypatch)
        assert verify_iso(D1, D2, cert).ok
        assert len(sorts) <= 1
        # a relabeling that is not a product map: the order misses at once
        # and every row is sorted
        assert verify_iso(D1, P, perm).ok

    def test_broken_power_map_in_last_block(self, monkeypatch):
        # two swapped images inside the last x1 block keep the block order,
        # so the first row's order fits every row up to the first whose
        # targets hold a swapped vertex, (0, 14) with target (30, 17); that
        # row alone is sorted again
        ctx = prime_field(31)
        D1, D2 = build_digraph(ctx, 7, 19), build_digraph(ctx, 1, 7)
        broken = list(power_map_iso(D1, D2, 7))
        a, b = 30 * 31 + 2, 30 * 31 + 17
        broken[a], broken[b] = broken[b], broken[a]
        sorts = self.count_sorts(monkeypatch)
        result = verify_iso(D1, D2, tuple(broken))
        assert len(sorts) <= 2
        assert not result.ok
        assert result.witness == violation_scan(D1, D2, broken) == ((0, 14), (30, 2))

    @settings(max_examples=80, deadline=None)
    @given(product_map_cases())
    def test_first_witness_under_product_maps(self, case):
        D1, D2, mapping = case
        result = verify_iso(D1, D2, mapping)
        assert result.witness == violation_scan(D1, D2, mapping)
        assert result.ok == (result.witness is None)

    @staticmethod
    def count_decodes(monkeypatch):
        """Rows decoded by MonomialDigraph.out_indices from now on."""
        calls = []
        out_indices = MonomialDigraph.out_indices
        def counted(self, i):
            calls.append(i)
            return out_indices(self, i)
        monkeypatch.setattr(MonomialDigraph, "out_indices", counted)
        return calls

    def test_power_map_at_cap_decodes_one_row(self, monkeypatch):
        # D(181;7,49) -> D(181;1,7) by the k = 7 power map: whole x1 blocks
        # are certified from the packed rows, and only the first row, which
        # fixes the per-row order, is decoded; decoding every row took
        # 32,761 calls
        ctx = prime_field(181)
        D1, D2 = build_digraph(ctx, 7, 49), build_digraph(ctx, 1, 7)
        cert = tuple(y1 * 181 + y2 for y1 in (ctx.pow(x, 7) for x in range(181))
                     for y2 in range(181))
        decodes = self.count_decodes(monkeypatch)
        assert verify_iso(D1, D2, cert).ok
        assert decodes == [0]

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (11, 1)])
    def test_product_maps_decode_one_row(self, monkeypatch, p, k):
        # the Frobenius map and a random product map, whose f2 moves y2
        ctx = extension_field(p, k)
        q = ctx.q
        D = build_digraph(ctx, 1, 2)
        rng = random.Random(q)
        f1, f2 = rng.sample(range(q), q), rng.sample(range(q), q)
        shuffled = tuple(y1 * q + y2 for y1 in f1 for y2 in f2)
        P = permute_digraph(D, shuffled)
        frob = frobenius_automorphism(D)
        decodes = self.count_decodes(monkeypatch)
        assert verify_iso(D, D, frob).ok
        assert verify_iso(D, P, shuffled).ok
        assert decodes == [0, 0]

    def test_target_outside_its_block_is_not_certified(self):
        # row 0 of D(5;1,1) with its block-0 target 0 moved to 7, in block 1:
        # less the offsets it reads 5 at block 0, a y2 of 5 that f2 = id
        # must not map; taken as a y2 it would relabel to target 0, which is
        # row 0 of the other digraph
        ctx = prime_field(5)
        rows = list(build_digraph(ctx, 1, 1).rows)
        assert rows[0] == array("H", [0, 5, 10, 15, 20]).tobytes()
        D1 = MonomialDigraph(ctx, 1, 1, (array("H", [5, 7, 10, 15, 20]).tobytes(), *rows[1:]))
        D2 = MonomialDigraph(ctx, 1, 1, (array("H", [0, 7, 10, 15, 20]).tobytes(), *rows[1:]))
        ident = tuple(range(25))
        result = verify_iso(D1, D2, ident)
        assert not result.ok
        assert result.witness == violation_scan(D1, D2, ident) == ((0, 0), (0, 0))

    @pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2)])
    def test_scaling_map_is_an_automorphism(self, p, k):
        # (x1, x2) -> (a x1, a^(m+n) x2) scales both sides of
        # x2 + y2 = x1^m y1^n by a^(m+n), so it carries D(q; m, n) onto
        # itself; a relabeled copy keeps m and n but not this automorphism
        ctx = extension_field(p, k)
        q = ctx.q
        a = generator(ctx)
        rng = random.Random(q)
        for m, n in ((1, 1), (1, 2), (2, q - 2), (q - 1, 3)):
            D = build_digraph(ctx, m, n)
            c = ctx.pow(a, D.m + D.n)
            scaling = tuple(ctx.mul(a, x1) * q + ctx.mul(c, x2)
                            for x1 in range(q) for x2 in range(q))
            assert verify_iso(D, D, scaling).ok
            perm = list(range(D.order))
            rng.shuffle(perm)
            P = permute_digraph(D, perm)
            result = verify_iso(P, P, scaling)
            assert not result.ok
            assert result.witness == violation_scan(P, P, scaling)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            verify_iso(build_digraph(prime_field(3), 1, 1),
                       build_digraph(prime_field(5), 1, 1),
                       tuple(range(9)))

    def test_rejects_non_permutation(self):
        D = build_digraph(prime_field(3), 1, 2)
        with pytest.raises(ValueError):
            verify_iso(D, D, (0,) * 9)

    @pytest.mark.parametrize("p,k", [(3, 1), (2, 2), (7, 1)])
    def test_permute_digraph_relabels_every_arc(self, p, k):
        ctx = extension_field(p, k)
        D = build_digraph(ctx, 1, 2)
        rng = random.Random(p * 10 + k)
        for _ in range(3):
            perm = list(range(D.order))
            rng.shuffle(perm)
            P = permute_digraph(D, perm)
            assert set(P.arcs()) == {(perm[u], perm[v]) for u, v in D.arcs()}
            assert verify_iso(D, P, perm).ok


class TestPowerMap:
    def test_proof_mapping(self):
        ctx = prime_field(11)
        cert = power_map_iso(build_digraph(ctx, 1, 3), build_digraph(ctx, 7, 1), 3)
        assert cert[0] == 0
        # (2, 5) -> (2^3, 5) = (8, 5)
        assert cert[2 * 11 + 5] == 8 * 11 + 5

    def test_identity_certificate(self):
        D = build_digraph(prime_field(7), 2, 3)
        assert power_map_iso(D, D, 1) == tuple(range(D.order))

    def test_gf5_pair(self):
        ctx = prime_field(5)
        cert = power_map_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 3, 2), 3)
        assert verify_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 3, 2), cert).ok

    def test_not_coprime(self):
        ctx = prime_field(5)
        with pytest.raises(NotCoprime):
            power_map_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 1, 2), 2)

    def test_congruence_failure_carries_detail(self):
        ctx = prime_field(5)
        with pytest.raises(CongruenceFailed) as ei:
            power_map_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 1, 1), 1)
        assert ei.value.modulus == 4

    def test_find_power_map(self):
        ctx = prime_field(11)
        found = find_power_map(build_digraph(ctx, 1, 3), build_digraph(ctx, 7, 1))
        assert found is not None and found[0] == 3
        assert find_power_map(build_digraph(ctx, 1, 3), build_digraph(ctx, 1, 5)) is None

    def test_frobenius_nontrivial_on_extension_field(self):
        D = build_digraph(extension_field(3, 2), 1, 2)
        cert = frobenius_automorphism(D)
        assert verify_iso(D, D, cert).ok
        assert cert != tuple(range(D.order))

    def test_frobenius_identity_on_prime_field(self):
        D = build_digraph(prime_field(7), 1, 2)
        assert frobenius_automorphism(D) == tuple(range(D.order))

    @staticmethod
    def powers(ctx, e):
        """x^e for every code x, by repeated multiplication."""
        out = []
        for x in range(ctx.q):
            y = 1
            for _ in range(e):
                y = ctx.mul(y, x)
            out.append(y)
        return out

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (11, 1)])
    def test_power_map_is_the_explicit_formula(self, p, k):
        ctx = extension_field(p, k)
        q = ctx.q
        r = q - 1
        for e in (e for e in range(1, r + 1) if gcd(e, r) == 1):
            xe = self.powers(ctx, e)
            for m2, n2 in ((1, 2), (2, r)):
                D1 = build_digraph(ctx, e * m2, e * n2)
                D2 = build_digraph(ctx, m2, n2)
                assert power_map_iso(D1, D2, e) == tuple(
                    xe[x1] * q + x2 for x1 in range(q) for x2 in range(q))

    @pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (11, 1)])
    def test_frobenius_is_the_explicit_formula(self, p, k):
        ctx = extension_field(p, k)
        q = ctx.q
        xp = self.powers(ctx, p)
        assert frobenius_automorphism(build_digraph(ctx, 1, 2)) == tuple(
            xp[x1] * q + xp[x2] for x1 in range(q) for x2 in range(q))


class TestFingerprint:
    def test_loop_count(self):
        # the fingerprint keeps no loop count of its own: the census's
        # one-vertex loop pattern counts the loops below the census cap
        from mdlab.patterns import Pattern, small_pattern_library
        D = build_digraph(prime_field(3), 1, 2)
        fp = fingerprint(D)
        loop = small_pattern_library().index(Pattern(1, frozenset({(0, 0)})))
        assert len(D.loop_indices) == 3
        assert fp.pattern_counts[loop] == 3
        assert not hasattr(fp, "loop_count")

    def test_relabel_invariance(self):
        D = build_digraph(prime_field(3), 1, 2)
        rng = random.Random(11)
        perm = list(range(D.order))
        rng.shuffle(perm)
        assert fingerprint(D) == fingerprint(permute_digraph(D, perm))

    def test_converse_pair_differs_in_pattern_counts(self):
        D1, D2 = build_digraph(prime_field(3), 1, 2), build_digraph(prime_field(3), 2, 1)
        f1, f2 = fingerprint(D1), fingerprint(D2)
        assert len(D1.loop_indices) == len(D2.loop_indices) == 3
        assert f1.two_cycle_count == f2.two_cycle_count
        assert f1.pattern_counts != f2.pattern_counts

    def test_power_map_pairs_share_fingerprints(self):
        ctx = prime_field(5)
        assert fingerprint(build_digraph(ctx, 1, 2)) == fingerprint(build_digraph(ctx, 3, 2))

    def test_pattern_component_flagged_off_beyond_cap(self):
        D = build_digraph(prime_field(17), 1, 2)
        assert fingerprint(D).pattern_counts is None
        assert len(D.loop_indices) == 17

    def test_refinement_histogram_is_canonical(self):
        D = build_digraph(prime_field(5), 1, 3)
        perm = list(reversed(range(D.order)))
        colors = color_refinement(D)
        colors_perm = color_refinement(permute_digraph(D, perm))
        assert sorted(colors) == sorted(colors_perm)


def reference_colors(D):
    """Oracle: 1-dimensional directed refinement of D on tuple neighbor
    lists decoded by out_indices, seeded with (loop?, out-degree,
    in-degree); each round a color id is the rank of its signature among
    the sorted signatures."""
    out_lists = [tuple(D.out_indices(i)) for i in range(D.order)]
    in_lists = [[] for _ in range(D.order)]
    for i, targets in enumerate(out_lists):
        for j in targets:
            in_lists[j].append(i)
    signatures = [(i in out_lists[i], len(out_lists[i]), len(in_lists[i]))
                  for i in range(D.order)]
    classes = 0
    while True:
        ranks = {s: c for c, s in enumerate(sorted(set(signatures)))}
        colors = [ranks[s] for s in signatures]
        if len(ranks) == classes:
            return colors
        classes = len(ranks)
        signatures = [(colors[v],
                       tuple(sorted(Counter(colors[w] for w in out_lists[v]).items())),
                       tuple(sorted(Counter(colors[w] for w in in_lists[v]).items())))
                      for v in range(D.order)]


class TestColorRefinement:
    # search certificates are read off the color ids, so the ids themselves,
    # not only their histogram, must match the oracle's
    @pytest.mark.parametrize("p,k,m,n", [(5, 1, 1, 3), (2, 3, 1, 3), (3, 2, 2, 5)])
    def test_color_ids_match_reference(self, p, k, m, n):
        D = build_digraph(extension_field(p, k), m, n)
        shuffled = list(range(D.order))
        random.Random(D.order).shuffle(shuffled)
        for G in (D, D.converse()):
            for H in (G, permute_digraph(G, shuffled)):
                assert color_refinement(H) == reference_colors(H)

    def test_color_ids_match_reference_on_hand_made_rows(self):
        # rows of every length, and loops on a set of vertices other than q
        rng = random.Random(9)
        lists = [sorted(rng.sample(range(9), rng.randrange(10))) for _ in range(9)]
        D = from_target_lists(prime_field(3), lists)
        assert len(D.loop_indices) not in (0, D.q)
        assert color_refinement(D) == reference_colors(D)


class TestBruteForce:
    def test_known_isomorphic_pair_found(self):
        ctx = prime_field(5)
        out = brute_force_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 3, 2))
        assert out.status == FOUND
        assert verify_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 3, 2),
                          out.certificate).ok

    def test_converse_pair_not_isomorphic(self):
        ctx = prime_field(3)
        out = brute_force_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 2, 1))
        assert out.status == NOT_ISOMORPHIC

    def test_self_is_found(self):
        D = build_digraph(prime_field(5), 2, 3)
        out = brute_force_iso(D, D)
        assert out.status == FOUND
        assert verify_iso(D, D, out.certificate).ok

    def test_budget_exhaustion(self):
        # a cross-orbit GF(4) pair whose refutation takes 4 expansions
        ctx = extension_field(2, 2)
        out = brute_force_iso(build_digraph(ctx, 1, 3), build_digraph(ctx, 3, 2), budget=3)
        assert out.status == EXHAUSTED
        assert out.expansions == 4  # the run stops on the first over-budget trial

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            brute_force_iso(build_digraph(prime_field(3), 1, 1),
                            build_digraph(prime_field(5), 1, 1))

    @pytest.mark.parametrize("q,pairs", [
        (3, None),   # all pairs
        (4, None),
        (5, [((1, 2), (3, 2)), ((1, 2), (2, 1)), ((1, 1), (3, 3)), ((2, 2), (2, 4))]),
        # cross-orbit pairs that tie on every invariant, the census included
        (8, [((1, 2), (1, 4)), ((1, 3), (4, 6)), ((1, 5), (3, 2)), ((1, 7), (7, 2)),
             ((2, 3), (2, 6)), ((2, 5), (3, 6)), ((2, 7), (7, 5)), ((3, 4), (6, 3)),
             ((3, 7), (7, 1)), ((4, 2), (6, 1)), ((4, 7), (7, 5)), ((5, 7), (7, 2))]),
    ])
    def test_against_networkx_oracle(self, q, pairs):
        ctx = extension_field(*{4: (2, 2), 8: (2, 3)}.get(q, (q, 1)))
        digs = {(m, n): build_digraph(ctx, m, n)
                for m in range(1, q) for n in range(1, q)}
        if pairs is None:
            pairs = list(combinations(sorted(digs), 2))
        for a, b in pairs:
            ours = brute_force_iso(digs[a], digs[b])
            assert ours.status in (FOUND, NOT_ISOMORPHIC)
            assert (ours.status == FOUND) == nx_isomorphic(digs[a], digs[b])

    def test_search_deeper_than_recursion_limit(self):
        # a same-orbit pair over GF(32): 1024 vertices, one more than the
        # interpreter's recursion limit, paired after 3 individualizations
        ctx = extension_field(2, 5)
        assert unit_orbit(32, 3, 5) == unit_orbit(32, 1, 12)
        D1, D2 = build_digraph(ctx, 3, 5), build_digraph(ctx, 1, 12)
        assert D1.order > sys.getrecursionlimit()
        out = brute_force_iso(D1, D2, 200_000)
        assert (out.status, out.stage) == (FOUND, SEARCH)
        assert out.expansions == 3
        assert verify_iso(D1, D2, out.certificate).ok

    @pytest.mark.parametrize("a,b", [((1, 2), (2, 4)), ((3, 5), (6, 3))])
    def test_gf8_same_orbit_found(self, a, b):
        ctx = extension_field(2, 3)
        assert unit_orbit(8, *a) == unit_orbit(8, *b)
        D1, D2 = build_digraph(ctx, *a), build_digraph(ctx, *b)
        out = brute_force_iso(D1, D2, 10_000)
        assert (out.status, out.stage) == (FOUND, SEARCH)
        assert verify_iso(D1, D2, out.certificate).ok

    def test_power_map_success_implies_searchable(self):
        ctx = prime_field(7)
        D1, D2 = build_digraph(ctx, 1, 5), build_digraph(ctx, 5, 1)
        assert find_power_map(D1, D2) is not None
        assert brute_force_iso(D1, D2).status == FOUND


class TestDecideIso:
    @pytest.mark.parametrize("p,k", [(2, 2), (5, 1)])
    def test_matches_full_fingerprint_chain(self, p, k):
        # reference: power map, then whole fingerprints, then search
        ctx = extension_field(p, k)
        q = ctx.q
        digs = {(m, n): build_digraph(ctx, m, n) for m in range(1, q) for n in range(1, q)}
        prints = {key: fingerprint(D) for key, D in digs.items()}
        for a, b in combinations(sorted(digs), 2):
            decision = decide_iso(digs[a], digs[b])
            if unit_orbit(q, *a) == unit_orbit(q, *b):
                assert (decision.status, decision.stage) == (FOUND, POWER_MAP)
                k_ref, cert_ref = find_power_map(digs[a], digs[b])
                assert (decision.power_k, decision.certificate) == (k_ref, cert_ref)
            elif prints[a] != prints[b]:
                assert decision.status == NOT_ISOMORPHIC
                assert decision.stage in (INVARIANTS, CENSUS)
            else:
                outcome = brute_force_iso(digs[a], digs[b])
                assert decision.stage == SEARCH
                assert (decision.status, decision.expansions) == (
                    outcome.status, outcome.expansions)

    @pytest.fixture
    def census_calls(self, monkeypatch):
        """Digraphs whose full fingerprint (and so pattern census) is computed."""
        import mdlab.iso as iso
        calls = []
        real = iso.fingerprint
        monkeypatch.setattr(iso, "fingerprint", lambda D: calls.append(D) or real(D))
        return calls

    def test_census_only_on_invariant_ties(self, census_calls):
        # D(3;1,2) and D(3;2,1) share loops and 2-cycles but not the
        # refinement histogram
        ctx = prime_field(3)
        decision = decide_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 2, 1))
        assert (decision.status, decision.stage) == (NOT_ISOMORPHIC, INVARIANTS)
        assert census_calls == []

    def test_census_computed_once_per_digraph(self, census_calls):
        # over GF(4), (1,3) ties with (3,1) and with (3,2) up to search;
        # (3,1) and (3,2) share an orbit
        ctx = extension_field(2, 2)
        digs = [build_digraph(ctx, 1, 3), build_digraph(ctx, 3, 1), build_digraph(ctx, 3, 2)]
        stages = [decide_iso(a, b).stage for a, b in combinations(digs, 2)]
        assert stages == [SEARCH, SEARCH, POWER_MAP]
        assert len(census_calls) == 3
        assert {id(D) for D in census_calls} == {id(D) for D in digs}

    def test_refinement_once_per_digraph(self, monkeypatch):
        # a conjecture scan, then a search on one of its tied pairs: every
        # stage reads each digraph's one refinement
        import mdlab.harness as harness
        import mdlab.iso as iso
        built, refined = [], []
        real_build, real_refine = harness.build_digraph, iso.color_refinement
        monkeypatch.setattr(harness, "build_digraph",
                            lambda *args: built.append(real_build(*args)) or built[-1])
        monkeypatch.setattr(iso, "color_refinement",
                            lambda D: refined.append(id(D)) or real_refine(D))
        for ctx in (extension_field(2, 2), prime_field(5)):
            harness.run_conjecture_scan(ctx)
        gf4 = {(D.m, D.n): D for D in built[:9]}
        assert decide_iso(gf4[1, 3], gf4[3, 1]).stage == SEARCH
        assert brute_force_iso(gf4[1, 3], gf4[3, 1]).status == NOT_ISOMORPHIC
        assert len(built) == 9 + 16
        counts = Counter(refined)
        assert set(counts) <= {id(D) for D in built}
        assert {id(gf4[1, 3]), id(gf4[3, 1])} <= set(counts)
        assert max(counts.values()) == 1

    def test_cached_digraph_is_collected(self):
        ctx = extension_field(2, 2)
        D1, D2 = build_digraph(ctx, 1, 3), build_digraph(ctx, 3, 1)
        assert decide_iso(D1, D2).stage == SEARCH
        ref = weakref.ref(D1)
        del D1
        gc.collect()
        assert ref() is None

    def test_root_refinement_refutes_within_budget(self):
        # the converse pair over GF(31) ties on the cheap invariants and has
        # no census; the joint refinement of both digraphs refutes it
        # before any expansion
        ctx = prime_field(31)
        decision = decide_iso(build_digraph(ctx, 1, 2), build_digraph(ctx, 2, 1), budget=10)
        assert (decision.status, decision.stage) == (NOT_ISOMORPHIC, SEARCH)

    def test_budget_exhaustion(self):
        ctx = extension_field(2, 2)
        decision = decide_iso(build_digraph(ctx, 1, 3), build_digraph(ctx, 3, 2), budget=1)
        assert (decision.status, decision.stage) == (EXHAUSTED, SEARCH)
        assert decision.certificate is None


class TestUnitOrbit:
    def test_gf5_doubleton(self):
        assert unit_orbit(5, 1, 2) == frozenset({(1, 2), (3, 2)})

    def test_gf3_singleton(self):
        assert unit_orbit(3, 1, 2) == frozenset({(1, 2)})

    def test_contains_seed(self):
        for q in (3, 4, 5, 7, 8, 9):
            for m in range(1, q):
                for n in range(1, q):
                    assert (m, n) in unit_orbit(q, m, n)

    def test_partition_matches_search(self):
        # orbits and exhaustive search agree on which digraphs coincide
        for q in (3, 4):
            ctx = extension_field(2, 2) if q == 4 else prime_field(q)
            digs = {(m, n): build_digraph(ctx, m, n)
                    for m in range(1, q) for n in range(1, q)}
            for a, b in combinations(sorted(digs), 2):
                same_orbit = unit_orbit(q, *a) == unit_orbit(q, *b)
                found = brute_force_iso(digs[a], digs[b]).status == FOUND
                assert same_orbit == found

    def test_invalid_exponent(self):
        from mdlab.errors import InvalidExponent
        with pytest.raises(InvalidExponent):
            unit_orbit(5, 0, 2)

    def test_exponents_fold_like_the_digraph(self):
        # build_digraph(GF(5), 6, 2) is D(5;2,2), so its orbit is that of (2, 2)
        assert unit_orbit(5, 6, 2) == unit_orbit(5, 2, 2)


class TestSharedInvariants:
    @pytest.mark.parametrize("p,k,m,n", [(3, 1, 1, 2), (5, 1, 2, 3), (7, 1, 1, 4),
                                         (2, 2, 1, 2), (3, 2, 2, 5)])
    def test_converse_pair_loop_and_two_cycle_counts(self, p, k, m, n):
        # two-cycles and loops are self-converse, so D(q;m,n) and D(q;n,m)
        # must agree on both even when they are not isomorphic
        ctx = extension_field(p, k)
        D1, D2 = build_digraph(ctx, m, n), build_digraph(ctx, n, m)
        assert len(D1.loop_indices) == len(D2.loop_indices) == ctx.q
        assert fingerprint(D1).two_cycle_count == fingerprint(D2).two_cycle_count

    @pytest.mark.parametrize("p,k", [(5, 1), (2, 3), (3, 2)])
    def test_two_cycles_match_arc_tests(self, p, k):
        # the count from the neighbor lists against a has_arc_index scan
        ctx = extension_field(p, k)
        D = build_digraph(ctx, 1, ctx.q - 2)
        shuffled = list(range(D.order))
        random.Random(ctx.q).shuffle(shuffled)
        for G in (D, D.converse(), permute_digraph(D, shuffled),
                  build_digraph(ctx, 2, 3), build_digraph(ctx, 3, 3)):
            by_arc_tests = sum(1 for i, j in G.arcs() if j > i and G.has_arc_index(j, i))
            assert cheap_invariants(G)[0] == by_arc_tests

    def test_certified_pair_has_equal_pattern_counts(self):
        # a verified isomorphism carries every subdigraph census with it,
        # including patterns beyond the fingerprint library
        from mdlab.patterns import Pattern, count_pattern
        ctx = prime_field(5)
        D1, D2 = build_digraph(ctx, 1, 2), build_digraph(ctx, 3, 2)
        assert find_power_map(D1, D2) is not None
        four_cycle = Pattern(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
        looped_path = Pattern(4, frozenset({(0, 0), (0, 1), (1, 2), (2, 3)}))
        for pat in (four_cycle, looped_path):
            assert count_pattern(D1, pat).subdigraphs == count_pattern(D2, pat).subdigraphs


class TestCertificateJson:
    def test_roundtrip(self):
        D = build_digraph(prime_field(3), 1, 2)
        cert = tuple(range(D.order))
        text = certificate_to_json(cert)
        assert text == "[0,1,2,3,4,5,6,7,8]"
        assert certificate_from_json(text, 9) == cert

    def test_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            certificate_from_json("[0,0,1]", 3)
        with pytest.raises(ValueError):
            certificate_from_json('{"a":1}', 3)
        with pytest.raises(ValueError):  # JSON true and false load as bools, an int subclass
            certificate_from_json("[true,false,2,3]", 4)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60).flatmap(lambda n: st.permutations(range(n))))
    def test_roundtrip_permutations(self, perm):
        cert = tuple(perm)
        assert certificate_from_json(certificate_to_json(cert), len(cert)) == cert

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-3, 40), min_size=1, max_size=30))
    def test_rejects_non_permutations(self, values):
        n = len(values)
        assume(sorted(values) != list(range(n)))
        with pytest.raises(ValueError):
            certificate_from_json(certificate_to_json(tuple(values)), n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda n: st.permutations(range(n))),
           st.integers(-5, 5).filter(bool))
    def test_rejects_wrong_length(self, perm, delta):
        with pytest.raises(SizeMismatch):
            certificate_from_json(certificate_to_json(tuple(perm)), max(0, len(perm) + delta))
