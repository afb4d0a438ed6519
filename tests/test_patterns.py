"""Pattern counting tests. The independent oracle for the generic counter
is naive enumeration over all injective vertex maps."""
from __future__ import annotations

import random
from itertools import permutations
from math import perm

import pytest

from mdlab.digraph import build_digraph
from mdlab.errors import CapExceeded, EvenCharacteristic
from mdlab.field import extension_field, prime_field
from mdlab.iso import permute_digraph
from mdlab.patterns import (
    Pattern,
    automorphism_count,
    count_looped_arc,
    count_pattern,
    format_pattern,
    looped_arc_pattern,
    parse_pattern,
    small_pattern_library,
    verify_looped_arc_formula,
)


def injections_by_enumeration(D, pattern):
    """Oracle: try every injective map of pattern vertices into D."""
    count = 0
    for img in permutations(range(D.order), pattern.order):
        if all(D.has_arc_index(img[a], img[b]) for a, b in pattern.arcs):
            count += 1
    return count


ORACLE_FIELDS = {3: (3, 1), 4: (2, 2), 5: (5, 1)}
ORACLE_MAX_MAPS = 100_000  # injective maps the oracle may try per pattern
ORACLE_SHAPES = (
    looped_arc_pattern(),
    Pattern(2, frozenset({(0, 1), (1, 0)})),
    Pattern(3, frozenset({(0, 1), (1, 2)})),
    Pattern(3, frozenset({(0, 0), (0, 1), (1, 2)})),
    Pattern(3, frozenset()),
    Pattern(2, frozenset({(0, 0)})),
    # in-star: the center is placed first, the leaves only through in-masks
    Pattern(3, frozenset({(1, 0), (2, 0)})),
    # the looped vertex 2 is placed second, after vertex 0
    Pattern(3, frozenset({(0, 1), (1, 0), (0, 2), (2, 2)})),
    # isolated vertices next to a core
    Pattern(4, frozenset({(0, 1), (1, 2)})),
    Pattern(5, frozenset({(0, 0), (2, 1)})),
    Pattern(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})),
    Pattern(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (3, 3)})),
    Pattern(5, frozenset({(0, 1), (0, 2), (3, 0), (4, 0), (1, 2)})),
)


class TestBuiltinPattern:
    def test_shape(self):
        K = looped_arc_pattern()
        assert K.order == 2
        assert len(K.arcs) == 3
        assert automorphism_count(K) == 1

    def test_self_converse(self):
        K = looped_arc_pattern()
        assert K.converse().canonical_key() == K.canonical_key()


class TestAutomorphismCount:
    def test_two_free_vertices(self):
        assert automorphism_count(Pattern(2, frozenset())) == 2

    def test_directed_triangle(self):
        tri = Pattern(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        assert automorphism_count(tri) == 3

    def test_single_arc(self):
        assert automorphism_count(Pattern(2, frozenset({(0, 1)}))) == 1


class TestLoopedArcCount:
    def test_d312_has_none(self):
        assert count_looped_arc(build_digraph(prime_field(3), 1, 2)) == 0

    def test_gf11_values(self):
        ctx = prime_field(11)
        assert count_looped_arc(build_digraph(ctx, 1, 3)) == 20
        assert count_looped_arc(build_digraph(ctx, 1, 7)) == 20

    @pytest.mark.parametrize("p,m,n", [(3, 1, 2), (5, 2, 3), (7, 1, 4), (5, 1, 2)])
    def test_agrees_with_generic_counter(self, p, m, n):
        D = build_digraph(prime_field(p), m, n)
        assert count_looped_arc(D) == count_pattern(D, looped_arc_pattern()).subdigraphs


class TestCountPattern:
    def test_loop_vertex_pattern(self):
        D = build_digraph(prime_field(3), 1, 2)
        one_loop = Pattern(1, frozenset({(0, 0)}))
        assert count_pattern(D, one_loop).subdigraphs == 3

    def test_plain_arc_pattern(self):
        D = build_digraph(prime_field(3), 1, 2)
        arc = Pattern(2, frozenset({(0, 1)}))
        # arcs between distinct vertices: q^3 - q
        assert count_pattern(D, arc).subdigraphs == 24

    @pytest.mark.parametrize("q,m,n", [(3, 1, 2), (3, 2, 1), (5, 1, 2), (4, 1, 2)])
    def test_against_enumeration_oracle(self, q, m, n):
        # the whole library on GF(3) (order 9 leaves 7 padding bits in each
        # row's last byte) and GF(4) (an extension field), hand-picked shapes
        # everywhere; every host also relabeled, wherever the oracle is cheap
        D = build_digraph(extension_field(*ORACLE_FIELDS[q]), m, n)
        shuffled = list(range(D.order))
        random.Random(q).shuffle(shuffled)
        patterns = ORACLE_SHAPES + (small_pattern_library() if q <= 4 else ())
        for host in (D, permute_digraph(D, shuffled)):
            for pat in patterns:
                if perm(host.order, pat.order) > ORACLE_MAX_MAPS:
                    continue
                got = count_pattern(host, pat)
                assert got.injections == injections_by_enumeration(host, pat), pat
                assert got.subdigraphs * got.aut == got.injections

    def test_caps(self):
        # a pattern over the order cap cannot be made, so none reaches a count
        with pytest.raises(CapExceeded):
            Pattern(6, frozenset())
        D = build_digraph(prime_field(3), 1, 2)
        assert count_pattern(D, Pattern(5, frozenset())) == (15120, 120, 126)
        big = build_digraph(prime_field(17), 1, 1)
        with pytest.raises(CapExceeded):
            count_pattern(big, looped_arc_pattern())

    @pytest.mark.parametrize("p,m,n", [(3, 1, 2), (5, 2, 3)])
    def test_converse_duality(self, p, m, n):
        D = build_digraph(prime_field(p), m, n)
        C = D.converse()
        for pat in small_pattern_library()[:40]:
            assert (count_pattern(D, pat).subdigraphs
                    == count_pattern(C, pat.converse()).subdigraphs)


class TestFormula:
    def test_gf11_n3(self):
        check = verify_looped_arc_formula(prime_field(11), 3)
        assert check == (True, 20, 20, 2)

    def test_gf3_n2(self):
        check = verify_looped_arc_formula(prime_field(3), 2)
        assert check == (True, 0, 0, 0)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_n_one_always_zero(self, p):
        check = verify_looped_arc_formula(prime_field(p), 1)
        assert check.ok and check.pattern_count == 0 and check.predicted == 0

    def test_even_characteristic_rejected(self):
        with pytest.raises(EvenCharacteristic):
            verify_looped_arc_formula(extension_field(2, 2), 1)

    def test_formula_all_small_odd_primes(self):
        for p in (3, 5, 7, 11, 13):
            ctx = prime_field(p)
            for n in range(1, p):
                assert verify_looped_arc_formula(ctx, n).ok

    def test_odd_prime_power(self):
        assert verify_looped_arc_formula(extension_field(3, 2), 2).ok


class TestLibraryAndLiterals:
    def test_library_size(self):
        # 2 one-vertex, 10 two-vertex, 104 three-vertex digraphs up to iso
        lib = small_pattern_library()
        assert len(lib) == 116
        assert sum(1 for p in lib if p.order == 1) == 2
        assert sum(1 for p in lib if p.order == 2) == 10
        assert sum(1 for p in lib if p.order == 3) == 104
        assert len({(p.order, p.canonical_key()) for p in lib}) == 116

    def test_literal_roundtrip(self):
        K = looped_arc_pattern()
        assert parse_pattern(format_pattern(K)) == K
        text = "3\n0 1\n1 2\n"
        assert format_pattern(parse_pattern(text)) == text

    def test_literal_validation(self):
        with pytest.raises(ValueError):
            parse_pattern("")
        with pytest.raises(ValueError):
            parse_pattern("2\n0 1 2\n")
        with pytest.raises(ValueError):
            parse_pattern("2\n0 5\n")
