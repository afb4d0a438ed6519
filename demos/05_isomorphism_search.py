#!/usr/bin/env python3
"""Isomorphism certificates and refutations.

Three tools, cheapest first: explicit power-map certificates when the
exponent pairs sit in the same unit orbit; invariant fingerprints to
refute quickly; and budgeted individualization-refinement search to
settle the rest. The search individualizes one vertex in each digraph
with the same fresh color and refines both jointly on the kernel that
computes the fingerprints' refinement colors, so an expansion is one
joint refinement. decide_iso stages them in that order.
"""
from collections import Counter
from itertools import combinations

from mdlab import (
    brute_force_iso,
    build_digraph,
    certificate_to_json,
    decide_iso,
    find_power_map,
    fingerprint,
    prime_field,
    unit_orbit,
    verify_iso,
)

ctx = prime_field(5)

# D(5;1,2) and D(5;3,2): (1,2) and (3,2) share the unit orbit mod 4,
# so the map (x, y) -> (x^k, y) is an isomorphism for a suitable unit k.
print("unit orbit of (1,2) for q=5:", sorted(unit_orbit(5, 1, 2)))
D1, D2 = build_digraph(ctx, 1, 2), build_digraph(ctx, 3, 2)
k, cert = find_power_map(D1, D2)
print(f"power map k={k} certifies D(5;1,2) ~ D(5;3,2)")
print("  exhaustive re-check:", verify_iso(D1, D2, cert).ok)
print("  certificate:", certificate_to_json(cert))

# D(3;1,2) vs D(3;2,1): converses of each other, yet NOT isomorphic.
A, B = build_digraph(prime_field(3), 1, 2), build_digraph(prime_field(3), 2, 1)
fa, fb = fingerprint(A), fingerprint(B)
print("\nD(3;1,2) vs D(3;2,1):")
print("  loops:", len(A.loop_indices), "vs", len(B.loop_indices), "(always q)")
print("  2-cycles:", fa.two_cycle_count, "vs", fb.two_cycle_count)
print("  pattern censuses equal:", fa.pattern_counts == fb.pattern_counts)
outcome = brute_force_iso(A, B)
print("  search verdict:", outcome.status, f"({outcome.expansions} expansions)")

# The identity map fails loudly, with the first offending pair.
result = verify_iso(A, B, tuple(range(9)))
print("  identity map violation at:", result.witness)

# Exhaustive classification of all 16 digraphs over GF(5).
digs = {(m, n): build_digraph(ctx, m, n) for m in range(1, 5) for n in range(1, 5)}
classes: list[list[tuple[int, int]]] = []
for key in sorted(digs):
    for cls in classes:
        if brute_force_iso(digs[cls[0]], digs[key]).status == "found":
            cls.append(key)
            break
    else:
        classes.append([key])
print(f"\nGF(5): {len(digs)} digraphs fall into {len(classes)} isomorphism classes:")
for cls in classes:
    print("  ", cls)

# decide_iso settles each pair at the cheapest stage that can, and
# computes each digraph's invariants and census at most once across all
# 120 pairs (a cache it shares with brute_force_iso only: the public
# fingerprint() runs the census afresh on every call).
stages = Counter(decide_iso(digs[a], digs[b]).stage
                 for a, b in combinations(sorted(digs), 2))
print("\nGF(5) pairs per deciding stage:", dict(sorted(stages.items())))
