#!/usr/bin/env python3
"""Distinct-root counting of trinomials, two independent ways.

The headline phenomenon: whenever m * n = 1 mod (p-1), the trinomials
X^(m+1) - 2X + 1 and X^(n+1) - 2X + 1 have the same number of distinct
roots over GF(p), even though the root sets themselves differ.
"""
import time

from mdlab import (distinct_root_count, nontrivial_root_count, nontrivial_root_counts,
                   prime_field, trinomial)

ctx = prime_field(11)

# m = 3 and n = 7 are reciprocal mod 10.
quartic = trinomial(ctx, 4, -2, 1)   # X^4 - 2X + 1
octic = trinomial(ctx, 8, -2, 1)     # X^8 - 2X + 1
r4 = distinct_root_count(ctx, quartic)
r8 = distinct_root_count(ctx, octic)
print("GF(11):")
print("  X^4 - 2X + 1 roots:", r4.roots, " -> distinct:", r4.distinct)
print("  X^8 - 2X + 1 roots:", r8.roots, " -> distinct:", r8.distinct)
print("  same count, different sets")

# The counts excluding the ever-present root 1, for every reciprocal pair:
# one trinomial at a time, and from one discrete-log tally of GF(31) that
# counts every exponent n in a single pass over the field.
print("\nreciprocal pairs over GF(31) and their nontrivial root counts:")
ctx31 = prime_field(31)
tally = nontrivial_root_counts(ctx31)
for m in range(1, 31):
    for n in range(m, 31):
        if (m * n) % 30 == 1:
            rm = nontrivial_root_count(ctx31, m)
            rn = nontrivial_root_count(ctx31, n)
            marker = "ok" if rm == rn else "MISMATCH"
            print(f"  (m,n)=({m:2d},{n:2d}): {rm} vs {rn}  {marker}"
                  f"   tally: {tally[m]} vs {tally[n]}")

# Two counting routes: exhaustive evaluation vs deg gcd(f, X^q - X).
# The gcd route never enumerates the field, so it scales to huge primes.
huge = prime_field(2147483647)
f = trinomial(huge, 12, -2, 1)
start = time.perf_counter()
count = distinct_root_count(huge, f, method="gcd").distinct
elapsed = time.perf_counter() - start
print(f"\nGF(2147483647): X^12 - 2X + 1 has {count} distinct roots "
      f"(computed in {elapsed * 1000:.1f} ms)")
