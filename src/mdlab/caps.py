"""Desk-scale size caps, shared by all modules."""
from __future__ import annotations

# Finite fields
MAX_EXTENSION_DEGREE = 6          # k in GF(p^k)
MAX_ENUMERATION_ORDER = 1 << 20   # largest q whose elements may be enumerated
MAX_PRIME = (1 << 31) - 1         # arithmetic-only prime fields up to here

# Root counting
MAX_BOTH_METHOD_ORDER = 10_000    # default cross-validation threshold
MAX_TRINOMIAL_DEGREE = 6_000      # d in X^d + aX + b over a prime field
MAX_EXTENSION_TRINOMIAL_DEGREE = 1_000  # the same over GF(p^k), k > 1

# Digraphs
MAX_DIGRAPH_ORDER = 181           # q cap for D(q; m, n): q^2 rows of q packed 16-bit targets
MAX_DOT_ORDER = 13                # q cap for DOT export

# Pattern counting
MAX_PATTERN_ORDER = 5             # vertices in a Pattern, so in any count
MAX_PATTERN_HOST_ORDER = 13       # q cap for generic pattern counting

# Verification scans
MAX_EXERCISE_ORDER = 97           # q cap for the exhaustive exercise scan
MAX_THEOREM_PMAX = 700            # largest p_max of the theorem scan

# Isomorphism search
MAX_CONJECTURE_ORDER = 13         # q cap for the exhaustive conjecture scan
DEFAULT_SEARCH_BUDGET = 10_000    # individualization-refinement expansions
