"""Desk-scale size caps, shared by all modules and echoed into report metadata."""
from __future__ import annotations

# Finite fields
MAX_EXTENSION_DEGREE = 6          # k in GF(p^k)
MAX_ENUMERATION_ORDER = 1 << 20   # largest q whose elements may be enumerated
MAX_PRIME = (1 << 31) - 1         # arithmetic-only prime fields up to here

# Root counting
MAX_BOTH_METHOD_ORDER = 10_000    # default cross-validation threshold

# Digraphs
MAX_DIGRAPH_ORDER = 181           # q cap for the dense q^2 x q^2 bit matrix
MAX_DOT_ORDER = 13                # q cap for DOT export

# Pattern counting
MAX_PATTERN_ORDER = 8             # vertices in a Pattern
MAX_COUNT_PATTERN_ORDER = 5       # vertices countable by generic backtracking
MAX_PATTERN_HOST_ORDER = 13       # q cap for generic pattern counting

# Verification scans
MAX_EXERCISE_ORDER = 32           # q cap for the exhaustive exercise scan

# Isomorphism search
MAX_CONJECTURE_ORDER = 7          # q cap for the exhaustive conjecture scan
DEFAULT_SEARCH_BUDGET = 10**8     # backtracking node expansions


def as_dict() -> dict[str, int]:
    return {
        "max_extension_degree": MAX_EXTENSION_DEGREE,
        "max_enumeration_order": MAX_ENUMERATION_ORDER,
        "max_prime": MAX_PRIME,
        "max_both_method_order": MAX_BOTH_METHOD_ORDER,
        "max_digraph_order": MAX_DIGRAPH_ORDER,
        "max_dot_order": MAX_DOT_ORDER,
        "max_pattern_order": MAX_PATTERN_ORDER,
        "max_count_pattern_order": MAX_COUNT_PATTERN_ORDER,
        "max_pattern_host_order": MAX_PATTERN_HOST_ORDER,
        "max_exercise_order": MAX_EXERCISE_ORDER,
        "max_conjecture_order": MAX_CONJECTURE_ORDER,
        "default_search_budget": DEFAULT_SEARCH_BUDGET,
    }
