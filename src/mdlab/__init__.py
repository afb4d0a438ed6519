"""Monomial digraph laboratory.

Construct the digraphs D(q; m, n) over finite fields, count distinct
roots of trinomials, census small pattern subdigraphs, certify or refute
digraph isomorphisms, and run batch verification scans with
deterministic JSONL/CSV reports.
"""
from ._version import __version__
from . import caps, errors
from .field import FieldCtx, extension_field, prime_field, power_map_is_bijective
from .poly import (
    RootCount,
    distinct_root_count,
    eval_at,
    make_poly,
    nontrivial_root_count,
    poly_gcd,
    poly_powmod,
    trinomial,
)
from .digraph import MonomialDigraph, build_digraph
from .patterns import (
    FormulaCheck,
    Pattern,
    PatternCount,
    automorphism_count,
    count_looped_arc,
    count_pattern,
    format_pattern,
    looped_arc_pattern,
    parse_pattern,
    small_pattern_library,
    verify_looped_arc_formula,
)
from .iso import (
    Decision,
    Fingerprint,
    VerifyResult,
    brute_force_iso,
    certificate_from_json,
    certificate_to_json,
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
from .harness import (
    CheckRecord,
    ScanReport,
    emit_report,
    report_exit_code,
    run_conjecture_scan,
    run_exercise_scan,
    run_theorem_scan,
)

__all__ = [
    "__version__",
    "caps",
    "errors",
    "FieldCtx",
    "prime_field",
    "extension_field",
    "power_map_is_bijective",
    "RootCount",
    "make_poly",
    "eval_at",
    "trinomial",
    "poly_gcd",
    "poly_powmod",
    "distinct_root_count",
    "nontrivial_root_count",
    "MonomialDigraph",
    "build_digraph",
    "Pattern",
    "PatternCount",
    "FormulaCheck",
    "looped_arc_pattern",
    "automorphism_count",
    "count_looped_arc",
    "count_pattern",
    "verify_looped_arc_formula",
    "small_pattern_library",
    "parse_pattern",
    "format_pattern",
    "Fingerprint",
    "VerifyResult",
    "verify_iso",
    "power_map_iso",
    "find_power_map",
    "frobenius_automorphism",
    "fingerprint",
    "color_refinement",
    "brute_force_iso",
    "Decision",
    "decide_iso",
    "unit_orbit",
    "permute_digraph",
    "certificate_to_json",
    "certificate_from_json",
    "CheckRecord",
    "ScanReport",
    "run_theorem_scan",
    "run_exercise_scan",
    "run_conjecture_scan",
    "emit_report",
    "report_exit_code",
]
