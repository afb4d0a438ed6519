#!/usr/bin/env python3
"""Batch verification scans with deterministic reports.

Each scan returns structured records; emit_report turns them into JSONL
or CSV, byte-identical across reruns and worker schedules.
"""
import io
from collections import Counter

from mdlab import (
    emit_report,
    extension_field,
    prime_field,
    run_conjecture_scan,
    run_exercise_scan,
    run_theorem_scan,
)


def pass_counts(report):
    """(check, passed) -> number of records: the per-check tally of a scan."""
    return dict(Counter((r.check, r.passed) for r in report.records))


# Reciprocal-exponent root counts for every odd prime up to 31, with the
# digraph cross-checks added where the digraphs are cheap (p <= 13).
theorem = run_theorem_scan(31, with_digraphs=True)
print("theorem scan:", pass_counts(theorem))

# The prime-power generalization, every (m, n, a, b) combination.
exercise = run_exercise_scan([(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
print("exercise scan:", pass_counts(exercise))

# Unit-orbit consistency for all digraph pairs over GF(4) and GF(5). The
# verdict is the `conjecture` record: it passes, or its witness names a
# cross-orbit isomorphic pair.
for ctx in (extension_field(2, 2), prime_field(5)):
    scan = run_conjecture_scan(ctx)
    verdict = next(r for r in scan.records if r.check == "conjecture")
    print(f"conjecture scan q={ctx.q}: "
          f"verdict={'CONSISTENT' if verdict.passed else 'COUNTEREXAMPLE'}, "
          f"observed={verdict.observed}")

# Reports are plain line-oriented text.
buf = io.StringIO()
emit_report(run_theorem_scan(11), "jsonl", buf)
print("\nfirst three JSONL records of the p<=11 theorem scan:")
for line in buf.getvalue().splitlines()[:3]:
    print(" ", line)

buf = io.StringIO()
emit_report(run_theorem_scan(11), "csv", buf)
print("\nsame scan as CSV:")
for line in buf.getvalue().splitlines()[:4]:
    print(" ", line)
