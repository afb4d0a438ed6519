"""Batch verification scans and deterministic report emission.

Each scan produces a ScanReport: an ordered list of CheckRecords plus a
per-kind summary and run metadata. Work items are independent, so the
theorem and exercise scans can fan out across a process pool (worker
count from MDL_THREADS, default the machine's CPU count); results are
buffered and sorted into lexicographic parameter order before assembly,
which makes reports byte-identical regardless of schedule. Failing
records never abort a scan.
"""
from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterable, Sequence

from . import caps
from ._version import __version__
from .digraph import build_digraph
from .errors import CapExceeded, IoFailure, WorkerPoolFailed
from .field import FieldCtx, extension_field, prime_field, _smallest_factor
from .iso import (
    EXHAUSTED,
    FOUND,
    NOT_ISOMORPHIC,
    POWER_MAP,
    InvariantMemo,
    certificate_to_json,
    decide_iso,
    unit_orbit,
)
from .patterns import count_looped_arc, verify_looped_arc_formula
from .poly import distinct_root_count, nontrivial_root_count, trinomial

PARAM_ORDER = ("p", "k", "q", "m", "n", "a", "b")

CHECK_KINDS = ("theorem", "exercise", "k_formula", "conjecture", "iso", "roots")


@dataclass(frozen=True)
class CheckRecord:
    check: str
    params: dict[str, int]
    observed: dict[str, int]
    passed: bool
    witness: str | None = None

    def __post_init__(self):
        if not self.passed and self.witness is None:
            raise ValueError("failing records must carry a witness")

    def sort_key(self):
        return (
            tuple(self.params.get(k, -1) for k in PARAM_ORDER),
            self.check,
            tuple(sorted(self.observed.items())),
        )


@dataclass
class ScanReport:
    records: list[CheckRecord]
    summary: dict[str, dict[str, int]]
    meta: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]


def _assemble(records: Iterable[CheckRecord], meta: dict) -> ScanReport:
    ordered = sorted(records, key=CheckRecord.sort_key)
    summary: dict[str, dict[str, int]] = {}
    for rec in ordered:
        slot = summary.setdefault(rec.check, {"total": 0, "passed": 0, "failed": 0})
        slot["total"] += 1
        slot["passed" if rec.passed else "failed"] += 1
    base_meta = {"tool": "mdlab", "version": __version__, "caps": caps.as_dict()}
    base_meta.update(meta)
    return ScanReport(records=ordered, summary=summary, meta=base_meta)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _resolve_workers(workers: int | None) -> int:
    """An explicit count as given; else MDL_THREADS or the CPU count,
    never more than the CPUs this process may run on."""
    if workers is not None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        return workers
    env = os.environ.get("MDL_THREADS")
    if env is not None:
        count = int(env)
        if count < 1:
            raise ValueError(f"MDL_THREADS must be a positive integer, got {env!r}")
        return min(count, _usable_cpus())
    return _usable_cpus()


def _run_items(worker, items: Sequence, workers: int) -> list[CheckRecord]:
    if workers <= 1 or len(items) < 2:
        batches = map(worker, items)
    else:
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
                chunk = max(1, len(items) // (workers * 4))
                batches = list(pool.map(worker, items, chunksize=chunk))
        except BrokenProcessPool as exc:
            raise WorkerPoolFailed(f"worker pool failed: {exc}") from exc
    out: list[CheckRecord] = []
    for batch in batches:
        out.extend(batch)
    return out


def _odd_primes_up_to(limit: int) -> list[int]:
    return [p for p in range(3, limit + 1, 2) if _smallest_factor(p) is None]


def _reciprocal_pairs(q: int) -> list[tuple[int, int]]:
    """Every (m, n) in {1..q-1}^2 with mn = 1 mod (q - 1), ordered by m:
    each unit m has exactly one such n, its inverse mod q - 1. Modulo 1
    that inverse is 0, outside the range, so q = 2 gives (1, 1) directly."""
    if q == 2:
        return [(1, 1)]
    r = q - 1
    return [(m, pow(m, -1, r)) for m in range(1, q) if math.gcd(m, r) == 1]


# --- theorem scan ---

def _theorem_worker(item: tuple[int, int, int, bool]) -> list[CheckRecord]:
    p, m, n, with_digraphs = item
    ctx = prime_field(p)
    r_m = nontrivial_root_count(ctx, m)
    r_n = nontrivial_root_count(ctx, n)
    observed = {"r_m": r_m, "r_n": r_n}
    ok = r_m == r_n
    records = []
    if with_digraphs:
        c_m = count_looped_arc(build_digraph(ctx, 1, m))
        c_n = count_looped_arc(build_digraph(ctx, 1, n))
        observed["count_k_m"] = c_m
        observed["count_k_n"] = c_n
        ok = ok and c_m == c_n
        for exponent in sorted({m, n}):
            formula = verify_looped_arc_formula(ctx, exponent)
            records.append(CheckRecord(
                check="k_formula",
                params={"p": p, "n": exponent},
                observed={"count_k": formula.pattern_count, "expected": formula.predicted},
                passed=formula.ok,
                witness=None if formula.ok else
                f"count {formula.pattern_count} != (p-1)*roots {formula.predicted}",
            ))
    records.insert(0, CheckRecord(
        check="theorem",
        params={"p": p, "m": m, "n": n},
        observed=observed,
        passed=ok,
        witness=None if ok else f"observed {observed}",
    ))
    return records


def run_theorem_scan(p_max: int, with_digraphs: bool = False,
                     workers: int | None = None) -> ScanReport:
    """Root-count equality for every odd prime p <= p_max and every pair
    m, n in {1..p-1} with mn = 1 mod (p-1); with_digraphs additionally
    checks the digraph pattern counts and the count formula for p <= 13."""
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    items = [
        (p, m, n, with_digraphs and p <= caps.MAX_PATTERN_HOST_ORDER)
        for p in _odd_primes_up_to(p_max)
        for (m, n) in _reciprocal_pairs(p)
    ]
    records = _run_items(_theorem_worker, items, _resolve_workers(workers))
    # k_formula records repeat across (m, n) and (n, m); keep one per (p, n)
    unique: dict[tuple, CheckRecord] = {}
    for rec in records:
        key = (rec.check, tuple(sorted(rec.params.items())))
        unique.setdefault(key, rec)
    return _assemble(unique.values(), {
        "scan": "theorem", "p_max": p_max, "with_digraphs": with_digraphs,
    })


# --- exercise scan ---

def _exercise_worker(item: tuple[int, int, int, int]) -> list[CheckRecord]:
    p, k, m, n = item
    ctx = extension_field(p, k)
    q = ctx.q
    records = []
    for a in ctx.elements():
        for b in ctx.elements():
            lhs = distinct_root_count(ctx, trinomial(ctx, m + 1, a, b)).distinct
            rhs = distinct_root_count(ctx, trinomial(ctx, n + 1, a, ctx.pow(b, m))).distinct
            ok = lhs == rhs
            records.append(CheckRecord(
                check="exercise",
                params={"p": p, "k": k, "q": q, "m": m, "n": n, "a": a, "b": b},
                observed={"r_m": lhs, "r_n": rhs},
                passed=ok,
                witness=None if ok else f"left {lhs} != right {rhs}",
            ))
    return records


def run_exercise_scan(fields: Sequence[tuple[int, int]],
                      workers: int | None = None) -> ScanReport:
    """Prime-power generalization: for each field, every reciprocal pair
    (m, n) mod (q-1) and every (a, b), the trinomials X^(m+1) + aX + b and
    X^(n+1) + aX + b^m must have equal distinct-root counts."""
    # every field within the cap before any work; a degree out of range is
    # left to extension_field below, and bounds p**k here
    for p, k in fields:
        if 1 <= k <= caps.MAX_EXTENSION_DEGREE and p**k > caps.MAX_EXERCISE_ORDER:
            raise CapExceeded(f"exercise scan over GF({p}^{k}) exceeds cap "
                              f"q <= {caps.MAX_EXERCISE_ORDER}")
    items = []
    for p, k in fields:
        ctx = extension_field(p, k)  # validates p, k, and the field caps
        items.extend((p, k, m, n) for (m, n) in _reciprocal_pairs(ctx.q))
    records = _run_items(_exercise_worker, items, _resolve_workers(workers))
    return _assemble(records, {
        "scan": "exercise",
        "fields": [f"{p}^{k}" for p, k in fields],
    })


# --- conjecture scan ---

def run_conjecture_scan(ctx: FieldCtx, budget: int = caps.DEFAULT_SEARCH_BUDGET) -> ScanReport:
    """Exhaustive unit-orbit consistency check over all (q-1)^2 digraphs.

    Every pair goes through decide_iso. Within-orbit pairs must admit a
    power-map certificate; cross-orbit pairs with equal fingerprints go to
    budgeted brute-force search and must come back non-isomorphic. Runs
    serially; q is capped so the whole scan is desk-scale.
    """
    q = ctx.q
    if q > caps.MAX_CONJECTURE_ORDER:
        raise CapExceeded(f"conjecture scan capped at q <= {caps.MAX_CONJECTURE_ORDER}")
    keys = [(m, n) for m in range(1, q) for n in range(1, q)]
    digraphs = {key: build_digraph(ctx, *key) for key in keys}
    orbits = {key: unit_orbit(q, *key) for key in keys}
    memo = InvariantMemo()

    records = []
    exhausted = 0
    counterexample: str | None = None
    for first, second in combinations(keys, 2):
        params = {"p": ctx.p, "k": ctx.k, "q": q, "m": first[0], "n": first[1]}
        observed = {"m2": second[0], "n2": second[1]}
        decision = decide_iso(digraphs[first], digraphs[second], budget, memo)
        if orbits[first] == orbits[second]:
            observed["isomorphic"] = 1
            observed["decided"] = 1
            ok = decision.stage == POWER_MAP
            witness = None if ok else "within-orbit pair has no power-map certificate"
        elif decision.status == NOT_ISOMORPHIC:
            observed["isomorphic"] = 0
            observed["decided"] = 1
            ok = True
            witness = None
        elif decision.status == FOUND:
            observed["isomorphic"] = 1
            observed["decided"] = 1
            ok = False
            witness = ("cross-orbit pair is isomorphic; certificate="
                       + certificate_to_json(decision.certificate))
            counterexample = counterexample or (
                f"D({q};{first[0]},{first[1]}) ~ D({q};{second[0]},{second[1]})")
        else:
            assert decision.status == EXHAUSTED
            observed["decided"] = 0
            ok = False
            witness = f"budget exhausted after {decision.expansions} expansions"
            exhausted += 1
        records.append(CheckRecord("iso", params, observed, ok, witness))

    class_count = len(set(orbits.values()))
    verdict_ok = counterexample is None
    records.append(CheckRecord(
        check="conjecture",
        params={"p": ctx.p, "k": ctx.k, "q": q},
        observed={
            "digraph_count": len(keys),
            "class_count": class_count,
            "exhausted": exhausted,
        },
        passed=verdict_ok,
        witness=counterexample,
    ))
    return _assemble(records, {
        "scan": "conjecture",
        "q": q,
        "budget": budget,
        "verdict": "CONSISTENT" if verdict_ok else "COUNTEREXAMPLE",
    })


# --- emission ---

def _record_to_json(rec: CheckRecord) -> str:
    payload: dict = {"check": rec.check}
    payload["params"] = {k: rec.params[k] for k in PARAM_ORDER if k in rec.params}
    payload["observed"] = {k: rec.observed[k] for k in sorted(rec.observed)}
    payload["pass"] = rec.passed
    if rec.witness is not None:
        payload["witness"] = rec.witness
    return json.dumps(payload, separators=(",", ":"))


def emit_report(report: ScanReport, fmt: str, destination: IO[str]) -> None:
    """Write records as JSONL (one object per line) or flat CSV; identical
    inputs yield identical bytes."""
    try:
        if fmt == "jsonl":
            for rec in report.records:
                destination.write(_record_to_json(rec) + "\n")
        elif fmt == "csv":
            observed_keys = sorted({k for rec in report.records for k in rec.observed})
            writer = csv.writer(destination, lineterminator="\n")
            writer.writerow(["check", *PARAM_ORDER, *observed_keys, "pass", "witness"])
            for rec in report.records:
                writer.writerow([
                    rec.check,
                    *[rec.params.get(k, "") for k in PARAM_ORDER],
                    *[rec.observed.get(k, "") for k in observed_keys],
                    "true" if rec.passed else "false",
                    rec.witness or "",
                ])
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    except OSError as exc:
        raise IoFailure(f"report emission failed: {exc}") from exc


def report_exit_code(report: ScanReport) -> int:
    """0 all passed; 1 genuine failures; 3 only budget-exhausted pairs."""
    decided_failures = [
        r for r in report.failures() if r.observed.get("decided", 1) != 0
    ]
    undecided = [r for r in report.failures() if r.observed.get("decided", 1) == 0]
    if decided_failures:
        return 1
    if undecided:
        return 3
    return 0
