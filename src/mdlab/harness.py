"""Batch verification scans and deterministic report emission.

Each scan produces a ScanReport: its CheckRecords in report order, and
nothing else; a scan's verdict is a record too (the conjecture scan's
`conjecture` record). Work items are independent, so the theorem and
exercise scans can fan out across a process pool (worker count from
MDL_THREADS only, default the usable CPU count). A work item returns its
records as keyed runs, each already in report order, and the parent sorts
only the runs by key, which makes reports byte-identical regardless of
schedule. Failing records never abort a scan; a root count on which two
methods disagree does, with MethodDisagreement. A theorem-scan work item
is one prime: it reads each exponent's count off one discrete-log tally,
which certifies itself by modular powers (poly.nontrivial_root_counts).
An exercise-scan item is one reciprocal pair of a field: it tallies one
degree's counts per a by exhaustive evaluation and checks them by the gcd
route, one gcd count per substitution orbit X = Y/u.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import cache
from operator import itemgetter
from typing import IO, Sequence

from . import caps
from .digraph import build_digraph
from .errors import CapExceeded, IoFailure, MethodDisagreement, WorkerPoolFailed
from .field import FieldCtx, extension_field, prime_field, _smallest_factor
from .iso import (
    EXHAUSTED,
    FOUND,
    NOT_ISOMORPHIC,
    POWER_MAP,
    certificate_to_json,
    decide_iso,
    unit_orbit,
)
from .patterns import verify_looped_arc_formula
from .poly import distinct_root_count, eval_at, nontrivial_root_counts, trinomial

PARAM_ORDER = ("p", "k", "q", "m", "n", "a", "b")


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


@dataclass
class ScanReport:
    records: list[CheckRecord]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _resolve_workers() -> int:
    """MDL_THREADS, else the CPU count; never more than the CPUs this
    process may run on."""
    env = os.environ.get("MDL_THREADS")
    if env is None:
        return _usable_cpus()
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"MDL_THREADS must be a positive integer, got {env!r}")
    return min(count, _usable_cpus())


def _run_items(worker, items: Sequence) -> ScanReport:
    """Every item's (key, records) runs, each in report order, sorted by
    key and concatenated: one item's runs need not be adjacent in report
    order (an exercise item's two sides), and a scan has a few dozen."""
    workers = _resolve_workers()
    if workers <= 1 or len(items) < 2:
        batches = map(worker, items)
    else:
        # imported here, not at module level: concurrent.futures pulls in
        # multiprocessing and logging, which a command with no pool never uses
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
                batches = list(pool.map(worker, items))
        except BrokenProcessPool as exc:
            raise WorkerPoolFailed(f"worker pool failed: {exc}") from exc
    runs = sorted((run for batch in batches for run in batch), key=itemgetter(0))
    return ScanReport([rec for _, records in runs for rec in records])


def _odd_primes_up_to(limit: int) -> list[int]:
    return [p for p in range(3, limit + 1, 2) if _smallest_factor(p) is None]


def _reciprocal_pairs(q: int) -> list[tuple[int, int]]:
    """Every (m, n) in {1..q-1}^2 with mn = 1 mod (q - 1), ordered by m:
    each unit m has exactly one such n, its inverse mod q - 1. Modulo 1
    that inverse is 0, outside the range, and its residue in range is 1."""
    r = q - 1
    return [(m, pow(m, -1, r) or r) for m in range(1, q) if math.gcd(m, r) == 1]


# --- theorem scan ---

def _theorem_worker(item: tuple[int, bool]) -> list[tuple[int, list[CheckRecord]]]:
    """One run keyed p, odd prime p's records in report order: with
    digraphs the k_formula record of each unit exponent, then the theorem
    record of each reciprocal pair (m, n) by m. Each count r is read off
    the prime's one-pass log tally, which checks every count by powers as
    it goes; with digraphs the formula checks also count their own roots."""
    p, with_digraphs = item
    ctx = prime_field(p)
    pairs = _reciprocal_pairs(p)
    tally = nontrivial_root_counts(ctx)
    formula = {e: verify_looped_arc_formula(ctx, e) for e, _ in pairs} if with_digraphs else {}
    records = []
    for e, check in formula.items():
        counted, predicted = check.pattern_count, check.predicted
        records.append(CheckRecord(
            "k_formula", {"p": p, "n": e},
            {"count_k": counted, "expected": predicted}, check.ok,
            None if check.ok else f"count {counted} != (p-1)*roots {predicted}"))
    for m, n in pairs:
        observed = {"r_m": tally[m], "r_n": tally[n]}
        ok = tally[m] == tally[n]
        if with_digraphs:
            c_m, c_n = formula[m].pattern_count, formula[n].pattern_count
            observed.update(count_k_m=c_m, count_k_n=c_n)
            ok = ok and c_m == c_n
        records.append(CheckRecord("theorem", {"p": p, "m": m, "n": n}, observed, ok,
                                   None if ok else f"observed {observed}"))
    return [(p, records)]


def run_theorem_scan(p_max: int, with_digraphs: bool = False) -> ScanReport:
    """Root-count equality for every odd prime p <= p_max and every pair
    m, n in {1..p-1} with mn = 1 mod (p-1); with_digraphs additionally
    checks the digraph pattern counts and the count formula for p <= 13.
    One work item covers a prime. Every count r comes from the prime's
    one-pass log tally (nontrivial_root_counts, once per prime and scan),
    whose discrete-log route is certified element by element by modular
    powers and orders; a disagreement raises MethodDisagreement before any
    record is written."""
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    if p_max > caps.MAX_THEOREM_PMAX:
        raise CapExceeded(f"theorem scan to p_max {p_max} exceeds cap "
                          f"p_max <= {caps.MAX_THEOREM_PMAX}")
    items = [(p, with_digraphs and p <= caps.MAX_PATTERN_HOST_ORDER)
             for p in _odd_primes_up_to(p_max)]
    return _run_items(_theorem_worker, items)


# --- exercise scan ---

def _root_count_table(ctx: FieldCtx, d: int) -> list[list[int]]:
    """table[a][b] = distinct roots of X^d + aX + b, for every a, b in the
    field, by two methods that must agree. Exhaustive evaluation is one
    pass over the field per a: X^d + aX + b vanishes at x exactly when
    X^d + aX takes the value -b there, so a tally of those values counts
    the roots for every b at once. The gcd method then counts once per
    substitution orbit: X = Y/u turns X^d + aX + b into
    u^-d (Y^d + a u^(d-1) Y + b u^d), so for every unit u the pair
    (a u^(d-1), b u^d) has the count of (a, b). Each orbit's gcd count,
    taken on its first pair in (a, b) order, must equal the tally of every
    pair of the orbit: q + gcd(d-1, q-1) + gcd(d, q-1) gcd counts in all."""
    q = ctx.q
    neg = [ctx.neg(b) for b in ctx.elements()]
    table = []
    for a in ctx.elements():
        g = trinomial(ctx, d, a, 0)
        tally = [0] * q
        for x in ctx.elements():
            tally[eval_at(ctx, g, x)] += 1
        table.append([tally[minus_b] for minus_b in neg])
    scales = [(ctx.pow(u, d - 1), ctx.pow(u, d)) for u in range(1, q)]
    checked = [bytearray(q) for _ in range(q)]
    for a0 in ctx.elements():
        for b0 in ctx.elements():
            if checked[a0][b0]:
                continue
            by_gcd = distinct_root_count(ctx, trinomial(ctx, d, a0, b0), method="gcd").distinct
            for scale_a, scale_b in scales:
                a, b = ctx.mul(a0, scale_a), ctx.mul(b0, scale_b)
                checked[a][b] = 1
                if table[a][b] != by_gcd:
                    raise MethodDisagreement(
                        f"X^{d} + {a}X + {b} over {ctx!r}: bruteforce found {table[a][b]} "
                        f"distinct roots, gcd {by_gcd} (counted on X^{d} + {a0}X + {b0}, "
                        f"its substitution orbit's first pair)")
    return table


def _exercise_worker(item: tuple[int, int, int, int]) -> list[tuple[tuple, list[CheckRecord]]]:
    """One run per side of a reciprocal pair m <= n, keyed (p, k, m, n):
    every (a, b) of (m, n) in order and, when m != n, of its mirror
    (n, m), from one root-count table per degree. b -> b^m permutes the field, so the right-hand sides of (m, n)
    are the table of degree n + 1 read at b^m, and those of (n, m) the
    table of degree m + 1 read at b^n."""
    p, k, m, n = item
    ctx = extension_field(p, k)
    q = ctx.q
    t_m = _root_count_table(ctx, m + 1)
    t_n = t_m if n == m else _root_count_table(ctx, n + 1)
    sides = [(m, n, t_m, t_n)] if m == n else [(m, n, t_m, t_n), (n, m, t_n, t_m)]
    runs = []
    for first, second, left, right in sides:
        records = []
        runs.append(((p, k, first, second), records))
        powers = [ctx.pow(b, first) for b in ctx.elements()]
        for a in ctx.elements():
            for b in ctx.elements():
                lhs = left[a][b]
                rhs = right[a][powers[b]]
                ok = lhs == rhs
                records.append(CheckRecord(
                    check="exercise",
                    params={"p": p, "k": k, "q": q, "m": first, "n": second, "a": a, "b": b},
                    observed={"r_m": lhs, "r_n": rhs},
                    passed=ok,
                    witness=None if ok else f"left {lhs} != right {rhs}",
                ))
    return runs


def run_exercise_scan(fields: Sequence[tuple[int, int]]) -> ScanReport:
    """Prime-power generalization: for each field, every reciprocal pair
    (m, n) mod (q-1) and every (a, b), the trinomials X^(m+1) + aX + b and
    X^(n+1) + aX + b^m must have equal distinct-root counts. One work
    item covers a pair and its mirror. Every count comes from exhaustive
    evaluation and is checked against a gcd count, taken once per
    substitution orbit of (a, b) (_root_count_table)."""
    # a repeated field is refused before any is built; then extension_field
    # checks p, k and the field order (the tables stay lazy), the scan q
    seen = set()
    for p, k in fields:
        if (p, k) in seen:
            raise ValueError(f"exercise field GF({p}^{k}) given more than once")
        seen.add((p, k))
    contexts = [extension_field(p, k) for p, k in fields]
    for ctx in contexts:
        if ctx.q > caps.MAX_EXERCISE_ORDER:
            raise CapExceeded(f"exercise scan over {ctx!r} exceeds cap "
                              f"q <= {caps.MAX_EXERCISE_ORDER}")
    items = [(ctx.p, ctx.k, m, n) for ctx in contexts
             for (m, n) in _reciprocal_pairs(ctx.q) if m <= n]
    return _run_items(_exercise_worker, items)


# --- conjecture scan ---

def run_conjecture_scan(ctx: FieldCtx, budget: int = caps.DEFAULT_SEARCH_BUDGET) -> ScanReport:
    """Exhaustive unit-orbit consistency check over all (q-1)^2 digraphs.

    Every decision goes through one memoized call of decide_iso, so each
    pair is decided at most once. Links come first: a digraph is linked
    if it is its orbit's representative (the least pair of the orbit) or
    its pair with the representative admits a power-map certificate.
    Then the pairs run in pair order, and each reads its orbits through
    the links. A within-orbit pair (A, B) passes exactly when A and B
    are both linked, and is decided only if it is a link itself: the
    power maps rep -> A (k_A) and rep -> B (k_B) compose to the power
    map A -> B with k = k_B / k_A mod (q - 1). A cross-orbit pair (A, B)
    reads the decision on its representatives: a refutation carries over
    to (A, B) when A and B are both linked, since A ~ rep A and B ~ rep B
    by certified maps. Otherwise (A, B) is decided on itself, so every
    found certificate is the pair's own. Cross-orbit pairs must come back
    non-isomorphic. The verdict, the report's first record, is the
    `conjecture` record: it passes, or its witness names the first
    cross-orbit isomorphic pair. Then come each first pair's records,
    undecided, refuted and isomorphic ones, each by second pair. Runs
    serially; q is capped so the whole scan is desk-scale.
    """
    q = ctx.q
    if q > caps.MAX_CONJECTURE_ORDER:
        raise CapExceeded(f"conjecture scan capped at q <= {caps.MAX_CONJECTURE_ORDER}")
    keys = [(m, n) for m in range(1, q) for n in range(1, q)]
    digraphs = {key: build_digraph(ctx, *key) for key in keys}
    rep = {key: min(unit_orbit(q, *key)) for key in keys}

    @cache
    def decide(first, second):
        return decide_iso(digraphs[first], digraphs[second], budget)

    linked = {key for key in keys if key == rep[key] or decide(rep[key], key).stage == POWER_MAP}

    records = []
    exhausted = 0
    counterexample: str | None = None
    for i, first in enumerate(keys):
        run = []
        for second in keys[i + 1:]:
            params = {"p": ctx.p, "k": ctx.k, "q": q, "m": first[0], "n": first[1]}
            observed = {"m2": second[0], "n2": second[1]}
            both_linked = linked.issuperset((first, second))
            same_orbit = rep[first] == rep[second]
            if not same_orbit:
                decision = decide(*sorted((rep[first], rep[second])))
                # only a refutation carries over, and only through certified links
                if not (decision.status == NOT_ISOMORPHIC and both_linked):
                    decision = decide(first, second)
            if same_orbit:
                # the two links compose to a power map from first to second
                observed.update(isomorphic=1, decided=1)
                ok = both_linked
                witness = None if ok else "within-orbit pair has no power-map certificate"
            elif decision.status == NOT_ISOMORPHIC:
                observed.update(isomorphic=0, decided=1)
                ok = True
                witness = None
            elif decision.status == FOUND:
                observed.update(isomorphic=1, decided=1)
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
            # by (decided, isomorphic, second pair): the order of the observed
            # items, whose names sort decided < isomorphic < m2 < n2
            run.append(((observed["decided"], observed.get("isomorphic", 0), second),
                        CheckRecord("iso", params, observed, ok, witness)))
        run.sort(key=itemgetter(0))
        records.extend(record for _, record in run)

    verdict = CheckRecord(
        check="conjecture",
        params={"p": ctx.p, "k": ctx.k, "q": q},
        observed={
            "digraph_count": len(keys),
            "class_count": len(set(rep.values())),
            "exhausted": exhausted,
        },
        passed=counterexample is None,
        witness=counterexample,
    )
    return ScanReport([verdict, *records])


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
    failures = report.failures()
    if any(r.observed.get("decided", 1) != 0 for r in failures):
        return 1
    return 3 if failures else 0
