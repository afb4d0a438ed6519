"""Scan and report tests: frozen record fixtures, determinism across
worker counts, and independently recomputed record totals."""
from __future__ import annotations

import io
import math

import pytest

from mdlab.errors import CapExceeded
from mdlab.field import extension_field, prime_field
from mdlab.harness import (
    _reciprocal_pairs,
    emit_report,
    report_exit_code,
    run_conjecture_scan,
    run_exercise_scan,
    run_theorem_scan,
)


def jsonl_bytes(report):
    buf = io.StringIO()
    emit_report(report, "jsonl", buf)
    return buf.getvalue().encode()


def csv_bytes(report):
    buf = io.StringIO()
    emit_report(report, "csv", buf)
    return buf.getvalue().encode()


class TestTheoremScan:
    def test_pmax11_key_record(self):
        report = run_theorem_scan(11)
        recs = [r for r in report.records
                if r.params == {"p": 11, "m": 3, "n": 7}]
        assert len(recs) == 1
        assert recs[0].observed == {"r_m": 2, "r_n": 2}
        assert recs[0].passed

    def test_pmax3(self):
        # mod (p-1) = mod 2, the only reciprocal pair in {1,2}^2 is (1,1)
        report = run_theorem_scan(3)
        assert [(r.params["m"], r.params["n"]) for r in report.records] == [(1, 1)]
        # X^2 - 2X + 1 has 1 as its only root over GF(3)
        assert all(r.observed == {"r_m": 0, "r_n": 0} and r.passed for r in report.records)

    def test_record_count_matches_direct_enumeration(self):
        p_max = 23
        report = run_theorem_scan(p_max)
        primes = [p for p in range(3, p_max + 1)
                  if all(p % d for d in range(2, int(math.isqrt(p)) + 1))]
        expected = sum(
            1
            for p in primes
            for m in range(1, p)
            for n in range(1, p)
            if (m * n) % (p - 1) == 1
        )
        assert len(report.records) == expected
        assert report.all_passed

    def test_zero_failures_to_31(self):
        report = run_theorem_scan(31)
        assert report.all_passed
        assert report_exit_code(report) == 0

    def test_with_digraphs(self):
        report = run_theorem_scan(7, with_digraphs=True)
        theorem = [r for r in report.records if r.check == "theorem"]
        formula = [r for r in report.records if r.check == "k_formula"]
        assert all({"count_k_m", "count_k_n"} <= r.observed.keys() for r in theorem)
        # one k_formula record per distinct (p, exponent) reachable from a pair
        exponents = {(r.params["p"], r.params["n"]) for r in formula}
        assert len(formula) == len(exponents)
        assert report.all_passed

    def test_pmax_validation(self):
        with pytest.raises(ValueError):
            run_theorem_scan(2)


class TestExerciseScan:
    def test_gf4_counts(self):
        report = run_exercise_scan([(2, 2)])
        assert len(report.records) == 2 * 16  # pairs (1,1), (2,2); 16 (a,b) each
        assert report.all_passed
        pairs = {(r.params["m"], r.params["n"]) for r in report.records}
        assert pairs == {(1, 1), (2, 2)}

    def test_gf9_full_pass(self):
        report = run_exercise_scan([(3, 2)])
        assert report.all_passed
        assert len(report.records) == 4 * 81

    def test_multiple_fields_sorted(self):
        report = run_exercise_scan([(5, 1), (2, 2)])
        qs = [r.params["q"] for r in report.records]
        assert qs == sorted(qs)

    def test_odd_specialization_matches_theorem(self):
        # a = -2, b = 1 rows restate the prime-field theorem records
        report = run_exercise_scan([(5, 1)])
        ctx = prime_field(5)
        minus2 = ctx.element(-2)
        rows = [r for r in report.records
                if r.params["a"] == minus2 and r.params["b"] == 1]
        assert rows and all(r.passed for r in rows)


class TestConjectureScan:
    def test_gf5(self):
        report = run_conjecture_scan(prime_field(5))
        assert report.meta["verdict"] == "CONSISTENT"
        summary = [r for r in report.records if r.check == "conjecture"]
        assert len(summary) == 1
        assert summary[0].observed == {
            "digraph_count": 16, "class_count": 10, "exhausted": 0,
        }
        pair_records = [r for r in report.records if r.check == "iso"]
        assert len(pair_records) == 16 * 15 // 2
        assert report.all_passed

    def test_gf3_converse_pair_refuted(self):
        report = run_conjecture_scan(prime_field(3))
        assert report.meta["verdict"] == "CONSISTENT"
        summary = [r for r in report.records if r.check == "conjecture"][0]
        assert summary.observed["class_count"] == 4
        cross = [r for r in report.records
                 if r.check == "iso"
                 and (r.params["m"], r.params["n"]) == (1, 2)
                 and (r.observed["m2"], r.observed["n2"]) == (2, 1)]
        assert len(cross) == 1
        assert cross[0].observed["isomorphic"] == 0 and cross[0].passed

    def test_gf4(self):
        report = run_conjecture_scan(extension_field(2, 2))
        assert report.meta["verdict"] == "CONSISTENT"
        summary = [r for r in report.records if r.check == "conjecture"][0]
        assert summary.observed["class_count"] == 5
        assert report.all_passed

    def test_exhaustion_reported(self):
        # GF(4) has cross-orbit pairs with equal fingerprints, so the scan
        # really reaches the budgeted search there
        report = run_conjecture_scan(extension_field(2, 2), budget=1)
        undecided = [r for r in report.records if r.observed.get("decided") == 0]
        assert undecided
        assert report_exit_code(report) == 3
        assert all(r.witness and "budget exhausted" in r.witness for r in undecided)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            run_conjecture_scan(prime_field(11))


class TestEmission:
    def test_theorem_jsonl_fixture(self):
        report = run_theorem_scan(11)
        lines = jsonl_bytes(report).decode().splitlines()
        expected = ('{"check":"theorem","params":{"p":11,"m":3,"n":7},'
                    '"observed":{"r_m":2,"r_n":2},"pass":true}')
        assert expected in lines

    def test_empty_report_csv(self):
        report = run_exercise_scan([])
        assert csv_bytes(report) == b"check,p,k,q,m,n,a,b,pass,witness\n"
        assert jsonl_bytes(report) == b""

    def test_reruns_byte_identical(self):
        a = run_theorem_scan(13, with_digraphs=True)
        b = run_theorem_scan(13, with_digraphs=True)
        assert jsonl_bytes(a) == jsonl_bytes(b)
        assert csv_bytes(a) == csv_bytes(b)

    def test_schedule_independent(self):
        serial = run_exercise_scan([(3, 2), (5, 1)], workers=1)
        parallel = run_exercise_scan([(3, 2), (5, 1)], workers=4)
        assert jsonl_bytes(serial) == jsonl_bytes(parallel)

    def test_csv_layout(self):
        report = run_theorem_scan(5)
        rows = csv_bytes(report).decode().splitlines()
        assert rows[0] == "check,p,k,q,m,n,a,b,r_m,r_n,pass,witness"
        assert rows[1] == "theorem,3,,,1,1,,,0,0,true,"
        assert rows[-1] == "theorem,5,,,3,3,,,0,0,true,"

    def test_witness_only_on_failure(self):
        report = run_theorem_scan(11)
        lines = jsonl_bytes(report).decode()
        assert '"witness"' not in lines

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_theorem_scan(3), "yaml", io.StringIO())


class TestExitCodes:
    def test_all_pass_zero(self):
        assert report_exit_code(run_theorem_scan(7)) == 0

    def test_conjecture_consistent_zero(self):
        assert report_exit_code(run_conjecture_scan(prime_field(3))) == 0

    def test_failing_record_is_one(self):
        from mdlab.harness import CheckRecord, _assemble
        failing = CheckRecord("theorem", {"p": 5, "m": 1, "n": 1},
                              {"r_m": 0, "r_n": 1}, False, "observed mismatch")
        report = _assemble([failing], {})
        assert report_exit_code(report) == 1

    def test_failure_outranks_exhaustion(self):
        from mdlab.harness import CheckRecord, _assemble
        records = [
            CheckRecord("iso", {"p": 5, "m": 1, "n": 1},
                        {"m2": 2, "n2": 2, "decided": 0}, False, "budget exhausted"),
            CheckRecord("iso", {"p": 5, "m": 1, "n": 2},
                        {"m2": 2, "n2": 1, "decided": 1, "isomorphic": 1}, False, "bad"),
        ]
        assert report_exit_code(_assemble(records, {})) == 1


class TestWorkerConfig:
    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("MDL_THREADS", "2")
        via_env = run_exercise_scan([(3, 2)])
        monkeypatch.delenv("MDL_THREADS")
        serial = run_exercise_scan([(3, 2)], workers=1)
        assert jsonl_bytes(via_env) == jsonl_bytes(serial)

    def test_env_clamped_to_usable_cpus(self, monkeypatch):
        from mdlab.harness import _resolve_workers
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("MDL_THREADS", "100000")
        assert _resolve_workers(None) == 2
        monkeypatch.setenv("MDL_THREADS", "1")
        assert _resolve_workers(None) == 1
        monkeypatch.delenv("MDL_THREADS")
        assert _resolve_workers(None) == 2
        assert _resolve_workers(5) == 5  # an explicit count is not clamped

    def test_cpu_count_without_affinity(self, monkeypatch):
        from mdlab.harness import _resolve_workers
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("MDL_THREADS", "100000")
        assert _resolve_workers(None) == 3
        monkeypatch.delenv("MDL_THREADS")
        assert _resolve_workers(None) == 3

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MDL_THREADS", "0")
        with pytest.raises(ValueError):
            run_theorem_scan(5)
        monkeypatch.setenv("MDL_THREADS", "many")
        with pytest.raises(ValueError):
            run_theorem_scan(5)


class TestReciprocalPairs:
    def test_reciprocal_pairs_match_quadratic_definition(self):
        for q in range(2, 201):
            r = q - 1
            quadratic = [(m, n) for m in range(1, q) for n in range(1, q)
                         if (m * n) % r == 1 % r]
            assert _reciprocal_pairs(q) == quadratic, q
