"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with `pytest -s tests/test_acceptance.py` to
see the lines stream). Every criterion is exact; the stated wall-clock
bounds are asserted too."""
from __future__ import annotations

import io
import random
import time
from itertools import combinations

import pytest

from mdlab.digraph import build_digraph
from mdlab.field import extension_field, prime_field
from mdlab.harness import (
    emit_report,
    run_conjecture_scan,
    run_exercise_scan,
    run_theorem_scan,
)
from mdlab.iso import FOUND, NOT_ISOMORPHIC, brute_force_iso, power_map_iso, verify_iso
from mdlab.patterns import count_looped_arc
from mdlab.poly import distinct_root_count, nontrivial_root_count, trinomial


class _Criterion:
    def __init__(self, number: int, label: str, limit: float):
        self.number = number
        self.label = label
        self.limit = limit
        self.start = 0.0

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:2d} {verdict} ({elapsed:7.2f}s / "
              f"limit {self.limit:g}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s bound "
                f"({elapsed:.2f}s)")
        return False


def jsonl(report) -> bytes:
    buf = io.StringIO()
    emit_report(report, "jsonl", buf)
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def scan_cache():
    return {}


def theorem_scan_bytes(cache):
    if "theorem" not in cache:
        cache["theorem"] = run_theorem_scan(31, with_digraphs=True)
    return cache["theorem"]


def exercise_scan(cache):
    if "exercise" not in cache:
        cache["exercise"] = run_exercise_scan([(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
    return cache["exercise"]


def conjecture_scans(cache):
    if "conjecture" not in cache:
        cache["conjecture"] = {
            3: run_conjecture_scan(prime_field(3)),
            4: run_conjecture_scan(extension_field(2, 2)),
            5: run_conjecture_scan(prime_field(5)),
        }
    return cache["conjecture"]


GOLDEN_ARCS = {
    (1, 0): [(0, 0), (1, 1), (2, 1)],
    (0, 0): [(0, 0), (1, 0), (2, 0)],
    (2, 0): [(0, 0), (1, 2), (2, 2)],
    (2, 1): [(0, 2), (1, 1), (2, 1)],
    (1, 1): [(0, 2), (1, 0), (2, 0)],
    (2, 2): [(0, 1), (1, 0), (2, 0)],
    (1, 2): [(0, 1), (1, 2), (2, 2)],
    (0, 2): [(0, 1), (1, 1), (2, 1)],
    (0, 1): [(0, 2), (1, 2), (2, 2)],
}


def test_criterion_1_golden_fixture():
    with _Criterion(1, "D(3;1,2) matches the golden arc fixture", 1.0):
        D = build_digraph(prime_field(3), 1, 2)
        assert D.arc_count == 27
        for u, targets in GOLDEN_ARCS.items():
            assert D.out_neighbors(u) == targets
        assert D.loop_vertices() == [(0, 0), (1, 2), (2, 1)]
        assert D.has_arc((2, 2), (1, 0))
        assert not D.has_arc((1, 0), (2, 2))


def test_criterion_2_root_counts():
    with _Criterion(2, "GF(11) trinomial root sets {1,5,8} and {1,2,3}", 1.0):
        ctx = prime_field(11)
        quartic = distinct_root_count(ctx, trinomial(ctx, 4, -2, 1))
        octic = distinct_root_count(ctx, trinomial(ctx, 8, -2, 1))
        assert (quartic.distinct, quartic.roots) == (3, (1, 5, 8))
        assert (octic.distinct, octic.roots) == (3, (1, 2, 3))


def test_criterion_3_count_formula():
    with _Criterion(3, "pattern count equals (p-1)*roots for odd p <= 13", 30.0):
        for p in (3, 5, 7, 11, 13):
            ctx = prime_field(p)
            for n in range(1, p):
                counted = count_looped_arc(build_digraph(ctx, 1, n))
                assert counted == (p - 1) * nontrivial_root_count(ctx, n)
        ctx11 = prime_field(11)
        assert count_looped_arc(build_digraph(ctx11, 1, 3)) == 20
        assert count_looped_arc(build_digraph(ctx11, 1, 7)) == 20


def test_criterion_4_theorem_scan(scan_cache):
    with _Criterion(4, "theorem scan to p_max=31 with digraphs: zero failures", 60.0):
        report = theorem_scan_bytes(scan_cache)
        assert report.records
        assert report.all_passed


def test_criterion_5_power_map_validation():
    with _Criterion(5, "power maps D(p;1,m) -> D(p;n,1) verify exhaustively", 60.0):
        for p in (3, 5, 7, 11, 13):
            ctx = prime_field(p)
            for m in range(1, p):
                for n in range(1, p):
                    if (m * n) % (p - 1) != 1 % (p - 1):
                        continue
                    src = build_digraph(ctx, 1, m)
                    dst = build_digraph(ctx, n, 1)
                    cert = power_map_iso(src, dst, m)
                    assert verify_iso(src, dst, cert).ok


def test_criterion_6_search_fixtures():
    with _Criterion(6, "search finds D(5;1,2) ~ D(5;3,2), refutes D(3;1,2) ~ D(3;2,1)", 10.0):
        ctx5 = prime_field(5)
        found = brute_force_iso(build_digraph(ctx5, 1, 2), build_digraph(ctx5, 3, 2))
        assert found.status == FOUND
        assert verify_iso(build_digraph(ctx5, 1, 2), build_digraph(ctx5, 3, 2),
                          found.certificate).ok
        ctx3 = prime_field(3)
        refuted = brute_force_iso(build_digraph(ctx3, 1, 2), build_digraph(ctx3, 2, 1))
        assert refuted.status == NOT_ISOMORPHIC


def test_criterion_7_method_agreement():
    with _Criterion(7, "bruteforce and gcd agree on 500 random trinomials per field", 30.0):
        rng = random.Random(0x5EED)
        for p, k in ((7, 1), (2, 3), (3, 2), (11, 1), (101, 1)):
            ctx = extension_field(p, k)
            for _ in range(500):
                d = rng.randint(2, ctx.q + 1)
                a = rng.randrange(ctx.q)
                b = rng.randrange(ctx.q)
                f = trinomial(ctx, d, a, b)
                brute = distinct_root_count(ctx, f, method="bruteforce")
                by_gcd = distinct_root_count(ctx, f, method="gcd")
                assert brute.distinct == by_gcd.distinct, (p, k, d, a, b)


def test_criterion_8_large_prime_fast_path():
    with _Criterion(8, "gcd-method count over GF(2147483647) in under a second", 1.0):
        ctx = prime_field(2147483647)
        f = trinomial(ctx, 12, -2, 1)
        result = distinct_root_count(ctx, f, method="gcd")
        assert result.distinct == 3
        assert result.roots is None


def test_criterion_9_exercise_scan(scan_cache):
    with _Criterion(9, "exercise scan over q in {4,5,7,8,9}: zero failures", 120.0):
        report = exercise_scan(scan_cache)
        assert report.records
        assert report.all_passed


def test_criterion_10_conjecture_scan(scan_cache):
    with _Criterion(10, "conjecture scans CONSISTENT; q=5 has exactly 10 classes", 120.0):
        scans = conjecture_scans(scan_cache)
        for q, report in scans.items():
            assert next(r for r in report.records if r.check == "conjecture").passed, q
            assert not any(r.observed.get("decided") == 0 for r in report.records)
        # oracle: exhaustive pairwise search over all 16 digraphs at q = 5
        ctx = prime_field(5)
        keys = [(m, n) for m in range(1, 5) for n in range(1, 5)]
        digraphs = {key: build_digraph(ctx, *key) for key in keys}
        parent = {key: key for key in keys}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in combinations(keys, 2):
            outcome = brute_force_iso(digraphs[a], digraphs[b])
            assert outcome.status in (FOUND, NOT_ISOMORPHIC)
            if outcome.status == FOUND:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        assert len({find(key) for key in keys}) == 10
        summary = [r for r in scans[5].records if r.check == "conjecture"][0]
        assert summary.observed["class_count"] == 10


def test_criterion_11_determinism(scan_cache):
    with _Criterion(11, "criteria 4, 9, 10 rerun to byte-identical JSONL", 300.0):
        first = {
            "theorem": jsonl(theorem_scan_bytes(scan_cache)),
            "exercise": jsonl(exercise_scan(scan_cache)),
            "conjecture": {q: jsonl(r) for q, r in conjecture_scans(scan_cache).items()},
        }
        assert first["theorem"] == jsonl(run_theorem_scan(31, with_digraphs=True))
        assert first["exercise"] == jsonl(
            run_exercise_scan([(2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]))
        assert first["conjecture"][3] == jsonl(run_conjecture_scan(prime_field(3)))
        assert first["conjecture"][4] == jsonl(run_conjecture_scan(extension_field(2, 2)))
        assert first["conjecture"][5] == jsonl(run_conjecture_scan(prime_field(5)))
