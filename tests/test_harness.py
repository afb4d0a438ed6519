"""Scan and report tests: frozen record fixtures, determinism across
worker counts, and independently recomputed record totals."""
from __future__ import annotations

import builtins
import io
import itertools
import math
import random
import re

import pytest

import mdlab.field
import mdlab.harness
import mdlab.poly
from mdlab import caps
from mdlab.cli import main as cli_main
from mdlab.digraph import build_digraph
from mdlab.errors import CapExceeded, IoFailure, MethodDisagreement
from mdlab.field import extension_field, prime_field
from mdlab.iso import (EXHAUSTED, FOUND, INVARIANTS, NOT_ISOMORPHIC, SEARCH, Decision,
                       decide_iso, power_map_iso, unit_orbit, verify_iso)
from mdlab.patterns import count_looped_arc
from mdlab.poly import RootCount, distinct_root_count, nontrivial_root_count, trinomial
from mdlab.harness import (
    PARAM_ORDER,
    CheckRecord,
    ScanReport,
    _reciprocal_pairs,
    _root_count_table,
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


def reference_order(record):
    """Report order: parameters in PARAM_ORDER, a missing one as -1, then
    the check, then the observed items by name."""
    return (tuple(record.params.get(k, -1) for k in PARAM_ORDER), record.check,
            tuple(sorted(record.observed.items())))


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

    def test_pmax_cap_checked_before_primes(self, monkeypatch):
        def enumerate_primes(limit):
            raise AssertionError("primes enumerated before the cap check")

        monkeypatch.setattr(mdlab.harness, "_odd_primes_up_to", enumerate_primes)
        for p_max in (caps.MAX_THEOREM_PMAX + 1, 10**8):
            with pytest.raises(CapExceeded):
                run_theorem_scan(p_max)

    def test_mirrored_records_match_direct_counts(self, monkeypatch):
        # an item emits every ordered pair of its prime, (m, n) and (n, m)
        # alike; check each record against counts computed here one
        # exponent at a time
        monkeypatch.setenv("MDL_THREADS", "1")
        report = run_theorem_scan(31, with_digraphs=True)
        theorem = [r for r in report.records if r.check == "theorem"]
        assert any(r.params["m"] > r.params["n"] for r in theorem)
        for rec in theorem:
            p, m, n = rec.params["p"], rec.params["m"], rec.params["n"]
            ctx = prime_field(p)
            expected = {"r_m": nontrivial_root_count(ctx, m),
                        "r_n": nontrivial_root_count(ctx, n)}
            if p <= caps.MAX_PATTERN_HOST_ORDER:
                expected["count_k_m"] = count_looped_arc(build_digraph(ctx, 1, m))
                expected["count_k_n"] = count_looped_arc(build_digraph(ctx, 1, n))
            assert rec.observed == expected, (p, m, n)
            assert rec.passed

    @staticmethod
    def _divisors_fault(monkeypatch):
        # every p - 1 is even, so [2] is right for p = 3 and 5 and first
        # wrong at p = 7: the order route then misses the factor 3, and
        # the certificate must refuse the log route's counts there
        monkeypatch.setattr(mdlab.field, "_prime_divisors", lambda n: [2])
        monkeypatch.setenv("MDL_THREADS", "1")

    def test_tally_disagreement_raises(self, monkeypatch):
        # a faulted certificate must stop the scan at its first
        # disagreement, not become a record
        self._divisors_fault(monkeypatch)
        with pytest.raises(MethodDisagreement,
                           match=r"^GF\(7\): logs and powers disagree at x = 6$"):
            run_theorem_scan(31)

    def test_tally_disagreement_exits_2(self, monkeypatch, capsys):
        self._divisors_fault(monkeypatch)
        code = cli_main(["theorem", "--pmax", "31"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: GF(7): logs and powers disagree at x = 6\n"

    def test_wrong_log_solution_raises(self, monkeypatch):
        # orders and membership stay right, but every modular inverse the
        # log route takes is off by one, so its first exponent d0 is wrong
        # wherever j/h is not 0 mod the order: x^d0 = 2x - 1 must catch it
        def inverse_off_by_one(base, exp, mod=None):
            return builtins.pow(base, exp, mod) + (exp == -1)

        monkeypatch.setattr(mdlab.poly, "pow", inverse_off_by_one, raising=False)
        monkeypatch.setenv("MDL_THREADS", "1")
        with pytest.raises(MethodDisagreement,
                           match=r"^GF\(5\): the log route's x\^2 is not 2x - 1 at x = 2$"):
            run_theorem_scan(31)

    def test_exhaustive_evaluation_only_in_formula_checks(self, monkeypatch):
        # the certified tally counts every exponent; exhaustive evaluation
        # runs only where the formula checks of --digraphs count their own
        # roots, at p <= 13
        evaluated = []
        bruteforce = mdlab.poly._roots_bruteforce

        def counting(ctx, f):
            evaluated.append(ctx.p)
            return bruteforce(ctx, f)

        monkeypatch.setattr(mdlab.poly, "_roots_bruteforce", counting)
        monkeypatch.setenv("MDL_THREADS", "1")
        run_theorem_scan(31)
        assert evaluated == []
        run_theorem_scan(31, with_digraphs=True)
        assert evaluated and max(evaluated) <= caps.MAX_PATTERN_HOST_ORDER

    def test_gcd_route_only_in_formula_checks(self, monkeypatch):
        # the tally certifies itself by powers; the gcd route runs only in
        # the formula checks, once per unit exponent of each p <= 13
        counted = []
        roots_gcd = mdlab.poly._roots_gcd

        def recording(ctx, f):
            counted.append(ctx.p)
            return roots_gcd(ctx, f)

        monkeypatch.setattr(mdlab.poly, "_roots_gcd", recording)
        monkeypatch.setenv("MDL_THREADS", "1")
        run_theorem_scan(31)
        assert counted == []
        run_theorem_scan(31, with_digraphs=True)
        assert len(counted) == 13
        assert max(counted) <= caps.MAX_PATTERN_HOST_ORDER

    def test_formula_expectations_match_the_tally(self):
        # each k_formula record's expected count, from the formula check's
        # own root count, is (p - 1) times the certified tally's r_m
        report = run_theorem_scan(31, with_digraphs=True)
        r_m = {(r.params["p"], r.params["m"]): r.observed["r_m"]
               for r in report.records if r.check == "theorem"}
        formula = [r for r in report.records if r.check == "k_formula"]
        assert len(formula) == 13
        for rec in formula:
            p, e = rec.params["p"], rec.params["n"]
            assert rec.observed["expected"] == (p - 1) * r_m[p, e], (p, e)

    def test_each_prime_tallied_once_per_scan(self, monkeypatch):
        # one item per prime, and no tally outlives its scan
        tallied = []
        tally = mdlab.harness.nontrivial_root_counts

        def recording(ctx):
            tallied.append(ctx.p)
            return tally(ctx)

        monkeypatch.setattr(mdlab.harness, "nontrivial_root_counts", recording)
        monkeypatch.setenv("MDL_THREADS", "1")
        run_theorem_scan(31, with_digraphs=True)
        run_theorem_scan(31, with_digraphs=True)
        assert tallied == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31] * 2


def _field_roots(ctx, d):
    """found[a][b] = the set of roots of X^d + aX + b, by FieldCtx
    arithmetic: x is a root exactly when x^d + ax = -b."""
    found = [[set() for _ in ctx.elements()] for _ in ctx.elements()]
    for a in ctx.elements():
        for x in ctx.elements():
            found[a][ctx.neg(ctx.add(ctx.pow(x, d), ctx.mul(a, x)))].add(x)
    return found


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

    @pytest.mark.parametrize("fields", [[(2, 2), (2, 2)], [(2, 2), (3, 2), (2, 2)]])
    def test_repeated_field_rejected_before_work(self, monkeypatch, fields):
        def no_work(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(mdlab.harness, "extension_field", no_work)
        with pytest.raises(ValueError, match=r"GF\(2\^2\) given more than once"):
            run_exercise_scan(fields)

    @pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2)])
    def test_records_match_direct_counts(self, monkeypatch, p, k):
        # every record against its own two trinomials, each counted by both
        # methods; GF(8)'s pairs 2<->4 and 3<->5 come from mirrored items
        ctx = extension_field(p, k)
        expected = []
        for m, n in _reciprocal_pairs(ctx.q):
            for a in ctx.elements():
                for b in ctx.elements():
                    lhs = distinct_root_count(ctx, trinomial(ctx, m + 1, a, b), "both")
                    rhs = distinct_root_count(
                        ctx, trinomial(ctx, n + 1, a, ctx.pow(b, m)), "both")
                    params = {"p": p, "k": k, "q": ctx.q, "m": m, "n": n, "a": a, "b": b}
                    expected.append(("exercise", params,
                                     {"r_m": lhs.distinct, "r_n": rhs.distinct}, True))
        monkeypatch.setenv("MDL_THREADS", "1")
        report = run_exercise_scan([(p, k)])
        assert [(r.check, r.params, r.observed, r.passed) for r in report.records] == expected

    def test_count_disagreement_raises(self, monkeypatch):
        # a gcd count off by one must stop the scan, not become a record
        counted = []

        def off_by_one(ctx, f, method="auto"):
            counted.append(method)
            found = distinct_root_count(ctx, f, method)
            return RootCount(found.distinct + 1, found.roots)

        monkeypatch.setattr(mdlab.harness, "distinct_root_count", off_by_one)
        monkeypatch.setenv("MDL_THREADS", "1")
        with pytest.raises(MethodDisagreement, match="bruteforce found"):
            run_exercise_scan([(2, 3)])
        assert counted == ["gcd"]

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (13, 1), (2, 4)])
    def test_one_gcd_count_per_substitution_orbit(self, monkeypatch, p, k):
        # (0, 0) is one orbit, (a, 0) makes gcd(d-1, q-1) and (0, b)
        # gcd(d, q-1); u acts freely on a, b != 0, which makes q - 1 more
        ctx = extension_field(p, k)
        q = ctx.q
        counted = []

        def recording(ctx, f, method="auto"):
            counted.append(method)
            return distinct_root_count(ctx, f, method)

        monkeypatch.setattr(mdlab.harness, "distinct_root_count", recording)
        for d in sorted({m + 1 for m, _ in _reciprocal_pairs(q)}):
            counted.clear()
            _root_count_table(ctx, d)
            assert counted == ["gcd"] * (q + math.gcd(d - 1, q - 1) + math.gcd(d, q - 1)), d

    def test_every_table_entry_checked(self, monkeypatch):
        # corrupting one evaluation of row a moves one root between two
        # entries of that row; both methods must then disagree on a pair of
        # row a, whether or not it is its orbit's first pair
        ctx = extension_field(3, 2)
        d = 4
        evaluate = mdlab.harness.eval_at
        monkeypatch.setenv("MDL_THREADS", "1")
        off_first_pair = 0
        for a in ctx.elements():
            g = trinomial(ctx, d, a, 0)

            def corrupted(ctx, f, x, g=g):
                value = evaluate(ctx, f, x)
                return ctx.add(value, 1) if f == g and x == 1 else value

            monkeypatch.setattr(mdlab.harness, "eval_at", corrupted)
            with pytest.raises(MethodDisagreement, match="bruteforce found") as raised:
                run_exercise_scan([(3, 2)])
            found = re.fullmatch(
                r"X\^4 \+ (\d+)X \+ (\d+) over GF\(3\^2\): bruteforce found \d+ distinct roots, "
                r"gcd \d+ \(counted on X\^4 \+ (\d+)X \+ (\d+), its substitution orbit's first pair\)",
                str(raised.value))
            assert found and int(found[1]) == a, str(raised.value)
            pair, first_pair = found.group(1, 2), found.group(3, 4)
            off_first_pair += pair != first_pair
        assert off_first_pair > 0

    @pytest.mark.parametrize("p,k", [(3, 2), (13, 1), (2, 4), (5, 2)])
    def test_exercise_bijection_on_table_roots(self, p, k):
        # for b != 0, x -> (b/x)^m maps the roots of X^(m+1) + aX + b onto
        # those of X^(n+1) + aX + b^m; every root is found by FieldCtx
        # arithmetic alone, and each count is the table's entry
        ctx = extension_field(p, k)
        pairs = _reciprocal_pairs(ctx.q)
        roots = {}
        for d in {m + 1 for m, _ in pairs}:
            table = _root_count_table(ctx, d)
            found = _field_roots(ctx, d)
            assert [[len(found[a][b]) for b in ctx.elements()] for a in ctx.elements()] == table
            roots[d] = found
        for m, n in pairs:
            for a in ctx.elements():
                for b in range(1, ctx.q):
                    image = {ctx.pow(ctx.mul(b, ctx.inv(x)), m) for x in roots[m + 1][a][b]}
                    assert image == roots[n + 1][a][ctx.pow(b, m)], (m, n, a, b)

    @pytest.mark.parametrize("p,k", [(3, 2), (13, 1), (2, 4), (5, 2)])
    def test_root_count_table_invariant_under_scaling(self, p, k):
        # X = tY turns X^d + aX + b into t^d (Y^d + a t^(1-d) Y + b t^(-d)),
        # so both trinomials have the same number of roots for every unit t
        ctx = extension_field(p, k)
        for d in {m + 1 for m, _ in _reciprocal_pairs(ctx.q)}:
            table = _root_count_table(ctx, d)
            for t in range(1, ctx.q):
                s = ctx.inv(t)
                scale_a, scale_b = ctx.pow(s, d - 1), ctx.pow(s, d)
                for a in ctx.elements():
                    row = table[ctx.mul(a, scale_a)]
                    assert [row[ctx.mul(b, scale_b)] for b in ctx.elements()] == table[a], (d, t, a)

    def test_odd_specialization_matches_theorem(self):
        # a = -2, b = 1 rows restate the prime-field theorem records
        report = run_exercise_scan([(5, 1)])
        ctx = prime_field(5)
        minus2 = ctx.element(-2)
        rows = [r for r in report.records
                if r.params["a"] == minus2 and r.params["b"] == 1]
        assert rows and all(r.passed for r in rows)


def _counting_decide_iso(monkeypatch, override=None):
    """Route the conjecture scan's decide_iso through a recorder; override
    may answer a pair of exponent keys instead of the real decision."""
    calls = []
    decide = mdlab.harness.decide_iso

    def counted(D1, D2, budget):
        pair = ((D1.m, D1.n), (D2.m, D2.n))
        calls.append(pair)
        answer = override(*pair) if override else None
        return decide(D1, D2, budget) if answer is None else answer

    monkeypatch.setattr(mdlab.harness, "decide_iso", counted)
    return calls


def _orbit_pairs(q):
    """(within-orbit pairs, cross-orbit pairs, pairs of representatives),
    each orbit represented by its least key."""
    keys = [(m, n) for m in range(1, q) for n in range(1, q)]
    orbits = {key: unit_orbit(q, *key) for key in keys}
    pairs = list(itertools.combinations(keys, 2))
    within = [(a, b) for a, b in pairs if orbits[a] == orbits[b]]
    cross = [(a, b) for a, b in pairs if orbits[a] != orbits[b]]
    return within, cross, {(a, b) for a, b in cross if (a, b) == (min(orbits[a]), min(orbits[b]))}


def _links(q):
    """Each digraph's pair with its orbit's least key, for every digraph
    that is not that key."""
    within, _, _ = _orbit_pairs(q)
    return {(a, b) for a, b in within if a == min(unit_orbit(q, *a))}


class TestConjectureScan:
    @pytest.mark.parametrize("q,digraph_count,class_count",
                             [(5, 16, 10), (9, 64, 22), (11, 100, 28)])
    def test_gf5(self, q, digraph_count, class_count):
        p, k = {5: (5, 1), 9: (3, 2), 11: (11, 1)}[q]
        report = run_conjecture_scan(extension_field(p, k))
        assert next(r for r in report.records if r.check == "conjecture").passed
        summary = [r for r in report.records if r.check == "conjecture"]
        assert len(summary) == 1
        assert summary[0].observed == {
            "digraph_count": digraph_count, "class_count": class_count, "exhausted": 0,
        }
        pair_records = [r for r in report.records if r.check == "iso"]
        assert len(pair_records) == digraph_count * (digraph_count - 1) // 2
        assert report.all_passed

    def test_gf3_converse_pair_refuted(self):
        report = run_conjecture_scan(prime_field(3))
        assert next(r for r in report.records if r.check == "conjecture").passed
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
        assert next(r for r in report.records if r.check == "conjecture").passed
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

    def test_cross_orbit_isomorphism_is_a_counterexample(self, monkeypatch):
        # the only unit mod 2 is 1, so each of the four digraphs over GF(3)
        # is its own orbit and every pair is cross-orbit
        def found(D1, D2, budget):
            return Decision(FOUND, SEARCH, tuple(range(D1.order)), 1)

        monkeypatch.setattr(mdlab.harness, "decide_iso", found)
        report = run_conjecture_scan(prime_field(3))
        pairs = [r for r in report.records if r.check == "iso"]
        assert len(pairs) == 6
        assert all(not r.passed and r.witness == "cross-orbit pair is isomorphic; "
                   "certificate=[0,1,2,3,4,5,6,7,8]" for r in pairs)
        verdict = next(r for r in report.records if r.check == "conjecture")
        assert not verdict.passed
        assert verdict.witness == "D(3;1,1) ~ D(3;1,2)"
        assert report_exit_code(report) == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            run_conjecture_scan(prime_field(17))

    @pytest.mark.parametrize("q,expected", [(5, 6 + 45), (7, 16 + 190), (8, 40 + 36)])
    def test_one_decision_per_representative_pair(self, monkeypatch, q, expected):
        # one link per digraph that is not its orbit's representative, then
        # C(classes, 2) representative pairs; every within-orbit pair over
        # GF(5) and GF(7) is a link, and GF(8) is the first field with
        # within-orbit pairs that are not, which no decision reaches
        calls = _counting_decide_iso(monkeypatch)
        report = run_conjecture_scan(extension_field(*{5: (5, 1), 7: (7, 1), 8: (2, 3)}[q]))
        assert report.all_passed
        assert len(calls) == expected
        within, _, reps = _orbit_pairs(q)
        links = _links(q)
        assert (len(links) < len(within)) == (q == 8)
        assert len(set(calls)) == len(calls)
        assert set(calls) == links | reps

    @pytest.mark.parametrize("p,k,budget,expected", [
        (2, 2, caps.DEFAULT_SEARCH_BUDGET, 14),
        (5, 1, caps.DEFAULT_SEARCH_BUDGET, 51),
        (7, 1, caps.DEFAULT_SEARCH_BUDGET, 206),
        (2, 3, caps.DEFAULT_SEARCH_BUDGET, 76),
        (2, 3, 3, 251),
    ])
    def test_no_pair_decided_twice(self, monkeypatch, p, k, budget, expected):
        calls = _counting_decide_iso(monkeypatch)
        run_conjecture_scan(extension_field(p, k), budget=budget)
        assert len(calls) == expected
        assert len(set(calls)) == len(calls)

    def test_unrefuted_representatives_decide_each_pair(self, monkeypatch):
        within, cross, reps = _orbit_pairs(5)

        def exhaust_reps(first, second):
            if (first, second) in reps:
                return Decision(EXHAUSTED, SEARCH, None, 7)
            return None

        calls = _counting_decide_iso(monkeypatch, exhaust_reps)
        report = run_conjecture_scan(prime_field(5))
        # every pair is decided once, on itself
        assert sorted(calls) == sorted(within + cross)
        pairs = {((r.params["m"], r.params["n"]), (r.observed["m2"], r.observed["n2"])): r
                 for r in report.records if r.check == "iso"}
        assert all(pairs[pair].observed["decided"] == 0
                   and pairs[pair].witness == "budget exhausted after 7 expansions"
                   for pair in reps)
        assert all(pairs[pair].passed for pair in within + cross if pair not in reps)
        verdict = next(r for r in report.records if r.check == "conjecture")
        assert verdict.observed["exhausted"] == len(reps) == 45
        assert report_exit_code(report) == 3

    def test_unlinked_digraph_decides_its_pairs(self, monkeypatch):
        # (3, 2) is in the orbit of (1, 2) over GF(5); refuting that
        # within-orbit pair leaves (3, 2) without a certified link
        unlinked = (3, 2)
        assert min(unit_orbit(5, *unlinked)) == (1, 2)
        within, cross, reps = _orbit_pairs(5)

        def refute_link(first, second):
            if (first, second) == ((1, 2), unlinked):
                return Decision(NOT_ISOMORPHIC, INVARIANTS, None, 0)
            return None

        calls = _counting_decide_iso(monkeypatch, refute_link)
        report = run_conjecture_scan(prime_field(5))
        with_unlinked = [pair for pair in cross if unlinked in pair]
        assert len(with_unlinked) == 14
        assert set(with_unlinked) <= set(calls)
        assert sorted(calls) == sorted(within + list(reps) + with_unlinked)
        failures = report.failures()
        assert len(failures) == 1
        assert (failures[0].params["m"], failures[0].params["n"]) == (1, 2)
        assert (failures[0].observed["m2"], failures[0].observed["n2"]) == unlinked
        assert failures[0].witness == "within-orbit pair has no power-map certificate"
        assert report_exit_code(report) == 1

    def test_unlinked_digraph_fails_its_within_orbit_pairs(self, monkeypatch):
        # over GF(8), (2, 4) is in the orbit of (1, 2) with four more keys;
        # without its link no within-orbit pair that holds it is certified
        unlinked = (2, 4)
        assert min(unit_orbit(8, *unlinked)) == (1, 2)
        within, cross, reps = _orbit_pairs(8)

        def refute_link(first, second):
            if (first, second) == ((1, 2), unlinked):
                return Decision(NOT_ISOMORPHIC, INVARIANTS, None, 0)
            return None

        calls = _counting_decide_iso(monkeypatch, refute_link)
        report = run_conjecture_scan(extension_field(2, 3))
        with_unlinked = [pair for pair in cross if unlinked in pair]
        assert len(with_unlinked) == 43
        assert sorted(calls) == sorted(list(_links(8)) + list(reps) + with_unlinked)
        failed = [((r.params["m"], r.params["n"]), (r.observed["m2"], r.observed["n2"]))
                  for r in report.failures()]
        assert failed == [pair for pair in within if unlinked in pair]
        assert len(failed) == 5
        assert all(r.witness == "within-orbit pair has no power-map certificate"
                   for r in report.failures())
        assert report_exit_code(report) == 1

    @pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (13, 1)])
    def test_links_compose_to_within_orbit_certificates(self, p, k):
        # the scan passes a within-orbit pair (A, B) on its two links alone:
        # rep -> A by x1^k_A and rep -> B by x1^k_B give A -> B by
        # x1^(k_B / k_A), which must pass verify_iso
        ctx = extension_field(p, k)
        q = ctx.q
        within, _, _ = _orbit_pairs(q)
        digraphs = {key: build_digraph(ctx, *key) for pair in within for key in pair}
        power_k = {}
        for key, digraph in digraphs.items():
            rep = min(unit_orbit(q, *key))
            power_k[key] = 1 if key == rep else decide_iso(digraphs[rep], digraph).power_k
        for a, b in within:
            k_ab = power_k[b] * pow(power_k[a], -1, q - 1) % (q - 1)
            cert = power_map_iso(digraphs[a], digraphs[b], k_ab)
            assert verify_iso(digraphs[a], digraphs[b], cert).ok, (a, b)


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

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_work_order_independent(self, monkeypatch, order):
        run_items = mdlab.harness._run_items

        def reordered(worker, items):
            items = list(items)
            if order == "reversed":
                items.reverse()
            else:
                random.Random(20261018).shuffle(items)
            return run_items(worker, items)

        monkeypatch.setenv("MDL_THREADS", "1")
        scans = (lambda: run_theorem_scan(31, with_digraphs=True),
                 lambda: run_exercise_scan([(2, 2), (2, 3), (5, 1)]))
        expected = [jsonl_bytes(scan()) for scan in scans]
        monkeypatch.setattr(mdlab.harness, "_run_items", reordered)
        assert [jsonl_bytes(scan()) for scan in scans] == expected

    @pytest.mark.parametrize("scan", [
        lambda: run_theorem_scan(31, with_digraphs=True),
        # fields out of (p, k) order, so runs re-sort across fields
        lambda: run_exercise_scan([(3, 2), (2, 3), (5, 1), (2, 2)]),
        lambda: run_conjecture_scan(extension_field(2, 2), budget=1),
        lambda: run_conjecture_scan(extension_field(2, 2), budget=2),
        lambda: run_conjecture_scan(extension_field(2, 2), budget=3),
        lambda: run_conjecture_scan(extension_field(2, 2)),
        lambda: run_conjecture_scan(prime_field(5)),
        lambda: run_conjecture_scan(extension_field(2, 3)),
    ], ids=["theorem-31", "exercise-9,8,5,4", "gf4-budget1", "gf4-budget2",
            "gf4-budget3", "gf4", "gf5", "gf8"])
    def test_records_in_reference_order(self, scan):
        # no scan sorts its records as a whole, so each must build them in
        # report order, and no two records may tie under it
        report = scan()
        assert report.records == sorted(report.records, key=reference_order)
        keys = [reference_order(r) for r in report.records]
        assert len(set(keys)) == len(keys)

    def test_schedule_independent(self, monkeypatch):
        # GF(8) has mirrored pairs (2, 4) and (3, 5), emitted from one item
        # each, and a theorem item emits every pair of its prime; four
        # usable CPUs, so the pool runs four workers on any host
        scans = (lambda: run_exercise_scan([(3, 2), (2, 3), (5, 1)]),
                 lambda: run_theorem_scan(31, with_digraphs=True))
        monkeypatch.setenv("MDL_THREADS", "1")
        serial = [jsonl_bytes(scan()) for scan in scans]
        monkeypatch.setattr(mdlab.harness, "_usable_cpus", lambda: 4)
        monkeypatch.setenv("MDL_THREADS", "4")
        assert [jsonl_bytes(scan()) for scan in scans] == serial

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

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_write_failure_is_io_failure(self, fmt):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        with pytest.raises(IoFailure, match="report emission failed"):
            emit_report(run_theorem_scan(3), fmt, Full())

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_theorem_scan(3), "yaml", io.StringIO())


class TestExitCodes:
    def test_all_pass_zero(self):
        assert report_exit_code(run_theorem_scan(7)) == 0

    def test_conjecture_consistent_zero(self):
        assert report_exit_code(run_conjecture_scan(prime_field(3))) == 0

    def test_failing_record_is_one(self):
        failing = CheckRecord("theorem", {"p": 5, "m": 1, "n": 1},
                              {"r_m": 0, "r_n": 1}, False, "observed mismatch")
        report = ScanReport([failing])
        assert report_exit_code(report) == 1

    def test_failure_outranks_exhaustion(self):
        records = [
            CheckRecord("iso", {"p": 5, "m": 1, "n": 1},
                        {"m2": 2, "n2": 2, "decided": 0}, False, "budget exhausted"),
            CheckRecord("iso", {"p": 5, "m": 1, "n": 2},
                        {"m2": 2, "n2": 1, "decided": 1, "isomorphic": 1}, False, "bad"),
        ]
        assert report_exit_code(ScanReport(records)) == 1


class TestWorkerConfig:
    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("MDL_THREADS", "2")
        via_env = run_exercise_scan([(3, 2)])
        monkeypatch.setenv("MDL_THREADS", "1")
        serial = run_exercise_scan([(3, 2)])
        assert jsonl_bytes(via_env) == jsonl_bytes(serial)

    def test_env_clamped_to_usable_cpus(self, monkeypatch):
        from mdlab.harness import _resolve_workers
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("MDL_THREADS", "100000")
        assert _resolve_workers() == 2
        monkeypatch.setenv("MDL_THREADS", "1")
        assert _resolve_workers() == 1
        monkeypatch.delenv("MDL_THREADS")
        assert _resolve_workers() == 2

    def test_cpu_count_without_affinity(self, monkeypatch):
        from mdlab.harness import _resolve_workers
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.setenv("MDL_THREADS", "100000")
        assert _resolve_workers() == 3
        monkeypatch.delenv("MDL_THREADS")
        assert _resolve_workers() == 3

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("MDL_THREADS", "0")
        with pytest.raises(ValueError, match="MDL_THREADS"):
            run_theorem_scan(5)
        monkeypatch.setenv("MDL_THREADS", "many")
        with pytest.raises(ValueError, match="MDL_THREADS"):
            run_theorem_scan(5)


class TestReciprocalPairs:
    def test_reciprocal_pairs_match_quadratic_definition(self):
        for q in range(2, 201):
            r = q - 1
            quadratic = [(m, n) for m in range(1, q) for n in range(1, q)
                         if (m * n) % r == 1 % r]
            assert _reciprocal_pairs(q) == quadratic, q
