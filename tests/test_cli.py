"""CLI surface tests, driven through main() with captured output."""
from __future__ import annotations

import json
import os
import time

import pytest

import mdlab.cli
import mdlab.harness
from mdlab import caps
from mdlab.cli import _parse_prime_power, main
from mdlab.errors import IoFailure
from mdlab.iso import FOUND, SEARCH, Decision


def _die(item):
    """A scan worker whose process exits without returning, as on a crash."""
    os._exit(1)


def _scan_cap(field: str) -> str:
    return f"exercise scan over {field} exceeds cap q <= {caps.MAX_EXERCISE_ORDER}"


def _order_cap(q: int) -> str:
    return f"field order {q} exceeds cap {caps.MAX_PRIME}"


# stderr of `exercise --fields` for orders over a cap or no field at all
OVER_CAP_ERRORS = {
    "1009": _scan_cap("GF(1009)"),
    "10000019": _scan_cap("GF(10000019)"),
    "8,1009": _scan_cap("GF(1009)"),
    "11^2": _scan_cap("GF(11^2)"),
    "121": _scan_cap("GF(11^2)"),
    "128": f"extension degree 7 exceeds cap {caps.MAX_EXTENSION_DEGREE}",
    "1000": "1000 is not a prime power",
    "1000000000000000003": _order_cap(1000000000000000003),
    "1000000000000000000": _order_cap(1000000000000000000),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_summary(self, capsys):
        code, out, _ = run(capsys, "build", "--p", "3", "--m", "1", "--n", "2")
        assert code == 0
        assert "9 vertices, 27 arcs, 3 loops" in out

    def test_dot_export(self, capsys, tmp_path):
        target = tmp_path / "d.dot"
        code, _, _ = run(capsys, "build", "--p", "3", "--m", "1", "--n", "2",
                         "--dot", str(target))
        assert code == 0
        text = target.read_text()
        assert text.startswith('digraph "D_3_1_2" {')
        assert text.count("->") == 27

    def test_over_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "build", "--p", "191", "--m", "1", "--n", "2")
        assert code == 2
        assert out == ""
        assert err == f"error: q = 191 exceeds digraph cap {caps.MAX_DIGRAPH_ORDER}\n"

    def test_dot_over_cap_prints_nothing(self, capsys, tmp_path, monkeypatch):
        def no_build(*args):
            raise AssertionError("digraph built over the DOT cap")

        monkeypatch.setattr(mdlab.cli, "build_digraph", no_build)
        target = tmp_path / "x.dot"
        code, out, err = run(capsys, "build", "--p", "17", "--m", "1", "--n", "2",
                             "--dot", str(target))
        assert code == 2
        assert out == ""
        assert err == f"error: DOT export capped at q <= {caps.MAX_DOT_ORDER}\n"
        assert not target.exists()

    @pytest.mark.parametrize("target", [pytest.param("missing/x.dot", id="no-parent"),
                                        pytest.param(".", id="directory")])
    def test_dot_write_failure_prints_nothing(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run(capsys, "build", "--p", "3", "--m", "1", "--n", "2",
                             "--dot", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert str(path) in err  # the path given, not the temp file's
        assert f"/.{path.name}." not in err
        assert list(tmp_path.iterdir()) == []

    def test_extension_field(self, capsys):
        code, out, _ = run(capsys, "build", "--p", "2", "--k", "2", "--m", "1", "--n", "1")
        assert code == 0
        assert "16 vertices, 64 arcs, 4 loops" in out


class TestRoots:
    def test_count_and_list(self, capsys):
        code, out, _ = run(capsys, "roots", "--p", "11", "--degree", "4",
                           "--a", "-2", "--b", "1", "--list")
        assert code == 0
        assert "distinct roots: 3" in out
        assert "roots: 1 5 8" in out

    def test_gcd_method_has_no_list(self, capsys):
        code, out, _ = run(capsys, "roots", "--p", "11", "--degree", "4",
                           "--a", "-2", "--b", "1", "--list", "--method", "gcd")
        assert code == 0
        assert "unavailable" in out

    def test_huge_prime_fast_path(self, capsys):
        code, out, _ = run(capsys, "roots", "--p", "2147483647", "--degree", "12",
                           "--a", "-2", "--b", "1")
        assert code == 0
        assert "distinct roots: 3" in out

    @pytest.mark.parametrize("argv", [
        ("--p", "2147483647", "--degree", str(caps.MAX_TRINOMIAL_DEGREE + 1), "--method", "gcd"),
        ("--p", "2147483647", "--degree", "1000000", "--method", "gcd"),
        ("--p", "7", "--degree", "100000000000"),
        ("--p", "2", "--k", "2", "--degree", str(caps.MAX_EXTENSION_TRINOMIAL_DEGREE + 1)),
    ])
    def test_degree_over_cap_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, "roots", *argv, "--a", "3", "--b", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_negative_codes_rejected_on_extension_fields(self, capsys):
        code, _, err = run(capsys, "roots", "--p", "2", "--k", "2", "--degree", "3",
                           "--a", "-1", "--b", "1")
        assert code == 2
        assert "error" in err


class TestCounts:
    def test_count_k(self, capsys):
        code, out, _ = run(capsys, "count-k", "--p", "11", "--m", "1", "--n", "3")
        assert code == 0
        assert out.strip() == "20"

    def test_count_pattern_literal(self, capsys, tmp_path):
        literal = tmp_path / "pattern.txt"
        literal.write_text("2\n0 0\n1 1\n0 1\n")
        code, out, _ = run(capsys, "count-pattern", "--p", "11", "--m", "1", "--n", "3",
                           "--pattern", str(literal))
        assert code == 0
        assert "subdigraphs=20" in out

    def test_bad_pattern_literal_exits_before_build(self, capsys, tmp_path, monkeypatch):
        def no_build(*args):
            raise AssertionError("digraph built before the pattern was parsed")

        monkeypatch.setattr(mdlab.cli, "build_digraph", no_build)
        literal = tmp_path / "pattern.txt"
        # each message names the line it could not read
        for text, message in [("2\n0 1 1\n", "malformed arc line '0 1 1'"),
                              ("abc\n", "malformed order line 'abc'"),
                              ("2\n1 x\n", "malformed arc line '1 x'"),
                              ("6\n0 1\n", "pattern order must be in [1, 5], got 6")]:
            literal.write_text(text)
            code, out, err = run(capsys, "count-pattern", "--p", "181", "--m", "1", "--n", "2",
                                 "--pattern", str(literal))
            assert code == 2
            assert out == ""
            assert err == f"error: {message}\n"
            assert "invalid literal" not in err

    def test_over_cap_host_exits_before_build(self, capsys, tmp_path, monkeypatch):
        def no_build(*args):
            raise AssertionError("digraph built over the pattern-counting cap")

        monkeypatch.setattr(mdlab.cli, "build_digraph", no_build)
        literal = tmp_path / "pattern.txt"
        literal.write_text("2\n0 1\n")
        code, out, err = run(capsys, "count-pattern", "--p", "17", "--m", "1", "--n", "1",
                             "--pattern", str(literal))
        assert code == 2
        assert out == ""
        assert err == f"error: count_pattern is capped at q <= {caps.MAX_PATTERN_HOST_ORDER}\n"


class TestIso:
    def test_power_map_pair(self, capsys):
        code, out, _ = run(capsys, "iso", "--p", "5", "--d1", "1,2", "--d2", "3,2")
        assert code == 0
        assert "power map k=3" in out
        cert = json.loads(out.split("certificate:", 1)[1].strip())
        assert sorted(cert) == list(range(25))

    def test_search_certificate(self, capsys, monkeypatch):
        # the only real pair known to end in a search certificate is over
        # GF(25) and takes seconds, so decide_iso is stubbed with one
        found = Decision(FOUND, SEARCH, tuple(range(9)), 7)
        monkeypatch.setattr(mdlab.cli, "decide_iso", lambda D1, D2, budget: found)
        code, out, _ = run(capsys, "iso", "--p", "3", "--d1", "1,2", "--d2", "2,1")
        assert code == 0
        assert out == ("unit orbits differ\n"
                       "isomorphic (search, 7 expansions)\n"
                       "certificate: [0,1,2,3,4,5,6,7,8]\n")

    def test_non_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "iso", "--p", "3", "--d1", "1,2", "--d2", "2,1")
        assert code == 0
        assert "not isomorphic" in out

    def test_converse_pair_decided_within_budget(self, capsys):
        code, out, _ = run(capsys, "iso", "--p", "31", "--d1", "1,2", "--d2", "2,1",
                           "--budget", "10")
        assert code == 0
        assert "not isomorphic" in out

    def test_exhausted_budget(self, capsys):
        code, out, _ = run(capsys, "iso", "--p", "2", "--k", "2",
                           "--d1", "1,3", "--d2", "3,2", "--budget", "1")
        assert code == 3
        assert "undecided" in out

    # stdout and exit codes recorded before the staged decision replaced
    # the power map -> fingerprint -> search chain in the command
    @pytest.mark.parametrize("argv,code,stdout", [
        (("--p", "5", "--d1", "1,2", "--d2", "3,2"), 0,
         "unit orbits match\nisomorphic via power map k=3\ncertificate: "
         "[0,1,2,3,4,5,6,7,8,9,15,16,17,18,19,10,11,12,13,14,20,21,22,23,24]\n"),
        (("--p", "3", "--d1", "1,2", "--d2", "2,1"), 0,
         "unit orbits differ\nnot isomorphic (fingerprints differ)\n"),
        (("--p", "5", "--d1", "1,2", "--d2", "2,1"), 0,
         "unit orbits differ\nnot isomorphic (fingerprints differ)\n"),
        (("--p", "2", "--k", "2", "--d1", "1,3", "--d2", "3,2"), 0,
         "unit orbits differ\n"
         "not isomorphic (search exhausted all assignments, 4 expansions)\n"),
    ])
    def test_output_per_stage(self, capsys, argv, code, stdout):
        assert run(capsys, "iso", *argv)[:2] == (code, stdout)

    def test_bad_pair_syntax(self, capsys):
        code, _, _ = run(capsys, "iso", "--p", "5", "--d1", "1", "--d2", "3,2")
        assert code == 2


class TestParsePrimePower:
    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert _parse_prime_power("2147483647") == (2147483647, 1)
        assert time.perf_counter() - start < 1.0

    def test_prime_powers(self):
        assert _parse_prime_power("8") == (2, 3)
        assert _parse_prime_power("9") == (3, 2)
        assert _parse_prime_power("7") == (7, 1)

    def test_caret_form(self):
        assert _parse_prime_power("2^3") == (2, 3)

    @pytest.mark.parametrize("token", ["12", "1", "0"])
    def test_rejects_non_prime_powers(self, token):
        with pytest.raises(ValueError):
            _parse_prime_power(token)


class TestScans:
    def test_theorem_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "t.jsonl"
        code, _, _ = run(capsys, "theorem", "--pmax", "11", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert all(json.loads(line)["pass"] for line in lines)

    def test_theorem_stdout_csv(self, capsys):
        code, out, _ = run(capsys, "theorem", "--pmax", "5", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("check,p,k,q,m,n,a,b")

    def test_exercise_bare_prime_powers(self, capsys):
        code, out, _ = run(capsys, "exercise", "--fields", "4,5")
        assert code == 0
        qs = {json.loads(line)["params"]["q"] for line in out.splitlines()}
        assert qs == {4, 5}

    def test_exercise_caret_form(self, capsys):
        code, out, _ = run(capsys, "exercise", "--fields", "2^2")
        assert code == 0
        assert all(json.loads(line)["params"]["k"] == 2 for line in out.splitlines())

    def test_exercise_rejects_non_prime_power(self, capsys):
        code, _, err = run(capsys, "exercise", "--fields", "6")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("fields", ["4,4", "2^2,4", "4,5,2^2"])
    def test_exercise_repeated_field_exits_2(self, capsys, fields):
        # each of GF(4)'s records would otherwise be emitted twice
        code, out, err = run(capsys, "exercise", "--fields", fields)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "GF(2^2)" in err

    @pytest.mark.parametrize("fields", list(OVER_CAP_ERRORS))
    def test_exercise_over_cap_exits_2_at_once(self, capsys, fields):
        start = time.perf_counter()
        code, out, err = run(capsys, "exercise", "--fields", fields)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err == f"error: {OVER_CAP_ERRORS[fields]}\n"

    @pytest.mark.parametrize("pmax", [str(caps.MAX_THEOREM_PMAX + 1), "100000000"])
    def test_theorem_over_cap_exits_2_at_once(self, capsys, pmax):
        start = time.perf_counter()
        code, out, err = run(capsys, "theorem", "--pmax", pmax)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_crashed_worker_exits_2(self, capsys, monkeypatch):
        # two usable CPUs, so the items go to a pool even on a 1-CPU host
        monkeypatch.setattr(mdlab.harness, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mdlab.harness, "_exercise_worker", _die)
        monkeypatch.setenv("MDL_THREADS", "2")
        code, out, err = run(capsys, "exercise", "--fields", "4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: worker pool failed")

    def test_conjecture_verdict(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--p", "3")
        assert code == 0
        summary = [json.loads(line) for line in out.splitlines()
                   if json.loads(line)["check"] == "conjecture"]
        assert summary[0]["observed"]["class_count"] == 4

    @pytest.mark.parametrize("argv", [
        ("iso", "--p", "2", "--k", "2", "--d1", "1,3", "--d2", "3,2"),
        ("conjecture", "--p", "2", "--k", "2"),
    ])
    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_exits_2(self, capsys, monkeypatch, argv, budget):
        def no_build(*args):
            raise AssertionError("a digraph was built")

        monkeypatch.setattr(mdlab.cli, "build_digraph", no_build)
        monkeypatch.setattr(mdlab.harness, "build_digraph", no_build)
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert code == 2
        assert out == ""
        assert f"argument --budget: must be >= 1, got {budget}" in err

    @pytest.mark.parametrize("argv", [
        ("iso", "--p", "2", "--k", "2", "--d1", "1,3", "--d2", "3,2"),
        ("conjecture", "--p", "2", "--k", "2"),
    ])
    def test_budget_above_default_exits_2(self, capsys, monkeypatch, argv):
        # --budget may only lower the default: it bounds the search
        def no_build(*args):
            raise AssertionError("a digraph was built")

        monkeypatch.setattr(mdlab.cli, "build_digraph", no_build)
        monkeypatch.setattr(mdlab.harness, "build_digraph", no_build)
        budget = str(caps.DEFAULT_SEARCH_BUDGET + 1)
        code, out, err = run(capsys, *argv, "--budget", budget)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --budget {budget} exceeds cap")

    def test_conjecture_budget_exhaustion_exit(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--p", "2", "--k", "2",
                           "--budget", "1")
        assert code == 3
        assert "budget exhausted" in out

    def test_out_is_replaced_only_when_complete(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "conj.jsonl"
        target.write_bytes(b"previous report\n")

        def failing_emit(report, fmt, handle):
            handle.write("partial")
            raise IoFailure("report emission failed: disk full")

        monkeypatch.setattr(mdlab.cli, "emit_report", failing_emit)
        code, _, err = run(capsys, "conjecture", "--p", "3", "--out", str(target))
        assert code == 2
        assert err.startswith("error:")
        assert target.read_bytes() == b"previous report\n"
        assert [path.name for path in tmp_path.iterdir()] == ["conj.jsonl"]

    def test_out_write_failure_names_given_path(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "r.jsonl")
        code, out, err = run(capsys, "theorem", "--pmax", "5", "--out", target)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert target in err  # the path given, not the temp file's
        assert "/.r.jsonl." not in err

    def test_out_overwrites_on_success(self, capsys, tmp_path):
        target = tmp_path / "conj.jsonl"
        target.write_bytes(b"previous report\n")
        code, stdout, _ = run(capsys, "conjecture", "--p", "3")
        assert run(capsys, "conjecture", "--p", "3", "--out", str(target))[0] == code
        assert target.read_text() == stdout
        assert [path.name for path in tmp_path.iterdir()] == ["conj.jsonl"]

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_nonpositive_k_rejected(self, capsys, k):
        code, out, err = run(capsys, "conjecture", "--p", "3", "--k", k)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv,token", [
        (("iso", "--p", "5", "--d1", "1,2,3", "--d2", "3,2"), "1,2,3"),
        (("iso", "--p", "5", "--d1", "a,2", "--d2", "3,2"), "a,2"),
        (("conjecture", "--p", "3", "--budget", "abc"), "abc"),
        (("exercise", "--fields", "2^3^4"), "2^3^4"),
        (("exercise", "--fields", "4,,5"), ""),
        (("exercise", "--fields", "abc"), "abc"),
    ])
    def test_input_error_names_the_token(self, capsys, argv, token):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert repr(token) in err
        assert not any(name in err for name in
                       ("_parse_pair", "_positive_int", "unpack", "invalid literal"))

    def test_usage_error_exit_code(self, capsys):
        assert main(["theorem"]) == 2  # missing --pmax
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()
