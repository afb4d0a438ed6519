"""CLI surface tests, driven through main() with captured output."""
from __future__ import annotations

import json
import os
import time

import pytest

import mdlab.cli
import mdlab.harness
from mdlab.cli import _parse_prime_power, main
from mdlab.errors import IoFailure


def _die(item):
    """A scan worker whose process exits without returning, as on a crash."""
    os._exit(1)


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

    def test_dot_cap_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "--p", "17", "--m", "1", "--n", "1",
                           "--dot", str(tmp_path / "x.dot"))
        assert code == 2
        assert "error" in err

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


class TestIso:
    def test_power_map_pair(self, capsys):
        code, out, _ = run(capsys, "iso", "--p", "5", "--d1", "1,2", "--d2", "3,2")
        assert code == 0
        assert "power map k=3" in out
        cert = json.loads(out.split("certificate:", 1)[1].strip())
        assert sorted(cert) == list(range(25))

    def test_non_isomorphic_pair(self, capsys):
        code, out, _ = run(capsys, "iso", "--p", "3", "--d1", "1,2", "--d2", "2,1")
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
         "not isomorphic (search exhausted all assignments, 1792 expansions)\n"),
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

    @pytest.mark.parametrize("fields", ["1009", "10000019", "8,1009", "2^6"])
    def test_exercise_over_cap_exits_2_at_once(self, capsys, fields):
        start = time.perf_counter()
        code, out, err = run(capsys, "exercise", "--fields", fields)
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

    def test_usage_error_exit_code(self, capsys):
        assert main(["theorem"]) == 2  # missing --pmax
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        capsys.readouterr()
