#!/usr/bin/env python3
"""mdlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the code under src/. With
--trace 0 each `mdlab` command runs as its own `python -m mdlab` process,
closed loop, and the workload's command sequence repeats until S seconds
have passed; the end-to-end metrics are medians over those repeats. With
--trace 1 the commands run in this process through mdlab.cli.main, once
untraced and once traced, and the per-layer metrics come from the traced
pass. The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}. See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import spans
import workloads

THREADS = 2                # MDL_THREADS for the scan pools
SETUP_LAUNCHES = 3         # fresh `import mdlab.cli` interpreters before each repeat
SETUP_MIN = 15             # and at least this many per run
COMMAND_LIMIT_S = 60.0     # per-command time limit; a hang counts as a failed op
RUN_LIMIT_S = 165.0        # no command may run past this point of the run
WORK_DIR = ".perfbench_work"


class CommandTimeout(Exception):
    """A traced in-process command ran past its time limit."""


def problem(code) -> str | None:
    """Why a command with this exit code (None: timed out) failed, if it did."""
    return "timed out" if code is None else None if code == 0 else f"exit code {code}"


def environment(args, root: Path) -> dict:
    cpu_model = l3 = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu_model == "unknown":
                cpu_model = value.strip()
            elif key.strip() == "cache size" and l3 == "unknown":
                l3 = value.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "MDL_THREADS": THREADS if not args.trace else 1,
        "cpu_model": cpu_model, "l3_cache": l3, "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# --- end-to-end run: one process per command ---

def run_process(argv: list[str], env: dict, stdout_path: Path, limit: float):
    """Run argv in its own process group under a time limit.

    Returns (exit code or None on timeout, wall s, user+sys s, max rss KiB).
    wait4 reports the usage of the process and of the pool workers it
    waited for.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, start_new_session=True)
        fired = threading.Event()
        timer = threading.Timer(limit, lambda: (fired.set(), _kill_group(proc.pid)))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    code = None if fired.is_set() else proc.returncode
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _kill_group(pgid: int) -> None:
    """Kill what is left of a process group, such as the pool workers of a
    command that timed out, and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(workload, args, root: Path, work: Path, digests: dict, started: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), MDL_THREADS=str(THREADS))
    python = sys.executable
    attempted = failed = 0
    errors: list[str] = []

    def limit() -> float:
        return min(COMMAND_LIMIT_S, RUN_LIMIT_S - (time.perf_counter() - started))

    # set-up: a fresh interpreter that imports the CLI. The launches are
    # spread over the run so that a slow spell of the machine hits few of
    # them; the first also compiles bytecode and is not counted.
    setup = []

    def launch_setup(count: int) -> None:
        nonlocal attempted, failed
        for _ in range(count):
            code, wall, _, _ = run_process([python, "-c", "import mdlab.cli"], env,
                                           work / "setup.out", limit())
            attempted += 1
            setup.append(wall)
            if code != 0:
                failed += 1
                errors.append(f"setup launch exited {code}")

    launch_setup(1)
    setup.clear()
    walls, cpus, peak_kib = [], [], 0
    measuring = time.perf_counter()
    while True:
        begun = time.perf_counter()
        launch_setup(SETUP_LAUNCHES)
        wall_sum = cpu_sum = 0.0
        outputs = []
        for n, cmd in enumerate(workload.commands):
            out_path = work / f"{n}.out"
            report = work / f"{n}.report"
            budget = limit()
            attempted += 1
            if budget <= 0:
                failed += 1
                errors.append(f"{cmd.key}: run time limit reached before it started")
                continue
            code, wall, cpu, rss = run_process(
                [python, "-m", "mdlab", *cmd.argv(report)], env, out_path, budget)
            wall_sum += wall
            cpu_sum += cpu
            peak_kib = max(peak_kib, rss)
            outputs.append((cmd, problem(code), report if cmd.report else out_path))
        for cmd, trouble, path in outputs:  # checked outside the timed commands
            error = trouble or workloads.verify(cmd, workload.seed, path.read_bytes(), digests)
            if error:
                failed += 1
                errors.append(f"{cmd.key}: {error}")
        if len(outputs) < len(workload.commands):
            break
        walls.append(wall_sum)
        cpus.append(cpu_sum)
        if errors:
            break
        # start another repeat only if it should end within the run's seconds
        now = time.perf_counter()
        if now - measuring + (now - begun) > args.seconds:
            break
    launch_setup(max(0, SETUP_MIN - len(setup)))
    metrics = {}
    if walls:
        metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
                   "setup_s": statistics.median(setup), "peak_rss_mb": peak_kib / 1024}
    detail = {"iterations": len(walls), "wall_s": walls, "cpu_s": cpus, "setup_s": setup,
              "failed_ops": failed / attempted}
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "metrics": metrics, "detail": detail}


# --- traced run: in-process, through mdlab.cli.main ---

def _on_alarm(signum, frame):
    raise CommandTimeout


def run_in_process(workload, work: Path, started: float, tracer=None):
    """Each command through cli.main; returns (wall s, [(cmd, problem, output path)])."""
    from mdlab import cli

    results = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        for n, cmd in enumerate(workload.commands):
            out_path, report = work / f"{n}.out", work / f"{n}.report"
            budget = min(COMMAND_LIMIT_S, RUN_LIMIT_S - (time.perf_counter() - started))
            if budget <= 0:
                results.append((cmd, "run time limit reached before it started", out_path))
                continue
            if tracer is not None:
                tracer.run_id = n
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                with open(out_path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                    trouble = problem(cli.main(cmd.argv(report)))
            except CommandTimeout:
                trouble = problem(None)
            except Exception as exc:  # a crash fails this command, not the run
                traceback.print_exc()
                trouble = f"raised {type(exc).__name__}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            results.append((cmd, trouble, report if cmd.report else out_path))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, results


def cross_orbit_pairs(paths: list[Path]) -> int:
    """Pairs the conjecture scans settled as non-isomorphic or left undecided."""
    total = 0
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["check"] == "iso" and (rec["observed"].get("isomorphic") == 0
                                          or rec["observed"].get("decided") == 0):
                total += 1
    return total


def traced(workload, root: Path, work: Path, digests: dict, started: float) -> dict:
    os.environ["MDL_THREADS"] = "1"  # serial scans, so pool calls are traced too
    sys.path.insert(0, str(root / "src"))
    import mdlab.cli  # noqa: F401  (loads every layer before wrapping)

    (work / "plain").mkdir()
    (work / "traced").mkdir()
    plain_s, plain = run_in_process(workload, work / "plain", started)
    gc.collect()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_s, traced_results = run_in_process(workload, work / "traced", started, tracer)
    finally:
        tracer.uninstall()

    attempted = 2 * len(workload.commands)
    failed = 0
    errors = []
    for (cmd, trouble, path), (_, ttrouble, tpath) in zip(plain, traced_results):
        for label, t, p in (("untraced", trouble, path), ("traced", ttrouble, tpath)):
            error = t or workloads.verify(cmd, workload.seed, p.read_bytes(), digests)
            if error:
                failed += 1
                errors.append(f"{label} {cmd.key}: {error}")
        if not (trouble or ttrouble) and path.read_bytes() != tpath.read_bytes():
            failed += 1
            errors.append(f"traced {cmd.key}: output differs from the untraced output")

    values = tracer.metrics()
    reports = [p for cmd, t, p in traced_results if cmd.report and not t]
    values["harness.report_bytes"] = sum(p.stat().st_size for p in reports)
    cross = cross_orbit_pairs(reports)
    values["iso.search_share"] = values["iso.searches"] / cross if cross else 0.0
    values["trace.overhead"] = traced_s / plain_s
    for metric, names in spans.NONZERO_ON.items():
        if workload.name in names and not values[metric]:
            errors.append(f"self-test: {metric} is 0 on {workload.name}")
    spans_path = root / WORK_DIR / f"{workload.name}.spans.jsonl"
    tracer.write(spans_path)
    return {
        "attempted": attempted, "failed": failed, "errors": errors,
        "metrics": values,
        "detail": {"untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer.spans),
                   "spans_file": str(spans_path.relative_to(root))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "mdlab" / "cli.py").is_file():
        print(f"error: no mdlab sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if THREADS > nproc:
        print(f"error: MDL_THREADS={THREADS} exceeds the {nproc} usable CPUs", file=sys.stderr)
        return 2

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = environment(args, root)
    workload = workloads.build(args.workload, args.seed)  # oracles, outside timing
    digests = workloads.load_digests()
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        if args.trace:
            result = traced(workload, root, work, digests, started)
        else:
            result = measure(workload, args, root, work, digests, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in result["errors"]:
        print(f"error: {error}", file=sys.stderr)
    record = {"environment": env, "inputs": workload.inputs, **result}
    (root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env, "inputs": workload.inputs, "detail": result["detail"]}))
    values = result["metrics"]
    correct = not result["errors"] and result["failed"] == 0 and bool(values)
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in units.items()} if values else {}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
