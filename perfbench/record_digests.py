#!/usr/bin/env python3
"""Record the sha256 of every default-seed output into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout of the code whose outputs are the
reference (the seed code); the benchmark then counts any other output as
a failed op. Commands run serially with MDL_THREADS=1; reports do not
depend on the worker count.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), MDL_THREADS="1")
    work = root / ".perfbench_work" / "digests"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in workloads.NAMES:
        for cmd in workloads.build(name, workloads.DEFAULT_SEED).commands:
            report = work / f"{cmd.key}.report"
            done = subprocess.run([sys.executable, "-m", "mdlab", *cmd.argv(report)],
                                  env=env, capture_output=True, check=True)
            digests[cmd.key] = workloads.sha256(report.read_bytes() if cmd.report
                                                else done.stdout)
            print(cmd.key, digests[cmd.key], flush=True)
    workloads.DIGESTS_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
