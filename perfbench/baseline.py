"""Record the benchmark baseline: every workload, end-to-end and traced, at one seed.

    python3 perfbench/baseline.py --seed 1

Runs ``perfbench/run.py`` once per workload with ``--trace 0`` and once with
``--trace 1``, one after the other, and writes ``perfbench/baseline.json``
with the git commit (when the checkout is a git repository), the machine
(nproc, Python and numpy versions), the seed and the result line of each run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.strip()
    record = {
        "commit": _git_commit(),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": numpy_version, "processor": platform.machine()},
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "runs": {},
    }
    for workload in bench["workloads"]:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                       "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", str(trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                print(f"{' '.join(command)} exited with {done.returncode}", file=sys.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            key = f"{workload['name']}/{'traced' if trace else 'end-to-end'}"
            record["runs"][key] = result
    (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
