"""The qdelay benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload regime-sweep --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run

1. repeats the workload's round of calls, on one thread, until ``--seconds``
   have passed and enough calls were made to state the tail percentile;
2. after each round, outside its timing, starts a fresh process that imports
   qdelay, generates the inputs and makes one untimed warm-up call per entry
   point; ``setup_s`` is the median start-to-ready time of these processes,
   at least seven (skipped with ``--trace 1``);
3. checks the hard correctness gates and the oracle, untimed;
4. prints a report and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced rounds alternate for ``--seconds``; the metrics are the
per-layer ones of ``tracing.PER_LAYER``, the tracing overhead is the median
of the traced-minus-untraced round differences, and the spans are written to
``perfbench/out/``.

Exit codes: 0 when every gate holds, 1 when a gate fails, 2 on bad usage or
when the checkout has no ``src/qdelay`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
NAMES = ("regime-sweep", "hopf-thresholds", "trajectory-export")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be > 0")
    return args


def _set_up(args):
    """Import qdelay and build the workload's inputs on a capped thread pool."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workload = (cls(args.seed, OUT) if cls is workloads.TrajectoryExport
                else cls(args.seed))
    workload.warm_up()
    return workload


def _setup_probe(args) -> float:
    """Seconds from starting a fresh process until its set-up is done."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


@dataclass
class Round:
    wall: float
    latencies: list
    results: list | None
    errors: dict
    fingerprints: list | None = None

    def release(self, workload):
        """Keep only digests of the results, so memory does not grow per round."""
        self.fingerprints = [None if r is None else _digest(workload, r)
                             for r in self.results]
        self.results = None


def _digest(workload, result) -> bytes:
    return hashlib.sha256(workload.fingerprint(result)).digest()


def _run_round(workload, tracer=None) -> Round:
    latencies, results, errors = [], [], {}
    start = time.perf_counter()
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = index
        begin = time.perf_counter()
        try:
            results.append(workload.run(item))
        except Exception as exc:  # an item that raises is a failed item, not a crash
            results.append(None)
            errors[index] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - begin)
    return Round(time.perf_counter() - start, latencies, results, errors)


def _repeat(workload, seconds, min_calls, between) -> list[Round]:
    """Run rounds until ``seconds`` have passed and ``min_calls`` calls were made;
    ``between`` runs after each round, outside its timing."""
    rounds = []
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or len(rounds) * len(workload.items) < min_calls):
        if rounds:
            rounds[-1].release(workload)
        rounds.append(_run_round(workload))
        between()
    return rounds


def _check(workload, rounds):
    """Gates and oracle on the last round; every round must match it."""
    last = rounds[-1]
    problems, notes = [], []
    failed_units = agreed = units = 0
    for index, item in enumerate(workload.items):
        size = workload.size(item)
        units += size
        if index not in last.errors:
            expected = _digest(workload, last.results[index])
        for r in rounds[:-1]:
            if r.errors.get(index) != last.errors.get(index) or (
                    index not in last.errors and r.fingerprints[index] != expected):
                problems.append(f"item {index}: output differs between rounds")
                break
        if index in last.errors:
            failed_units += size
            notes.append(f"item {index} raised {last.errors[index]}")
            continue
        result = last.results[index]
        item_problems = workload.gate(item, result)
        problems.extend(item_problems)
        failed_units += size if item_problems else workload.failed(item, result)
        ok, item_notes = workload.agree(item, result)
        agreed += ok
        notes.extend(item_notes)
    return problems, failed_units, units, agreed, notes


def _rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "qdelay" / "__init__.py").is_file():
        print(f"error: no qdelay sources under {ROOT / 'src'}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = _set_up(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import numpy

    import tracing

    print(f"workload {workload.name}, seed {args.seed}: {len(workload.items)} calls, "
          f"{sum(map(workload.size, workload.items))} {workload.unit} per round; nproc {os.environ['OMP_NUM_THREADS']}, "
          f"Python {platform.python_version()}, numpy {numpy.__version__}")
    if args.trace:
        # untraced and traced rounds alternate, so that the overhead compares
        # rounds run under the same machine conditions
        tracer = tracing.Tracer()
        untraced, rounds = [], []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            untraced.append(_run_round(workload))
            untraced[-1].release(workload)
            if rounds:
                rounds[-1].release(workload)
            tracer.begin_round()
            with tracer:
                rounds.append(_run_round(workload, tracer))
            tracer.end_round()
        metrics, problems = tracing.summarize(
            tracer, [r.wall for r in rounds], [r.wall for r in untraced])
        spans_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
    else:
        # one set-up probe after each round, so that set-up samples the same
        # machine conditions as the rounds
        setup = []
        # at least ten calls beyond the tail percentile
        min_calls = math.ceil(1000 / (100 - workload.tail_level))
        rounds = _repeat(workload, args.seconds, min_calls,
                         lambda: setup.append(_setup_probe(args)))
        while len(setup) < SETUP_PROBES:
            setup.append(_setup_probe(args))
        problems = []

    gate_problems, failed_units, units, agreed, notes = _check(workload, rounds)
    problems += gate_problems
    attempted = units * len(rounds)
    failed = failed_units * len(rounds)
    correct = not problems
    walls = [r.wall for r in rounds]
    print(f"{len(rounds)} {'traced ' if args.trace else ''}rounds; round wall s: "
          + ", ".join(f"{w:.3f}" for w in walls))

    if args.trace:
        units_of = {name: unit for name, unit, _ in tracing.PER_LAYER}
        print(f"traced per-round metrics (median of {len(rounds)} traced rounds, "
              f"{len(untraced)} untraced rounds for the overhead):")
        for name, unit, _ in tracing.PER_LAYER:
            print(f"  {name:42s} {metrics[name]:14.6g} {unit}")
        total = metrics["trace.round_s"]
        print("self time per module (traced round):")
        for module in (*tracing.MODULES, "bench"):
            share = metrics[f"{module}.self_s"] / total if total else 0.0
            print(f"  {module:10s} {metrics[f'{module}.self_s']:10.4f} s  {100 * share:5.1f} %")
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per round "
              f"({100 * metrics['trace.overhead_frac']:.1f} %)")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        latencies = [t for r in rounds for t in r.latencies]
        level = workload.tail_level
        tail = statistics.quantiles(latencies, n=100, method="inclusive")[level - 1]
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "items_per_s": units / wall,
            "call_p50_ms": 1e3 * statistics.median(latencies),
            "call_tail_ms": 1e3 * tail,
            "peak_rss_mb": _rss_mb(),
            "agree_frac": agreed / units,
        }
        units_of = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "call_p50_ms": "ms",
                    "call_tail_ms": "ms", "peak_rss_mb": "MB", "agree_frac": "ratio"}
        print(f"  setup_s      {metrics['setup_s']:.4f} s (median of {len(setup)} processes)")
        print(f"  wall_s       {wall:.4f} s (median round of {len(rounds)})")
        print(f"  items_per_s  {metrics['items_per_s']:.4f} 1/s ({units} "
              f"{workload.unit} per round)")
        print(f"  call_p50_ms  {metrics['call_p50_ms']:.4f} ms (n={len(latencies)})")
        print(f"  call_tail_ms {metrics['call_tail_ms']:.4f} ms (p{level}, n={len(latencies)})")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB")
        print(f"  agree_frac   {metrics['agree_frac']:.4f} ({agreed}/{units} {workload.unit})")
        print(f"  failed_frac  {failed / attempted:.4f} ({failed}/{attempted})")

    for note in notes:
        print(f"disagreement: {note}")
    for problem in problems:
        print(f"GATE FAILED: {problem}")
    for path in OUT.glob("export-*.csv"):
        path.unlink()
    _emit(correct, attempted, failed, metrics, units_of)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
