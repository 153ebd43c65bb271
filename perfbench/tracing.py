"""Call tracing of the qdelay layers from outside the package.

The tracer replaces each traced public function at the module attribute its
caller resolves (``qdelay.models.integrate`` is the name ``simulate`` calls,
``qdelay.stability.critical_delay_ma`` the name both ``hopf_curve`` and
``analysis.analytic_threshold`` call) with a wrapper, and restores the
originals on exit.  Two kinds of wrapper exist:

* span wrappers record one span per call: name, start, end, parent span and
  the benchmark item being run;
* hot wrappers sit on functions called once per integration stage or per
  bisection step (the model right-hand sides, the moving-average threshold
  function, the characteristic residuals).  A span per call would cost more
  than the call, so they only add their count and time to per-round
  counters, and their time to the enclosing span, whose self time then
  excludes it.

Spans are kept in memory, one list per traced round, and written out when
the benchmark ends.  ``layer_metrics`` turns one round's spans and counters
into the per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

from qdelay import analysis, cli, dde, models, stability

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("dde.integrate.calls", "count", "lower"),
    ("dde.integrate.nodes", "count", "lower"),
    ("dde.integrate.self_s", "s", "lower"),
    ("dde.integrate.us_per_node", "us", "lower"),
    ("dde.trajectory_mb", "MB", "lower"),
    ("dde.trajectory_mb_max", "MB", "lower"),
    ("dde.eval.calls", "count", "lower"),
    ("dde.eval.points", "count", "lower"),
    ("dde.eval.s", "s", "lower"),
    ("models.rhs.calls", "count", "lower"),
    ("models.rhs.per_node", "calls/node", "lower"),
    ("models.rhs.s", "s", "lower"),
    ("models.rhs.us_per_call", "us", "lower"),
    ("models.simulate.calls", "count", "lower"),
    ("models.simulate.self_s", "s", "lower"),
    ("models.ma_from_trajectory.calls", "count", "lower"),
    ("models.ma_from_trajectory.s", "s", "lower"),
    ("stability.critical_delay_ma.calls", "count", "lower"),
    ("stability.critical_delay_ma.ms_per_call", "ms", "lower"),
    ("stability.threshold_evals", "count", "lower"),
    ("stability.hopf_curve.s", "s", "lower"),
    ("stability.validated_ratio", "ratio", "higher"),
    ("stability.root_track.calls", "count", "lower"),
    ("stability.root_track.s", "s", "lower"),
    ("stability.residual_evals", "count", "lower"),
    ("stability.newton_iters_per_call", "iters", "lower"),
    ("stability.root_track.failed", "count", "lower"),
    ("analysis.sweep.cells", "count", "higher"),
    ("analysis.sweep.self_s", "s", "lower"),
    ("analysis.classify_stability.calls", "count", "lower"),
    ("analysis.classify_stability.s", "s", "lower"),
    ("analysis.inconclusive_cells", "count", "lower"),
    ("analysis.failed_cells", "count", "lower"),
    ("cli.run.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.csv_rows", "count", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("cli.us_per_row", "us", "lower"),
    ("dde.self_s", "s", "lower"),
    ("models.self_s", "s", "lower"),
    ("stability.self_s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.round_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Metrics that are pure counts of work, or ratios of such counts: a traced
# round repeats them exactly.
EXACT_UNITS = {"count", "calls/node", "ratio", "iters", "B", "MB"}

MODULES = ("dde", "models", "stability", "analysis", "cli")

# Span fields, stored as lists for speed.
_ID, _NAME, _START, _END, _PARENT, _ITEM, _HOT, _EXTRA = range(8)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Records spans and hot-call counters while installed (a context manager)."""

    def __init__(self):
        self.item = -1
        self.rounds: list[tuple[list, dict]] = []
        self._spans: list = []
        self._hot: dict = {}
        self._stack: list = []
        self._patches: list = []

    # -- installation -----------------------------------------------------
    def __enter__(self):
        span = self._span_wrapper
        hot = self._hot_wrapper
        targets = [
            (models, "integrate", span("dde.integrate", _integrate_extra)),
            (dde.Trajectory, "eval", span("dde.eval", _eval_extra)),
            (models, "constant_delay_rhs", hot("models.rhs")),
            (models, "ma_rhs", hot("models.rhs")),
            (models, "simulate", span("models.simulate")),
            (models, "ma_from_trajectory", span("models.ma_from_trajectory")),
            (stability, "critical_delay_constant", span("stability.critical_delay_constant")),
            (stability, "critical_delay_ma", span("stability.critical_delay_ma")),
            (stability, "ma_candidate_roots", span("stability.ma_candidate_roots", _candidates_extra)),
            (stability, "ma_threshold_function", hot("stability.threshold_evals", _points)),
            (stability, "hopf_curve", span("stability.hopf_curve")),
            (stability, "root_track", span("stability.root_track")),
            (stability, "characteristic_residual_constant", hot("stability.residual")),
            (stability, "characteristic_residual_ma", hot("stability.residual")),
            (analysis, "sweep", span("analysis.sweep", _sweep_extra)),
            (analysis, "classify_stability", span("analysis.classify_stability")),
            (cli, "run", span("cli.run", _cli_extra)),
        ]
        for owner, attr, wrapper in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper(original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def begin_round(self):
        self._spans = []
        self._hot = defaultdict(lambda: [0, 0.0, 0])
        self._stack = []

    def end_round(self):
        self.rounds.append((self._spans, dict(self._hot)))

    def _span_wrapper(self, name, extra=None):
        def wrap(fn):
            def traced(*args, **kwargs):
                stack = self._stack
                span = [len(self._spans), name, 0.0, 0.0,
                        stack[-1][_ID] if stack else -1, self.item, 0.0, None]
                self._spans.append(span)
                stack.append(span)
                span[_START] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    span[_EXTRA] = {"raised": 1}
                    raise
                finally:
                    span[_END] = perf_counter()
                    stack.pop()
                if extra is not None:
                    span[_EXTRA] = extra(args, result)
                return result
            return traced
        return wrap

    def _hot_wrapper(self, name, size=None):
        def wrap(fn):
            def traced(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack = self._stack
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[_HOT] += elapsed
                    counter = self._hot[(name, parent[_NAME] if parent else None)]
                    counter[0] += 1
                    counter[1] += elapsed
                    counter[2] += 1 if size is None else size(args)
            return traced
        return wrap

    # -- output -------------------------------------------------------------
    def write(self, path) -> None:
        """Write every traced round's spans and hot counters as JSON lines."""
        with open(path, "w") as out:
            for index, (spans, hot) in enumerate(self.rounds):
                for s in spans:
                    out.write(json.dumps({
                        "round": index, "id": s[_ID], "name": s[_NAME],
                        "start": s[_START], "end": s[_END], "parent": s[_PARENT],
                        "item": s[_ITEM], "hot_s": s[_HOT], "extra": s[_EXTRA]}) + "\n")
                for (name, parent), (calls, seconds, points) in sorted(
                        hot.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
                    out.write(json.dumps({
                        "round": index, "hot": name, "parent": parent, "calls": calls,
                        "s": seconds, "points": points}) + "\n")


def _points(args) -> int:
    delta = args[0]
    return int(getattr(delta, "size", 1))


def _integrate_extra(args, traj):
    return {"nodes": int(traj.states.shape[0]),
            "bytes": int(traj.states.nbytes + traj.derivs.nbytes + traj.times.nbytes)}


def _eval_extra(args, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _candidates_extra(args, points):
    return {"candidates": len(points), "validated": sum(p.validated for p in points)}


def _sweep_extra(args, rows):
    return {"cells": len(rows),
            "inconclusive": sum(r.observed == analysis.INCONCLUSIVE for r in rows),
            "failed": sum(r.observed == analysis.FAILED for r in rows)}


def _cli_extra(args, code):
    argv = list(args[0])
    if "--out" not in argv:
        return None
    return {"bytes": os.path.getsize(argv[argv.index("--out") + 1])}


def layer_metrics(spans, hot, round_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round (see ``PER_LAYER``)."""
    by_name = defaultdict(list)
    child_s = defaultdict(float)
    for s in spans:
        by_name[s[_NAME]].append(s)
        if s[_PARENT] >= 0:
            child_s[s[_PARENT]] += s[_END] - s[_START]

    def dur(s):
        return s[_END] - s[_START]

    def self_s(s):
        return dur(s) - child_s[s[_ID]] - s[_HOT]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def self_total(name):
        return sum(self_s(s) for s in by_name[name])

    def extra_sum(name, key):
        return sum((s[_EXTRA] or {}).get(key, 0) for s in by_name[name])

    def hot_total(name, parent=None, field=0):
        return sum(v[field] for (n, p), v in hot.items()
                   if n == name and (parent is None or p == parent))

    nodes = extra_sum("dde.integrate", "nodes")
    traj_bytes = [(s[_EXTRA] or {}).get("bytes", 0) for s in by_name["dde.integrate"]]
    rhs_calls = hot_total("models.rhs")
    rhs_s = hot_total("models.rhs", field=1)
    cdm_calls = calls("stability.critical_delay_ma")
    rt_calls = calls("stability.root_track")
    rt_residuals = hot_total("stability.residual", parent="stability.root_track")
    candidates = extra_sum("stability.ma_candidate_roots", "candidates")
    cli_calls = by_name["cli.run"]
    cli_ids = {s[_ID] for s in cli_calls}
    sim_under_cli = {s[_ID] for s in by_name["models.simulate"] if s[_PARENT] in cli_ids}
    csv_rows = sum((s[_EXTRA] or {}).get("nodes", 0) for s in by_name["dde.integrate"]
                   if s[_PARENT] in sim_under_cli)
    cli_self = sum(self_s(s) for s in cli_calls)

    module_self = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        module_self[s[_NAME].split(".")[0]] += self_s(s)
    for (name, _), (_, seconds, _) in hot.items():
        module_self[name.split(".")[0]] += seconds
    top = sum(dur(s) for s in spans if s[_PARENT] < 0)

    metrics = {
        "dde.integrate.calls": calls("dde.integrate"),
        "dde.integrate.nodes": nodes,
        "dde.integrate.self_s": self_total("dde.integrate"),
        "dde.integrate.us_per_node": 1e6 * _ratio(total("dde.integrate"), nodes),
        "dde.trajectory_mb": sum(traj_bytes) / 1e6,
        "dde.trajectory_mb_max": max(traj_bytes, default=0) / 1e6,
        "dde.eval.calls": calls("dde.eval"),
        "dde.eval.points": extra_sum("dde.eval", "points"),
        "dde.eval.s": total("dde.eval"),
        "models.rhs.calls": rhs_calls,
        "models.rhs.per_node": _ratio(rhs_calls, nodes),
        "models.rhs.s": rhs_s,
        "models.rhs.us_per_call": 1e6 * _ratio(rhs_s, rhs_calls),
        "models.simulate.calls": calls("models.simulate"),
        "models.simulate.self_s": self_total("models.simulate"),
        "models.ma_from_trajectory.calls": calls("models.ma_from_trajectory"),
        "models.ma_from_trajectory.s": total("models.ma_from_trajectory"),
        "stability.critical_delay_ma.calls": cdm_calls,
        "stability.critical_delay_ma.ms_per_call":
            1e3 * _ratio(total("stability.critical_delay_ma"), cdm_calls),
        "stability.threshold_evals": hot_total("stability.threshold_evals", field=2),
        "stability.hopf_curve.s": total("stability.hopf_curve"),
        "stability.validated_ratio":
            _ratio(extra_sum("stability.ma_candidate_roots", "validated"), candidates),
        "stability.root_track.calls": rt_calls,
        "stability.root_track.s": total("stability.root_track"),
        "stability.residual_evals": hot_total("stability.residual"),
        # each Newton update is followed by one residual evaluation, and the
        # seed costs one more
        "stability.newton_iters_per_call": _ratio(rt_residuals - rt_calls, rt_calls),
        "stability.root_track.failed": extra_sum("stability.root_track", "raised"),
        "analysis.sweep.cells": extra_sum("analysis.sweep", "cells"),
        "analysis.sweep.self_s": self_total("analysis.sweep"),
        "analysis.classify_stability.calls": calls("analysis.classify_stability"),
        "analysis.classify_stability.s": total("analysis.classify_stability"),
        "analysis.inconclusive_cells": extra_sum("analysis.sweep", "inconclusive"),
        "analysis.failed_cells": extra_sum("analysis.sweep", "failed"),
        "cli.run.calls": len(cli_calls),
        "cli.run.self_s": cli_self,
        "cli.csv_rows": csv_rows,
        "cli.csv_bytes": extra_sum("cli.run", "bytes"),
        "cli.us_per_row": 1e6 * _ratio(cli_self, csv_rows),
        "bench.self_s": round_s - top,
        "trace.spans": len(spans),
        "trace.round_s": round_s,
    }
    for module, seconds in module_self.items():
        metrics[f"{module}.self_s"] = seconds
    return metrics


def summarize(tracer: Tracer, traced_s: list[float], untraced_s: list[float]):
    """Per-layer metrics over the traced rounds, and the rounds that disagree.

    Count-like metrics must repeat exactly from round to round, because every
    round runs the same inputs; times are the median over traced rounds.  The
    tracing overhead is the median difference between each traced round and
    the untraced round run just before it.
    """
    per_round = [layer_metrics(spans, hot, wall)
                 for (spans, hot), wall in zip(tracer.rounds, traced_s)]
    units = {name: unit for name, unit, _ in PER_LAYER}
    mismatched = []
    result = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if units[name] in EXACT_UNITS and len(set(values)) > 1:
            mismatched.append(f"{name} differs between traced rounds: {values}")
        result[name] = statistics.median(values)
    base = statistics.median(untraced_s)
    result["trace.overhead_s"] = statistics.median(
        traced - untraced for traced, untraced in zip(traced_s, untraced_s))
    result["trace.overhead_frac"] = _ratio(result["trace.overhead_s"], base)
    return result, mismatched
