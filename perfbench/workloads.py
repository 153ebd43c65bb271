"""Seeded inputs, timed calls, correctness gates and oracles of the workloads.

A workload turns its seed into one *round*: a fixed list of items, each one
public call into qdelay.  The timed phase repeats the round, so every round
does identical work.  Inputs come from a randomly shifted rank-1 lattice:
each seed gives other parameter values, but every round covers its ranges
evenly, so its cost hardly depends on the seed.

Each workload provides

* ``items`` and ``size(item)``: the round, and how many cells, threshold
  queries or exported trajectories an item counts for;
* ``warm_up()``: one small untimed call per entry point;
* ``run(item)``: the timed call;
* ``gate(item, result)``: hard correctness checks, returning failure texts;
* ``agree(item, result)``: the independent oracle, returning the number of
  units it agrees on and a text per disagreement;
* ``fingerprint(result)``: bytes that must repeat from round to round.

Reference thresholds are computed here, independently of
``qdelay.stability``, from the imaginary-axis conditions of the
characteristic equations.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

import numpy as np

from qdelay import analysis, cli, models, stability

CONSTANT = models.CONSTANT
MOVING_AVERAGE = models.MOVING_AVERAGE

# Relative delay offset of the crossing-direction query: root_track runs at
# delta_cr * (1 -+ EPS).
EPS = 1e-3


def _lattice(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points of a shifted Korobov lattice in [0, 1)^dims, in random order."""
    a = max(1, round(0.618034 * n))
    while a > 1 and math.gcd(a, n) != 1:
        a -= 1
    shifts = [rng.random() for _ in range(dims)]
    points = [[(i * pow(a, j, n) / n + shifts[j]) % 1.0 for j in range(dims)]
              for i in range(n)]
    rng.shuffle(points)
    return points


def _log_scale(x: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** x


def _bisect(g, lo: float, hi: float) -> float:
    g_lo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (g(mid) < 0.0) == (g_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_threshold(model: str, lam: float, mu: float) -> float | None:
    """Smallest delay at which a characteristic root reaches the imaginary axis.

    Constant delay: r = i omega solves r + (lam/2) e^(-r delta) + mu = 0 for
    lam > 2 mu at delta = arccos(-2 mu / lam) / omega.

    Moving average: with the phase theta = omega delta, the real and
    imaginary parts of the cleared residual at r = i omega give
    lam sin(theta) + 2 mu theta = 0 and
    delta = 2 theta^2 / (lam (1 - cos theta)).  The roots lie in the
    intervals (k pi, (k + 1) pi) with k odd, about pi apart whatever
    lam / mu is, so each interval is bisected on both sides of the minimum
    of the phase equation.
    """
    if model == CONSTANT:
        if lam <= 2.0 * mu:
            return None
        return math.acos(-2.0 * mu / lam) / (0.5 * math.sqrt(lam * lam - 4.0 * mu * mu))

    def g(theta):
        return lam * math.sin(theta) + 2.0 * mu * theta

    best = None
    k = 1
    while 2.0 * mu * k * math.pi < lam:
        lo, hi = k * math.pi, (k + 1) * math.pi
        low_point = lo + math.acos(2.0 * mu / lam)
        if g(low_point) < 0.0:
            for a, b in ((lo, low_point), (low_point, hi)):
                theta = _bisect(g, a, b)
                delta = 2.0 * theta * theta / (lam * (1.0 - math.cos(theta)))
                best = delta if best is None else min(best, delta)
        k += 2
    return best


class Workload:
    """Defaults for workloads whose items count once and never fail softly."""

    def size(self, item) -> int:
        return 1

    def failed(self, item, result) -> int:
        return 0


# --------------------------------------------------------------------------
# regime-sweep


class RegimeSweep(Workload):
    """analysis.sweep once per seeded (model, lam, mu), over delays on both
    sides of the reference threshold.

    Nearly all the time is the dde RK4 step loop and the models rhs calls,
    and the cells of one call are independent, so a batched kernel shows
    here; stability computes one threshold per call.  High-rate
    moving-average cells cost ~4e5 steps each and are left out; the missed
    threshold they would expose shows in hopf-thresholds.  The horizon is
    60 reference thresholds: the slowest decay, at 0.65 delta_ref for
    lam/mu = 12, then leaves the tail amplitude ~25x below the synchronized
    bound.  With mu >= 15 the step is delta / 20 in nearly every cell, so a
    cell costs ~1200 / factor nodes whatever lam/mu is, and every sweep call
    costs about the same.
    """

    name = "regime-sweep"
    unit = "cells"
    tail_level = 75
    FACTORS = (0.5, 0.65, 1.5, 2.0)
    HORIZON_THRESHOLDS = 60.0
    MU = (15.0, 25.0)
    PER_MODEL = 10

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for model, lo, hi in ((CONSTANT, 4.0, 40.0), (MOVING_AVERAGE, 12.0, 40.0)):
            for x, y in _lattice(rng, self.PER_MODEL, 2):
                mu = _log_scale(y, *self.MU)
                lam = _log_scale(x, lo, hi) * mu
                ref = reference_threshold(model, lam, mu)
                self.items.append({
                    "model": model, "lam": lam, "mu": mu, "ref": ref,
                    "deltas": [f * ref for f in self.FACTORS],
                    "horizon": self.HORIZON_THRESHOLDS * ref})
        rng.shuffle(self.items)

    def size(self, item) -> int:
        return len(item["deltas"])

    def warm_up(self) -> None:
        analysis.sweep(CONSTANT, 1.0, [10.0], [0.2], horizon=2.0)

    def run(self, item):
        return analysis.sweep(item["model"], item["mu"], [item["lam"]], item["deltas"],
                              horizon=item["horizon"])

    def failed(self, item, rows) -> int:
        return sum(r.observed == analysis.FAILED for r in rows)

    def gate(self, item, rows) -> list[str]:
        verdicts = {analysis.SYNCHRONIZED, analysis.OSCILLATORY, analysis.INCONCLUSIVE,
                    analysis.FAILED}
        problems = []
        if [(r.lam, r.delta) for r in rows] != [(item["lam"], d) for d in item["deltas"]]:
            problems.append(f"{_describe(item)}: rows not in grid order")
        for r in rows:
            if r.observed not in verdicts:
                problems.append(f"{_describe(item)} delta={r.delta:.6g}: "
                                f"invalid verdict {r.observed!r}")
            elif r.observed != analysis.FAILED and not math.isfinite(r.amplitude):
                problems.append(f"{_describe(item)} delta={r.delta:.6g}: "
                                f"non-finite amplitude")
        return problems

    def agree(self, item, rows):
        agreed = 0
        notes = []
        for r in rows:
            expected = analysis.SYNCHRONIZED if r.delta < item["ref"] else analysis.OSCILLATORY
            if r.observed == expected:
                agreed += 1
            else:
                notes.append(f"{_describe(item)} delta={r.delta:.6g}: observed {r.observed}, "
                             f"reference threshold {item['ref']:.6g} predicts {expected}")
        return agreed, notes

    def fingerprint(self, rows) -> bytes:
        return repr([(r.observed, r.amplitude) for r in rows]).encode()


# --------------------------------------------------------------------------
# hopf-thresholds


def _newton_tol(model: str, lam: float, mu: float, delta: float) -> float:
    # root_track's default absolute tolerance of 1e-12 is below the rounding
    # of the moving-average residual once lam / delta reaches ~1e5; scale it
    # with the size of the residual's terms instead
    scale = lam + mu if model == CONSTANT else lam / delta + mu * mu
    return max(1e-12, 1e-13 * scale)


def _track(model: str, point, delta: float, seed: complex) -> complex:
    return stability.root_track(model, point.lam, point.mu, delta, seed,
                                tol=_newton_tol(model, point.lam, point.mu, delta))


def _right_half_plane(r: complex) -> bool:
    # the cleared moving-average residual has a spurious root at r = 0
    return r.real > 1e-9 * (1.0 + abs(r))


class HopfThresholds(Workload):
    """Threshold queries through critical_delay_constant, critical_delay_ma
    (with and without a bracket) and hopf_curve, each followed by root_track
    at delta_cr * (1 -+ EPS) for the crossing direction.

    This workload loads stability only: it is the control for every dde or
    models change, where the prediction is no change.  lam/mu runs on a
    log grid from 3 to 1000, which covers lam/mu >~ 316, where the default
    scan of critical_delay_ma misses the smallest thresholds.  The bracket
    (1e-6, 1) * lam / mu^2 reaches below the smallest root there.  A
    hopf_curve call counts as one query.
    """

    name = "hopf-thresholds"
    unit = "threshold queries"
    tail_level = 90
    RATIO = (3.0, 1000.0)
    MU = (0.5, 2.0)
    # (model, top lam/mu, points) of each hopf_curve call.  The lam/mu grids
    # are fixed, so their cost and agreement do not depend on the seed; the
    # grids to lam/mu = 1000 cross the missed-threshold region.
    CURVES = ((CONSTANT, 300.0, 8), (CONSTANT, 1000.0, 8),
              (MOVING_AVERAGE, 300.0, 4), (MOVING_AVERAGE, 1000.0, 4))
    NEWTON_SEEDS = 16

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for kind, n in (("constant", 16), ("ma", 48), ("ma-bracket", 12)):
            # a query's cost depends on lam/mu alone and steps with the number
            # of roots it brackets, so lam/mu sits on a fixed grid and the seed
            # draws mu: every seed then costs the same
            for i, (y,) in enumerate(_lattice(rng, n, 1)):
                mu = _log_scale(y, *self.MU)
                lam = _log_scale((i + 0.5) / n, *self.RATIO) * mu
                bracket = (1e-6 * lam / mu ** 2, lam / mu ** 2) if kind == "ma-bracket" else None
                model = CONSTANT if kind == "constant" else MOVING_AVERAGE
                self.items.append({"kind": kind, "model": model, "lam": lam, "mu": mu,
                                   "bracket": bracket})
        for (model, top, n), (y,) in zip(self.CURVES, _lattice(rng, len(self.CURVES), 1)):
            mu = _log_scale(y, *self.MU)
            self.items.append({"kind": "curve", "model": model, "mu": mu,
                               "range": (self.RATIO[0] * mu, top * mu), "n": n})
        rng.shuffle(self.items)

    def warm_up(self) -> None:
        stability.critical_delay_constant(10.0, 1.0)
        stability.critical_delay_ma(10.0, 1.0)
        stability.critical_delay_ma(10.0, 1.0, bracket=(1e-5, 10.0))
        for point in stability.hopf_curve(CONSTANT, 1.0, (10.0, 20.0), 2):
            _track(CONSTANT, point, point.delta_cr, 1j * point.omega)

    def run(self, item):
        model = item["model"]
        if item["kind"] == "constant":
            point = stability.critical_delay_constant(item["lam"], item["mu"])
            points = [] if point is None else [point]
        elif item["kind"] == "curve":
            points = stability.hopf_curve(model, item["mu"], item["range"], item["n"])
        else:
            points = stability.critical_delay_ma(item["lam"], item["mu"],
                                                 bracket=item["bracket"])
        crossings = [(_track(model, p, p.delta_cr * (1.0 - EPS), 1j * p.omega),
                      _track(model, p, p.delta_cr * (1.0 + EPS), 1j * p.omega))
                     for p in points]
        return points, crossings

    def gate(self, item, result) -> list[str]:
        residual = (stability.characteristic_residual_constant if item["model"] == CONSTANT
                    else stability.characteristic_residual_ma)
        problems = []
        for p in result[0]:
            value = abs(residual(1j * p.omega, p.lam, p.mu, p.delta_cr))
            if not value < 1e-8:
                problems.append(f"{item['model']} lam={p.lam:.6g} mu={p.mu:.6g} "
                                f"delta_cr={p.delta_cr:.6g}: |residual(i omega)| = {value:.3g}")
        return problems

    def _grid(self, item):
        if item["kind"] == "curve":
            return [float(lam) for lam in np.linspace(*item["range"], item["n"])]
        return [item["lam"]]

    def agree(self, item, result):
        """Newton from i k pi / delta, k = 1..16, at delta_cr (1 - EPS) must
        find no right-half-plane root, and the critical root tracked to
        delta_cr (1 + EPS) must be in the right half-plane.  Where no
        threshold is reported, the reference must find none either.  A
        hopf_curve call agrees when every point of its lambda grid does."""
        model = item["model"]
        mu = item["mu"]
        smallest = {}
        for p, crossing in zip(*result):
            if p.lam not in smallest or p.delta_cr < smallest[p.lam][0].delta_cr:
                smallest[p.lam] = p, crossing[1]
        agreed = 0
        notes = []
        for lam in self._grid(item):
            where = f"{model} (lam={lam:.6g}, mu={mu:.6g})"
            point, above = smallest.get(lam, (None, None))
            if point is None:
                ref = reference_threshold(model, lam, mu)
                if ref is None:
                    agreed += 1
                else:
                    notes.append(f"{where}: no threshold reported, reference {ref:.6g}")
                continue
            below = point.delta_cr * (1.0 - EPS)
            unstable = []
            for k in range(1, self.NEWTON_SEEDS + 1):
                try:
                    root = _track(model, point, below, 1j * k * math.pi / below)
                except (stability.ConvergenceError, OverflowError):
                    # a seed whose Newton iterates diverge locates no root
                    continue
                if _right_half_plane(root):
                    unstable.append(root)
            if unstable:
                worst = max(unstable, key=lambda r: r.real)
                notes.append(f"{where}: reported delta_cr={point.delta_cr:.6g}, but at "
                             f"delta_cr(1-eps) a root has Re r = {worst.real:.4g} "
                             f"(Im r = {worst.imag:.4g})")
            elif not _right_half_plane(above):
                notes.append(f"{where}: reported delta_cr={point.delta_cr:.6g}, but the "
                             f"critical root at delta_cr(1+eps) has Re r = {above.real:.3g}")
            else:
                agreed += 1
        return int(agreed == len(self._grid(item))), notes

    def fingerprint(self, result) -> bytes:
        points, crossings = result
        return repr([(p.lam, p.delta_cr, p.omega, p.validated) for p in points]
                    + crossings).encode()


# --------------------------------------------------------------------------
# trajectory-export


class TrajectoryExport(Workload):
    """cli.run(["simulate", ..., "--out", f]) on both models at long
    horizons, then reads the result back: Trajectory.eval at seeded off-node
    times and models.ma_from_trajectory window averages.

    The only workload that needs every node stored and written, so it holds
    writes beside reads: a streaming, O(m)-memory or difference-mode kernel
    that helps regime-sweep must cost nothing here.  It is the only one that
    loads cli and dense output.  Horizons are sized from a node target with
    the default-step rule, min(0.01, 0.1 / mu, delta / 20), so each round
    integrates about the same number of nodes whatever the seed.
    """

    name = "trajectory-export"
    unit = "trajectories"
    tail_level = 75
    PER_MODEL = 5
    NODES = 10000
    EVAL_CALLS = 4
    EVAL_POINTS = 250
    WINDOWS = 8

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for model, lo, hi in ((CONSTANT, 4.0, 40.0), (MOVING_AVERAGE, 12.0, 40.0)):
            for x, y, z in _lattice(rng, self.PER_MODEL, 3):
                mu = _log_scale(y, 0.8, 1.25)
                lam = _log_scale(x, lo, hi) * mu
                delta = _log_scale(z, 0.5, 2.0) * reference_threshold(model, lam, mu)
                step = min(0.01, 0.1 / mu, delta / 20.0)
                horizon = self.NODES * step
                self.items.append({
                    "model": model, "lam": lam, "mu": mu, "delta": delta,
                    "horizon": horizon,
                    # the last node can fall one aligned step short of the
                    # horizon, and step <= horizon / NODES
                    "eval_times": [np.array([rng.uniform(0.25, 0.999) * horizon
                                             for _ in range(self.EVAL_POINTS)])
                                   for _ in range(self.EVAL_CALLS)],
                    "windows": [rng.uniform(max(delta, 0.25 * horizon), 0.999 * horizon)
                                for _ in range(self.WINDOWS)]})
        rng.shuffle(self.items)
        for index, item in enumerate(self.items):
            item["out"] = str(out_dir / f"export-{index}.csv")
        self._warm_out = str(out_dir / "export-warm-up.csv")

    def warm_up(self) -> None:
        self.run({"model": MOVING_AVERAGE, "lam": 20.0, "mu": 1.0, "delta": 1.0,
                  "horizon": 2.0, "eval_times": [np.array([0.5, 1.5])],
                  "windows": [1.5], "out": self._warm_out})
        Path(self._warm_out).unlink()

    def run(self, item):
        argv = ["simulate", "--model", item["model"], "--lambda", repr(item["lam"]),
                "--mu", repr(item["mu"]), "--delta", repr(item["delta"]),
                "--horizon", repr(item["horizon"]), "--out", item["out"]]
        # cli.run returns only an exit code; keep the trajectory it wrote
        captured = []
        simulate = models.simulate

        def capture(*args, **kwargs):
            traj = simulate(*args, **kwargs)
            captured.append(traj)
            return traj

        models.simulate = capture
        try:
            code = cli.run(argv)
        finally:
            models.simulate = simulate
        if code != 0:
            raise RuntimeError(f"qdelay {' '.join(argv)} exited with {code}")
        traj = captured[0]
        evals = [traj.eval(t) for t in item["eval_times"]]
        windows = [models.ma_from_trajectory(traj, t, item["delta"]) for t in item["windows"]]
        return traj, evals, windows

    def gate(self, item, result) -> list[str]:
        traj, _, windows = result
        where = _describe(item)
        problems = []
        data = np.loadtxt(item["out"], delimiter=",", skiprows=1, ndmin=2)
        expected = np.column_stack([traj.times, traj.states])
        if data.shape != expected.shape:
            problems.append(f"{where}: CSV has shape {data.shape}, trajectory {expected.shape}")
        elif not np.all(np.abs(data - expected) <= 5e-9 * (1.0 + 1e-9) * np.abs(expected)):
            worst = float(np.max(np.abs(data - expected) / np.maximum(np.abs(expected), 1e-300)))
            problems.append(f"{where}: CSV differs from the trajectory beyond 9 significant "
                            f"digits (relative {worst:.3g})")
        params = models.ModelParams(lam=item["lam"], mu=item["mu"], delta=item["delta"])
        drift = analysis.conservation_check(traj, params)
        if not drift < 1e-6:
            problems.append(f"{where}: conservation_check = {drift:.3g}")
        if item["model"] == MOVING_AVERAGE:
            # the window average is a trapezoid rule at the step, second order
            # where the integrator is fourth order: on a limit cycle the two
            # part by up to ~3e-5 of the equilibrium queue length
            integrator = traj.eval(np.array(item["windows"]))[:, 2:4]
            gap = float(np.max(np.abs(np.array(windows)[:, :2] - integrator)))
            if not gap < 1e-4 * models.equilibrium(params):
                problems.append(f"{where}: ma_from_trajectory differs from the integrated "
                                f"m1, m2 by {gap:.3g}")
        return problems

    def agree(self, item, result):
        """Dense output against cubic Lagrange interpolation of the CSV rows
        through the four nearest nodes, within 1e-5 of the equilibrium."""
        _, evals, _ = result
        data = np.loadtxt(item["out"], delimiter=",", skiprows=1, ndmin=2)
        times = data[:, 0]
        worst = 0.0
        for t, values in zip(item["eval_times"], evals):
            first = np.clip(np.searchsorted(times, t) - 2, 0, times.size - 4)
            nodes = first[:, None] + np.arange(4)
            tn = times[nodes]
            weights = np.ones((t.size, 4))
            for j in range(4):
                for m in range(4):
                    if m != j:
                        weights[:, j] *= (t - tn[:, m]) / (tn[:, j] - tn[:, m])
            interpolated = np.einsum("pj,pjd->pd", weights, data[nodes, 1:])
            worst = max(worst, float(np.max(np.abs(interpolated - values))))
        scale = models.equilibrium(models.ModelParams(item["lam"], item["mu"], item["delta"]))
        if worst <= 1e-5 * scale:
            return 1, []
        return 0, [f"{_describe(item)}: Trajectory.eval differs from cubic interpolation "
                   f"of the CSV by {worst / scale:.3g} of the equilibrium"]

    def fingerprint(self, result) -> bytes:
        traj, evals, windows = result
        digest = hashlib.sha256(traj.states.tobytes())
        for array in (*evals, *windows):
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.digest()


def _describe(item) -> str:
    text = f"{item['model']} (lam={item['lam']:.6g}, mu={item['mu']:.6g}"
    if "delta" in item:
        text += f", delta={item['delta']:.6g}"
    return text + ")"


WORKLOADS = {w.name: w for w in (RegimeSweep, HopfThresholds, TrajectoryExport)}
