"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines for passing checks too.
"""

import math
import time

import numpy as np
import pytest

from qdelay import (
    CONSTANT,
    MOVING_AVERAGE,
    ModelParams,
    checks,
    critical_delay_constant,
    critical_delay_ma,
    hopf_curve,
    ma_candidate_roots,
    simulate,
    simulate_reference,
)
from qdelay.analysis import (
    OSCILLATORY,
    SYNCHRONIZED,
    classify_stability,
    conservation_check,
)


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _classify(model, lam, mu, delta, horizon):
    params = ModelParams(lam, mu, delta)
    start = time.perf_counter()
    traj = simulate(model, params, horizon=horizon)
    elapsed = time.perf_counter() - start
    return classify_stability(traj, params), elapsed


def _ma_threshold(d):
    # the delay form of the moving-average threshold condition at lam=10, mu=1
    w = math.sqrt(10.0 / d - 1.0)
    return math.sin(d * w) + (2.0 * d / 10.0) * w


def _bisect(f, lo, hi, n=200):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0.0
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_a01_constant_threshold_value_and_runtime():
    critical_delay_constant(10.0, 1.0)  # warm-up
    start = time.perf_counter()
    point = critical_delay_constant(10.0, 1.0)
    elapsed = time.perf_counter() - start
    ok = 0.3607 <= point.delta_cr <= 0.3627 and elapsed < 1e-3
    _check("A01 constant threshold (10, 1)",
           ok, f"delta_cr = {point.delta_cr:.6f} in [0.3607, 0.3627], "
               f"runtime {1e6 * elapsed:.1f} us < 1 ms")


def test_a02_constant_regimes_low_rate():
    low, t_low = _classify(CONSTANT, 10.0, 1.0, 0.34, 200.0)
    high, t_high = _classify(CONSTANT, 10.0, 1.0, 0.40, 200.0)
    ok = (low.classification == SYNCHRONIZED and high.classification == OSCILLATORY
          and t_low < 1.0 and t_high < 1.0)
    _check("A02 regimes at lam=10, mu=1, T=200",
           ok, f"delta=0.34 -> {low.classification}, delta=0.40 -> "
               f"{high.classification}; runs {t_low:.2f}s / {t_high:.2f}s < 1s")


def test_a03_constant_regimes_high_rate():
    point = critical_delay_constant(100.0, 5.0)
    low, _ = _classify(CONSTANT, 100.0, 5.0, 0.02, 100.0)
    high, _ = _classify(CONSTANT, 100.0, 5.0, 0.05, 100.0)
    ok = (low.classification == SYNCHRONIZED and high.classification == OSCILLATORY
          and 0.02 < point.delta_cr < 0.05
          and point.delta_cr == pytest.approx(0.0336, abs=1e-4))
    _check("A03 regimes at lam=100, mu=5, T=100",
           ok, f"delta=0.02 -> {low.classification}, delta=0.05 -> "
               f"{high.classification}, delta_cr = {point.delta_cr:.5f} "
               f"inside (0.02, 0.05)")


def test_a04_moving_average_regimes():
    """Moving-average regimes at lam=10, mu=1 with T=300, plus the root bracket.

    Below the 2.1448 threshold the slowest difference mode decays at only
    |Re r| ~ 0.008, so at delta = 2 a T = 300 run still carries a transient
    of amplitude ~0.6.  The synchronized verdict rests on the envelope fit
    of classify_stability, which finds that decay rate and a limit
    amplitude of 0; the raw amplitude alone needs a horizon near 2000 (see
    test_analysis.py::TestNearThresholdDecay).
    """
    low, _ = _classify(MOVING_AVERAGE, 10.0, 1.0, 2.0, 300.0)
    high, _ = _classify(MOVING_AVERAGE, 10.0, 1.0, 4.0, 300.0)
    oracle = _bisect(_ma_threshold, 2.0, 2.2)
    points = critical_delay_ma(10.0, 1.0)
    root_ok = (2.0 < points[0].delta_cr < 2.2
               and points[0].delta_cr == pytest.approx(oracle, abs=1e-8))
    ok = (low.classification == SYNCHRONIZED
          and high.classification == OSCILLATORY and root_ok)
    _check("A04 moving-average regimes at lam=10, mu=1, T=300",
           ok, f"delta=2 -> {low.classification} (amplitude {low.amplitude:.3f}; "
               f"synchronized expected), delta=4 -> {high.classification}, "
               f"smallest validated root {points[0].delta_cr:.4f} in (2.0, 2.2) "
               f"matching bisection oracle {oracle:.4f}")


def test_a05_extraneous_root_rejection():
    # the squared (delay) form of the threshold condition changes sign near
    # delta = 4; the phase equation must not report a Hopf point there
    delta = _bisect(_ma_threshold, 3.95, 4.1)
    omega = math.sqrt(10.0 / delta - 1.0)
    required = 1.0 - 2.0 * delta * omega ** 2 / 10.0
    actual = math.cos(omega * delta)
    near_four = [p for p in ma_candidate_roots(10.0, 1.0) if 3.9 < p.delta_cr < 4.2]
    ok = not near_four and abs(actual - required) > 0.3
    _check("A05 extraneous root rejection near delta=4",
           ok, f"sign change at delta = {delta:.4f} not reported "
               f"({len(near_four)} points in (3.9, 4.2)); cos condition "
               f"{actual:+.3f} vs required {required:+.3f} "
               f"(disagreement {abs(actual - required):.3f} > 0.3)")


def test_a06_conservation_randomized():
    rng = np.random.default_rng(42)
    worst = 0.0
    for model, delta_range in ((CONSTANT, (0.2, 1.0)), (MOVING_AVERAGE, (0.5, 2.0))):
        for _ in range(10):
            lam = rng.uniform(2.0, 100.0)
            mu = rng.uniform(0.5, 5.0)
            delta = rng.uniform(*delta_range)
            params = ModelParams(lam, mu, delta)
            q = params.lam / (2.0 * params.mu)
            traj = simulate_reference(model, params, horizon=50.0, phi1=1.3 * q,
                                      phi2=0.8 * q)
            worst = max(worst, conservation_check(traj, params))
    _check("A06 conservation over 10 randomized scenarios per model",
           worst < 1e-6, f"max |q1+q2 - s(t)| = {worst:.2e} < 1e-6")


def test_a07_characteristic_residuals_on_lambda_grids():
    def grid(model):
        return [p for mu in (0.5, 1.0) for p in hopf_curve(model, mu, (2.5, 100.0), 20)]

    worst_constant = checks.worst_residual(CONSTANT, grid(CONSTANT))
    ma_points = grid(MOVING_AVERAGE)
    worst_ma = checks.worst_residual(MOVING_AVERAGE, ma_points)
    n_ma = len(ma_points)
    ok = worst_constant < 1e-9 and worst_ma < 1e-8 and n_ma > 0
    _check("A07 residuals at produced Hopf points (20-point grids, mu in {0.5, 1})",
           ok, f"constant max |R| = {worst_constant:.2e} < 1e-9; "
               f"moving-average max |R| = {worst_ma:.2e} < 1e-8 over {n_ma} points")


def test_a08_crossing_direction_oracle():
    rates = ((10.0, 1.0), (100.0, 5.0), (20.0, 2.0))
    points = [critical_delay_constant(lam, mu) for lam, mu in rates]
    ok = 0 not in checks.crossing_signs(CONSTANT, points, 1e-3)
    details = [f"({lam:g},{mu:g})" for lam, mu in rates]
    _check("A08 crossing-direction signs match the implicit-function rate",
           ok, "tracked root and crossing_rate agree for " + ", ".join(details)
               + " at delta_cr +- 1e-3")


def test_a09_monotone_hopf_curve():
    ok = True
    for mu in (0.5, 1.0):
        points = hopf_curve(CONSTANT, mu, (2.5, 100.0), 50)
        deltas = [p.delta_cr for p in points]
        ok = ok and len(points) == 50 and all(
            a > b for a, b in zip(deltas, deltas[1:]))
    _check("A09 critical delay strictly decreasing in lambda (50 points)",
           ok, "strictly decreasing for mu = 0.5 and mu = 1")


def test_a10_symmetry_and_order():
    params = ModelParams(10.0, 1.0, 0.4)
    same = simulate_reference(CONSTANT, params, horizon=100.0, phi1=7.0, phi2=7.0)
    manifold_dev = float(np.max(np.abs(same.states[:, 0] - same.states[:, 1])))
    swap_exact = checks.swap_is_exact(CONSTANT, params, 100.0, 5.5, 4.5)
    ratio = checks.order_ratio(params, 7.0, 4.0, 0.05)
    ok = manifold_dev < 1e-12 and swap_exact and 12.0 < ratio < 20.0
    _check("A10 symmetry and fourth-order convergence",
           ok, f"|q1 - q2| = {manifold_dev:.1e} < 1e-12 on identical histories; "
               f"swap exact: {swap_exact}; error ratio {ratio:.2f} ~ 16")


def test_a11_moving_average_high_rate_regimes_off_threshold():
    # threshold for lam=100, mu=1 sits near 0.103; assert regimes well away
    # from it rather than at the ambiguous delta = 0.1
    points = critical_delay_ma(100.0, 1.0)
    low, _ = _classify(MOVING_AVERAGE, 100.0, 1.0, 0.05, 100.0)
    high, _ = _classify(MOVING_AVERAGE, 100.0, 1.0, 0.15, 100.0)
    ok = (low.classification == SYNCHRONIZED
          and high.classification == OSCILLATORY
          and points[0].delta_cr == pytest.approx(0.103, abs=1e-3))
    _check("A11 moving-average regimes at lam=100, mu=1 away from threshold",
           ok, f"threshold {points[0].delta_cr:.4f}; delta=0.05 -> "
               f"{low.classification}, delta=0.15 -> {high.classification}")
