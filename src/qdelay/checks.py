"""Invariant checks of the models and the Hopf thresholds, shared by
``qdelay verify`` and the test suite.

Each measurement is a function of its scenario and returns what it
measured; the caller holds the bound.  ``SUITE`` is the table of
``(name, check)`` pairs that ``qdelay verify`` runs: each check measures
fixed scenarios and returns ``(ok, detail)``.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, models, stability

__all__ = ["SUITE", "crossing_signs", "order_ratio", "scaling_deviations",
           "swap_is_exact", "worst_residual"]


def swap_is_exact(model: str, params: models.ModelParams, horizon: float,
                  phi1: float, phi2: float) -> bool:
    """Whether swapping the histories swaps the full-state trajectories
    exactly: q1 with q2 and, in the moving-average model, m1 with m2."""
    a = models.simulate_reference(model, params, horizon, phi1=phi1, phi2=phi2)
    b = models.simulate_reference(model, params, horizon, phi1=phi2, phi2=phi1)
    swapped = [1, 0, 3, 2][:a.dimension]
    return bool(np.array_equal(a.states, b.states[:, swapped]))


def order_ratio(params: models.ModelParams, phi: float, horizon: float,
                step: float) -> float:
    """Ratio of the max errors of full-state constant-model runs at ``step``
    and ``step / 2`` from the identical histories phi, on which
    q1 = q2 = q* + (phi - q*) e^(-mu t): about 16 for a fourth-order scheme."""
    q = models.equilibrium(params)

    def max_err(h):
        traj = models.simulate_reference(models.CONSTANT, params, horizon, step=h,
                                         phi1=phi, phi2=phi)
        exact = q + (phi - q) * np.exp(-params.mu * traj.times)
        return float(np.max(np.abs(traj.states[:, 0] - exact)))

    return max_err(step) / max_err(0.5 * step)


def worst_residual(model: str, points) -> float:
    """Max |characteristic residual| at r = i omega over Hopf points; 0 for
    no points."""
    residual = {models.CONSTANT: stability.characteristic_residual_constant,
                models.MOVING_AVERAGE: stability.characteristic_residual_ma}[model]
    return max((abs(residual(1j * p.omega, p.lam, p.mu, p.delta_cr)) for p in points),
               default=0.0)


def crossing_signs(model: str, points, eps: float) -> list[int]:
    """Crossing direction of each Hopf point by the sign of ``crossing_rate``:
    +1 where the critical pair enters the right half-plane as the delay
    grows, -1 where it leaves it, and 0 where the roots that ``root_track``
    finds from i omega at ``delta_cr + eps`` and ``delta_cr - eps`` do not
    lie strictly on the sides that sign predicts."""
    signs = []
    for p in points:
        sign = analysis._crossing_direction(model, p)
        for side in (1, -1):
            root = stability.root_track(model, p.lam, p.mu, p.delta_cr + side * eps,
                                        1j * p.omega)
            if not side * sign * root.real > 0.0:
                sign = 0
        signs.append(sign)
    return signs


def scaling_deviations(model: str, params: models.ModelParams, c: float,
                       horizon: float, step: float) -> tuple[float, float, float]:
    """Worst deviations under (lam, mu, delta) -> (c lam, c mu, delta / c),
    the time rescaling t -> t / c, which maps solutions onto solutions.

    Returns the worst relative deviation of the rescaled Hopf points
    (``hopf_points`` up to ``params.delta``) from ``(delta_cr / c, c omega)``
    and of their ``crossing_rate`` from ``c^2 rate``, and the max deviation,
    in units of q*, of ``simulate_difference`` on the rescaled grid (horizon
    and step over c) from the original run.  Lists or grids of different
    lengths deviate by inf; a NaN deviation is returned as NaN.
    """
    lam, mu, delta = params.lam, params.mu, params.delta
    scaled = models.ModelParams(c * lam, c * mu, delta / c)
    points = stability.hopf_points(model, lam, mu, delta)
    moved = stability.hopf_points(model, scaled.lam, scaled.mu, scaled.delta)
    thresholds, rates = [0.0], [0.0]
    if len(points) != len(moved):
        thresholds.append(math.inf)
        rates.append(math.inf)
    for p, s in zip(points, moved):
        thresholds += [abs(c * s.delta_cr - p.delta_cr) / p.delta_cr,
                       abs(s.omega / c - p.omega) / p.omega]
        rate = stability.crossing_rate(model, lam, mu, p.delta_cr, 1j * p.omega)
        moved_rate = stability.crossing_rate(model, s.lam, s.mu, s.delta_cr,
                                             1j * s.omega)
        rates.append(abs(moved_rate / c ** 2 - rate) / abs(rate))
    _, u = models.simulate_difference(model, params, horizon, step)
    _, v = models.simulate_difference(model, scaled, horizon / c, step / c)
    kernel = np.max(np.abs(v - u)) / models.equilibrium(params) \
        if u.size == v.size else math.inf
    return float(np.max(thresholds)), float(np.max(rates)), float(kernel)


_FIG = models.ModelParams(lam=10.0, mu=1.0, delta=0.4)


def _mnl_normalised():
    pairs = [(0.0, 0.0), (3.0, -2.0), (0.0, 800.0), (-700.0, 700.0), (5.5, 4.5)]
    worst = 0.0
    for a, b in pairs:
        w1, w2 = models.mnl_weights(a, b)
        if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
            return False, f"weight outside [0, 1] at {(a, b)}"
        worst = max(worst, abs(w1 + w2 - 1.0))
    return worst <= 1e-15, f"max |w1 + w2 - 1| = {worst:.2e}"


def _equilibrium_fixed_point():
    q = models.equilibrium(_FIG)
    traj = models.simulate_reference(models.CONSTANT, _FIG, horizon=20.0,
                                     phi1=q, phi2=q)
    dev = float(np.max(np.abs(traj.states - q)))
    return dev <= 1e-12, f"max deviation from equilibrium = {dev:.2e}"


def _conservation(model, params, phi1, phi2):
    traj = models.simulate_reference(model, params, horizon=100.0, phi1=phi1, phi2=phi2)
    dev = analysis.conservation_check(traj, params)
    return dev < 1e-6, f"max |q1+q2 - s(t)| = {dev:.2e}"


def _invariant_manifold():
    traj = models.simulate_reference(models.CONSTANT, _FIG, horizon=50.0,
                                     phi1=7.0, phi2=7.0)
    dev = float(np.max(np.abs(traj.states[:, 0] - traj.states[:, 1])))
    return dev < 1e-12, f"max |q1 - q2| = {dev:.2e}"


def _swap_symmetry():
    return (swap_is_exact(models.CONSTANT, _FIG, 50.0, 5.5, 4.5),
            "swapped histories swap the trajectories exactly")


def _residual_constant():
    points = [p for mu in (0.5, 1.0)
              for p in stability.hopf_curve(models.CONSTANT, mu, (2.5, 100.0), 20)]
    worst = worst_residual(models.CONSTANT, points)
    return worst < 1e-9, f"max |residual(i omega)| = {worst:.2e}"


def _residual_ma():
    points = [p for lam in (10.0, 30.0, 100.0)
              for p in stability.critical_delay_ma(lam, 1.0)]
    worst = worst_residual(models.MOVING_AVERAGE, points)
    return (len(points) > 0 and worst < 1e-8), \
        f"{len(points)} roots, max |residual| = {worst:.2e}"


def _crossing_direction():
    constant = [stability.critical_delay_constant(lam, mu)
                for lam, mu in ((10.0, 1.0), (20.0, 2.0))]
    ma = stability.critical_delay_ma(10.0, 1.0)
    signs = crossing_signs(models.CONSTANT, constant, 1e-3) \
        + crossing_signs(models.MOVING_AVERAGE, ma, 1e-3)
    for p, sign in zip(constant + ma, signs):
        if sign == 0:
            return False, (f"sign mismatch at lambda={p.lam}, mu={p.mu}, "
                           f"delta_cr={p.delta_cr:.6g}")
    # the moving-average pair at (10, 1) enters, then leaves, the right half-plane
    ok = signs[-2:] == [1, -1]
    return ok, ("root-tracking signs match crossing_rate; moving-average "
                f"(10, 1) crossings {signs[-2]:+d}, {signs[-1]:+d}")


def _regime_boundary():
    verdicts = []
    for delta in (0.34, 0.40):
        params = models.ModelParams(lam=10.0, mu=1.0, delta=delta)
        traj = models.simulate(models.CONSTANT, params, horizon=200.0)
        verdicts.append(analysis.classify_stability(
            traj, 0.5, *analysis.default_thresholds(params)).classification)
    ok = verdicts == [analysis.SYNCHRONIZED, analysis.OSCILLATORY]
    return ok, f"delta=0.34 -> {verdicts[0]}, delta=0.40 -> {verdicts[1]}"


def _threshold_vs_simulation():
    point = stability.critical_delay_constant(10.0, 1.0)
    flip = analysis.locate_transition(models.CONSTANT, 10.0, 1.0,
                                      0.5 * point.delta_cr, 1.5 * point.delta_cr)
    rel = abs(flip - point.delta_cr) / point.delta_cr
    return rel < 0.05, f"simulated flip {flip:.4f} vs analytic " \
                       f"{point.delta_cr:.4f} ({100 * rel:.1f}%)"


def _order_four():
    ratio = order_ratio(_FIG, 7.0, 4.0, 0.05)
    return 12.0 < ratio < 20.0, f"error ratio h vs h/2 = {ratio:.2f} (~16 expected)"


def _time_rescaling():
    worst = np.zeros(3)
    for model in models.MODEL_KINDS:
        for lam, mu in ((10.0, 1.0), (100.0, 5.0)):
            # a delay past the first threshold, so the kernel runs a growing cycle
            delta = 1.2 * analysis.analytic_threshold(model, lam, mu)
            params = models.ModelParams(lam, mu, delta)
            for c in (0.1, 10.0):
                worst = np.maximum(worst, scaling_deviations(model, params, c, 50.0 * delta,
                                                             delta / 20.0))
    return bool(np.all(worst < 1e-12)), ("(lam, mu, delta) -> (c lam, c mu, delta / c): "
                                f"relative deviation {worst[0]:.2e} (thresholds), "
                                f"{worst[1]:.2e} (crossing rates), "
                                f"{worst[2]:.2e} of q* (kernel)")


SUITE = [
    ("mnl-weights-normalised", _mnl_normalised),
    ("equilibrium-fixed-point", _equilibrium_fixed_point),
    ("conservation-constant", lambda: _conservation(models.CONSTANT, _FIG, 5.5, 4.5)),
    ("conservation-moving-average",
     lambda: _conservation(models.MOVING_AVERAGE, models.ModelParams(10.0, 1.0, 4.0),
                           6.0, 4.5)),
    ("invariant-manifold", _invariant_manifold),
    ("swap-symmetry", _swap_symmetry),
    ("hopf-residual-constant", _residual_constant),
    ("hopf-residual-moving-average", _residual_ma),
    ("crossing-direction", _crossing_direction),
    ("regime-boundary", _regime_boundary),
    ("threshold-vs-simulation", _threshold_vs_simulation),
    ("order-4-convergence", _order_four),
    ("time-rescaling", _time_rescaling),
]
