"""Simulation-side diagnostics: regime classification, conservation checks,
and parameter sweeps that confront analytic thresholds with integrated
trajectories."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, stability
from .dde import NumericalFailureError, Trajectory

__all__ = [
    "FAILED",
    "INCONCLUSIVE",
    "NOT_APPLICABLE",
    "OSCILLATORY",
    "SYNCHRONIZED",
    "StabilityVerdict",
    "SweepRow",
    "analytic_threshold",
    "classify_difference",
    "classify_stability",
    "conservation_check",
    "default_thresholds",
    "locate_transition",
    "sweep",
]

SYNCHRONIZED = "synchronized"
OSCILLATORY = "oscillatory"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"
FAILED = "failed"


@dataclass(frozen=True)
class StabilityVerdict:
    """Asymptotic-regime classification of a two-queue trajectory.

    ``amplitude`` is the tail amplitude of q1 - q2 (max - min after the
    burn-in).  Where the tail holds enough oscillation extrema, their
    envelope A is fitted by the Stuart-Landau law
    d ln A / dt = ``rate`` + ell A^2, and ``limit_amplitude`` is the tail
    amplitude that law settles at (0 for a decaying oscillation, ``inf``
    for unbounded growth).  Both are nan when no envelope was fitted, and
    when the fit was not trusted and its limit would classify the run
    otherwise than ``classification``, so that they never contradict it.
    ``classification`` is synchronized iff the classified amplitude is below
    the first of ``default_thresholds``, oscillatory iff above the second,
    else inconclusive; see ``classify_difference`` for when the limit
    replaces the raw amplitude.
    ``growing`` reports whether the amplitude over the last quarter of the
    run exceeds that of the previous quarter; it never changes the
    classification.
    """

    classification: str
    amplitude: float
    burn_in: float
    horizon: float
    growing: bool
    rate: float = math.nan
    limit_amplitude: float = math.nan


@dataclass(frozen=True)
class SweepRow:
    """One (lam, mu, delta) cell of a regime sweep."""

    lam: float
    mu: float
    delta: float
    predicted: str
    observed: str
    amplitude: float
    agree: bool
    growing: bool | None = None
    error: str | None = None


def default_thresholds(params: models.ModelParams) -> tuple[float, float]:
    """(eps_sync, eps_osc) = (0.1%, 1%) of the equilibrium queue length.

    Sustained limit cycles swing by order-one fractions of the equilibrium
    while decayed transients sit far below 0.1% of it, so the pair cleanly
    separates the regimes away from the threshold.
    """
    q = models.equilibrium(params)
    return 1e-3 * q, 1e-2 * q


# Envelope fit: fewest tail extrema, and the smallest relative change of the
# fitted envelope over the tail, for which the limit amplitude is trusted.
_MIN_EXTREMA = 6
_MIN_ENVELOPE_CHANGE = math.log(1.05)


def _tail_extrema(times: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local extrema of a sampled signal, refined by a parabola
    through each extremal node and its two neighbours."""
    d = np.diff(x)
    k = np.nonzero(d[:-1] * d[1:] < 0.0)[0] + 1
    y0, y1, y2 = x[k - 1], x[k], x[k + 1]
    offset = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return times[k] + offset * (times[1] - times[0]), y1 - 0.25 * (y0 - y2) * offset


def _envelope_fit(times: np.ndarray, x: np.ndarray) -> tuple[float, float, bool] | None:
    """Stuart-Landau fit d ln A / dt = rate + ell A^2 of the half-swings A
    between consecutive extrema of x.

    Returns (rate, limit amplitude as max - min, trusted), or None with
    fewer than ``_MIN_EXTREMA`` extrema.
    """
    t_ext, x_ext = _tail_extrema(times, x)
    if t_ext.size < _MIN_EXTREMA:
        return None
    swing = 0.5 * np.abs(np.diff(x_ext))
    dt = np.diff(0.5 * (t_ext[1:] + t_ext[:-1]))
    y = np.diff(np.log(swing)) / dt
    a2 = swing[1:] * swing[:-1]
    a2_dev = a2 - a2.mean()
    sxx = float(a2_dev @ a2_dev)
    ell = float(a2_dev @ (y - y.mean())) / sxx if sxx > 0.0 else 0.0
    rate = float(y.mean()) - ell * float(a2.mean())
    if rate < 0.0 and (ell <= 0.0 or swing[-1] ** 2 < -rate / ell):
        limit = 0.0
    elif rate >= 0.0 and ell < 0.0:
        limit = 2.0 * math.sqrt(-rate / ell)
    else:
        limit = math.inf
    # a saturated cycle barely moves its envelope: the fitted limit says
    # nothing of it
    change = float((rate + ell * a2) @ dt)
    return rate, limit, abs(change) >= _MIN_ENVELOPE_CHANGE


def _classify_amplitude(amplitude: float, eps_sync: float, eps_osc: float) -> str:
    if amplitude < eps_sync:
        return SYNCHRONIZED
    if amplitude > eps_osc:
        return OSCILLATORY
    return INCONCLUSIVE


def classify_stability(traj: Trajectory, params: models.ModelParams) -> StabilityVerdict:
    """Classify the asymptotic regime of a two-queue trajectory of scenario
    ``params``: its q1 - q2 on the nodes, by ``classify_difference``."""
    return classify_difference(traj.times, traj.states[:, 0] - traj.states[:, 1], params)


def classify_difference(times: np.ndarray, diff: np.ndarray,
                        params: models.ModelParams) -> StabilityVerdict:
    """Classify the asymptotic regime of q1 - q2, sampled as ``diff`` on the
    uniform grid ``times`` (as ``simulate_difference`` returns it), from the
    second half of the run, against ``default_thresholds(params)``.

    The raw amplitude is max - min of the difference over the post-burn-in
    nodes.  Near a Hopf threshold the slowest mode relaxes over many
    horizons, so the raw amplitude at T still carries a decaying (or
    growing) transient.  When the tail holds at least 6 extrema, the
    half-swings A between consecutive extrema are fitted by
    d ln A / dt = sigma + ell A^2 (least squares on the log-differences;
    sigma, reported as ``rate``, is the real part of the dominant
    characteristic root), and the run is classified by the tail amplitude
    this law tends to: 0 when it decays, 2 sqrt(-sigma / ell) on a stable
    limit cycle, and unbounded otherwise.  The raw amplitude is classified instead when

    * the tail holds fewer than 6 extrema, or its amplitude is already
      below ``eps_sync``;
    * the fitted log-envelope changes by less than 5% over the tail (a
      saturated cycle, whose fit carries no information about a limit).

    In that last case ``rate`` and ``limit_amplitude`` are still reported
    where the limit classifies as the raw amplitude does, and are nan where
    it does not: an untrusted fit that would call an oscillatory tail a
    decay to 0 is no evidence for the verdict.

    The horizon should still cover several oscillation periods after the
    burn-in.
    """
    eps_sync, eps_osc = default_thresholds(params)
    n = diff.size
    start = math.ceil(_BURN_IN_FRACTION * (n - 1))
    tail = diff[start:]
    if tail.size < 8:
        raise ValueError("horizon too short for the requested burn-in")
    amplitude = float(tail.max() - tail.min())
    classification = _classify_amplitude(amplitude, eps_sync, eps_osc)
    rate = limit = math.nan
    if amplitude >= eps_sync:
        fit = _envelope_fit(times[start:], tail)
        if fit is not None:
            rate, limit, trusted = fit
            fitted = _classify_amplitude(limit, eps_sync, eps_osc)
            if trusted:
                classification = fitted
            elif fitted != classification:
                rate = limit = math.nan
    q3 = (3 * (n - 1)) // 4
    q2 = (n - 1) // 2
    last = diff[q3:]
    prev = diff[q2:q3 + 1]
    growing = float(last.max() - last.min()) > float(prev.max() - prev.min())
    return StabilityVerdict(classification=classification, amplitude=amplitude,
                            burn_in=float(times[start]),
                            horizon=float(times[-1]), growing=growing,
                            rate=rate, limit_amplitude=limit)


def conservation_check(traj: Trajectory, params: models.ModelParams) -> float:
    """Max node deviation of q1 + q2 from its exact relaxation solution.

    The choice weights sum to one, so the total fluid obeys
    s' = lam - mu s exactly in both models and
    s(t) = lam/mu + (s(0) - lam/mu) e^(-mu t).
    """
    s = traj.states[:, 0] + traj.states[:, 1]
    s_inf = params.lam / params.mu
    target = s_inf + (s[0] - s_inf) * np.exp(-params.mu * traj.times)
    return float(np.max(np.abs(s - target)))


def analytic_threshold(model: str, lam: float, mu: float) -> float | None:
    """Smallest critical delay for (lam, mu), or None where none exists."""
    points = stability.hopf_points(model, lam, mu)
    return points[0].delta_cr if points else None


def _crossing_direction(model: str, point: stability.HopfPoint) -> int:
    """+1 where the critical pair enters the right half-plane as the delay
    grows past ``point``, -1 where it leaves it."""
    rate = stability.crossing_rate(model, point.lam, point.mu, point.delta_cr,
                                   1j * point.omega)
    return 1 if rate.real > 0.0 else -1


def _default_horizon(mu: float, delta: float) -> float:
    # >= 20 relaxation times, and long enough to see several delay windows
    return max(200.0 / mu, 50.0 * delta)


# bisection steps of locate_transition; burn-in of every verdict
_BISECTION_STEPS = 10
_BURN_IN_FRACTION = 0.5


def _observe(model: str, params: models.ModelParams,
             horizon: float | None) -> StabilityVerdict:
    """Integrate the difference mode of one scenario from the default history
    and classify it; the horizon defaults to ``_default_horizon``."""
    if horizon is None:
        horizon = _default_horizon(params.mu, params.delta)
    times, diff = models.simulate_difference(model, params, horizon)
    return classify_difference(times, diff, params)


def sweep(model: str, mu: float, lambdas, deltas,
          horizon: float | None = None) -> list[SweepRow]:
    """Integrate the difference mode of every (lam, delta) cell, classify it
    and confront it with the analytic Hopf crossings.

    A cell is predicted oscillatory when more destabilising than
    restabilising crossings lie at or below its delay (the moving-average
    model restabilises at its second root), synchronized otherwise; the
    sign of ``crossing_rate`` at each crossing gives its direction.  A NaN
    or infinite delay, whose row fails, is predicted not-applicable.
    Rows are produced in grid order (lambdas outer, deltas inner) and are
    independent of each other; integration failures are recorded per row
    rather than aborting the sweep.  ``agree`` is True when the observed
    verdict matches the prediction or no prediction exists.  Every cell runs
    from the default history and step, and is classified on its second half.
    """
    rows: list[SweepRow] = []
    deltas = [float(delta) for delta in deltas]
    # crossings above the largest delay cannot change a prediction
    reach = max((delta for delta in deltas if math.isfinite(delta)), default=0.0)
    for lam in lambdas:
        lam = float(lam)
        crossings = [(p.delta_cr, _crossing_direction(model, p))
                     for p in stability.hopf_points(model, lam, mu, reach)]
        for delta in deltas:
            if not crossings or not math.isfinite(delta):
                predicted = NOT_APPLICABLE
            elif sum(sign for delta_cr, sign in crossings if delta_cr <= delta) > 0:
                predicted = OSCILLATORY
            else:
                predicted = SYNCHRONIZED
            try:
                params = models.ModelParams(lam=lam, mu=mu, delta=delta)
                verdict = _observe(model, params, horizon)
            except (NumericalFailureError, ValueError) as exc:
                rows.append(SweepRow(lam=lam, mu=mu, delta=delta,
                                     predicted=predicted, observed=FAILED,
                                     amplitude=float("nan"), agree=False,
                                     error=str(exc)))
                continue
            agree = predicted == NOT_APPLICABLE or verdict.classification == predicted
            rows.append(SweepRow(lam=lam, mu=mu, delta=delta, predicted=predicted,
                                 observed=verdict.classification,
                                 amplitude=verdict.amplitude, agree=agree,
                                 growing=verdict.growing))
    return rows


def locate_transition(model: str, lam: float, mu: float, delta_lo: float,
                      delta_hi: float) -> float:
    """Bisect on the delay for the simulated synchronized/oscillatory flip,
    classifying the difference mode as ``sweep`` does at its default horizon.

    ``delta_lo`` must classify synchronized and ``delta_hi`` must not; the
    midpoint after 10 halvings estimates the simulated stability boundary,
    which can be confronted with the analytic critical delay.  ``delta_lo``
    may lie above ``delta_hi``, to find a restabilising flip such as the
    second moving-average threshold.
    """

    def observed(delta: float) -> str:
        params = models.ModelParams(lam=lam, mu=mu, delta=delta)
        return _observe(model, params, None).classification

    if observed(delta_lo) != SYNCHRONIZED:
        raise ValueError("delta_lo does not classify as synchronized")
    if observed(delta_hi) == SYNCHRONIZED:
        raise ValueError("delta_hi classifies as synchronized")
    lo, hi = float(delta_lo), float(delta_hi)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if observed(mid) == SYNCHRONIZED:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
