"""Simulation-side diagnostics: regime classification, conservation checks,
and parameter sweeps that confront analytic thresholds with integrated
trajectories."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, stability
from .dde import NumericalFailureError, Trajectory, _check_step

__all__ = [
    "FAILED",
    "INCONCLUSIVE",
    "OSCILLATORY",
    "SYNCHRONIZED",
    "StabilityVerdict",
    "SweepRow",
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
FAILED = "failed"


@dataclass(frozen=True)
class StabilityVerdict:
    """Asymptotic-regime classification of a two-queue trajectory.

    ``amplitude`` is the tail amplitude of q1 - q2 (max - min after the
    burn-in), and ``classification`` the regime that ``classify_difference``
    decides.  ``growing`` reports whether the amplitude over the last
    quarter of the run exceeds that of the previous quarter.  ``rate`` and
    ``limit_amplitude`` are the fit that decided the verdict, nan where the
    raw amplitude did.
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
    growing: bool | None = None
    error: str | None = None

    @property
    def agree(self) -> bool:
        """Whether the cell ran and its observed regime is the predicted one."""
        return self.predicted == self.observed != FAILED


def default_thresholds(params: models.ModelParams) -> tuple[float, float]:
    """(eps_sync, eps_osc) = (0.1%, 1%) of the equilibrium queue length.

    Sustained limit cycles swing by order-one fractions of the equilibrium
    while decayed transients sit far below 0.1% of it, so the pair cleanly
    separates the regimes away from the threshold.
    """
    q = models.equilibrium(params)
    return 1e-3 * q, 1e-2 * q


# Fewest tail extrema for an envelope fit; largest ratio between the
# amplitudes of the last two quarters of a settled run.
_MIN_EXTREMA = 6
_SETTLED = 1.05


def _tail_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior local extrema of a signal sampled on a uniform grid, refined
    by a parabola through each extremal node and its two neighbours.

    Returns their fractional node positions ``k + offset`` and values."""
    # a turn where the sign of a nonzero difference differs from that of the
    # previous nonzero one, so that a flat step between them hides no turn;
    # the extremal node ends the earlier one, so y0 - 2 y1 + y2 is not 0
    s = np.sign(np.diff(x))
    nz = np.flatnonzero(s)
    k = nz[:-1][s[nz[:-1]] != s[nz[1:]]] + 1
    y0, y1, y2 = x[k - 1], x[k], x[k + 1]
    offset = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return k + offset, y1 - 0.25 * (y0 - y2) * offset


def _envelope_fit(x: np.ndarray, step: float) -> tuple[float, float] | None:
    """Stuart-Landau fit d ln A / dt = rate + ell A^2 of the half-swings A
    between consecutive extrema of x, sampled at spacing ``step``.

    Returns (rate, limit amplitude as max - min), or None with fewer than
    ``_MIN_EXTREMA`` extrema or a swing of 0, whose log has no value.
    """
    k_ext, x_ext = _tail_extrema(x)
    if k_ext.size < _MIN_EXTREMA:
        return None
    swing = 0.5 * np.abs(np.diff(x_ext))
    if not swing.all():
        return None
    dt = np.diff(0.5 * (k_ext[1:] + k_ext[:-1])) * step
    y = np.diff(np.log(swing)) / dt
    # A^2 from the swings scaled by 2^-e into [1/2, 1), so that no square
    # overflows; a power of two scales exactly, so the fit keeps every bit
    e = math.frexp(swing.max())[1]
    scaled = np.ldexp(swing, -e)
    a2 = scaled[1:] * scaled[:-1]
    a2_dev = a2 - a2.mean()
    sxx = float(a2_dev @ a2_dev)
    ell = float(a2_dev @ (y - y.mean())) / sxx if sxx > 0.0 else 0.0
    rate = float(y.mean()) - ell * float(a2.mean())
    if rate < 0.0 and (ell <= 0.0 or scaled[-1] ** 2 < -rate / ell):
        limit = 0.0
    elif rate >= 0.0 and ell < 0.0:
        limit = math.ldexp(2.0 * math.sqrt(-rate / ell), e)
    else:
        limit = math.inf
    return rate, limit


def _classify_amplitude(amplitude: float, eps_sync: float, eps_osc: float) -> str:
    if amplitude < eps_sync:
        return SYNCHRONIZED
    if amplitude > eps_osc:
        return OSCILLATORY
    return INCONCLUSIVE


def classify_stability(traj: Trajectory, params: models.ModelParams) -> StabilityVerdict:
    """Classify the asymptotic regime of a two-queue trajectory of scenario
    ``params``: its q1 - q2 on the nodes, by ``classify_difference``."""
    return classify_difference(traj.step, traj.states[:, 0] - traj.states[:, 1], params)


def classify_difference(step: float, diff: np.ndarray,
                        params: models.ModelParams) -> StabilityVerdict:
    """Classify the asymptotic regime of q1 - q2, sampled as ``diff`` on the
    nodes ``k * step`` (as ``simulate_difference`` returns them), from the
    second half of the run, against ``default_thresholds(params)``: an
    amplitude below the first threshold is synchronized, one above the
    second oscillatory, and any other inconclusive.

    The raw amplitude is max - min of the difference over the post-burn-in
    nodes.  It decides where it is below ``eps_sync``, and where the run has
    settled: the peak-to-peak amplitudes of its last two quarters differ by
    at most 5% either way.  This holds for a simple cycle and for a
    modulated tail alike.  Otherwise the tail still carries a transient,
    as it does near a Hopf threshold, where the slowest mode relaxes over
    many horizons.  There, when the tail holds at least 6 extrema, the
    half-swings A between consecutive extrema are fitted by
    d ln A / dt = sigma + ell A^2 (least squares on the log-differences;
    sigma, reported as ``rate``, is the real part of the dominant
    characteristic root), and the run is classified by the tail amplitude
    this law tends to: 0 when it decays, 2 sqrt(-sigma / ell) on a stable
    limit cycle, and unbounded otherwise.  ``rate`` and ``limit_amplitude``
    are the fit that decided the verdict, nan where the raw amplitude did.

    The horizon should still cover several oscillation periods after the
    burn-in.  Raises ``ValueError`` unless ``step`` is finite and > 0 and
    ``diff`` is 1-D and finite, or where the tail holds fewer than 8 nodes.
    """
    _check_step(step)
    if diff.ndim != 1:
        raise ValueError(f"diff must be 1-D, got {diff.ndim} dimensions")
    n = diff.size
    start = math.ceil(_BURN_IN_FRACTION * (n - 1))
    tail = diff[start:]
    if tail.size < 8:
        raise ValueError("horizon too short for the requested burn-in")
    # a NaN is both extrema, and an infinity one of them
    if not (math.isfinite(diff.min()) and math.isfinite(diff.max())):
        raise ValueError("diff must be finite")
    eps_sync, eps_osc = default_thresholds(params)
    amplitude = float(tail.max() - tail.min())
    classification = _classify_amplitude(amplitude, eps_sync, eps_osc)
    q3 = (3 * (n - 1)) // 4
    q2 = (n - 1) // 2
    last = float(np.ptp(diff[q3:]))
    prev = float(np.ptp(diff[q2:q3 + 1]))
    settled = last <= _SETTLED * prev and prev <= _SETTLED * last
    rate = limit = math.nan
    if amplitude >= eps_sync and not settled:
        fit = _envelope_fit(tail, step)
        if fit is not None:
            rate, limit = fit
            classification = _classify_amplitude(limit, eps_sync, eps_osc)
    return StabilityVerdict(classification=classification, amplitude=amplitude,
                            burn_in=start * step,
                            horizon=(n - 1) * step, growing=last > prev,
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


# bisection steps of locate_transition; burn-in of every verdict
_BISECTION_STEPS = 10
_BURN_IN_FRACTION = 0.5


def _observe(model: str, params: models.ModelParams, horizon: float | None,
             phi1: float | None = None, phi2: float | None = None) -> StabilityVerdict:
    """Integrate the difference mode of one scenario from the history phi1,
    phi2 (by default the default history) and classify it.  The horizon
    defaults to max(200 / mu, 50 delta): at least 20 relaxation times, and
    long enough to see several delay windows."""
    if horizon is None:
        horizon = max(200.0 / params.mu, 50.0 * params.delta)
        if horizon == math.inf:
            raise ValueError("the default horizon max(200/mu, 50 delta) overflows")
    return classify_difference(*models.simulate_difference(model, params, horizon,
                                                           phi1=phi1, phi2=phi2), params)


def sweep(model: str, mu: float, lambdas, deltas,
          horizon: float | None = None) -> list[SweepRow]:
    """Integrate the difference mode of every (lam, delta) cell, classify it
    and confront it with the analytic Hopf thresholds.

    One rule predicts every cell: oscillatory where its delay lies in the
    bracket [on, off) of ``stability.unstable_delays`` (the moving-average
    model restabilises at off), and synchronized everywhere else, including
    where the bracket is None (stable at every delay).  A delay that the
    model refuses (negative, NaN or infinite, or a moving-average window of
    0) is predicted failed, as it is observed.  Rows are produced in grid
    order (lambdas outer, deltas inner) and are independent of each other;
    integration failures are recorded per row rather than aborting the
    sweep.  ``agree`` is True when the cell ran and its observed verdict is
    the predicted one.  Every cell runs from the default history and step,
    and is classified on its second half.
    """
    rows: list[SweepRow] = []
    deltas = [float(delta) for delta in deltas]
    for lam in lambdas:
        lam = float(lam)
        # None, stable at every delay, is the empty bracket [inf, inf)
        on, off = stability.unstable_delays(model, lam, mu) or (math.inf, math.inf)
        for delta in deltas:
            predicted = FAILED
            try:
                params = models.ModelParams(lam=lam, mu=mu, delta=delta)
                models._validate_delay(model, delta)
                predicted = OSCILLATORY if on <= delta < off else SYNCHRONIZED
                verdict = _observe(model, params, horizon)
            except (NumericalFailureError, ValueError) as exc:
                rows.append(SweepRow(lam, mu, delta, predicted, FAILED, math.nan,
                                     error=str(exc)))
                continue
            rows.append(SweepRow(lam, mu, delta, predicted, verdict.classification,
                                 verdict.amplitude, verdict.growing))
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
