"""Hopf-bifurcation machinery for both queue models.

Linearising either model about the symmetric equilibrium and uncoupling the
sum and difference of the perturbations leaves a scalar transcendental
characteristic equation R(r, delta) = 0 for the difference mode.  Everything
here follows from its residual: the critical delays, where a root pair sits
at r = i omega (in closed form for the constant-delay model, from the phase
equation of the residual at i omega for the moving-average model); Newton
tracking of a root as the delay moves; the implicit-function crossing rate
dr/ddelta = -R_delta / R_r; and the Hopf points of each model in increasing
delay (``hopf_points``), from which Hopf curves over the arrival rate follow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .models import CONSTANT, MOVING_AVERAGE

__all__ = [
    "ConvergenceError",
    "HopfPoint",
    "characteristic_residual_constant",
    "characteristic_residual_ma",
    "critical_delay_constant",
    "critical_delay_ma",
    "crossing_rate",
    "hopf_curve",
    "hopf_points",
    "ma_candidate_roots",
    "ma_threshold_function",
    "root_track",
]


class ConvergenceError(RuntimeError):
    """Newton root tracking failed to converge."""


@dataclass(frozen=True)
class HopfPoint:
    """A point (lam, mu, delta_cr, omega) on a Hopf curve.

    ``branch`` 0 is the smallest positive critical delay.  ``validated`` is
    always True: every point satisfies both imaginary-axis conditions of its
    model by construction.  It is kept as the ``validated`` column of the
    hopf-curve CSV.
    """

    lam: float
    mu: float
    delta_cr: float
    omega: float
    branch: int = 0
    validated: bool = True


def _validate_rates(lam: float, mu: float) -> None:
    # one chained comparison per rate: False for NaN, +-inf and values <= 0
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be finite and > 0")
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be finite and > 0")


def critical_delay_constant(lam: float, mu: float) -> HopfPoint | None:
    """Closed-form critical delay of the constant-delay model.

    For lam > 2 mu the difference mode loses stability at
    ``delta_cr = arccos(-2 mu / lam) / omega`` with
    ``omega = sqrt(lam^2 - 4 mu^2) / 2``, taken as
    ``sqrt(lam / 2 - mu) sqrt(lam / 2 + mu)``, in which neither a square
    nor ``lam + 2 mu`` can overflow; for lam <= 2 mu there is no
    pure-imaginary crossing and the equilibrium is stable for every delay,
    so None is returned.
    """
    _validate_rates(lam, mu)
    if lam <= 2.0 * mu:
        return None
    omega = math.sqrt(0.5 * lam - mu) * math.sqrt(0.5 * lam + mu)
    delta_cr = math.acos(-2.0 * mu / lam) / omega
    return HopfPoint(lam=lam, mu=mu, delta_cr=delta_cr, omega=omega)


def characteristic_residual_constant(r: complex, lam: float, mu: float,
                                     delta: float) -> complex:
    """Residual r + (lam/2) e^(-r delta) + mu of the difference mode."""
    return r + 0.5 * lam * cmath.exp(-r * delta) + mu


def characteristic_residual_ma(r: complex, lam: float, mu: float,
                               delta: float) -> complex:
    """Cleared-form residual r^2 + mu r - (lam / 2 delta)(e^(-r delta) - 1).

    Clearing the 1/r pole makes r = 0 a trivial root of this form; it is
    not a root of the underlying characteristic equation and is excluded
    from Hopf candidates.
    """
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    return r * r + mu * r - (0.5 * lam / delta) * (cmath.exp(-r * delta) - 1.0)


def ma_threshold_function(theta: float, lam: float, mu: float) -> float:
    """Phase function lam sin(theta) + 2 mu theta of the moving-average model.

    At r = i omega with the phase theta = omega delta, the imaginary part of
    the cleared residual is this function divided by 2 delta, and the real
    part vanishes exactly when delta = 2 theta^2 / (lam (1 - cos theta)).
    Every zero theta > 0 is therefore a Hopf point at that delta.
    """
    # Newton calls this once per phase evaluation: test the rates inline and
    # call _validate_rates, which names the bad rate, only when one fails
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):
        _validate_rates(lam, mu)
    return lam * math.sin(theta) + 2.0 * mu * theta


def _newton_from_end(theta: float, f_theta: float, side: float,
                     lam: float, mu: float) -> float:
    # Newton on the phase function f from an end theta of an odd interval,
    # moving right from k pi (side +1) or left from (k + 1) pi (side -1).
    # f is convex there and f(theta) > 0, so each iterate stays on its end's
    # side of the root; stop once one fails to advance or f changes sign.
    # About five steps suffice; the cap is a guard
    for _ in range(200):
        slope = lam * math.cos(theta) + 2.0 * mu
        if slope * side >= 0.0:
            return theta
        nxt = theta - f_theta / slope
        if nxt == theta:
            return theta
        f_nxt = ma_threshold_function(nxt, lam, mu)
        if f_nxt <= 0.0:
            return nxt if -f_nxt < f_theta else theta
        theta, f_theta = nxt, f_nxt
    return theta


def _ma_roots(lam: float, mu: float, delta_hi: float) -> list[tuple[float, float]]:
    # (delta, omega) of every Hopf point whose phase interval can hold a
    # delay <= delta_hi, in increasing phase; see ma_candidate_roots
    _validate_rates(lam, mu)
    roots = []
    k = 1
    while 2.0 * mu * k * math.pi < lam and (k * math.pi) ** 2 < lam * delta_hi:
        lo, hi = k * math.pi, (k + 1) * math.pi
        if ma_threshold_function(lo + math.acos(2.0 * mu / lam), lam, mu) >= 0.0:
            break
        for end, side in ((lo, 1.0), (hi, -1.0)):
            theta = _newton_from_end(end, ma_threshold_function(end, lam, mu),
                                     side, lam, mu)
            # 1 - cos(theta) as 2 sin(theta / 2)^2, which does not round to 0
            # where theta nears 2 pi, as the right root of (pi, 2 pi) does
            # at large lam / mu
            delta = theta * theta / (lam * math.sin(0.5 * theta) ** 2)
            roots.append((delta, theta / delta))
        k += 2
    return roots


def ma_candidate_roots(lam: float, mu: float) -> list[HopfPoint]:
    """Every moving-average Hopf point, in increasing phase.

    The phase function f is positive at every multiple of pi and on
    (k pi, (k + 1) pi) for even k.  For odd k, f'' = -lam sin(theta) > 0
    there, so f is convex, with its minimum at k pi + arccos(2 mu / lam):
    the interval holds two roots, one on each side of the minimum, when the
    minimum is negative, and none otherwise.  The minimum grows by 4 mu pi
    from one odd interval to the next, so the scan stops at the first
    interval without roots; none with 2 mu k pi >= lam has any.

    Each root is found by Newton from its end of the interval, k pi for
    the left root and (k + 1) pi for the right one, with
    f' = lam cos(theta) + 2 mu.  f > 0 at both ends and convexity puts every
    tangent below f, so each iterate stays on its end's side of the root
    and moves toward it without passing it.  The iteration stops once an
    iterate no longer advances or f changes sign (keeping the iterate with
    the smaller |f|), after about five steps.  Each root theta maps to
    delta = 2 theta^2 / (lam (1 - cos theta)) and omega = theta / delta,
    where both parts of the residual vanish.
    """
    return [HopfPoint(lam=lam, mu=mu, delta_cr=delta, omega=omega)
            for delta, omega in _ma_roots(lam, mu, math.inf)]


def critical_delay_ma(lam: float, mu: float,
                      bracket: tuple[float, float] | None = None) -> list[HopfPoint]:
    """Moving-average critical delays, sorted and branch-indexed.

    With a ``bracket`` (lo, hi), only the delays in [lo, hi] are kept and
    indexed; ``hi`` may be inf, and a bracket with ``lo > hi`` or a NaN end
    raises ValueError.  Returns an empty list when no delay lies in range.

    The search stops at ``hi``: since 1 - cos(theta) <= 2,
    delta(theta) = 2 theta^2 / (lam (1 - cos theta)) >= theta^2 / lam, so
    the interval (k pi, (k + 1) pi) holds no delay <= hi once
    (k pi)^2 >= lam hi, and neither does any interval after it.
    """
    lo, hi = (0.0, math.inf) if bracket is None else bracket
    if not lo <= hi:
        raise ValueError(f"bracket must satisfy lo <= hi without NaN, got ({lo}, {hi})")
    inside = sorted(root for root in _ma_roots(lam, mu, hi) if lo <= root[0] <= hi)
    return [HopfPoint(lam=lam, mu=mu, delta_cr=delta, omega=omega, branch=i)
            for i, (delta, omega) in enumerate(inside)]


def hopf_points(model: str, lam: float, mu: float,
                delta_max: float = 0.0) -> list[HopfPoint]:
    """Hopf points of (lam, mu) in increasing delay: every one at or below
    ``delta_max``, and the smallest also where it lies above.

    The constant-delay model has at most one, ``critical_delay_constant``.
    The moving-average model's come from ``critical_delay_ma`` searched up
    to the larger of ``delta_max`` and 9 pi^2 / lam, which always includes
    branch 0 when it exists.  Branch 0 is the left root of (pi, 2 pi) of the
    phase function f (``ma_threshold_function``): both k = 1 roots lie
    there, where delta(theta) increases, and the left one lies before the
    minimum of f at pi + arccos(2 mu / lam) < 3 pi / 2, so its delay is
    below delta(3 pi / 2) = 4.5 pi^2 / lam, while every root beyond 3 pi
    has delta > theta^2 / lam > 9 pi^2 / lam.  If (pi, 2 pi) holds no root,
    no interval does: the minimum of f on (k pi, (k + 1) pi) grows with k.

    Raises ValueError for an unknown model.
    """
    if model == CONSTANT:
        point = critical_delay_constant(lam, mu)
        return [] if point is None else [point]
    if model == MOVING_AVERAGE:
        _validate_rates(lam, mu)
        reach = max(9.0 * math.pi ** 2 / lam, delta_max)
        points = critical_delay_ma(lam, mu, bracket=(0.0, reach))
        return points[:1] + [p for p in points[1:] if p.delta_cr <= delta_max]
    raise ValueError(f"unknown model kind: {model!r}")


def _validate_query(model: str, lam: float, mu: float, delta: float) -> None:
    _validate_rates(lam, mu)
    if model == CONSTANT:
        if not 0.0 <= delta < math.inf:
            raise ValueError("delta must be finite and >= 0 for the constant-delay model")
    elif model == MOVING_AVERAGE:
        if not 0.0 < delta < math.inf:
            raise ValueError("delta must be finite and > 0 for the moving-average model")
    else:
        raise ValueError(f"unknown model kind: {model!r}")


def _slope(model: str, lam: float, mu: float, delta: float, r: complex) -> complex:
    """The partial dR/dr of the residual at r; the caller validates the
    arguments."""
    decay = cmath.exp(-r * delta)
    if model == CONSTANT:
        return 1.0 - 0.5 * lam * delta * decay
    return 2.0 * r + mu + 0.5 * lam * decay


def root_track(model: str, lam: float, mu: float, delta: float,
               seed: complex, tol: float | None = None, max_iter: int = 100) -> complex:
    """Newton iteration on the characteristic residual from a seed root.

    Seeding with i*omega of a nearby Hopf point tracks the critical pair as
    the delay moves off the threshold, giving a numerical oracle for the
    crossing direction.  The arguments are validated once per call; each
    iteration evaluates the public ``characteristic_residual_*`` of the
    model once and its analytic derivative R_r, which ``crossing_rate``
    shares.

    ``tol`` bounds |residual| absolutely.  By default it is
    ``max(1e-12, 1e-13 * scale)`` with ``scale`` the size of the residual's
    largest terms, ``lam + mu`` (constant model) or ``lam / delta + mu^2``
    (moving-average model): at lam / delta ~ 1e5 the moving-average residual
    cannot be evaluated to an absolute 1e-12.

    Raises
    ------
    ConvergenceError
        No root with |residual| < tol within ``max_iter`` iterations, or a
        singular derivative at an iterate.
    """
    _validate_query(model, lam, mu, delta)
    if tol is None:
        scale = lam + mu if model == CONSTANT else lam / delta + mu * mu
        tol = max(1e-12, 1e-13 * scale)
    r = complex(seed)
    if not (math.isfinite(r.real) and math.isfinite(r.imag)):
        raise ValueError("seed must be finite")
    residual = (characteristic_residual_constant if model == CONSTANT
                else characteristic_residual_ma)
    for _ in range(max_iter):
        value = residual(r, lam, mu, delta)
        if abs(value) < tol:
            return r
        slope = _slope(model, lam, mu, delta, r)
        if slope == 0.0:
            raise ConvergenceError(f"singular residual derivative at {r}")
        r = r - value / slope
    if abs(residual(r, lam, mu, delta)) < tol:
        return r
    raise ConvergenceError(
        f"Newton did not reach |residual| < {tol:g} in {max_iter} iterations")


def crossing_rate(model: str, lam: float, mu: float, delta: float,
                  r: complex) -> complex:
    """Rate dr/ddelta = -R_delta / R_r at which a characteristic root r
    moves with the delay.

    This is the implicit-function theorem on R(r, delta) = 0 (Cooke &
    Grossman, J. Math. Anal. Appl. 86, 1982).  At a Hopf point r = i omega
    the sign of its real part is the crossing direction: positive where the
    pair enters the right half-plane as the delay grows.
    """
    _validate_query(model, lam, mu, delta)
    decay = cmath.exp(-r * delta)
    if model == CONSTANT:
        r_delta = -0.5 * lam * r * decay
    else:
        r_delta = 0.5 * lam / delta * (r * decay + (decay - 1.0) / delta)
    return -r_delta / _slope(model, lam, mu, delta, r)


def hopf_curve(model: str, mu: float, lambda_range: tuple[float, float],
               n_points: int) -> list[HopfPoint]:
    """Critical delay versus arrival rate on a linear lambda grid: the
    smallest of ``hopf_points`` at each grid point.  Grid points without a
    root emit nothing.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    lo, hi = lambda_range
    if not (0.0 < lo <= hi):
        raise ValueError("lambda_range must satisfy 0 < lo <= hi")
    points: list[HopfPoint] = []
    for lam in np.linspace(lo, hi, n_points):
        points += hopf_points(model, float(lam), mu)[:1]
    return points
