"""Hopf-bifurcation machinery for both queue models.

Linearising either model about the symmetric equilibrium and uncoupling the
sum and difference of the perturbations leaves a scalar characteristic
equation for the difference mode, R(r) = (p2 r + p1) r + p0 + q e^(-r delta)
in both models, with each model's coefficients held once in
``_coefficients``.  Everything here follows from them: the residuals; the
critical delays, where a root pair sits at r = i omega (in closed form for
the constant-delay model, from the phase equation Im R(i omega) = 0 for the
moving-average model); Newton tracking of a root as the delay moves; the
implicit-function crossing rate dr/ddelta = -R_delta / R_r; and the Hopf
points of each model in increasing delay (``hopf_points``).
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


def _coefficients(model: str, lam: float, mu: float,
                  delta: float) -> tuple[float, float, float, float, float, float]:
    # (p2, p1, p0, q, dp0/ddelta, dq/ddelta) of R(r), after validating the
    # query: r + mu + (lam / 2) e^(-r delta), and the moving average cleared
    # of its 1/r pole, r^2 + mu r + g - g e^(-r delta) with g = lam / 2 delta
    _validate_rates(lam, mu)
    if model == CONSTANT:
        if not 0.0 <= delta < math.inf:
            raise ValueError("delta must be finite and >= 0 for the constant-delay model")
        return 0.0, 1.0, mu, 0.5 * lam, 0.0, 0.0
    if model == MOVING_AVERAGE:
        if not 0.0 < delta < math.inf:
            raise ValueError("delta must be finite and > 0 for the moving-average model")
        gain = 0.5 * lam / delta
        rate = gain / delta
        return 1.0, mu, gain, -gain, -rate, rate
    raise ValueError(f"unknown model kind: {model!r}")


def _residual(r: complex, delta: float, p2: float, p1: float, p0: float,
              q: float, *_) -> complex:
    return (p2 * r + p1) * r + p0 + q * cmath.exp(-r * delta)


def critical_delay_constant(lam: float, mu: float) -> HopfPoint | None:
    """Closed-form critical delay of the constant-delay model.

    R(i omega) = 0, with p0 = mu and q = lam / 2, where
    omega = sqrt(q - p0) sqrt(q + p0), in which no square can overflow, and
    delta_cr = arccos(-p0 / q) / omega: for lam > 2 mu the difference mode
    loses stability there; for lam <= 2 mu there is no pure-imaginary
    crossing and the equilibrium is stable for every delay (None).
    """
    _, _, p0, q, _, _ = _coefficients(CONSTANT, lam, mu, 0.0)
    if q <= p0:
        return None
    omega = math.sqrt(q - p0) * math.sqrt(q + p0)
    delta_cr = math.acos(-p0 / q) / omega
    return HopfPoint(lam=lam, mu=mu, delta_cr=delta_cr, omega=omega)


def characteristic_residual_constant(r: complex, lam: float, mu: float,
                                     delta: float) -> complex:
    """Residual r + mu + (lam/2) e^(-r delta) of the difference mode."""
    return _residual(r, delta, *_coefficients(CONSTANT, lam, mu, delta))


def characteristic_residual_ma(r: complex, lam: float, mu: float,
                               delta: float) -> complex:
    """Cleared-form residual r^2 + mu r - (lam / 2 delta)(e^(-r delta) - 1).

    Clearing the 1/r pole makes r = 0 a trivial root of this form; it is
    not a root of the underlying characteristic equation and is excluded
    from Hopf candidates.
    """
    return _residual(r, delta, *_coefficients(MOVING_AVERAGE, lam, mu, delta))


def ma_threshold_function(theta: float, lam: float, mu: float) -> float:
    """Phase function lam sin(theta) + 2 mu theta of the moving-average model.

    At r = i omega with the phase theta = omega delta, the moving-average
    coefficients (1, mu, g, -g), g = lam / (2 delta), give
    Im R(i omega) = mu omega + g sin(theta), this function divided by
    2 delta, and Re R(i omega) = -omega^2 + g (1 - cos theta), which
    vanishes exactly when delta = 2 theta^2 / (lam (1 - cos theta)).
    Every zero theta > 0 is therefore a Hopf point at that delta.
    """
    # _ma_roots calls this at the ends of every odd interval (its Newton
    # evaluates the same sum inline): test the rates inline and call
    # _validate_rates, which names the bad rate, only when one fails
    if not (0.0 < lam < math.inf and 0.0 < mu < math.inf):
        _validate_rates(lam, mu)
    return lam * math.sin(theta) + 2.0 * mu * theta


def _newton_from_end(theta: float, f_theta: float, side: float,
                     lam: float, mu: float) -> float:
    # Newton on the phase function f from an end theta of an odd interval,
    # moving right from k pi (side +1) or left from (k + 1) pi (side -1).
    # f is convex there and f(theta) > 0, so each iterate stays on its end's
    # side of the root; stop once one fails to advance or f changes sign.
    # About five steps suffice; the cap is a guard.  f is evaluated inline,
    # as ma_threshold_function sums it; _ma_roots has validated the rates
    two_mu = 2.0 * mu
    for _ in range(200):
        slope = lam * math.cos(theta) + two_mu
        if slope * side >= 0.0:
            return theta
        nxt = theta - f_theta / slope
        if nxt == theta:
            return theta
        f_nxt = lam * math.sin(nxt) + two_mu * nxt
        if f_nxt <= 0.0:
            return nxt if -f_nxt < f_theta else theta
        theta, f_theta = nxt, f_nxt
    return theta


# The most Hopf points one query may list: a moving-average search, or a
# hopf_curve grid.  An unbracketed search lists about lam / (2 pi mu) of
# them at about 300 B and 7 us each, so far more would exhaust memory or
# time before the list was done.
_MAX_HOPF_POINTS = 1_000_000


def _hopf_point_bound(lam: float, mu: float, delta_hi: float) -> float:
    # two points for each odd k that the scan of _ma_roots may reach, that
    # is, with 2 mu k pi < lam and (k pi)^2 < lam delta_hi
    reach = min(lam / (2.0 * math.pi * mu), math.sqrt(max(lam * delta_hi, 0.0)) / math.pi)
    if reach == math.inf:
        return math.inf
    return 2.0 * math.ceil(max(reach - 1.0, 0.0) / 2.0)


def _ma_roots(lam: float, mu: float, delta_hi: float) -> list[tuple[float, float]]:
    # (delta, omega) of every Hopf point whose phase interval can hold a
    # delay <= delta_hi, in increasing phase; see ma_candidate_roots
    _validate_rates(lam, mu)
    bound = _hopf_point_bound(lam, mu, delta_hi)
    if bound > _MAX_HOPF_POINTS:
        raise ValueError(f"the search may list {bound:.8g} Hopf points, more than "
                         f"the {_MAX_HOPF_POINTS} allowed; narrow it with a "
                         f"bracket (critical-delay --bracket LO HI)")
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
            # at large lam / mu.  Where lam times it still underflows, that
            # root's delay is beyond every float, and it is left out
            scale = lam * math.sin(0.5 * theta) ** 2
            if scale > 0.0:
                delta = theta * theta / scale
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

    Raises ValueError, before the scan, where it could list more than
    10^6 points, about lam / (2 pi mu) > 10^6.
    """
    return [HopfPoint(lam=lam, mu=mu, delta_cr=delta, omega=omega)
            for delta, omega in _ma_roots(lam, mu, math.inf)]


def critical_delay_ma(lam: float, mu: float,
                      bracket: tuple[float, float] | None = None) -> list[HopfPoint]:
    """Moving-average critical delays, sorted and branch-indexed.

    With a ``bracket`` (lo, hi), only the delays in [lo, hi] are kept and
    indexed; ``hi`` may be inf, and a bracket with ``lo > hi`` or a NaN end
    raises ValueError.  Returns an empty list when no delay lies in range.
    A search that could list more than 10^6 points, counted from the two
    stopping conditions below before it starts, raises ValueError: without
    a bracket that is lam / (2 pi mu) > 10^6, where a bracket with
    lam hi < 10^12 still answers.

    The search stops at ``hi``: since 1 - cos(theta) <= 2,
    delta(theta) = 2 theta^2 / (lam (1 - cos theta)) >= theta^2 / lam, so
    the interval (k pi, (k + 1) pi) holds no delay <= hi once
    (k pi)^2 >= lam hi, and neither does any interval after it.
    """
    lo, hi = (0.0, math.inf) if bracket is None else bracket
    if not lo <= hi:
        raise ValueError(f"bracket must satisfy lo <= hi without NaN, got ({lo}, {hi})")
    inside = sorted(root for root in _ma_roots(lam, mu, hi) if lo <= root[0] <= hi)
    # (lam, mu, delta_cr, omega, branch) by position: by keyword, building
    # the point took twice as long
    return [HopfPoint(lam, mu, delta, omega, i) for i, (delta, omega) in enumerate(inside)]


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

    Raises ValueError for an unknown model, and for a moving-average
    search that could list more than 10^6 points (``critical_delay_ma``).
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


def root_track(model: str, lam: float, mu: float, delta: float,
               seed: complex, tol: float | None = None, max_iter: int = 100) -> complex:
    """Newton iteration on the characteristic residual from a seed root.

    Seeding with i*omega of a nearby Hopf point tracks the critical pair as
    the delay moves off the threshold, giving a numerical oracle for the
    crossing direction.  The arguments are validated once, as the
    coefficients are read.  Each iterate takes from one e = e^(-r delta) the
    residual, as ``characteristic_residual_*`` evaluate it (so the roots are
    Newton's on them to the last bit), and R_r = 2 p2 r + p1 - delta q e.

    ``tol`` bounds |residual| absolutely.  By default it is
    ``max(1e-12, 1e-13 * scale)`` with ``scale`` the size of the residual's
    largest terms, ``lam + mu`` (constant model) or ``lam / delta + mu^2``
    (moving-average model): at lam / delta ~ 1e5 the moving-average residual
    cannot be evaluated to an absolute 1e-12.

    Raises
    ------
    ValueError
        Invalid rates, delay, model or seed, or a ``tol`` that is NaN or
        <= 0, which no residual could meet.
    ConvergenceError
        No root with |residual| < tol within ``max_iter`` iterations, a
        singular derivative at an iterate, or an iterate at which
        e^(-r delta) or the residual overflows.
    """
    p2, p1, p0, q, _, _ = _coefficients(model, lam, mu, delta)
    if tol is None:
        scale = lam + mu if model == CONSTANT else lam / delta + mu * mu
        tol = max(1e-12, 1e-13 * scale)
    elif not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    r = complex(seed)
    if not cmath.isfinite(r):
        raise ValueError("seed must be finite")
    # Newton inline, as a call per iterate costs more than its arithmetic;
    # r * p2 is p2 * r to the bit, without float's own product tried first
    exp, two_p2, delta_q = cmath.exp, 2.0 * p2, delta * q
    try:
        for _ in range(max_iter):
            decay = exp(-r * delta)
            value = (r * p2 + p1) * r + p0 + decay * q
            if abs(value) < tol:
                return r
            slope = r * two_p2 + p1 - decay * delta_q
            if slope == 0.0:
                raise ConvergenceError(f"singular residual derivative at {r}")
            r = r - value / slope
        if abs(_residual(r, delta, p2, p1, p0, q)) < tol:
            return r
    except OverflowError:
        raise ConvergenceError(f"the residual overflows at {r}") from None
    raise ConvergenceError(
        f"Newton did not reach |residual| < {tol:g} in {max_iter} iterations")


def crossing_rate(model: str, lam: float, mu: float, delta: float,
                  r: complex) -> complex:
    """Rate dr/ddelta = -R_delta / R_r at which a characteristic root r
    moves with the delay.

    This is the implicit-function theorem on R(r, delta) = 0 (Cooke &
    Grossman, J. Math. Anal. Appl. 86, 1982).  At a Hopf point r = i omega
    the sign of its real part is the crossing direction: positive where the
    pair enters the right half-plane as the delay grows.  Both partials
    follow from the model's coefficients and e = e^(-r delta):
    R_r = 2 p2 r + p1 - delta q e, the derivative ``root_track`` steps with,
    and R_delta = dp0/ddelta + (dq/ddelta - r q) e.  A non-finite r, one
    at which e^(-r delta) overflows, or one where R_r = 0 raises ValueError.
    """
    p2, p1, _, q, p0_delta, q_delta = _coefficients(model, lam, mu, delta)
    if not cmath.isfinite(r):
        raise ValueError("r must be finite")
    try:
        decay = cmath.exp(-r * delta)
    except OverflowError:
        raise ValueError(f"e^(-r delta) overflows at r = {r}") from None
    r_delta = p0_delta + (q_delta - r * q) * decay
    r_r = 2.0 * p2 * r + p1 - delta * q * decay
    if r_r == 0.0:
        raise ValueError(f"singular residual derivative at {r}")
    return -r_delta / r_r


def hopf_curve(model: str, mu: float, lambda_range: tuple[float, float],
               n_points: int) -> list[HopfPoint]:
    """Critical delay versus arrival rate on a linear lambda grid: the
    smallest of ``hopf_points`` at each grid point.  Grid points without a
    root emit nothing.  More than 10^6 grid points raise ValueError before
    the grid is built.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if n_points > _MAX_HOPF_POINTS:
        raise ValueError(f"n_points = {n_points} is more than the "
                         f"{_MAX_HOPF_POINTS} allowed")
    lo, hi = lambda_range
    if not 0.0 < lo <= hi < math.inf:
        raise ValueError(f"lambda_range must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    points: list[HopfPoint] = []
    for lam in np.linspace(lo, hi, n_points):
        points += hopf_points(model, float(lam), mu)[:1]
    return points
