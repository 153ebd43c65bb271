"""Hopf-bifurcation machinery for both queue models.

Linearising either model about the symmetric equilibrium and uncoupling the
sum and difference of the perturbations leaves a scalar transcendental
characteristic equation R(r, delta) = 0 for the difference mode.  Everything
here follows from its residual: the critical delays, where a root pair sits
at r = i omega (in closed form for the constant-delay model, from the phase
equation of the residual at i omega for the moving-average model); Newton
tracking of a root as the delay moves; the implicit-function crossing rate
dr/ddelta = -R_delta / R_r; and Hopf curves over the arrival rate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

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
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be finite and > 0")
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError("mu must be finite and > 0")


def critical_delay_constant(lam: float, mu: float) -> HopfPoint | None:
    """Closed-form critical delay of the constant-delay model.

    For lam > 2 mu the difference mode loses stability at
    ``delta_cr = arccos(-2 mu / lam) / omega`` with
    ``omega = sqrt(lam^2 - 4 mu^2) / 2``; for lam <= 2 mu there is no
    pure-imaginary crossing and the equilibrium is stable for every delay,
    so None is returned.
    """
    _validate_rates(lam, mu)
    if lam <= 2.0 * mu:
        return None
    omega = 0.5 * math.sqrt(lam * lam - 4.0 * mu * mu)
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
    _validate_rates(lam, mu)
    return lam * math.sin(theta) + 2.0 * mu * theta


def _bisect(f, lo: float, hi: float, f_lo: float, max_iter: int = 200) -> float:
    # refine to float resolution; the residual at i*omega is steep in the
    # phase for large lam, so a coarse root would not sit on the imaginary axis
    for _ in range(max_iter):
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


def ma_candidate_roots(lam: float, mu: float) -> list[HopfPoint]:
    """Every moving-average Hopf point, in increasing phase.

    The phase function is positive at every multiple of pi and on
    (k pi, (k + 1) pi) for even k.  For odd k it is convex there, with its
    minimum at k pi + arccos(2 mu / lam), so an odd interval holds two
    roots, one on each side of the minimum, when the minimum is negative,
    and none otherwise; no interval with 2 mu k pi >= lam can.  Each root
    theta is bisected to float resolution and mapped to
    delta = 2 theta^2 / (lam (1 - cos theta)) and omega = theta / delta,
    where both parts of the residual vanish.
    """
    _validate_rates(lam, mu)

    def f(theta: float) -> float:
        return ma_threshold_function(theta, lam, mu)

    points: list[HopfPoint] = []
    k = 1
    while 2.0 * mu * k * math.pi < lam:
        lo, hi = k * math.pi, (k + 1) * math.pi
        low_point = lo + math.acos(2.0 * mu / lam)
        f_low = f(low_point)
        if f_low < 0.0:
            for a, b, f_a in ((lo, low_point, f(lo)), (low_point, hi, f_low)):
                theta = _bisect(f, a, b, f_a)
                delta = 2.0 * theta * theta / (lam * (1.0 - math.cos(theta)))
                points.append(HopfPoint(lam=lam, mu=mu, delta_cr=delta,
                                        omega=theta / delta))
        k += 2
    return points


def critical_delay_ma(lam: float, mu: float,
                      bracket: tuple[float, float] | None = None) -> list[HopfPoint]:
    """Moving-average critical delays, sorted and branch-indexed.

    With a ``bracket`` (lo, hi), only the delays in [lo, hi] are kept and
    indexed.  Returns an empty list when none lies in range.
    """
    lo, hi = (0.0, math.inf) if bracket is None else bracket
    inside = sorted((p for p in ma_candidate_roots(lam, mu) if lo <= p.delta_cr <= hi),
                    key=lambda p: p.delta_cr)
    return [replace(p, branch=i) for i, p in enumerate(inside)]


def _residual_and_derivative(model: str, lam: float, mu: float, delta: float):
    """The residual R(r) at fixed (lam, mu, delta), and its partials
    dR/dr and dR/ddelta."""
    if model == CONSTANT:
        if delta < 0.0:
            raise ValueError("delta must be >= 0 for the constant-delay model")

        def res(r: complex) -> complex:
            return characteristic_residual_constant(r, lam, mu, delta)

        def dres(r: complex) -> complex:
            return 1.0 - 0.5 * lam * delta * cmath.exp(-r * delta)

        def dres_ddelta(r: complex) -> complex:
            return -0.5 * lam * r * cmath.exp(-r * delta)

    elif model == MOVING_AVERAGE:
        if delta <= 0.0:
            raise ValueError("delta must be > 0 for the moving-average model")

        def res(r: complex) -> complex:
            return characteristic_residual_ma(r, lam, mu, delta)

        def dres(r: complex) -> complex:
            return 2.0 * r + mu + 0.5 * lam * cmath.exp(-r * delta)

        def dres_ddelta(r: complex) -> complex:
            decay = cmath.exp(-r * delta)
            return 0.5 * lam / delta * (r * decay + (decay - 1.0) / delta)

    else:
        raise ValueError(f"unknown model kind: {model!r}")
    return res, dres, dres_ddelta


def root_track(model: str, lam: float, mu: float, delta: float,
               seed: complex, tol: float | None = None, max_iter: int = 100) -> complex:
    """Newton iteration on the characteristic residual from a seed root.

    Seeding with i*omega of a nearby Hopf point tracks the critical pair as
    the delay moves off the threshold, giving a numerical oracle for the
    crossing direction.  The residual derivative is analytic.

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
    _validate_rates(lam, mu)
    res, dres, _ = _residual_and_derivative(model, lam, mu, delta)
    if tol is None:
        scale = lam + mu if model == CONSTANT else lam / delta + mu * mu
        tol = max(1e-12, 1e-13 * scale)
    r = complex(seed)
    if not (math.isfinite(r.real) and math.isfinite(r.imag)):
        raise ValueError("seed must be finite")
    for _ in range(max_iter):
        value = res(r)
        if abs(value) < tol:
            return r
        slope = dres(r)
        if slope == 0.0:
            raise ConvergenceError(f"singular residual derivative at {r}")
        r = r - value / slope
    if abs(res(r)) < tol:
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
    _validate_rates(lam, mu)
    _, dres, dres_ddelta = _residual_and_derivative(model, lam, mu, delta)
    return -dres_ddelta(r) / dres(r)


def hopf_curve(model: str, mu: float, lambda_range: tuple[float, float],
               n_points: int) -> list[HopfPoint]:
    """Critical delay versus arrival rate on a linear lambda grid.

    For the constant-delay model the closed form is evaluated where
    lam > 2 mu; for the moving-average model the smallest branch is used.
    Grid points without a root emit nothing.
    """
    if model not in (CONSTANT, MOVING_AVERAGE):
        raise ValueError(f"unknown model kind: {model!r}")
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    lo, hi = lambda_range
    if not (0.0 < lo <= hi):
        raise ValueError("lambda_range must satisfy 0 < lo <= hi")
    lams = np.linspace(lo, hi, n_points)
    points: list[HopfPoint] = []
    for lam in lams:
        if model == CONSTANT:
            point = critical_delay_constant(float(lam), mu)
            if point is not None:
                points.append(point)
        else:
            roots = critical_delay_ma(float(lam), mu)
            if roots:
                points.append(roots[0])
    return points
