"""Fixed-lag delay differential equation integration by the method of steps.

The integrator advances a d-dimensional system x'(t) = f(x(t), x(t - lag))
from a constant history, x(t) = x0 for t <= 0, with the classical
fourth-order Runge-Kutta scheme on a uniform grid.  The history is node 0
itself: every lagged read before the grid returns ``states[0]``.  The
step is shrunk so that the lag is an exact integer multiple of it: lagged
values needed at node times are then themselves nodes, and lagged
values at half-step stage times fall at midpoints of segments that are
already complete, where cubic Hermite interpolation keeps the overall scheme
fourth order.  The lagged point is therefore never ahead of the computed
front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "NumericalFailureError",
    "Trajectory",
    "integrate",
    "lag_grid",
]

DdeRhs = Callable[[np.ndarray, np.ndarray], np.ndarray]


class NumericalFailureError(RuntimeError):
    """Integration produced a non-finite state; carries the failing time."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t = {time:g})")
        self.time = time


def _check_lag(lag: float) -> None:
    if not (math.isfinite(lag) and lag >= 0.0):
        raise ValueError("lag must be finite and >= 0")


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and > 0")


# Kernels and the integrator store every node, so a far larger grid would
# exhaust memory before it finished; the costliest sweep cells, constant
# model at lam/mu = 1000 near its threshold, hold about 1.3 million.
_MAX_NODES = 10_000_000


def lag_grid(lag: float, step: float, horizon: float) -> tuple[int, float, int]:
    """The integration grid ``(m, h, n)`` for a lag and a requested step.

    For a positive lag the effective step is ``h = lag / m`` with
    ``m = ceil(lag / step)``, so the lag is exactly ``m`` steps; at lag 0
    (an ODE) ``m = 0`` and ``h`` is the requested step.  The grid holds the
    nodes ``k * h`` for ``k = 0 .. n``, ``n = floor(horizon / h)``.  Both
    quotients forgive 1e-9 of rounding.  Raises ``ValueError`` unless the
    lag is finite and >= 0, the step and horizon are finite and > 0,
    ``lag / step`` is finite, and the grid holds at most 10^7 nodes.
    """
    _check_lag(lag)
    _check_step(step)
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError("horizon must be finite and > 0")
    if lag == 0.0:
        m = 0
        h = step
    else:
        per_step = lag / step
        if not per_step < math.inf:
            raise ValueError(f"lag / step = {lag:g} / {step:g} overflows")
        m = max(1, math.ceil(per_step - 1e-9))
        h = lag / m
    steps = horizon / h + 1e-9
    if not steps < _MAX_NODES:
        raise ValueError(f"the grid needs {steps + 1.0:.8g} nodes, "
                         f"more than the {_MAX_NODES} allowed")
    return m, h, int(steps)


def _hermite(theta, h, y0, y1, m0, m1):
    # y0-anchored cubic Hermite: exact at theta = 0 and on constant segments.
    s = theta * theta * (3.0 - 2.0 * theta)
    a = theta * (theta - 1.0)
    return y0 + s * (y1 - y0) + h * a * ((theta - 1.0) * m0 + theta * m1)


@dataclass(eq=False, repr=False)
class Trajectory:
    """Uniform-grid solution with per-node derivatives and dense output.

    ``states[k]`` and ``derivs[k]`` hold x and x' at node time ``k * step``;
    dense evaluation between nodes uses the cubic Hermite interpolant of the
    bracketing nodes.  Before zero the solution is its constant history,
    ``states[0]``, back to ``-lag``.
    """

    step: float
    states: np.ndarray
    derivs: np.ndarray
    lag: float
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.states.ndim != 2 or self.states.shape != self.derivs.shape:
            raise ValueError("states and derivs must be matching (nodes, dim) arrays")
        if self.states.shape[0] == 0:
            raise ValueError("states must be non-empty: node 0 is the history")
        _check_step(self.step)
        _check_lag(self.lag)
        self.times = np.arange(self.states.shape[0]) * self.step

    @property
    def dimension(self) -> int:
        return int(self.states.shape[1])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def eval(self, t):
        """Dense evaluation at scalar or array times in [-lag, horizon].

        Node times return the stored node state exactly; times before zero
        return the history, ``states[0]``.
        """
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tt = np.atleast_1d(t_arr).ravel()
        if np.isnan(tt).any():
            raise ValueError("dense evaluation at a NaN time")
        front = self.times[-1]
        tol = 1e-9 * max(1.0, front)
        if np.any(tt > front + tol):
            raise ValueError(f"dense evaluation beyond the computed front t = {front:g}")
        if np.any(tt < -self.lag - 1e-9 * max(1.0, self.lag)):
            raise ValueError(f"dense evaluation before the history start t = {-self.lag:g}")
        out = np.empty((tt.size, self.dimension))
        neg = tt < 0.0
        out[neg] = self.states[0]
        pos = ~neg
        if pos.any():
            tp = np.minimum(tt[pos], front)
            n = self.times.size
            idx = np.minimum(np.searchsorted(self.times, tp), n - 1)
            hit = self.times[idx] == tp
            res = np.empty((tp.size, self.dimension))
            if hit.any():
                res[hit] = self.states[idx[hit]]
            miss = ~hit
            if miss.any():
                k = np.clip(idx[miss] - 1, 0, n - 2)
                theta = ((tp[miss] - self.times[k]) / self.step)[:, None]
                res[miss] = _hermite(theta, self.step,
                                     self.states[k], self.states[k + 1],
                                     self.derivs[k], self.derivs[k + 1])
            out[pos] = res
        return out[0] if scalar else out.reshape(t_arr.shape + (self.dimension,))

    def __repr__(self):
        return (f"Trajectory(nodes={self.states.shape[0]}, dim={self.dimension}, "
                f"step={self.step:g}, horizon={self.horizon:g})")


def integrate(rhs: DdeRhs, lag: float, x0, step: float,
              horizon: float) -> Trajectory:
    """Integrate a fixed-lag DDE with Runge-Kutta 4 and the method of steps.

    Parameters
    ----------
    rhs : callable
        ``rhs(x, x_lagged)``, deterministic and side-effect free; the
        system is autonomous, so the rhs sees no time.
    lag : float
        The delay, finite and >= 0; at 0 the system is an ODE.
    x0 : array_like
        Finite, non-empty 1-d initial state, which is also the constant
        history: every lagged value before the grid is ``x0``.
    step, horizon : float
        Requested step and horizon.  For a positive lag the effective step
        h' <= step is chosen so lag / h' is an exact integer (``lag_grid``).

    Returns
    -------
    Trajectory
        Node states and derivatives on the grid k * h', k = 0 .. floor(T/h').

    Raises
    ------
    ValueError
        Invalid initial state, lag, step or horizon.
    NumericalFailureError
        A node or a stage went non-finite; carries the failing time.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0 or not np.isfinite(x0).all():
        raise ValueError("x0 must be a finite, non-empty 1-d vector")
    m, h, n = lag_grid(lag, step, horizon)
    ode = m == 0
    states = np.empty((n + 1, x0.size))
    derivs = np.empty((n + 1, x0.size))
    states[0] = x0
    x0 = states[0]

    def node_lag(j):
        # lagged state at node time j*h - lag: a node itself, or the history
        return states[max(j - m, 0)]

    def mid_lag(k):
        # lagged state at (k + 1/2)*h - lag: midpoint of a completed segment
        i = k - m
        if i >= 0:
            y0 = states[i]
            y1 = states[i + 1]
            return y0 + 0.5 * (y1 - y0) + 0.125 * h * (derivs[i] - derivs[i + 1])
        return x0

    derivs[0] = rhs(x0, x0)

    half = 0.5 * h
    sixth = h / 6.0
    s = x0
    # an overflow is reported as a NumericalFailureError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n):
                x = states[k]
                k1 = derivs[k]
                if ode:
                    s = x + half * k1
                    k2 = rhs(s, s)
                    s = x + half * k2
                    k3 = rhs(s, s)
                    s = x + h * k3
                    k4 = rhs(s, s)
                else:
                    xm = mid_lag(k)
                    xe = node_lag(k + 1)
                    s = x + half * k1
                    k2 = rhs(s, xm)
                    s = x + half * k2
                    k3 = rhs(s, xm)
                    s = x + h * k3
                    k4 = rhs(s, xe)
                xn = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                if not np.isfinite(xn).all():
                    raise NumericalFailureError("integration produced a non-finite state",
                                                (k + 1) * h)
                states[k + 1] = xn
                derivs[k + 1] = rhs(xn, xn if ode else xe)
        except ValueError:
            # the rhs may reject a stage state that overflowed within step k
            if not np.isfinite(s).all():
                raise NumericalFailureError("integration produced a non-finite state",
                                            (k + 1) * h) from None
            raise
    return Trajectory(step=h, states=states, derivs=derivs, lag=lag)
