"""Fixed-lag delay differential equation integration by the method of steps.

The integrator advances a d-dimensional system x'(t) = f(t, x(t), x(t - lag))
with the classical fourth-order Runge-Kutta scheme on a uniform grid.  The
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
    "DdeSystem",
    "HistoryFunction",
    "IntegrationConfig",
    "NumericalFailureError",
    "Trajectory",
    "integrate",
    "lag_grid",
]

DdeRhs = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


class NumericalFailureError(RuntimeError):
    """Integration produced a non-finite state; carries the failing time."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t = {time:g})")
        self.time = time


@dataclass(eq=False)
class HistoryFunction:
    """Constant initial condition phi on [-delta, 0], one value per component.

    Evaluation anywhere on the interval returns ``values``; evaluation at
    t = 0 supplies the integrator's initial state.
    """

    delta: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("history values must be finite")
        if not (math.isfinite(self.delta) and self.delta >= 0.0):
            raise ValueError("history delta must be finite and >= 0")
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("constant history needs a 1-d value vector")

    @classmethod
    def constant(cls, values, delta: float) -> "HistoryFunction":
        return cls(delta=float(delta), values=np.asarray(values, dtype=float))

    @property
    def dimension(self) -> int:
        return int(self.values.shape[-1])

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tt = np.atleast_1d(t_arr)
        tol = 1e-9 * max(1.0, self.delta)
        if np.any(tt < -self.delta - tol) or np.any(tt > tol):
            raise ValueError(
                f"history evaluated outside [{-self.delta:g}, 0]")
        return self.values.copy() if scalar else np.tile(self.values, (tt.size, 1))


@dataclass(frozen=True)
class DdeSystem:
    """A fixed-lag system x'(t) = rhs(t, x(t), x(t - lag)).

    The right-hand side must be deterministic and side-effect free.
    """

    dimension: int
    lag: float
    rhs: DdeRhs

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("system dimension must be positive")
        if not (math.isfinite(self.lag) and self.lag >= 0.0):
            raise ValueError("lag must be finite and >= 0")


@dataclass(frozen=True)
class IntegrationConfig:
    """Requested step and horizon."""

    step: float
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError("step must be finite and > 0")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and > 0")


def lag_grid(lag: float, config: IntegrationConfig) -> tuple[int, float, int]:
    """The integration grid ``(m, h, n)`` for a lag and a requested step.

    For a positive lag the effective step is ``h = lag / m`` with
    ``m = ceil(lag / step)``, so the lag is exactly ``m`` steps; at lag 0
    (an ODE) ``m = 0`` and ``h`` is the requested step.  The grid holds the
    nodes ``k * h`` for ``k = 0 .. n``, ``n = floor(horizon / h)``.  Both
    quotients forgive 1e-9 of rounding.
    """
    if lag == 0.0:
        m = 0
        h = config.step
    else:
        m = max(1, math.ceil(lag / config.step - 1e-9))
        h = lag / m
    return m, h, int(math.floor(config.horizon / h + 1e-9))


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
    bracketing nodes, and delegates to the attached history for t < 0.
    """

    step: float
    states: np.ndarray
    derivs: np.ndarray
    history: HistoryFunction
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.states.ndim != 2 or self.states.shape != self.derivs.shape:
            raise ValueError("states and derivs must be matching (nodes, dim) arrays")
        if self.step <= 0.0:
            raise ValueError("step must be > 0")
        self.times = np.arange(self.states.shape[0]) * self.step

    @property
    def dimension(self) -> int:
        return int(self.states.shape[1])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def eval(self, t):
        """Dense evaluation at scalar or array times in [-delta, horizon].

        Node times return the stored node state exactly; times before zero
        are read from the history.
        """
        t_arr = np.asarray(t, dtype=float)
        scalar = t_arr.ndim == 0
        tt = np.atleast_1d(t_arr).ravel()
        front = self.times[-1]
        tol = 1e-9 * max(1.0, front)
        if np.any(tt > front + tol):
            raise ValueError(f"dense evaluation beyond the computed front t = {front:g}")
        out = np.empty((tt.size, self.dimension))
        neg = tt < 0.0
        if neg.any():
            out[neg] = self.history(tt[neg])
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


def integrate(system: DdeSystem, history: HistoryFunction,
              config: IntegrationConfig) -> Trajectory:
    """Integrate a fixed-lag DDE with Runge-Kutta 4 and the method of steps.

    Parameters
    ----------
    system : DdeSystem
        Dimension, lag and right-hand side of the system.
    history : HistoryFunction
        Initial condition on [-lag, 0]; its delta must equal the system lag,
        and its value at 0 is the initial state.
    config : IntegrationConfig
        Requested step and horizon.  For a positive lag the effective step
        h' <= step is chosen so lag / h' is an exact integer.

    Returns
    -------
    Trajectory
        Node states and derivatives on the grid k * h', k = 0 .. floor(T/h').

    Raises
    ------
    ValueError
        Mismatched lag/dimension or invalid configuration.
    NumericalFailureError
        A node or a stage went non-finite; carries the failing time.
    """
    if history.delta != system.lag:
        raise ValueError(
            f"history delta ({history.delta:g}) must equal system lag ({system.lag:g})")
    if history.dimension != system.dimension:
        raise ValueError("history dimension must match system dimension")

    rhs = system.rhs
    m, h, n = lag_grid(system.lag, config)
    ode = m == 0
    dim = system.dimension
    states = np.empty((n + 1, dim))
    derivs = np.empty((n + 1, dim))
    states[0] = np.asarray(history(0.0), dtype=float)

    def node_lag(j):
        # lagged state at node time j*h - lag: a node itself
        i = j - m
        return states[i] if i >= 0 else history(i * h)

    def mid_lag(k):
        # lagged state at (k + 1/2)*h - lag: midpoint of a completed segment
        i = k - m
        if i >= 0:
            y0 = states[i]
            y1 = states[i + 1]
            return y0 + 0.5 * (y1 - y0) + 0.125 * h * (derivs[i] - derivs[i + 1])
        return history((i + 0.5) * h)

    x0 = states[0]
    if ode:
        derivs[0] = rhs(0.0, x0, x0)
    else:
        derivs[0] = rhs(0.0, x0, node_lag(0))

    half = 0.5 * h
    sixth = h / 6.0
    s = x0
    # an overflow is reported as a NumericalFailureError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n):
                t = k * h
                t1 = (k + 1) * h
                x = states[k]
                k1 = derivs[k]
                if ode:
                    s = x + half * k1
                    k2 = rhs(t + half, s, s)
                    s = x + half * k2
                    k3 = rhs(t + half, s, s)
                    s = x + h * k3
                    k4 = rhs(t1, s, s)
                else:
                    xm = mid_lag(k)
                    xe = node_lag(k + 1)
                    s = x + half * k1
                    k2 = rhs(t + half, s, xm)
                    s = x + half * k2
                    k3 = rhs(t + half, s, xm)
                    s = x + h * k3
                    k4 = rhs(t1, s, xe)
                xn = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                if not np.isfinite(xn).all():
                    raise NumericalFailureError("integration produced a non-finite state", t1)
                states[k + 1] = xn
                if ode:
                    derivs[k + 1] = rhs(t1, xn, xn)
                else:
                    derivs[k + 1] = rhs(t1, xn, node_lag(k + 1))
        except ValueError:
            # the rhs may reject a stage state that overflowed within step k
            if not np.isfinite(s).all():
                raise NumericalFailureError("integration produced a non-finite state",
                                            (k + 1) * h) from None
            raise
    return Trajectory(step=h, states=states, derivs=derivs, history=history)
