"""Fixed-lag delay differential equation integration by the method of steps.

The integrator advances a d-dimensional system x'(t) = f(x(t), x(t - lag))
from a constant history, x(t) = x0 for t <= 0, with the classical
fourth-order Runge-Kutta scheme on a uniform grid.  The history is node 0
itself: every lagged read before the grid returns ``states[0]``, by the
one rule of ``lagged_nodes``.  The step is shrunk so that the lag is an
exact integer multiple of it: lagged values needed at node times are then
themselves nodes, and lagged values at half-step stage times fall at
midpoints of segments that are already complete, where cubic Hermite
interpolation keeps the overall scheme fourth order.  The lagged point is
therefore never ahead of the computed front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "NumericalFailureError",
    "Trajectory",
    "integrate",
    "lag_grid",
    "lagged_nodes",
]

DdeRhs = Callable[[np.ndarray, np.ndarray], np.ndarray]


class NumericalFailureError(RuntimeError):
    """A run failed at its first node, node 0 included, whose state or
    derivative is not finite; carries that node's time."""

    def __init__(self, time: float):
        super().__init__(f"integration produced a non-finite state (t = {time:g})")
        self.time = time


def _check_lag(lag: float) -> None:
    if not (math.isfinite(lag) and lag >= 0.0):
        raise ValueError("lag must be finite and >= 0")


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError("step must be finite and > 0")


# The most nodes a grid may hold: a run stores every node, so a far larger
# grid would exhaust memory before it finished.  The costliest sweep cells,
# constant model at lam/mu = 1000 near its threshold, hold about 1.3 million.
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


def lagged_nodes(values, slopes, m: int) -> Iterator[tuple]:
    """The ``(value, slope)`` pairs that steps 0, 1, ... read at a lag of
    m >= 1 steps: step k reads node k + 1 - m, or node 0, the history,
    before the grid.  That is m - 1 copies of node 0, then the nodes, each
    read when its step comes, so the sequences may grow meanwhile.  The
    Hermite midpoint of two history pairs is node 0 exactly.  A grid within
    the node budget takes fewer than 10^7 steps, so the copies stop there."""
    if m < 1:
        raise ValueError("the lag must be at least one step")
    return chain(repeat((values[0], slopes[0]), min(m - 1, _MAX_NODES)),
                 zip(values, slopes))


def _hermite(theta, h, y0, y1, m0, m1):
    # y0-anchored cubic Hermite: exact on constant segments.  At theta = 0 it
    # may overflow unwarned, as eval returns the node there
    with np.errstate(over="ignore", invalid="ignore"):
        s = theta * theta * (3.0 - 2.0 * theta)
        a = theta * (theta - 1.0)
        return y0 + s * (y1 - y0) + h * a * ((theta - 1.0) * m0 + theta * m1)


def _segment(t, h):
    """The segment of each time ``0 <= t``, within a grid of nodes
    ``k * h``: the largest k with ``k * h <= t``, which is
    ``searchsorted(times, t, "right") - 1``.  ``floor(t / h)`` is that k or
    its neighbour, as a grid holds fewer than 2^52 nodes, so one test each
    way finds it without a node-length array."""
    k = np.floor(t / h)
    k -= k * h > t
    k += (k + 1.0) * h <= t
    return k.astype(np.intp)


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

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        self.derivs = np.asarray(self.derivs, dtype=float)
        if self.states.ndim != 2 or self.states.shape != self.derivs.shape:
            raise ValueError("states and derivs must be matching (nodes, dim) arrays")
        if self.states.shape[0] == 0:
            raise ValueError("states must be non-empty: node 0 is the history")
        _check_step(self.step)
        _check_lag(self.lag)

    @property
    def times(self) -> np.ndarray:
        """Node times ``k * step``, built on each read: none is stored."""
        return np.arange(self.states.shape[0]) * self.step

    @property
    def dimension(self) -> int:
        return int(self.states.shape[1])

    @property
    def horizon(self) -> float:
        return (self.states.shape[0] - 1) * self.step

    def bounds(self) -> tuple[float, float]:
        """[-lag, horizon], the times ``eval`` accepts, each end widened by
        1e-9 times max(1, its size) to forgive rounding."""
        return (-self.lag - 1e-9 * max(1.0, self.lag),
                self.horizon + 1e-9 * max(1.0, self.horizon))

    def eval(self, t):
        """Dense evaluation at scalar or array times in [-lag, horizon].

        Returns shape ``t.shape + (dim,)``.  A time clipped to [0, horizon]
        is read on its segment ``times[k] <= t < times[k + 1]`` (``_segment``)
        by the cubic Hermite at ``theta = (t - times[k]) / step``; at
        ``theta = 0`` (node times, the front, the history before zero) the
        node is returned.
        """
        t = np.asarray(t, dtype=float)
        if np.isnan(t).any():
            raise ValueError("dense evaluation at a NaN time")
        front = self.horizon
        first, last = self.bounds()
        if np.any(t > last):
            raise ValueError(f"dense evaluation beyond the computed front t = {front:g}")
        if np.any(t < first):
            raise ValueError(f"dense evaluation before the history start t = {-self.lag:g}")
        t = np.clip(t, 0.0, front)
        k = _segment(t, self.step)
        j = np.minimum(k + 1, self.states.shape[0] - 1)
        theta = ((t - k * self.step) / self.step)[..., None]
        node = self.states[k]
        return np.where(theta == 0.0, node, _hermite(theta, self.step, node, self.states[j],
                                                     self.derivs[k], self.derivs[j]))

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

    Step k reads node k + 1 - m from ``lagged_nodes`` at its end stage, and
    the Hermite midpoint of the segment ending there at its middle stages;
    before the grid both are ``x0``.  At lag 0 a stage reads its own state.

    Returns
    -------
    Trajectory
        Node states and derivatives on the grid k * h', k = 0 .. floor(T/h').

    Raises
    ------
    ValueError
        Invalid initial state, lag, step or horizon.
    NumericalFailureError
        At the first node, node 0 included, whose state or derivative is not
        finite, or whose step had a stage the rhs rejected as non-finite.
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
    half = 0.5 * h
    sixth = h / 6.0
    s = x0
    # an overflow is reported as a NumericalFailureError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            derivs[0] = rhs(x0, x0)
            if not np.isfinite(derivs[0]).all():
                raise NumericalFailureError(0.0)
            if not ode:
                lagged = lagged_nodes(states, derivs, m)
                y0, d0 = x0, derivs[0]
            for k in range(n):
                x = states[k]
                k1 = derivs[k]
                if not ode:
                    ye, d1 = next(lagged)
                    xm = y0 + 0.5 * (ye - y0) + 0.125 * h * (d0 - d1)
                    y0, d0 = ye, d1
                s = x + half * k1
                k2 = rhs(s, s if ode else xm)
                s = x + half * k2
                k3 = rhs(s, s if ode else xm)
                s = x + h * k3
                k4 = rhs(s, s if ode else ye)
                xn = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
                dn = rhs(xn, xn if ode else ye) if np.isfinite(xn).all() else xn
                if not np.isfinite(dn).all():
                    raise NumericalFailureError((k + 1) * h)
                states[k + 1] = xn
                derivs[k + 1] = dn
        except ValueError:
            # the rhs may reject a stage state that overflowed within step k
            if not np.isfinite(s).all():
                raise NumericalFailureError((k + 1) * h) from None
            raise
    return Trajectory(step=h, states=states, derivs=derivs, lag=lag)
