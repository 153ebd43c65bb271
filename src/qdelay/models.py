"""Two fluid models of parallel queues that split arrivals by a multinomial
logit rule applied to delayed queue-length information.

Both models serve two identical infinite-server queues fed by a total
arrival rate ``lam``; each queue drains at rate ``mu`` per unit of fluid.
In the constant-delay model the choice rule sees the queue lengths from
``delta`` time units ago; in the moving-average model it sees the running
window average of each queue over the last ``delta`` time units, which is
tracked by two auxiliary states.

State layout (plain arrays, as consumed by the integrator):

* constant-delay model: ``x = (q1, q2)``
* moving-average model: ``x = (q1, q2, m1, m2)``

The logit weights of (a, b) sum to one, so ``w1 - w2 = -tanh((a - b) / 2)``,
and the difference mode ``u = q1 - q2`` obeys an equation of its own, which
``simulate_difference`` integrates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dde import (
    DdeSystem,
    HistoryFunction,
    IntegrationConfig,
    NumericalFailureError,
    Trajectory,
    integrate,
    lag_grid,
)

__all__ = [
    "CONSTANT",
    "MODEL_KINDS",
    "MOVING_AVERAGE",
    "ModelParams",
    "constant_delay_history",
    "constant_delay_rhs",
    "constant_delay_system",
    "default_step",
    "equilibrium",
    "ma_from_trajectory",
    "ma_history",
    "ma_rhs",
    "ma_system",
    "mnl_weights",
    "simulate",
    "simulate_difference",
]

CONSTANT = "constant"
MOVING_AVERAGE = "moving-average"
MODEL_KINDS = (CONSTANT, MOVING_AVERAGE)

_NEEDS_WINDOW = ("the moving-average model needs delta > 0; "
                 "use the constant model at delta = 0")


@dataclass(frozen=True)
class ModelParams:
    """One scenario: total arrival rate, per-queue service rate, delay."""

    lam: float
    mu: float
    delta: float

    def __post_init__(self):
        for name, value in (("lam", self.lam), ("mu", self.mu), ("delta", self.delta)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.lam <= 0.0:
            raise ValueError("lam must be > 0")
        if self.mu <= 0.0:
            raise ValueError("mu must be > 0")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")


def mnl_weights(a: float, b: float) -> tuple[float, float]:
    """Multinomial-logit weights (e^-a, e^-b) normalised to sum to one.

    The smaller value is subtracted from both before exponentiating, so
    arbitrarily large queue lengths never overflow; once the inputs differ
    by more than ~745 the weights saturate to exactly 0 and 1.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("mnl_weights requires finite inputs")
    low = a if a <= b else b
    e1 = math.exp(low - a)
    e2 = math.exp(low - b)
    s = e1 + e2
    return e1 / s, e2 / s


def equilibrium(params: ModelParams) -> float:
    """Symmetric fixed point lam / (2 mu), shared by both models."""
    return params.lam / (2.0 * params.mu)


def constant_delay_rhs(t: float, state, lagged, params: ModelParams) -> np.ndarray:
    """Queue derivatives when the choice rule sees the lagged queue pair."""
    w1, w2 = mnl_weights(lagged[0], lagged[1])
    lam = params.lam
    mu = params.mu
    return np.array([lam * w1 - mu * state[0], lam * w2 - mu * state[1]])


def ma_rhs(t: float, state, lagged, params: ModelParams) -> np.ndarray:
    """Derivatives of (q1, q2, m1, m2); the choice rule sees (m1, m2)."""
    if params.delta <= 0.0:
        raise ValueError(_NEEDS_WINDOW)
    w1, w2 = mnl_weights(state[2], state[3])
    lam = params.lam
    mu = params.mu
    inv = 1.0 / params.delta
    return np.array([
        lam * w1 - mu * state[0],
        lam * w2 - mu * state[1],
        (state[0] - lagged[0]) * inv,
        (state[1] - lagged[1]) * inv,
    ])


def constant_delay_system(params: ModelParams) -> DdeSystem:
    return DdeSystem(
        dimension=2, lag=params.delta,
        rhs=lambda t, x, xl: constant_delay_rhs(t, x, xl, params))


def ma_system(params: ModelParams) -> DdeSystem:
    if params.delta <= 0.0:
        raise ValueError(_NEEDS_WINDOW)
    return DdeSystem(
        dimension=4, lag=params.delta,
        rhs=lambda t, x, xl: ma_rhs(t, x, xl, params))


def _history_constants(params: ModelParams, phi1, phi2) -> tuple[float, float]:
    # +-10% of the equilibrium keeps q1 + q2 at its fixed point initially
    q = equilibrium(params)
    phi1 = 1.1 * q if phi1 is None else phi1
    phi2 = 0.9 * q if phi2 is None else phi2
    for phi in (phi1, phi2):
        if not (isinstance(phi, numbers.Real) and math.isfinite(phi)):
            raise ValueError("histories phi1, phi2 must be finite real constants")
    return float(phi1), float(phi2)


def constant_delay_history(params: ModelParams, phi1: float | None = None,
                           phi2: float | None = None) -> HistoryFunction:
    """Constant two-component history; defaults to equilibrium +-10%."""
    return HistoryFunction.constant(_history_constants(params, phi1, phi2), params.delta)


def ma_history(params: ModelParams, phi1: float | None = None,
               phi2: float | None = None) -> HistoryFunction:
    """Constant four-component history for the moving-average model: the
    window averages of constant queue histories are the constants themselves."""
    if params.delta <= 0.0:
        raise ValueError(_NEEDS_WINDOW)
    p1, p2 = _history_constants(params, phi1, phi2)
    return HistoryFunction.constant([p1, p2, p1, p2], params.delta)


def default_step(params: ModelParams) -> float:
    """Step resolving both the lag and the relaxation time scale."""
    h = min(0.01, 1.0 / (10.0 * params.mu))
    if params.delta > 0.0:
        h = min(h, params.delta / 20.0)
    return h


def simulate(model: str, params: ModelParams, horizon: float,
             step: float | None = None, phi1: float | None = None,
             phi2: float | None = None) -> Trajectory:
    """Integrate one scenario of either model.

    Parameters
    ----------
    model : str
        ``"constant"`` or ``"moving-average"``.
    params : ModelParams
        Scenario rates and delay.
    horizon : float
        Integration horizon T.
    step : float, optional
        Requested step; defaults to ``default_step(params)``.
    phi1, phi2 : float, optional
        Constant initial histories of the two queues; default to
        equilibrium +-10%.
    """
    if model == CONSTANT:
        system = constant_delay_system(params)
        history = constant_delay_history(params, phi1, phi2)
    elif model == MOVING_AVERAGE:
        system = ma_system(params)
        history = ma_history(params, phi1, phi2)
    else:
        raise ValueError(f"unknown model kind: {model!r}")
    h = default_step(params) if step is None else float(step)
    config = IntegrationConfig(step=h, horizon=horizon)
    return integrate(system, history, config)


def simulate_difference(model: str, params: ModelParams, horizon: float,
                        step: float | None = None, phi1: float | None = None,
                        phi2: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate only the difference mode u = q1 - q2 of one scenario.

    With ``g(x) = -lam tanh(x / 2)`` the difference obeys

    * constant model: the scalar DDE ``u' = g(u(t - delta)) - mu u``, an
      ODE at delta = 0;
    * moving-average model: ``u' = g(v) - mu u`` and
      ``v' = (u - u(t - delta)) / delta`` for ``v = m1 - m2``.

    The recursion is that of ``simulate`` (the same grid, RK4 stages and
    Hermite midpoint for the lagged value) run on floats, so ``u`` equals
    ``states[:, 0] - states[:, 1]`` of the same ``simulate`` call up to
    rounding, on identical node times.  Arguments are those of
    ``simulate``, which accepts and rejects the same histories.

    Returns
    -------
    times, u : np.ndarray
        Node times ``k * h`` and the difference mode at them.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {model!r}")
    if model == MOVING_AVERAGE and params.delta <= 0.0:
        raise ValueError(_NEEDS_WINDOW)
    p1, p2 = _history_constants(params, phi1, phi2)
    u0 = p1 - p2
    h = default_step(params) if step is None else float(step)
    m, h, n = lag_grid(params.delta, IntegrationConfig(step=h, horizon=horizon))
    if model == MOVING_AVERAGE:
        u = _difference_ma(params, u0, m, h, n)
    elif m == 0:
        u = _difference_ode(params, u0, h, n)
    else:
        u = _difference_constant(params, u0, m, h, n)
    return np.arange(n + 1) * h, np.array(u)


# The kernels below store u and u' per node for the lagged reads.  In step
# k < m the lagged values come from the constant history (at k = m - 1 the
# lagged node is node 0, which holds the history value); from then on the
# lagged node value is u[k + 1 - m] and the lagged stage value the Hermite
# midpoint of the segment [k - m, k + 1 - m].


def _failure(k: int, h: float) -> NumericalFailureError:
    return NumericalFailureError("integration produced a non-finite state", (k + 1) * h)


def _difference_constant(params: ModelParams, u0: float, m: int, h: float,
                         n: int) -> list[float]:
    lam, mu = params.lam, params.mu
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    g0 = -lam * tanh(0.5 * u0)
    u = [u0]
    du = [g0 - mu * u0]
    for k in range(n):
        i = k - m
        if i < 0:
            g_mid = g_end = g0
        else:
            y0 = u[i]
            u_end = u[i + 1]
            u_mid = y0 + 0.5 * (u_end - y0) + eighth * (du[i] - du[i + 1])
            g_mid = -lam * tanh(0.5 * u_mid)
            g_end = -lam * tanh(0.5 * u_end)
        x = u[k]
        k1 = du[k]
        k2 = g_mid - mu * (x + half * k1)
        k3 = g_mid - mu * (x + half * k2)
        k4 = g_end - mu * (x + h * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not isfinite(x):
            raise _failure(k, h)
        u.append(x)
        du.append(g_end - mu * x)
    return u


def _difference_ode(params: ModelParams, u0: float, h: float, n: int) -> list[float]:
    lam, mu = params.lam, params.mu
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth = 0.5 * h, h / 6.0
    x = u0
    k1 = -lam * tanh(0.5 * x) - mu * x
    u = [x]
    for k in range(n):
        s = x + half * k1
        k2 = -lam * tanh(0.5 * s) - mu * s
        s = x + half * k2
        k3 = -lam * tanh(0.5 * s) - mu * s
        s = x + h * k3
        k4 = -lam * tanh(0.5 * s) - mu * s
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not isfinite(x):
            raise _failure(k, h)
        u.append(x)
        k1 = -lam * tanh(0.5 * x) - mu * x
    return u


def _difference_ma(params: ModelParams, u0: float, m: int, h: float,
                   n: int) -> list[float]:
    lam, mu, inv = params.lam, params.mu, 1.0 / params.delta
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    # the window averages start at the constant history, so v(0) = u(0)
    v = u0
    dv = 0.0
    u = [u0]
    du = [-lam * tanh(0.5 * v) - mu * u0]
    for k in range(n):
        i = k - m
        if i < 0:
            u_mid = u_end = u0
        else:
            y0 = u[i]
            u_end = u[i + 1]
            u_mid = y0 + 0.5 * (u_end - y0) + eighth * (du[i] - du[i + 1])
        x = u[k]
        k1, l1 = du[k], dv
        s, sv = x + half * k1, v + half * l1
        k2, l2 = -lam * tanh(0.5 * sv) - mu * s, (s - u_mid) * inv
        s, sv = x + half * k2, v + half * l2
        k3, l3 = -lam * tanh(0.5 * sv) - mu * s, (s - u_mid) * inv
        s, sv = x + h * k3, v + h * l3
        k4, l4 = -lam * tanh(0.5 * sv) - mu * s, (s - u_end) * inv
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        v = v + sixth * (l1 + 2.0 * (l2 + l3) + l4)
        if not (isfinite(x) and isfinite(v)):
            raise _failure(k, h)
        u.append(x)
        du.append(-lam * tanh(0.5 * v) - mu * x)
        dv = (x - u_end) * inv
    return u


def ma_from_trajectory(traj: Trajectory, t: float, delta: float) -> np.ndarray:
    """Window average (1/delta) * integral of the state over [t - delta, t].

    Composite trapezoid quadrature over dense evaluations at spacing
    <= the trajectory step; returns one value per state component.
    """
    if delta <= 0.0:
        raise ValueError("window length delta must be > 0")
    n = max(1, math.ceil(delta / traj.step - 1e-9))
    ts = np.linspace(t - delta, t, n + 1)
    samples = traj.eval(ts)
    weights = np.full(n + 1, ts[1] - ts[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # normalising by the realised weight sum (= delta up to rounding) keeps
    # constants exact
    return weights @ samples / weights.sum()
