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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dde import DdeSystem, HistoryFunction, IntegrationConfig, Trajectory, integrate

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
]

CONSTANT = "constant"
MOVING_AVERAGE = "moving-average"
MODEL_KINDS = (CONSTANT, MOVING_AVERAGE)


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
        raise ValueError(
            "the moving-average model needs delta > 0; use the constant model at delta = 0")
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
        raise ValueError(
            "the moving-average model needs delta > 0; use the constant model at delta = 0")
    return DdeSystem(
        dimension=4, lag=params.delta,
        rhs=lambda t, x, xl: ma_rhs(t, x, xl, params))


def _default_offsets(params: ModelParams) -> tuple[float, float]:
    # +-10% of the equilibrium keeps q1 + q2 at its fixed point initially
    q = equilibrium(params)
    return 1.1 * q, 0.9 * q


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    return float(np.sum(0.5 * (values[1:] + values[:-1]) * np.diff(times)))


def constant_delay_history(params: ModelParams, phi1: float | None = None,
                           phi2: float | None = None) -> HistoryFunction:
    """Constant two-component history; defaults to equilibrium +-10%."""
    d1, d2 = _default_offsets(params)
    p1 = d1 if phi1 is None else float(phi1)
    p2 = d2 if phi2 is None else float(phi2)
    return HistoryFunction.constant([p1, p2], params.delta)


def ma_history(params: ModelParams, phi1=None, phi2=None) -> HistoryFunction:
    """Four-component history for the moving-average model.

    ``phi1`` / ``phi2`` may be constants or ``(times, values)`` sample
    tables on [-delta, 0].  The auxiliary states start at the window
    average of the corresponding history, computed by trapezoid quadrature
    (for a constant history that is the constant itself); they are held at
    that value across the history interval.
    """
    if params.delta <= 0.0:
        raise ValueError("the moving-average model needs delta > 0")
    d1, d2 = _default_offsets(params)
    phi1 = d1 if phi1 is None else phi1
    phi2 = d2 if phi2 is None else phi2
    if np.isscalar(phi1) and np.isscalar(phi2):
        p1 = float(phi1)
        p2 = float(phi2)
        return HistoryFunction.constant([p1, p2, p1, p2], params.delta)
    grid = np.array([-params.delta, 0.0])
    columns = []
    for phi in (phi1, phi2):
        if np.isscalar(phi):
            columns.append((grid, np.full(grid.size, float(phi))))
        else:
            times = np.asarray(phi[0], dtype=float)
            values = np.asarray(phi[1], dtype=float)
            columns.append((times, values))
            grid = np.union1d(grid, times)
    sampled = []
    averages = []
    for times, values in columns:
        on_grid = np.interp(grid, times, values)
        sampled.append(on_grid)
        averages.append(_trapezoid(on_grid, grid) / params.delta)
    table = np.column_stack([
        sampled[0], sampled[1],
        np.full(grid.size, averages[0]), np.full(grid.size, averages[1]),
    ])
    return HistoryFunction.from_samples(grid, table)


def default_step(params: ModelParams) -> float:
    """Step resolving both the lag and the relaxation time scale."""
    h = min(0.01, 1.0 / (10.0 * params.mu))
    if params.delta > 0.0:
        h = min(h, params.delta / 20.0)
    return h


def simulate(model: str, params: ModelParams, horizon: float,
             step: float | None = None, phi1=None, phi2=None) -> Trajectory:
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
    phi1, phi2 : optional
        Initial histories for the two queues (constants, or sample tables
        for the moving-average model); default to equilibrium +-10%.
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
