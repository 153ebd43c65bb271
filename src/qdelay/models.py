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
``simulate_difference`` integrates, while the sum ``s = q1 + q2`` relaxes as
``s' = lam - mu s``.  ``simulate`` assembles the full state from the two
modes; ``simulate_reference`` integrates the full state with ``dde.integrate``
and the right-hand sides below, and is the oracle for both.
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
    "simulate_reference",
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


def simulate_reference(model: str, params: ModelParams, horizon: float,
                       step: float | None = None, phi1: float | None = None,
                       phi2: float | None = None) -> Trajectory:
    """Integrate the full state of one scenario with ``dde.integrate``.

    The reference that ``simulate`` reproduces: the models' right-hand
    sides (``constant_delay_rhs``, ``ma_rhs``) run through the generic RK4
    method of steps, so conservation of ``q1 + q2``, swap symmetry, the
    invariant manifold and the order of the scheme are properties of a
    real integration here, not of how ``simulate`` assembles its states.
    ``qdelay verify`` and the invariant tests run it.  Arguments are those
    of ``simulate``; a node or a stage that goes non-finite raises
    ``NumericalFailureError``.
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
    return integrate(system, history, IntegrationConfig(step=h, horizon=horizon))


def simulate(model: str, params: ModelParams, horizon: float,
             step: float | None = None, phi1: float | None = None,
             phi2: float | None = None) -> Trajectory:
    """Integrate one scenario of either model.

    The logit weights sum to one, so the total ``s = q1 + q2`` relaxes on
    its own, ``s' = lam - mu s``, and the delayed choice acts only on the
    difference ``u = q1 - q2``.  ``simulate`` runs the difference-mode
    kernel of ``simulate_difference`` once and adds the sum mode exactly:
    RK4 on ``s' = lam - mu s`` is ``s_k = lam/mu + (s_0 - lam/mu) R(-mu h)^k``
    with RK4's amplification factor ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``.
    For the moving-average model the window total ``M = m1 + m2`` obeys
    ``M' = (s(t) - s(t - delta)) / delta``; its RK4 steps, with the Hermite
    midpoint for the lagged ``s``, are summed over the grid at once.  Then
    ``q1, q2 = (s +- u) / 2`` and ``m1, m2 = (M +- v) / 2``, and the node
    derivatives likewise, so dense output stays cubic Hermite and the
    trajectory equals ``simulate_reference`` up to rounding, on identical
    node times.

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

    Raises
    ------
    NumericalFailureError
        At the time of the first node where ``s``, ``u`` (or ``v``), or an
        assembled state or derivative, is not finite.  The reference fails
        where one of its RK4 stages or nodes overflows; on a blow-up that
        is the same node or one step apart.
    """
    p1, p2, m, h, n, series = _difference(model, params, horizon, step, phi1, phi2)
    for i in range(len(series)):
        series[i] = np.array(series[i])
    u, du = series[0], series[1]
    size = u.size
    lam, mu = params.lam, params.mu
    s0, s_inf = p1 + p2, lam / mu
    z = -mu * h
    amplification = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    dim = 2 if model == CONSTANT else 4
    states = np.empty((size, dim))
    derivs = np.empty((size, dim))
    # an overflow is reported as a NumericalFailureError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        s = s_inf + (s0 - s_inf) * amplification ** np.arange(size)
        s[0] = s0
        ds = lam - mu * s
        _split(states, 0, s, u)
        _split(derivs, 0, ds, du)
        if model == MOVING_AVERAGE:
            total, d_total, dv = _window_modes(params, m, h, s, ds, u, p1 - p2)
            _split(states, 2, total, series[2])
            _split(derivs, 2, d_total, dv)
        bad = np.flatnonzero(~(np.isfinite(states).all(axis=1)
                               & np.isfinite(derivs).all(axis=1)))
    if bad.size or size <= n:
        raise _failure(int(bad[0]) if bad.size else size, h)
    history = HistoryFunction.constant((p1, p2) if dim == 2 else (p1, p2, p1, p2),
                                       params.delta)
    states[0] = history.values
    return Trajectory(step=h, states=states, derivs=derivs, history=history)


def _split(out: np.ndarray, column: int, total: np.ndarray, diff: np.ndarray) -> None:
    # (total +- diff) / 2, halved first so that no sum overflows early
    half_total, half_diff = 0.5 * total, 0.5 * diff
    np.add(half_total, half_diff, out=out[:, column])
    np.subtract(half_total, half_diff, out=out[:, column + 1])


def _node_lag(x: np.ndarray, x0: float, m: int) -> np.ndarray:
    """``x`` at each node time minus the lag of m steps; the constant
    history ``x0`` where that time precedes the grid."""
    head = min(m, x.size)
    return np.concatenate((np.full(head, x0), x[:x.size - head]))


def _window_modes(params: ModelParams, m: int, h: float, s: np.ndarray,
                  ds: np.ndarray, u: np.ndarray,
                  u0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window total ``M = m1 + m2`` and the derivatives of ``M`` and ``v``
    on the nodes of ``s``.

    ``M`` takes the RK4 steps of the full-state integrator on
    ``M' = (s(t) - s(t - delta)) / delta``: the stages of ``s`` within each
    step, the lagged node values, and the Hermite midpoint of the lagged
    segment (the history value before the grid), with the increments
    summed in node order.
    """
    inv = 1.0 / params.delta
    lam, mu = params.lam, params.mu
    half = 0.5 * h
    s0 = float(s[0])
    s_lag = _node_lag(s, s0, m)
    d_total = (s - s_lag) * inv
    dv = (u - _node_lag(u, u0, m)) * inv
    steps = s.size - 1
    x, k1 = s[:-1], ds[:-1]
    k2 = lam - mu * (x + half * k1)
    k3 = lam - mu * (x + half * k2)
    mid = np.full(steps, s0)
    if steps > m:
        j = steps - m
        y0, y1 = s[:j], s[1:j + 1]
        mid[m:] = y0 + 0.5 * (y1 - y0) + 0.125 * h * (ds[:j] - ds[1:j + 1])
    increments = (h / 6.0) * (d_total[:-1]
                              + 2.0 * ((x + half * k1 - mid) * inv
                                       + (x + half * k2 - mid) * inv)
                              + (x + h * k3 - s_lag[1:]) * inv)
    total = np.cumsum(np.concatenate(([s0], increments)))
    return total, d_total, dv


def simulate_difference(model: str, params: ModelParams, horizon: float,
                        step: float | None = None, phi1: float | None = None,
                        phi2: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Integrate only the difference mode u = q1 - q2 of one scenario.

    With ``g(x) = -lam tanh(x / 2)`` the difference obeys

    * constant model: the scalar DDE ``u' = g(u(t - delta)) - mu u``, an
      ODE at delta = 0;
    * moving-average model: ``u' = g(v) - mu u`` and
      ``v' = (u - u(t - delta)) / delta`` for ``v = m1 - m2``.

    The recursion is that of the full-state integrator (the same grid, RK4
    stages and Hermite midpoint for the lagged value) run on floats, so
    ``u`` equals ``q1 - q2`` of ``simulate_reference`` up to rounding, on
    identical node times.  Arguments are those of ``simulate``, which
    accepts and rejects the same histories; the first node at which ``u``
    (or ``v``) is not finite raises ``NumericalFailureError``.

    Returns
    -------
    times, u : np.ndarray
        Node times ``k * h`` and the difference mode at them.
    """
    _, _, _, h, n, series = _difference(model, params, horizon, step, phi1, phi2)
    u = series[0]
    if len(u) <= n:
        raise _failure(len(u), h)
    return np.arange(n + 1) * h, np.array(u)


def _difference(model: str, params: ModelParams, horizon: float, step, phi1,
                phi2) -> tuple[float, float, int, float, int, list[list[float]]]:
    """Run the difference-mode kernel of one scenario.

    Returns ``(phi1, phi2, m, h, n, series)``: the history constants, the
    ``lag_grid`` and the kernel's per-node lists, ``[u, u']`` or, for the
    moving-average model, ``[u, u', v]``.  The lists stop early, at
    ``len(u) <= n``, when node ``len(u)`` went non-finite.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {model!r}")
    if model == MOVING_AVERAGE and params.delta <= 0.0:
        raise ValueError(_NEEDS_WINDOW)
    p1, p2 = _history_constants(params, phi1, phi2)
    h = default_step(params) if step is None else float(step)
    m, h, n = lag_grid(params.delta, IntegrationConfig(step=h, horizon=horizon))
    if model == MOVING_AVERAGE:
        series = _difference_ma(params, p1 - p2, m, h, n)
    elif m == 0:
        series = _difference_ode(params, p1 - p2, h, n)
    else:
        series = _difference_constant(params, p1 - p2, m, h, n)
    return p1, p2, m, h, n, series


# The kernels below store u and u' per node for the lagged reads and carry
# the current node, and the start of the lagged segment, in locals.  In step
# k < m the lagged values come from the constant history (at k = m - 1 the
# lagged node is node 0, which holds the history value); from then on the
# lagged node value is u[k + 1 - m] and the lagged stage value the Hermite
# midpoint of the segment [k - m, k + 1 - m].  A kernel stops before the
# first non-finite node.


def _failure(node: int, h: float) -> NumericalFailureError:
    return NumericalFailureError("integration produced a non-finite state", node * h)


def _difference_constant(params: ModelParams, u0: float, m: int, h: float,
                         n: int) -> list[list[float]]:
    lam, mu = params.lam, params.mu
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    g0 = -lam * tanh(0.5 * u0)
    x, k1 = u0, g0 - mu * u0
    u, du = [x], [k1]
    y0, d0 = x, k1
    for k in range(n):
        i = k - m
        if i < 0:
            g_mid = g_end = g0
        else:
            y1 = u[i + 1]
            d1 = du[i + 1]
            u_mid = y0 + 0.5 * (y1 - y0) + eighth * (d0 - d1)
            g_mid = -lam * tanh(0.5 * u_mid)
            g_end = -lam * tanh(0.5 * y1)
            y0, d0 = y1, d1
        k2 = g_mid - mu * (x + half * k1)
        k3 = g_mid - mu * (x + half * k2)
        k4 = g_end - mu * (x + h * k3)
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not isfinite(x):
            break
        k1 = g_end - mu * x
        u.append(x)
        du.append(k1)
    return [u, du]


def _difference_ode(params: ModelParams, u0: float, h: float,
                    n: int) -> list[list[float]]:
    lam, mu = params.lam, params.mu
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth = 0.5 * h, h / 6.0
    x = u0
    k1 = -lam * tanh(0.5 * x) - mu * x
    u, du = [x], [k1]
    for k in range(n):
        s = x + half * k1
        k2 = -lam * tanh(0.5 * s) - mu * s
        s = x + half * k2
        k3 = -lam * tanh(0.5 * s) - mu * s
        s = x + h * k3
        k4 = -lam * tanh(0.5 * s) - mu * s
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not isfinite(x):
            break
        k1 = -lam * tanh(0.5 * x) - mu * x
        u.append(x)
        du.append(k1)
    return [u, du]


def _difference_ma(params: ModelParams, u0: float, m: int, h: float,
                   n: int) -> list[list[float]]:
    lam, mu, inv = params.lam, params.mu, 1.0 / params.delta
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    # the window averages start at the constant history, so v(0) = u(0)
    x = v = u0
    k1, l1 = -lam * tanh(0.5 * v) - mu * x, 0.0
    u, du, vs = [x], [k1], [v]
    y0, d0 = x, k1
    for k in range(n):
        i = k - m
        if i < 0:
            u_mid = u_end = u0
        else:
            u_end = u[i + 1]
            d1 = du[i + 1]
            u_mid = y0 + 0.5 * (u_end - y0) + eighth * (d0 - d1)
            y0, d0 = u_end, d1
        s, sv = x + half * k1, v + half * l1
        k2, l2 = -lam * tanh(0.5 * sv) - mu * s, (s - u_mid) * inv
        s, sv = x + half * k2, v + half * l2
        k3, l3 = -lam * tanh(0.5 * sv) - mu * s, (s - u_mid) * inv
        s, sv = x + h * k3, v + h * l3
        k4, l4 = -lam * tanh(0.5 * sv) - mu * s, (s - u_end) * inv
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        v = v + sixth * (l1 + 2.0 * (l2 + l3) + l4)
        if not (isfinite(x) and isfinite(v)):
            break
        k1 = -lam * tanh(0.5 * v) - mu * x
        l1 = (x - u_end) * inv
        u.append(x)
        du.append(k1)
        vs.append(v)
    return [u, du, vs]


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
