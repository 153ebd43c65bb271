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

Every run starts from constant queue histories ``phi1, phi2``
(equilibrium +-10% by default), which are also the initial state, node 0
of the trajectory; the window averages of constant histories are the
constants themselves, so the moving-average model starts at
``(phi1, phi2, phi1, phi2)``.

The logit weights of (a, b) sum to one, so ``w1 - w2 = -tanh((a - b) / 2)``,
and the difference mode ``u = q1 - q2`` obeys an equation of its own, which
``simulate_difference`` integrates, while the sum ``s = q1 + q2`` relaxes as
``s' = lam - mu s``.  ``simulate`` assembles the full state from the two
modes; ``simulate_reference`` passes the right-hand sides below, the delay
and the node-0 state to ``dde.integrate``, and is the oracle for both.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dde import NumericalFailureError, Trajectory, integrate, lag_grid, lagged_nodes

__all__ = [
    "CONSTANT",
    "MODEL_KINDS",
    "MOVING_AVERAGE",
    "ModelParams",
    "constant_delay_rhs",
    "default_step",
    "equilibrium",
    "ma_from_trajectory",
    "ma_rhs",
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


def constant_delay_rhs(state, lagged, params: ModelParams) -> np.ndarray:
    """Queue derivatives when the choice rule sees the lagged queue pair."""
    w1, w2 = mnl_weights(lagged[0], lagged[1])
    lam = params.lam
    mu = params.mu
    return np.array([lam * w1 - mu * state[0], lam * w2 - mu * state[1]])


def ma_rhs(state, lagged, params: ModelParams) -> np.ndarray:
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


def default_step(params: ModelParams) -> float:
    """Step resolving both the lag and the relaxation time scale."""
    h = min(0.01, 1.0 / (10.0 * params.mu))
    if params.delta > 0.0:
        h = min(h, params.delta / 20.0)
    return h


def _scenario(model: str, params: ModelParams, step, phi1,
              phi2) -> tuple[float, float, float]:
    """Validate the inputs shared by the three integrations of a scenario.

    Returns the constant histories ``(phi1, phi2)``, equilibrium +-10% by
    default, which keep q1 + q2 at its fixed point initially, and the
    requested step, ``default_step(params)`` by default.
    """
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {model!r}")
    if model == MOVING_AVERAGE and params.delta <= 0.0:
        raise ValueError(_NEEDS_WINDOW)
    q = equilibrium(params)
    phi1 = 1.1 * q if phi1 is None else phi1
    phi2 = 0.9 * q if phi2 is None else phi2
    for phi in (phi1, phi2):
        if not (isinstance(phi, numbers.Real) and math.isfinite(phi)):
            raise ValueError("histories phi1, phi2 must be finite real constants")
    h = default_step(params) if step is None else float(step)
    return float(phi1), float(phi2), h


def simulate_reference(model: str, params: ModelParams, horizon: float,
                       step: float | None = None, phi1: float | None = None,
                       phi2: float | None = None) -> Trajectory:
    """Integrate the full state of one scenario with ``dde.integrate``.

    The reference that ``simulate`` reproduces: the models' right-hand
    sides (``constant_delay_rhs``, ``ma_rhs``) run through the generic RK4
    method of steps, so conservation of ``q1 + q2``, swap symmetry, the
    invariant manifold and the order of the scheme are properties of a
    real integration here, not of how ``simulate`` assembles its states.
    Node 0, ``(phi1, phi2)`` or ``(phi1, phi2, phi1, phi2)``, is also the
    constant history.  ``qdelay verify`` and the invariant tests run it.
    Arguments are those of ``simulate``; a node or a stage that goes
    non-finite raises ``NumericalFailureError``.
    """
    p1, p2, h = _scenario(model, params, step, phi1, phi2)
    if model == CONSTANT:
        return integrate(lambda x, xl: constant_delay_rhs(x, xl, params),
                         params.delta, (p1, p2), h, horizon)
    return integrate(lambda x, xl: ma_rhs(x, xl, params),
                     params.delta, (p1, p2, p1, p2), h, horizon)


def simulate(model: str, params: ModelParams, horizon: float,
             step: float | None = None, phi1: float | None = None,
             phi2: float | None = None) -> Trajectory:
    """Integrate one scenario of either model.

    The logit weights sum to one, so the total ``s = q1 + q2`` relaxes on
    its own, ``s' = lam - mu s``, and the delayed choice acts only on the
    difference ``u = q1 - q2``.  ``simulate`` runs the difference-mode
    kernel of ``simulate_difference`` once and adds the sum mode exactly:
    RK4 on ``s' = lam - mu s`` is ``s_k = lam/mu + c R^k`` with
    ``c = s_0 - lam/mu`` and RK4's amplification factor ``R = R(z)``,
    ``z = -mu h``, ``R(z) = 1 + r``, ``r = z (1 + z (1/2 + z (1/6 + z/24)))``.

    For the moving-average model the window total ``M = m1 + m2`` obeys
    ``M' = (s(t) - s(t - delta)) / delta``, driven by ``s`` alone, so its
    RK4 steps sum in closed form.  In step ``k`` the four stage values of
    ``s`` add up, with RK4's weights, to ``6 lam/mu + (6 r / z) c R^k``; the
    lagged reads (the lagged nodes and twice the Hermite midpoint of the
    lagged segment) to ``6 lam/mu + c A_k``, with ``A_k = 6`` while they
    read the history, ``k < m``, and ``A_k = (6 + 3 r - z r / 2) R^(k-m)``
    after.  The increment ``(h c / (6 delta)) ((6 r / z) R^k - A_k)`` is
    geometric; summing it over the first ``k`` steps, splitting
    ``R^k - 1 = (R^k - R^j) + (R^j - 1)`` with ``j = max(k - m, 0)``, and
    as ``6 r - z (6 + 3 r - z r / 2) = -z^5 (2 - z) / 48``::

        M_k  = s_0 - M'_k / mu - (h c / delta) (min(k, m)
                                 + z^4 (2 - z) / 288 * (R^j - 1) / r)
        M'_k = c (R^k - R^j) / delta = c R^j expm1(min(k, m) log R) / delta

    and ``v' = (u_k - u_j) / delta``.  The powers are ``R^k = exp(k log R)``
    and ``R^j - 1 = expm1(j log R)`` with ``log R = log1p(r)`` (``R(z) > 0``
    for every real z), so no term is a difference of nearly equal powers
    and neither ``s`` nor ``M`` carries the rounding of ``R`` itself.  Then
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
        At the first node, node 0 included, whose assembled state or
        derivative is not finite: where ``s``, ``u``, ``u'/2`` (or ``v``)
        first is.  The reference fails where a stage, a node or its
        derivative overflows: on a blow-up mostly the same node, but near
        overflow the paths do different arithmetic, and a stage the kernel
        never forms can fail.
    """
    p1, p2, m, h, series = _difference(model, params, horizon, step, phi1, phi2)
    for i in range(len(series)):
        series[i] = np.array(series[i])
    u, du = series[0], series[1]
    size = u.size
    lam, mu = params.lam, params.mu
    s0, s_inf = p1 + p2, lam / mu
    c = s0 - s_inf
    z, r = _rk4_weights(params, h)[:2]
    dim = 2 if model == CONSTANT else 4
    states = np.empty((size, dim))
    derivs = np.empty((size, dim))
    # an overflow is reported as a NumericalFailureError, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        log_amp = math.log1p(r)
        k_log = np.arange(size) * log_amp
        s = s_inf + c * np.exp(k_log)
        s[0] = s0
        _split(states, 0, 0.5 * s, 0.5 * u)
        _split(derivs, 0, 0.5 * (lam - mu * s), du)
        if model == MOVING_AVERAGE:
            inv = 1.0 / params.delta
            lead = np.minimum(np.arange(size), min(m, size))
            j = np.arange(size) - lead
            j_log = k_log[j]
            d_total = (c * inv) * np.exp(j_log) * np.expm1(lead * log_amp)
            total = s0 - d_total / mu - (h * c * inv) * (
                lead + (z * z * z * z * (2.0 - z) / 288.0) * (np.expm1(j_log) / r))
            _split(states, 2, 0.5 * total, series[2])
            _split(derivs, 2, 0.5 * d_total, 0.5 * ((u - u[j]) * inv))
        # node 0 is the history, whose window averages are still
        states[0] = (p1, p2, p1, p2)[:dim]
        derivs[0, 2:] = 0.0
        bad = np.flatnonzero(~(np.isfinite(states).all(axis=1)
                               & np.isfinite(derivs).all(axis=1)))
    if bad.size:
        raise NumericalFailureError(int(bad[0]) * h)
    return Trajectory(step=h, states=states, derivs=derivs, lag=params.delta)


def _split(out: np.ndarray, column: int, half_total: np.ndarray,
           half_diff: np.ndarray) -> None:
    # (total +- diff) / 2 from the halves, so that no sum overflows early
    np.add(half_total, half_diff, out=out[:, column])
    np.subtract(half_total, half_diff, out=out[:, column + 1])


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
    stages and Hermite midpoint for the lagged value) run on floats, each
    step taken as one affine increment of ``u``, so ``u`` equals ``q1 - q2``
    of ``simulate_reference`` up to rounding, on identical node times.
    Arguments are those of ``simulate``, which accepts and rejects the same
    histories.

    Returns
    -------
    times, u : np.ndarray
        Node times ``k * h`` and the difference mode at them.

    Raises
    ------
    NumericalFailureError
        At the first node, node 0 included, where ``u``, ``u'/2`` (or ``v``)
        is not finite; ``simulate`` fails there, or before where ``s`` does.
    """
    _, _, _, h, series = _difference(model, params, horizon, step, phi1, phi2)
    u = series[0]
    first = bisect.bisect_left(range(len(u)), True,
                               key=lambda k: not all(math.isfinite(c[k]) for c in series))
    if first < len(u):
        raise NumericalFailureError(first * h)
    return np.arange(len(u)) * h, np.array(u)


def _difference(model: str, params: ModelParams, horizon: float, step, phi1,
                phi2) -> tuple[float, float, int, float, list[list[float]]]:
    """Run the difference-mode kernel of one scenario.

    Returns ``(phi1, phi2, m, h, series)``: the history constants, the lag
    in steps and the step of ``lag_grid``, and the kernel's per-node lists,
    ``[u, u'/2]`` or, for the moving-average model, ``[u, u'/2, v / 2]``.
    They hold the ``n + 1`` nodes of the grid, or stop after a bad node.
    """
    p1, p2, h = _scenario(model, params, step, phi1, phi2)
    m, h, n = lag_grid(params.delta, h, horizon)
    if model == MOVING_AVERAGE:
        series = _difference_ma(params, p1 - p2, m, h, n)
    elif m == 0:
        series = _difference_ode(params, p1 - p2, h, n)
    else:
        series = _difference_constant(params, p1 - p2, m, h, n)
    return p1, p2, m, h, series


# The kernels below store u and u'/2 per node; the lagged reads stream over
# those lists.  u'/2 is the difference half of the full-state derivatives,
# q1', q2' = s'/2 +- u'/2, so it overflows where they do (u' can do so a
# step earlier); halving is exact above the subnormals, so no state changes.
# Step k reads node k + 1 - m from ``dde.lagged_nodes``, as ``integrate``
# does, and for its middle stages the cubic Hermite midpoint
# y0 + (y1 - y0) / 2 + (h / 4) (d0 - d1) of the segment ending there, d the
# halves; before the grid the stream repeats node 0, its own midpoint.
#
# Once a step's stage tanh values T_i are known, RK4 on u' = g - mu u with
# g = -lam T is affine in u: one step is the increment
#
#     u + (r u + sum_i c_i T_i),   r = r(z), z = -mu h,
#
# with r RK4's growth polynomial and c_i = -(lam h / 6) times a polynomial
# in z, all computed once per run by ``_rk4_weights``.  The
# constant model has three T_i: lagged node, midpoint (weight c_2 + c_3, as
# both middle stages read it) and lagged end, which is the next step's
# lagged node, so a step takes two tanh, on the history too.  The
# moving-average model has four, of the window-difference stages of
# w = v / 2 (halving is exact); its stage states s_2..s_4 are u plus 1/2,
# 1/2 and 1 times the affine pieces z s_i - lam h T_i, and w steps by
# h / (12 delta) times the weighted stage differences s_i minus the lagged
# reads.  The increment is added to u, never folded into a rounded
# R = 1 + r, whose rounding would bias every step the same way.
#
# A run fails at its first bad node, where u, u'/2 (or w) is not finite,
# and a bad node poisons every later one: a non-finite u (or w) stays so in
# these steps, and a u'/2 that overflows with u finite does so at node 0,
# where the first step's midpoint reads inf - inf, or in a blow-up, whose
# |u| grows on.  So the delay kernels test u (and w) once per lag block of
# m steps, whose lagged reads all precede the block, and stop after a block
# that ends bad; the ODE kernel stops after a bad u'/2.  The lists go back
# whole, and ``simulate_difference`` bisects them for the first bad node.
# On the regime-sweep cells a step costs about 0.4 us (constant model) and
# 0.8 us (moving-average model), against 0.6 and 1.0 us stepped stage by
# stage, on a shared 2-core x86 host under CPython 3.11.


def _rk4_weights(params: ModelParams, h: float) -> tuple[float, ...]:
    # z = -mu h, r = R(z) - 1 for RK4's amplification factor R on y' = -mu y,
    # and c1..c4 of the affine step u + (r u + sum_i c_i T_i)
    z = -params.mu * h
    c4 = -params.lam * h / 6.0
    return (z, z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))),
            c4 * (1.0 + z * (1.0 + z * (0.5 + 0.25 * z))),
            c4 * (2.0 + z * (1.0 + 0.5 * z)), c4 * (2.0 + z), c4)


def _difference_constant(params: ModelParams, u0: float, m: int, h: float,
                         n: int) -> list[list[float]]:
    tanh, isfinite = math.tanh, math.isfinite
    _, r, c_lag, c2, c3, c_end = _rk4_weights(params, h)
    c_mid = c2 + c3
    quarter, neg_half_lam, half_mu = 0.25 * h, -0.5 * params.lam, 0.5 * params.mu
    x = u0
    t_lag = tanh(0.5 * x)
    u, du = [x], [neg_half_lam * t_lag - half_mu * x]
    u_append, du_append = u.append, du.append
    lagged = lagged_nodes(u, du, m)
    y0, d0 = x, du[0]
    for start in range(0, n, m):
        if not isfinite(x):
            break
        for y1, d1 in islice(lagged, min(m, n - start)):
            t_mid = tanh(0.5 * (y0 + 0.5 * (y1 - y0) + quarter * (d0 - d1)))
            t_end = tanh(0.5 * y1)
            x = x + (r * x + c_lag * t_lag + c_mid * t_mid + c_end * t_end)
            u_append(x)
            du_append(neg_half_lam * t_end - half_mu * x)
            y0, d0, t_lag = y1, d1, t_end
    return [u, du]


def _difference_ode(params: ModelParams, u0: float, h: float,
                    n: int) -> list[list[float]]:
    lam, mu = params.lam, params.mu
    tanh, isfinite = math.tanh, math.isfinite
    half, sixth = 0.5 * h, h / 6.0
    neg_half_lam, half_mu = -0.5 * lam, 0.5 * mu
    x = u0
    d = neg_half_lam * tanh(0.5 * x) - half_mu * x
    u, du = [x], [d]
    for k in range(n):
        k1 = 2.0 * d
        s = x + half * k1
        k2 = -lam * tanh(0.5 * s) - mu * s
        s = x + half * k2
        k3 = -lam * tanh(0.5 * s) - mu * s
        s = x + h * k3
        k4 = -lam * tanh(0.5 * s) - mu * s
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        d = neg_half_lam * tanh(0.5 * x) - half_mu * x
        u.append(x)
        du.append(d)
        if not isfinite(d):  # as it is wherever x is
            break
    return [u, du]


def _difference_ma(params: ModelParams, u0: float, m: int, h: float,
                   n: int) -> list[list[float]]:
    lam, mu = params.lam, params.mu
    tanh, isfinite = math.tanh, math.isfinite
    z, r, c1, c2, c3, c4 = _rk4_weights(params, h)
    # the halved affine pieces of s_2 and s_3, and the fractions of the
    # stage differences in w's stages (h / (4 delta), twice that) and step
    z2, gh2, gh = 0.5 * z, -0.5 * lam * h, -lam * h
    q = 0.25 * h / params.delta
    q2, q3 = 2.0 * q, q / 3.0
    quarter, neg_half_lam, half_mu = 0.25 * h, -0.5 * lam, 0.5 * mu
    # the window averages start at the constant history, so v(0) = u(0)
    x, w = u0, 0.5 * u0
    t1 = tanh(w)
    u, du, ws = [x], [neg_half_lam * t1 - half_mu * x], [w]
    u_append, du_append, w_append = u.append, du.append, ws.append
    lagged = lagged_nodes(u, du, m)
    y0, d0 = u0, du[0]
    for start in range(0, n, m):
        if not (isfinite(x) and isfinite(w)):
            break
        for y1, d1 in islice(lagged, min(m, n - start)):
            y_mid = y0 + 0.5 * (y1 - y0) + quarter * (d0 - d1)
            p1 = x - y0
            t2 = tanh(w + q * p1)
            s2 = x + (z2 * x + gh2 * t1)
            p2 = s2 - y_mid
            t3 = tanh(w + q * p2)
            s3 = x + (z2 * s2 + gh2 * t2)
            p3 = s3 - y_mid
            t4 = tanh(w + q2 * p3)
            s4 = x + (z * s3 + gh * t3)
            x = x + (r * x + c1 * t1 + c2 * t2 + c3 * t3 + c4 * t4)
            w = w + q3 * (p1 + 2.0 * (p2 + p3) + (s4 - y1))
            t1 = tanh(w)
            u_append(x)
            du_append(neg_half_lam * t1 - half_mu * x)
            w_append(w)
            y0, d0 = y1, d1
    return [u, du, ws]


def ma_from_trajectory(traj: Trajectory, t: float, delta: float) -> np.ndarray:
    """Window average (1/delta) * integral of the state over [t - delta, t].

    Composite trapezoid quadrature over dense evaluations at spacing
    <= the trajectory step; returns one value per state component.  The
    window must lie within ``traj.bounds()``, else ValueError.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"window length delta must be finite and > 0, got {delta}")
    if not math.isfinite(t):
        raise ValueError(f"window end t must be finite, got {t}")
    first, last = traj.bounds()
    if not (first <= t - delta and t <= last):
        raise ValueError(f"window [t - delta, t] = [{t - delta:g}, {t:g}] is not "
                         f"within the trajectory's [{-traj.lag:g}, {traj.horizon:g}]")
    n = max(1, math.ceil(delta / traj.step - 1e-9))
    ts = np.linspace(t - delta, t, n + 1)
    samples = traj.eval(ts)
    weights = np.full(n + 1, ts[1] - ts[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # normalising by the realised weight sum (= delta up to rounding) keeps
    # constants exact
    return weights @ samples / weights.sum()
