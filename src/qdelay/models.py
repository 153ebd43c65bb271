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

from .dde import (
    _MAX_NODES,
    NumericalFailureError,
    Trajectory,
    integrate,
    lag_grid,
    lagged_nodes,
)

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


def _validate_rates(lam: float, mu: float) -> None:
    # one chained comparison per rate: False for NaN, +-inf and values <= 0
    if not 0.0 < lam < math.inf:
        raise ValueError("lam must be finite and > 0")
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be finite and > 0")


def _validate_delay(model: str, delta: float) -> None:
    # the delays each model accepts: the constant model is the no-delay ODE
    # at delta = 0, while the window averages of the moving-average model
    # obey m' = (q(t) - q(t - delta)) / delta, which needs delta > 0
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model kind: {model!r}")
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and >= 0")
    if delta == 0.0 and model == MOVING_AVERAGE:
        raise ValueError(_NEEDS_WINDOW)


@dataclass(frozen=True)
class ModelParams:
    """One scenario: total arrival rate, per-queue service rate, delay."""

    lam: float
    mu: float
    delta: float

    def __post_init__(self):
        _validate_rates(self.lam, self.mu)
        # no model is named: the constant model's delays, a superset of the other's
        _validate_delay(CONSTANT, self.delta)


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
    _validate_delay(MOVING_AVERAGE, params.delta)
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
    _validate_delay(model, params.delta)
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

    The kernel hands over its series as float64 arrays, which are used as
    they are, and the assembly runs each expression through ``out=``
    buffers, the same operations in the same order, freeing each temporary
    once it is used.  At 10^6 nodes the run peaks at about 64 (constant
    model) and 128 (moving-average model) bytes a node, of which the states
    and derivatives keep 32 and 64.

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
        never forms can fail.  At a step where the sum mode is unstable,
        |R(-mu h)| > 1, ``s`` grows from ``c``, which for the default
        histories is a rounding error, so ``simulate`` can fail tens of
        nodes before the reference: the moving-average run of
        (51.26945139373465, 8.777724078582366, 2.125688265563709) at step
        0.40992221161141035 and horizon 1500 steps fails at node 1491,
        the reference at node 1558.  The default step is stable.
    """
    p1, p2, m, h, series = _difference(model, params, horizon, step, phi1, phi2, True)
    u, du = series[0], series[1]
    size = u.size
    lam, mu = params.lam, params.mu
    s0, s_inf = p1 + p2, lam / mu
    c = s0 - s_inf
    z, r = _rk4_weights(params, h)[:2]
    dim = 2 if model == CONSTANT else 4
    states = np.empty((size, dim))
    derivs = np.empty((size, dim))
    # each group of lines below computes the expression in its comment
    # through out= buffers, the same operations in the same order, so the
    # same bits; an overflow is reported as a NumericalFailureError, not as
    # a warning
    with np.errstate(over="ignore", invalid="ignore"):
        log_amp = math.log1p(r)
        k_log = np.arange(size, dtype=float)               # arange(size) log_amp
        k_log *= log_amp
        if model == MOVING_AVERAGE:
            lead = np.arange(size)                         # min(k, m)
            np.minimum(lead, min(m, size), out=lead)
            j = np.arange(size)                            # k - lead
            j -= lead
            j_log = np.take(k_log, j)                      # k_log[j]
        s = np.exp(k_log, out=k_log)                       # s_inf + c exp(k_log)
        s *= c
        s += s_inf
        s[0] = s0
        half = np.multiply(s, 0.5)                         # 0.5 s
        _split(states, 0, half, np.multiply(u, 0.5, out=states[:, 1]))
        s *= mu                                            # 0.5 (lam - mu s)
        np.subtract(lam, s, out=s)
        s *= 0.5
        _split(derivs, 0, s, du)
        if model == MOVING_AVERAGE:
            inv = 1.0 / params.delta
            # d_total = (c / delta) exp(j_log) expm1(lead log R)
            d_total = np.exp(j_log, out=half)
            d_total *= c * inv
            d_total *= np.expm1(np.multiply(lead, log_amp, out=s), out=s)
            # total = s0 - d_total / mu
            #         - (h c / delta) (lead + z^4 (2 - z) / 288 (expm1(j_log) / r))
            tail = np.expm1(j_log, out=j_log)
            tail /= r
            tail *= z * z * z * z * (2.0 - z) / 288.0
            np.add(lead, tail, out=tail)
            tail *= h * c * inv
            total = np.divide(d_total, mu, out=s)
            np.subtract(s0, total, out=total)
            total -= tail
            total *= 0.5
            _split(states, 2, total, series[2])
            d_total *= 0.5
            v_slope = np.take(u, j, out=tail)              # 0.5 ((u - u[j]) / delta)
            np.subtract(u, v_slope, out=v_slope)
            v_slope *= inv
            v_slope *= 0.5
            _split(derivs, 2, d_total, v_slope)
            del lead, j, j_log, tail, total, d_total, v_slope
        # the scan below allocates, so every buffer goes first
        del k_log, s, half, u, du, series
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
    # (total +- diff) / 2 from the halves, so that no sum overflows early;
    # half_diff may be out[:, column + 1] itself
    np.add(half_total, half_diff, out=out[:, column])
    np.subtract(half_total, half_diff, out=out[:, column + 1])


def simulate_difference(model: str, params: ModelParams, horizon: float,
                        step: float | None = None, phi1: float | None = None,
                        phi2: float | None = None) -> tuple[float, np.ndarray]:
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
    h : float
        The step of ``lag_grid``; node ``k`` lies at time ``k * h``.
    u : np.ndarray
        The difference mode at the nodes, 8 bytes a node: the kernel keeps
        ``u'/2`` (and ``v / 2``) only for its lagged reads.

    Raises
    ------
    NumericalFailureError
        At the first node, node 0 included, where ``u``, ``u'/2`` (or ``v``)
        is not finite; ``simulate`` fails there, or before where ``s`` does.
    """
    _, _, _, h, (u,) = _difference(model, params, horizon, step, phi1, phi2, False)
    return h, u


def _difference(model: str, params: ModelParams, horizon: float, step, phi1,
                phi2, keep: bool) -> tuple[float, float, int, float, list[np.ndarray]]:
    """Run the difference-mode kernel of one scenario.

    Returns ``(phi1, phi2, m, h, series)``: the history constants, the lag
    in steps and the step of ``lag_grid``, and the kernel's per-node series
    as float64 arrays, ``[u, u'/2]`` or, for the moving-average model,
    ``[u, u'/2, v / 2]``.  They hold the ``n + 1`` nodes of the grid, or
    stop after a bad node.  Unless ``keep``, the kernel drops all but ``u``
    as it goes, so the series is ``[u]`` alone, and a bad node raises
    ``NumericalFailureError`` here.
    """
    p1, p2, h = _scenario(model, params, step, phi1, phi2)
    m, h, n = lag_grid(params.delta, h, horizon)
    arrays = [np.empty(n + 1) if keep or i == 0 else None
              for i in range(3 if model == MOVING_AVERAGE else 2)]
    if model == MOVING_AVERAGE:
        base, lists = _difference_ma(params, p1 - p2, m, h, n, arrays)
    elif m == 0:
        base, lists = _difference_ode(params, p1 - p2, h, n, arrays)
    else:
        base, lists = _difference_constant(params, p1 - p2, m, h, n, arrays)
    if not keep:
        # the moved nodes are good, so the first bad node is in the lists
        first = bisect.bisect_left(range(len(lists[0])), True,
                                   key=lambda k: not all(math.isfinite(c[k]) for c in lists))
        if first < len(lists[0]):
            raise NumericalFailureError((base + first) * h)
    size = base + len(lists[0])
    for values, array in zip(lists, arrays):
        if array is not None:
            array[base:size] = values
    return p1, p2, m, h, [a[:size] for a in arrays if a is not None]


# The kernels below append u and u'/2 per node to lists of Python floats,
# which the lagged reads, streaming over them, take fastest.  They step in
# storage windows of ``width = max(m, _WINDOW)`` steps, and at each window
# start ``_window`` moves all but the last m nodes into float64 arrays of
# n + 1 entries (all of them in the ODE kernel, whose steps read no lagged
# node) and restarts the stream on the rest, so a run holds a bounded window
# of floats at 32 bytes a value and 8 bytes a value for every older node:
# at 10^6 nodes ``simulate`` peaks at about 64 (constant model) and 128
# (moving-average model) bytes a node, ``simulate_difference`` at 8, its
# ``u`` alone.  ``simulate`` keeps every series; ``simulate_difference``
# keeps u alone and drops the rest at each move, once they are checked
# finite.  u'/2 is the difference half of the full-state derivatives,
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
# |u| grows on.  So no step tests a node: ``_window`` stops a run at the
# start of the window after its first bad node, or before a move that
# finds a value to drop bad.  Every moved node is then good, and
# ``simulate_difference`` bisects the lists left for the first bad node.
# On the regime-sweep cells a step costs about 0.4 us (constant model) and
# 0.8 us (moving-average model), against 0.6 and 1.0 us stepped stage by
# stage, on a shared 2-core x86 host under CPython 3.11.

_WINDOW = 4096


def _window(lists, arrays, start: int, base: int, m: int, stream):
    """Start the storage window at step ``start`` of a kernel's run.

    ``lists`` hold the nodes ``base .. start`` of the run, values and
    slopes first, and ``arrays[i]`` of ``n + 1`` entries receives
    ``lists[i]``, or is None for a list whose moved values are dropped once
    they are checked finite.  Returns ``(None, base)``, and the run stops,
    where the last node of any list is not finite: a non-finite u stays
    non-finite, so a finite last node certifies every node before it.
    Past the first window all but the last ``m`` nodes move, unless a value
    to drop is not finite, which stops the run too, and the stream restarts
    on the rest: a window is at least m steps, so ``lagged_nodes`` has
    passed its history copies, and the next step reads node
    ``start + 1 - m``, the first one kept.  Returns ``(stream, base)`` for
    the nodes left, the ``stream`` given in the first window.
    """
    if not all(math.isfinite(values[-1]) for values in lists):
        return None, base
    if not start:
        return stream, base
    cut = len(lists[0]) - m
    for values, array in zip(lists, arrays):
        # the sum of floats is finite only if each is; one that overflows
        # from finite terms is checked term by term
        if array is None and not (math.isfinite(sum(values[:cut]))
                                  or all(map(math.isfinite, values[:cut]))):
            return None, base
    for values, array in zip(lists, arrays):
        if array is not None:
            array[base:base + cut] = values[:cut]
        del values[:cut]
    return zip(lists[0], lists[1]), base + cut


def _rk4_weights(params: ModelParams, h: float) -> tuple[float, ...]:
    # z = -mu h, r = R(z) - 1 for RK4's amplification factor R on y' = -mu y,
    # and c1..c4 of the affine step u + (r u + sum_i c_i T_i)
    z = -params.mu * h
    c4 = -params.lam * h / 6.0
    return (z, z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0))),
            c4 * (1.0 + z * (1.0 + z * (0.5 + 0.25 * z))),
            c4 * (2.0 + z * (1.0 + 0.5 * z)), c4 * (2.0 + z), c4)


def _difference_constant(params: ModelParams, u0: float, m: int, h: float, n: int,
                         arrays) -> tuple[int, list[list[float]]]:
    tanh, width = math.tanh, max(m, _WINDOW)
    _, r, c_lag, c2, c3, c_end = _rk4_weights(params, h)
    c_mid = c2 + c3
    quarter, neg_half_lam, half_mu = 0.25 * h, -0.5 * params.lam, 0.5 * params.mu
    x = u0
    t_lag = tanh(0.5 * x)
    u, du = [x], [neg_half_lam * t_lag - half_mu * x]
    u_append, du_append = u.append, du.append
    lagged = lagged_nodes(u, du, m)
    base = 0
    y0, d0 = x, du[0]
    for start in range(0, n, width):
        lagged, base = _window((u, du), arrays, start, base, m, lagged)
        if lagged is None:
            break
        for y1, d1 in islice(lagged, min(width, n - start)):
            t_mid = tanh(0.5 * (y0 + 0.5 * (y1 - y0) + quarter * (d0 - d1)))
            t_end = tanh(0.5 * y1)
            x = x + (r * x + c_lag * t_lag + c_mid * t_mid + c_end * t_end)
            u_append(x)
            du_append(neg_half_lam * t_end - half_mu * x)
            y0, d0, t_lag = y1, d1, t_end
    return base, [u, du]


def _difference_ode(params: ModelParams, u0: float, h: float, n: int,
                    arrays) -> tuple[int, list[list[float]]]:
    lam, mu = params.lam, params.mu
    tanh, width = math.tanh, _WINDOW
    half, sixth = 0.5 * h, h / 6.0
    neg_half_lam, half_mu = -0.5 * lam, 0.5 * mu
    x = u0
    d = neg_half_lam * tanh(0.5 * x) - half_mu * x
    u, du = [x], [d]
    # no step reads a lagged node, so every node moves, and the stream is ()
    stream, base = (), 0
    for start in range(0, n, width):
        stream, base = _window((u, du), arrays, start, base, 0, stream)
        if stream is None:
            break
        for _ in range(min(width, n - start)):
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
    return base, [u, du]


def _difference_ma(params: ModelParams, u0: float, m: int, h: float, n: int,
                   arrays) -> tuple[int, list[list[float]]]:
    lam, mu = params.lam, params.mu
    tanh, width = math.tanh, max(m, _WINDOW)
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
    base = 0
    y0, d0 = u0, du[0]
    for start in range(0, n, width):
        lagged, base = _window((u, du, ws), arrays, start, base, m, lagged)
        if lagged is None:
            break
        for y1, d1 in islice(lagged, min(width, n - start)):
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
    return base, [u, du, ws]


def ma_from_trajectory(traj: Trajectory, t: float, delta: float) -> np.ndarray:
    """Window average (1/delta) * integral of the state over [t - delta, t].

    Composite trapezoid quadrature over dense evaluations at spacing
    <= the trajectory step; returns one value per state component.  A window
    narrower than the float spacing at ``t`` (``t - delta == t``) averages
    to its limit, ``traj.eval(t)``.  The window must lie within
    ``traj.bounds()``, and its samples must fit the node budget of
    ``dde.lag_grid``, else ValueError.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"window length delta must be finite and > 0, got {delta}")
    if not math.isfinite(t):
        raise ValueError(f"window end t must be finite, got {t}")
    first, last = traj.bounds()
    if not (first <= t - delta and t <= last):
        raise ValueError(f"window [t - delta, t] = [{t - delta:g}, {t:g}] is not "
                         f"within the trajectory's [{-traj.lag:g}, {traj.horizon:g}]")
    if t - delta == t:
        # every trapezoid weight would be 0
        return traj.eval(t)
    segments = delta / traj.step - 1e-9
    if not segments + 1.0 <= _MAX_NODES:
        raise ValueError(f"the window needs {segments + 1.0:.8g} samples, "
                         f"more than the {_MAX_NODES} allowed")
    n = max(1, math.ceil(segments))
    ts = np.linspace(t - delta, t, n + 1)
    samples = traj.eval(ts)
    weights = np.full(n + 1, ts[1] - ts[0])
    weights[0] *= 0.5
    weights[-1] *= 0.5
    # normalising by the realised weight sum (= delta up to rounding) keeps
    # constants exact
    return weights @ samples / weights.sum()
