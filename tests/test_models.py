"""Model-layer tests: choice weights, right-hand sides, equilibrium,
histories, conservation, symmetry, and window-average quadrature."""

import decimal
import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from qdelay import (
    CONSTANT,
    MOVING_AVERAGE,
    ModelParams,
    NumericalFailureError,
    Trajectory,
    characteristic_residual_constant,
    characteristic_residual_ma,
    checks,
    constant_delay_rhs,
    crossing_rate,
    equilibrium,
    ma_from_trajectory,
    ma_rhs,
    mnl_weights,
    models,
    root_track,
    simulate,
    simulate_difference,
    simulate_reference,
    sweep,
)
from qdelay.analysis import FAILED

RNG = np.random.default_rng(20240311)
SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestModelParams:
    def test_valid(self):
        p = ModelParams(lam=10.0, mu=1.0, delta=0.4)
        assert (p.lam, p.mu, p.delta) == (10.0, 1.0, 0.4)

    @pytest.mark.parametrize("kwargs", [
        dict(lam=0.0, mu=1.0, delta=0.1),
        dict(lam=10.0, mu=-1.0, delta=0.1),
        dict(lam=10.0, mu=1.0, delta=-0.1),
        dict(lam=math.inf, mu=1.0, delta=0.1),
        dict(lam=10.0, mu=math.nan, delta=0.1),
    ])
    def test_invalid(self, kwargs):
        # each case breaks one argument of (10, 1, 0.1); the message names it
        valid = dict(lam=10.0, mu=1.0, delta=0.1)
        bad = next(name for name, value in kwargs.items() if value != valid[name])
        rule = ">= 0" if bad == "delta" else "> 0"
        with pytest.raises(ValueError, match=f"^{bad} must be finite and {rule}$"):
            ModelParams(**kwargs)


@pytest.mark.parametrize("model,delta", [
    (model, delta) for model in (CONSTANT, MOVING_AVERAGE)
    for delta in (math.nan, math.inf, -math.inf, -0.4)
] + [(MOVING_AVERAGE, 0.0)])
def test_every_entry_point_refuses_a_delay_with_one_message(model, delta):
    # one rule gives the delays each model accepts; every entry point that
    # takes a delay refuses each case with that rule's message, and a sweep
    # predicts the cell failed, as it observes it
    message = ("the moving-average model needs delta > 0; use the constant model "
               "at delta = 0" if delta == 0.0 else "delta must be finite and >= 0")
    residual = (characteristic_residual_constant if model == CONSTANT
                else characteristic_residual_ma)
    calls = [lambda: residual(1j, 10.0, 1.0, delta),
             lambda: root_track(model, 10.0, 1.0, delta, 1j),
             lambda: crossing_rate(model, 10.0, 1.0, delta, 1j)]
    if delta == 0.0:
        # ModelParams names no model and takes 0: its users refuse it
        params = ModelParams(10.0, 1.0, delta)
        calls.append(lambda: ma_rhs(np.full(4, 5.0), np.full(4, 5.0), params))
        calls += [lambda run=run: run(model, params, horizon=1.0)
                  for run in (simulate, simulate_reference, simulate_difference)]
    else:
        calls.append(lambda: ModelParams(10.0, 1.0, delta))
    for call in calls:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    (row,) = sweep(model, 1.0, [10.0], [delta])
    assert (row.predicted, row.observed, row.error) == (FAILED, FAILED, message)


class TestMnlWeights:
    def test_equal_inputs_split_evenly(self):
        for x in (-40.0, 0.0, 0.3, 5e7):
            assert mnl_weights(x, x) == (0.5, 0.5)

    def test_log3_gives_three_to_one(self):
        w1, w2 = mnl_weights(0.0, math.log(3.0))
        assert w1 == pytest.approx(0.75, abs=1e-15)
        assert w2 == pytest.approx(0.25, abs=1e-15)

    def test_extreme_separation_saturates_without_overflow(self):
        # exact limit of e^0 / (e^0 + e^-800) at double precision is 1.0
        w1, w2 = mnl_weights(0.0, 800.0)
        assert w1 == 1.0
        assert 0.0 <= w2 < 1e-300
        w1, w2 = mnl_weights(900.0, -900.0)
        assert w2 == 1.0 and w1 == 0.0

    def test_sum_to_one_and_range(self):
        values = RNG.uniform(-50.0, 50.0, size=(300, 2))
        for a, b in values:
            w1, w2 = mnl_weights(a, b)
            assert abs(w1 + w2 - 1.0) <= 1e-15
            assert 0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0
            if abs(a - b) < 30.0:  # beyond ~36 the smaller weight underflows 1-w
                assert 0.0 < w1 < 1.0 and 0.0 < w2 < 1.0

    def test_swap_is_exact(self):
        for a, b in RNG.uniform(-700.0, 700.0, size=(50, 2)):
            assert mnl_weights(a, b) == tuple(reversed(mnl_weights(b, a)))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            mnl_weights(math.nan, 0.0)
        with pytest.raises(ValueError):
            mnl_weights(0.0, math.inf)


class TestEquilibrium:
    @pytest.mark.parametrize("lam,mu,expected", [
        (10.0, 1.0, 5.0),
        (100.0, 5.0, 10.0),
        (2.0, 1.0, 1.0),
    ])
    def test_values(self, lam, mu, expected):
        assert equilibrium(ModelParams(lam, mu, 0.1)) == expected


class TestConstantDelayRhs:
    P = ModelParams(10.0, 1.0, 0.4)

    def test_equilibrium_is_stationary(self):
        d = constant_delay_rhs(np.array([5.0, 5.0]), np.array([5.0, 5.0]), self.P)
        np.testing.assert_array_equal(d, 0.0)

    def test_closed_form_weight(self):
        # lagged gap of 1 makes w1 = 1 / (1 + e)
        d = constant_delay_rhs(np.array([5.0, 5.0]), np.array([5.5, 4.5]), self.P)
        w1 = 1.0 / (1.0 + math.e)
        np.testing.assert_allclose(d, [10.0 * w1 - 5.0, 10.0 * (1.0 - w1) - 5.0],
                                   rtol=1e-14)
        assert d[0] == pytest.approx(-2.310585786300049, abs=1e-12)

    def test_sum_identity(self):
        # weights sum to one, so d1 + d2 = lam - mu (q1 + q2) for any inputs
        for _ in range(100):
            state = RNG.uniform(-5.0, 30.0, 2)
            lagged = RNG.uniform(-5.0, 30.0, 2)
            d = constant_delay_rhs(state, lagged, self.P)
            assert d.sum() == pytest.approx(10.0 - state.sum(), rel=1e-12, abs=1e-12)


class TestMaRhs:
    P = ModelParams(10.0, 1.0, 2.0)

    def test_equilibrium_is_stationary(self):
        x = np.full(4, 5.0)
        np.testing.assert_array_equal(ma_rhs(x, x, self.P), 0.0)

    def test_example_values(self):
        state = np.array([5.0, 5.0, 5.5, 4.5])
        lagged = np.array([4.0, 6.0, 0.0, 0.0])
        d = ma_rhs(state, lagged, self.P)
        w1 = 1.0 / (1.0 + math.e)
        np.testing.assert_allclose(
            d, [10.0 * w1 - 5.0, 10.0 * (1.0 - w1) - 5.0, 0.5, -0.5], rtol=1e-14)

    def test_queue_sum_identity(self):
        for _ in range(100):
            state = RNG.uniform(-5.0, 30.0, 4)
            lagged = RNG.uniform(-5.0, 30.0, 4)
            d = ma_rhs(state, lagged, self.P)
            assert d[0] + d[1] == pytest.approx(10.0 - state[0] - state[1],
                                                rel=1e-12, abs=1e-12)

    def test_zero_delta_rejected(self):
        p = ModelParams(10.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            ma_rhs(np.full(4, 5.0), np.full(4, 5.0), p)
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError):
                run(MOVING_AVERAGE, p, horizon=1.0)


class TestHistories:
    """The constant history is the initial state, node 0."""

    def test_default_offsets_are_ten_percent(self):
        p = ModelParams(10.0, 1.0, 0.4)
        for model in (CONSTANT, MOVING_AVERAGE):
            traj = simulate_reference(model, p, horizon=1.0)
            np.testing.assert_array_equal(traj.states[0, :2], [1.1 * 5.0, 0.9 * 5.0])
            np.testing.assert_array_equal(traj.eval(-0.4), traj.states[0])

    def test_ma_constant_history_replicates_phi(self):
        p = ModelParams(10.0, 1.0, 2.0)
        traj = simulate_reference(MOVING_AVERAGE, p, 1.0, phi1=6.0, phi2=4.0)
        np.testing.assert_array_equal(traj.states[0], [6.0, 4.0, 6.0, 4.0])
        np.testing.assert_array_equal(traj.eval(-2.0), [6.0, 4.0, 6.0, 4.0])
        np.testing.assert_array_equal(traj.eval(-0.5), [6.0, 4.0, 6.0, 4.0])


class TestConservation:
    """q1 + q2 follows s' = lam - mu s exactly in both models (full-state
    integration; ``simulate`` builds the sum in closed form).  Randomized
    scenarios of both models are acceptance check A06."""

    def test_fig_scenario_sum_stays_at_fixed_point(self):
        # phi sums to lam/mu, so q1 + q2 should hold exactly at 10
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate_reference(CONSTANT, p, horizon=100.0, phi1=5.5, phi2=4.5)
        s = traj.states.sum(axis=1)
        assert np.max(np.abs(s - 10.0)) < 1e-6


class TestSymmetry:
    """Symmetry of the full-state integration."""

    def test_identical_histories_stay_on_diagonal(self):
        for model, delta in ((CONSTANT, 0.4), (MOVING_AVERAGE, 2.0)):
            p = ModelParams(10.0, 1.0, delta)
            traj = simulate_reference(model, p, horizon=50.0, phi1=7.0, phi2=7.0)
            assert np.max(np.abs(traj.states[:, 0] - traj.states[:, 1])) < 1e-12

    def test_swapping_histories_swaps_trajectories_exactly(self):
        for model, delta in ((CONSTANT, 0.4), (MOVING_AVERAGE, 2.0)):
            p = ModelParams(10.0, 1.0, delta)
            assert checks.swap_is_exact(model, p, 50.0, 5.5, 4.5), model

    def test_unknown_model_rejected(self):
        for run in (simulate, simulate_reference):
            with pytest.raises(ValueError):
                run("other", ModelParams(10.0, 1.0, 0.4), horizon=1.0)


class TestMaFromTrajectory:
    def test_constant_trajectory(self):
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate(CONSTANT, p, horizon=10.0, phi1=5.0, phi2=5.0)
        for t in (0.0, 1.0, 7.3):
            np.testing.assert_allclose(ma_from_trajectory(traj, t, 0.4), 5.0,
                                       rtol=0.0, atol=1e-13)

    def test_linear_trajectory_integrates_exactly(self):
        # q(s) = s has window average t - delta/2; trapezoid is exact on lines
        h = 0.1
        ts = np.arange(51) * h
        traj = Trajectory(step=h, states=ts[:, None], derivs=np.ones((51, 1)), lag=0.0)
        for t, delta in ((1.0, 0.7), (3.0, 2.0), (5.0, 1.3)):
            got = ma_from_trajectory(traj, t, delta)
            assert got[0] == pytest.approx(t - delta / 2.0, abs=1e-12)

    def test_matches_integrated_auxiliary_state(self):
        # the quadrature and the auxiliary DDE are two routes to the same average
        p = ModelParams(10.0, 1.0, 2.0)
        traj = simulate(MOVING_AVERAGE, p, horizon=40.0)
        worst = 0.0
        for k in range(0, traj.times.size, 25):
            avg = ma_from_trajectory(traj, float(traj.times[k]), 2.0)
            worst = max(worst, np.max(np.abs(avg[:2] - traj.states[k, 2:])))
        assert worst < 5e-4

    def test_out_of_coverage_raises(self):
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate(CONSTANT, p, horizon=5.0)
        with pytest.raises(ValueError):
            ma_from_trajectory(traj, 1.0, 3.0)  # window reaches before -delta
        with pytest.raises(ValueError):
            ma_from_trajectory(traj, 6.0, 0.4)  # window reaches past the front

    @pytest.mark.parametrize("t,delta,message", [
        (1.0, math.nan, "delta must be finite and > 0"),
        (1.0, math.inf, "delta must be finite and > 0"),
        (1.0, 0.0, "delta must be finite and > 0"),
        (1.0, -0.4, "delta must be finite and > 0"),
        (math.nan, 0.4, "t must be finite"),
        (math.inf, 0.4, "t must be finite"),
        (-math.inf, 0.4, "t must be finite"),
        (5.0 + 1e-6, 0.4, "[t - delta, t] = [4.6, 5] is not within the trajectory's [-0.4, 5]"),
        (1e300, 0.4, "[t - delta, t] = [1e+300, 1e+300] is not within"),
        (0.3, 0.7 + 1e-6, "[t - delta, t] = [-0.400001, 0.3] is not within"),
        (1.0, 1e300, "[t - delta, t] = [-1e+300, 1] is not within"),
    ])
    def test_rejects_bad_windows_before_sampling(self, t, delta, message):
        traj = simulate(CONSTANT, ModelParams(10.0, 1.0, 0.4), horizon=5.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            ma_from_trajectory(traj, t, delta)

    def test_window_ends_forgive_rounding_as_eval_does(self):
        traj = simulate(CONSTANT, ModelParams(10.0, 1.0, 0.4), horizon=5.0)
        for t, delta in ((5.0 + 2.5e-9, 0.4), (0.0, 0.4 + 5e-10)):
            traj.eval([t - delta, t])
            assert np.all(np.isfinite(ma_from_trajectory(traj, t, delta)))

    def test_windows_beyond_the_node_budget_raise_before_sampling(self):
        # a window may reach back to -lag, far past the nodes of the run: the
        # one-node grid of a lag of 5e299 steps, and a lag / step that
        # overflows
        runs = [(simulate(MOVING_AVERAGE, ModelParams(1e3, 1e-300, 1e300), 1.0,
                          step=2.0), "5e+299"),
                (Trajectory(step=1e-300, states=np.ones((1, 2)),
                            derivs=np.zeros((1, 2)), lag=1e300), "inf")]
        for traj, count in runs:
            message = f"the window needs {count} samples, more than the 10000000 allowed"
            with pytest.raises(ValueError, match=re.escape(message)):
                ma_from_trajectory(traj, 0.0, 1e300)

    def test_window_below_the_float_spacing_is_the_state_at_t(self):
        # t - delta rounds to t, so every trapezoid weight would be 0 and the
        # quadrature 0 / 0 (a RuntimeWarning, an error here)
        traj = simulate(CONSTANT, ModelParams(10.0, 1.0, 1.0), 1.0)
        for t, delta in ((1.0, 1e-300), (0.505, 1e-17)):
            np.testing.assert_array_equal(ma_from_trajectory(traj, t, delta), traj.eval(t))


class TestDefaultStep:
    def test_resolves_lag_and_relaxation(self):
        assert models.default_step(ModelParams(10.0, 1.0, 0.4)) == pytest.approx(0.01)
        assert models.default_step(ModelParams(10.0, 1.0, 0.02)) == pytest.approx(0.001)
        assert models.default_step(ModelParams(10.0, 50.0, 10.0)) == pytest.approx(0.002)
        assert models.default_step(ModelParams(10.0, 1.0, 0.0)) == pytest.approx(0.01)


class TestSimulate:
    """``simulate`` (difference kernel plus exact sum mode) against the
    full-state reference integration."""

    @pytest.mark.parametrize("model,lam,mu,delta,horizon,step,phi", [
        (CONSTANT, 10.0, 1.0, 0.34, 100.0, None, None),        # synchronized
        (CONSTANT, 10.0, 1.0, 0.40, 100.0, None, None),        # oscillatory
        (CONSTANT, 10.0, 1.0, 0.0, 50.0, None, None),          # ODE
        (CONSTANT, 10.0, 1.0, 0.0, 50.0, 0.03, (9.0, 2.0)),    # ODE, s(0) != lam/mu
        (CONSTANT, 10.0, 1.0, 0.4, 30.0, 0.03, (6.0, 4.0)),    # h = 0.4 / 14
        (CONSTANT, 10.0, 1.0, 0.4, 30.0, None, (12.0, 1.0)),   # s(0) != lam/mu
        (CONSTANT, 400.0, 20.0, 0.05, 0.06, None, None),       # lag reads the history
        (CONSTANT, 10.0, 1.0, 2.0, 0.005, None, (6.0, 3.0)),   # a single node
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 100.0, None, None),   # synchronized
        (MOVING_AVERAGE, 10.0, 1.0, 2.3, 100.0, None, None),   # oscillatory
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 40.0, 0.07, None),    # h = 2 / 29
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 2.5, None, (6.0, 3.0)),   # history phase
        (MOVING_AVERAGE, 10.0, 1.0, 4.0, 100.0, None, (6.0, 4.5)),  # s(0) != lam/mu
        (MOVING_AVERAGE, 100.0, 1.0, 0.15, 50.0, None, (60.0, 10.0)),
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 1.0, None, (6.0, 3.0)),   # inside one lag
        (MOVING_AVERAGE, 1000.0, 1.0, 50.0, 120.0, None, (700.0, 200.0)),  # m = 5000
    ])
    def test_matches_reference(self, model, lam, mu, delta, horizon, step, phi):
        p = ModelParams(lam, mu, delta)
        phi1, phi2 = (None, None) if phi is None else phi
        traj = simulate(model, p, horizon, step=step, phi1=phi1, phi2=phi2)
        ref = simulate_reference(model, p, horizon, step=step, phi1=phi1, phi2=phi2)
        assert traj.step == ref.step
        np.testing.assert_array_equal(traj.times, ref.times)
        assert traj.lag == ref.lag == delta
        np.testing.assert_array_equal(traj.states[0], ref.states[0])
        np.testing.assert_array_equal(traj.eval(-delta), ref.eval(-delta))
        scale = 1e-12 * equilibrium(p)
        assert np.max(np.abs(traj.states - ref.states)) <= scale
        assert np.max(np.abs(traj.derivs - ref.derivs)) <= scale

    def test_sum_mode_is_exact_rk4_over_long_runs(self):
        # 400k steps of mu h = 5e-6: R^k taken as a power of the rounded
        # R = 1 + r put s 2.4e-11 off the exact RK4 value at the last node
        p = ModelParams(5.0, 0.1, 0.001)
        traj = simulate(CONSTANT, p, 20.0, phi1=60.0, phi2=30.0)
        k = traj.times.size - 1
        assert k == 400_000
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            z = -Decimal(p.mu) * Decimal(traj.step)
            amp = 1 + z * (1 + z * (Decimal(1) / 2 + z * (Decimal(1) / 6 + z / 24)))
            s_inf = Decimal(p.lam) / Decimal(p.mu)
            exact = s_inf + (90 - s_inf) * amp ** k
        assert abs(traj.states[-1, 0] + traj.states[-1, 1] - float(exact)) < 1e-13


def _stage_form(model, params, u0, m, h, n):
    """The float stage-form recursion of the difference mode, stepped as the
    full-state integrator steps (k1..k4, Hermite midpoint for the lagged
    stages): the oracle for the kernels' long-run rounding drift."""
    lam, mu = params.lam, params.mu
    tanh = math.tanh
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    if model == CONSTANT:
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
            k1 = g_end - mu * x
            u.append(x)
            du.append(k1)
        return np.array(u)
    inv = 1.0 / params.delta
    x = v = u0
    k1, l1 = -lam * tanh(0.5 * v) - mu * x, 0.0
    u, du = [x], [k1]
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
        k1 = -lam * tanh(0.5 * v) - mu * x
        l1 = (x - u_end) * inv
        u.append(x)
        du.append(k1)
    return np.array(u)


NODE_0_FAILURES = [(CONSTANT, 0.5), (CONSTANT, 0.0), (MOVING_AVERAGE, 0.5)]
BLOW_UP_FAILURES = [(CONSTANT, (160.0, 160.0, 160.0)), (MOVING_AVERAGE, (161.0, 161.0, 161.0))]


class TestSimulateDifference:
    """The difference-mode kernel against q1 - q2 of the full-state integrator."""

    @pytest.mark.parametrize("model,lam,mu,delta,horizon,step", [
        (CONSTANT, 10.0, 1.0, 0.34, 100.0, None),        # synchronized
        (CONSTANT, 10.0, 1.0, 0.40, 100.0, None),        # oscillatory
        (CONSTANT, 10.0, 1.0, 0.0, 50.0, None),          # ODE
        (CONSTANT, 10.0, 1.0, 0.4, 30.0, 0.03),          # h = 0.4 / 14
        (CONSTANT, 400.0, 20.0, 0.05, 0.06, None),       # lag reads the history
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 100.0, None),   # synchronized
        (MOVING_AVERAGE, 10.0, 1.0, 2.3, 100.0, None),   # oscillatory
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 40.0, 0.07),    # h = 2 / 29
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 2.5, None),     # lag reads the history
    ])
    def test_matches_full_state_difference(self, model, lam, mu, delta, horizon, step):
        p = ModelParams(lam, mu, delta)
        traj = simulate_reference(model, p, horizon, step=step)
        h, u = simulate_difference(model, p, horizon, step=step)
        assert h == traj.step
        assert u.size == traj.states.shape[0]
        diff = traj.states[:, 0] - traj.states[:, 1]
        assert np.max(np.abs(u - diff)) <= 1e-12 * equilibrium(p)

    @pytest.mark.parametrize("model,lam,mu,delta,phi", [
        (CONSTANT, 180.9 * 0.112, 0.112, 9.3, None),
        (CONSTANT, 30.8 * 0.24, 0.24, 8.41, None),
        (MOVING_AVERAGE, 13.85 * 0.11, 0.11, 9.94, None),
        (MOVING_AVERAGE, 2.0, 0.05, 11.0, None),
    ])
    def test_long_runs_stay_on_the_stage_form_recursion(self, model, lam, mu, delta, phi):
        # 50k steps at mu h ~ 1e-3.  Stepping with the rounded R = 1 + r
        # instead of the increment r u + sum c_i T_i biases every step the
        # same way and ends 1e-13 to 2e-12 of q* away here
        p = ModelParams(lam, mu, delta)
        q = equilibrium(p)
        phi1, phi2 = (1.1 * q, 0.9 * q) if phi is None else phi
        m, h, n = models.lag_grid(delta, models.default_step(p), 500.0)
        assert n >= 50_000
        _, u = simulate_difference(model, p, 500.0, phi1=phi1, phi2=phi2)
        oracle = _stage_form(model, p, phi1 - phi2, m, h, n)
        assert np.max(np.abs(u - oracle)) <= 1e-13 * q

    def test_swapping_histories_negates_exactly(self):
        for model, delta in ((CONSTANT, 0.4), (CONSTANT, 0.0), (MOVING_AVERAGE, 2.0)):
            p = ModelParams(10.0, 1.0, delta)
            _, a = simulate_difference(model, p, 50.0, phi1=5.5, phi2=4.5)
            _, b = simulate_difference(model, p, 50.0, phi1=4.5, phi2=5.5)
            np.testing.assert_array_equal(b, -a)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the blow-up
    def test_non_finite_state_fails_where_the_integrator_does(self):
        # mu h = 50 is far outside the RK4 stability region; at delta = 0 a
        # stage overflows before a node does.  The default history starts
        # on s = lam/mu, so only u blows up; from phi = (6, 3) s blows up
        # too, and u'/2 already overflows at node 57.
        for model, delta in ((CONSTANT, 2.0), (MOVING_AVERAGE, 2.0), (CONSTANT, 0.0)):
            p = ModelParams(10.0, 50.0, delta)
            for phi, t_fail in (((None, None), 58.0), ((6.0, 3.0), 57.0)):
                failures = []
                for run in (simulate_reference, simulate, simulate_difference):
                    with pytest.raises(NumericalFailureError) as info:
                        run(model, p, 1000.0, step=1.0, phi1=phi[0], phi2=phi[1])
                    failures.append(info.value.time)
                assert failures == [t_fail] * 3

    @pytest.mark.parametrize("model,delta", NODE_0_FAILURES)
    def test_non_finite_node_0_derivative_fails_at_zero(self, model, delta):
        # mu phi2 overflows in q2' at node 0 itself, so all three fail there,
        # without a warning (pytest makes warnings errors)
        p = ModelParams(2.0, 1e3, delta)
        for run in (simulate_reference, simulate, simulate_difference):
            with pytest.raises(NumericalFailureError) as info:
                run(model, p, 5.0, phi1=1e-300, phi2=1.7e308)
            assert info.value.time == 0.0
            assert str(info.value) == "integration produced a non-finite state (t = 0)"

    @pytest.mark.parametrize("model", [CONSTANT, MOVING_AVERAGE])
    def test_a_lag_beyond_every_run_reads_the_history(self, model):
        # a lag of 5e299 steps: the one-node grid reads none of its copies
        p = ModelParams(1e3, 1e-300, 1e300)
        runs = [run(model, p, 1.0, step=2.0)
                for run in (simulate_reference, simulate, simulate_difference)]
        q = equilibrium(p)
        expected = (1.1 * q, 0.9 * q, 1.1 * q, 0.9 * q)[:runs[0].dimension]
        for traj in runs[:2]:
            np.testing.assert_array_equal(traj.states, [expected])
        np.testing.assert_array_equal(runs[2][1], [1.1 * q - 0.9 * q])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the blow-up
    def test_reference_reports_a_lagged_stage_overflow(self):
        # at mu h = 7.5 and delta = 2 h a stage of the window averages m1, m2
        # overflows within the step from t = 160, before any node does; the
        # logit weights would reject it as a non-finite input
        p = ModelParams(65.0, 7.5, 2.0)
        with pytest.raises(NumericalFailureError) as info:
            simulate_reference(MOVING_AVERAGE, p, 200.0, step=1.0)
        assert info.value.time == 161.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the blow-up
    @pytest.mark.parametrize("model,times", BLOW_UP_FAILURES)
    def test_blow_up_fails_within_one_step_of_the_reference(self, model, times):
        # mu h = 7.5: the reference fails where a stage, a node or a node
        # derivative overflows, the kernels where u, u'/2 (or v / 2) do.  At
        # node 160 u is finite; u'/2 overflows in the constant model only
        p = ModelParams(65.0, 7.5, 2.0)
        failures = []
        for run in (simulate_reference, simulate, simulate_difference):
            with pytest.raises(NumericalFailureError) as info:
                run(model, p, 200.0, step=1.0)
            failures.append(info.value.time)
        assert tuple(failures) == times

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the blow-up
    def test_blow_ups_fail_at_the_same_nodes_across_moves(self, monkeypatch):
        # the kernels read the window as models._WINDOW: at 16 nodes every
        # failure above lies several moves into its run
        monkeypatch.setattr(models, "_WINDOW", 16)
        self.test_non_finite_state_fails_where_the_integrator_does()
        for model, delta in NODE_0_FAILURES:
            self.test_non_finite_node_0_derivative_fails_at_zero(model, delta)
        for model, times in BLOW_UP_FAILURES:
            self.test_blow_up_fails_within_one_step_of_the_reference(model, times)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the blow-up
    def test_blow_up_past_three_moves_fails_at_its_node(self):
        # m = 4 and 60,000 steps: u'/2 overflows at node 13,568, after the
        # moves at 4,097, 8,193 and 12,289 nodes
        p = ModelParams(10.0, 1.0, 11.28)
        m, h, n = models.lag_grid(p.delta, 2.82, 60_000 * 2.82)
        assert (m, n) == (4, 60_000)
        failures = []
        for run in (simulate_difference, simulate, simulate_reference):
            with pytest.raises(NumericalFailureError) as info:
                run(CONSTANT, p, 60_000 * 2.82, step=2.82)
            failures.append(info.value.time)
        assert failures == [13_568 * h, 13_568 * h, 13_554 * h]

    @pytest.mark.parametrize("model,lam,mu,delta,horizon,step", [
        (CONSTANT, 20.0, 1.0, 1.5, 20.0, None),          # 150 steps per lag
        (CONSTANT, 20.0, 1.0, 0.01, 1.0, None),          # one step per lag
        (CONSTANT, 10.0, 1.0, 0.0, 20.0, None),          # ODE
        (MOVING_AVERAGE, 20.0, 1.0, 1.5, 20.0, None),
        (MOVING_AVERAGE, 10.0, 1.0, 2.0, 20.0, 0.07),    # lags longer than the window
        (CONSTANT, 10.0, 1.0, 0.4, 20.0, 0.01),          # windows of m = 40 steps
    ])
    def test_moves_change_no_bit(self, monkeypatch, model, lam, mu, delta, horizon, step):
        p = ModelParams(lam, mu, delta)
        whole = simulate(model, p, horizon, step=step)
        _, u = simulate_difference(model, p, horizon, step=step)
        monkeypatch.setattr(models, "_WINDOW", 16)
        moved = simulate(model, p, horizon, step=step)
        _, moved_u = simulate_difference(model, p, horizon, step=step)
        assert whole.states.shape[0] > 64
        np.testing.assert_array_equal(moved.states, whole.states)
        np.testing.assert_array_equal(moved.derivs, whole.derivs)
        np.testing.assert_array_equal(moved_u, u)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the blow-up
    @pytest.mark.parametrize("model,m", [(CONSTANT, 0), (CONSTANT, 3), (CONSTANT, 20),
                                         (MOVING_AVERAGE, 5), (MOVING_AVERAGE, 20)])
    def test_unstable_steps_fail_at_the_same_node_in_any_window(self, monkeypatch,
                                                                model, m):
        # mu h from 2 to 4.5, past RK4's stability limit on the real axis,
        # about 2.785, from 3 on, where u or s blows up.  Under windows of
        # max(m, 16) steps every failure lies past a move, most of them
        # mid-window, and all of them at the node of the default window
        outcomes = {}
        for window in (models._WINDOW, 16):
            monkeypatch.setattr(models, "_WINDOW", window)
            for mu_h in (2.0, 2.5, 3.0, 3.5, 4.0, 4.5):
                p = ModelParams(10.0, 1.0, m * mu_h)
                for run in (simulate, simulate_difference):
                    try:
                        run(model, p, 3000 * mu_h, step=mu_h)
                        outcomes[window, mu_h, run] = None
                    except NumericalFailureError as failure:
                        outcomes[window, mu_h, run] = round(failure.time / mu_h)
        default = {key[1:]: node for key, node in outcomes.items() if key[0] != 16}
        moved = {key[1:]: node for key, node in outcomes.items() if key[0] == 16}
        assert moved == default
        width = max(m, 16)
        nodes = [node for node in moved.values() if node is not None]
        assert len(nodes) >= 6 and min(nodes) > width
        assert any(node % width for node in nodes)

    def test_rejected_inputs(self):
        p = ModelParams(10.0, 1.0, 0.0)
        with pytest.raises(ValueError) as expected:
            simulate_reference(MOVING_AVERAGE, p, 1.0)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            simulate_difference(MOVING_AVERAGE, p, 1.0)
        p = ModelParams(10.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            simulate_difference("other", p, 10.0)
        with pytest.raises(ValueError):
            simulate_difference(CONSTANT, p, 0.0)

    @pytest.mark.parametrize("model", [CONSTANT, MOVING_AVERAGE])
    def test_both_paths_take_the_same_histories(self, model):
        p = ModelParams(10.0, 1.0, 2.0)
        rejected = [(np.linspace(-2.0, 0.0, 5), np.full(5, 6.0)),  # a sample table
                    np.array([5.5]), math.inf]
        messages = set()
        for run in (simulate, simulate_reference, simulate_difference):
            run(model, p, 10.0)
            run(model, p, 10.0, phi1=6.0, phi2=4.5)
            for phi in rejected:
                with pytest.raises(ValueError) as info:
                    run(model, p, 10.0, phi1=phi, phi2=4.5)
                messages.add(str(info.value))
        assert len(messages) == 1


# ru_maxrss growth of one 10^6-node simulate_difference run, in bytes a
# node, after a short warm-up run in the same fresh process
_RSS_PER_NODE = """
import resource, sys
from qdelay import ModelParams, simulate_difference
p = ModelParams(20.0, 1.0, 1.5)
simulate_difference(sys.argv[1], p, 1.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
_, u = simulate_difference(sys.argv[1], p, 10_000.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) * 1024 / u.size)
"""


class TestMemory:
    """Bytes a node: the kernels hold a bounded window of Python floats and
    store every older node as float64, and ``simulate`` assembles in place."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="ru_maxrss is in kilobytes on Linux only")
    @pytest.mark.parametrize("model", [CONSTANT, MOVING_AVERAGE])
    def test_simulate_difference_grows_rss_by_under_16_bytes_a_node(self, model):
        # u takes 8 of them; a returned time column took 16 more, and lists
        # of every u, u'/2 (and v / 2) took 96 (constant model) and 136
        # (moving-average model)
        out = subprocess.run([sys.executable, "-c", _RSS_PER_NODE, model],
                             env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                             text=True,
                             check=True)
        assert float(out.stdout) < 16.0

    @pytest.mark.parametrize("model,bound", [
        (CONSTANT, 70.4),          # 64.0 measured: 10% over it
        (MOVING_AVERAGE, 141.2),   # 128.4 measured
    ])
    def test_simulate_traced_peak_per_node(self, monkeypatch, model, bound):
        # Tracing the kernel's float allocations costs about 25 us a node,
        # so tracing starts when the kernel returns its float64 series, and
        # their bytes are counted in: before that, the run holds them and a
        # bounded window of floats, less than the assembly adds.  Assembled
        # from temporaries, the peak was 80.4 and 168.0 bytes a node
        difference = models._difference
        kernel_bytes = []

        def traced_after_the_kernel(*args):
            result = difference(*args)
            kernel_bytes.append(sum(series.nbytes for series in result[-1]))
            tracemalloc.start()
            return result

        monkeypatch.setattr(models, "_difference", traced_after_the_kernel)
        try:
            traj = simulate(model, ModelParams(20.0, 1.0, 1.5), 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nodes = traj.states.shape[0]
        assert nodes == 200_001
        assert (peak + kernel_bytes[0]) / nodes < bound
