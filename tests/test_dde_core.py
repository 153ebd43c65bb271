"""Integrator and dense-output tests.

Expected values come from closed-form solutions (fixed points, symmetric
collapse to a scalar linear ODE, manufactured cubics), never from the code
under test.
"""

import re

import numpy as np
import pytest

from qdelay import NumericalFailureError, Trajectory, integrate, models
from qdelay.dde import lag_grid


def _constant_scenario(lam=10.0, mu=1.0, delta=0.4, phi=(5.5, 4.5)):
    """Parameters, right-hand side and initial state of the constant model."""
    params = models.ModelParams(lam=lam, mu=mu, delta=delta)

    def rhs(x, xl):
        return models.constant_delay_rhs(x, xl, params)

    return params, rhs, phi


def _integrate(step, horizon, **scenario):
    params, rhs, x0 = _constant_scenario(**scenario)
    return integrate(rhs, params.delta, x0, step, horizon)


class TestHistoryFunction:
    """The constant history is node 0, read back by ``eval`` on [-lag, 0)."""

    def test_constant_eval(self):
        traj = _integrate(0.01, 1.0, phi=(5.0, 4.0))
        np.testing.assert_array_equal(traj.eval(-0.2), [5.0, 4.0])
        np.testing.assert_array_equal(traj.eval(-0.4), [5.0, 4.0])
        np.testing.assert_array_equal(traj.eval(0.0), [5.0, 4.0])
        np.testing.assert_array_equal(traj.states[0], [5.0, 4.0])
        assert traj.eval(-0.2).shape == (2,)

    def test_array_evaluation(self):
        h = 0.25
        traj = Trajectory(step=h, states=np.arange(5.0)[:, None] + 3.0,
                          derivs=np.ones((5, 1)), lag=1.0)
        out = traj.eval(np.array([-1.0, -0.5, -1e-12]))
        assert out.shape == (3, 1)
        np.testing.assert_array_equal(out, 3.0)
        grid = traj.eval(np.array([[-1.0, -0.5], [0.0, 1.0]]))
        assert grid.shape == (2, 2, 1)
        np.testing.assert_array_equal(grid[..., 0], [[3.0, 3.0], [3.0, 7.0]])

    def test_out_of_range_raises(self):
        traj = _integrate(0.01, 1.0, delta=0.4)
        traj.eval(-0.4 - 1e-12)  # within the rounding forgiven at -lag
        for t in (-0.5, -0.4 - 1e-6, np.array([0.5, -0.41])):
            with pytest.raises(ValueError, match="before the history start"):
                traj.eval(t)
        ode = _integrate(0.01, 1.0, delta=0.0)
        np.testing.assert_array_equal(ode.eval(-1e-12), ode.states[0])
        with pytest.raises(ValueError):
            ode.eval(-0.01)

    def test_validation(self):
        # non-finite values, no components, not one constant per component
        params, rhs, _ = _constant_scenario()
        for x0 in ([np.inf, 5.0], [5.0, np.nan], [], np.full((2, 1), 5.0), 5.0):
            with pytest.raises(ValueError, match="x0 must be a finite, non-empty 1-d vector"):
                integrate(rhs, params.delta, x0, 0.01, 1.0)


class TestLagGrid:
    @pytest.mark.parametrize("lag,step,horizon,expected", [
        (0.4, 0.1, 1.0, (4, 0.1, 10)),          # the step divides the lag
        (0.4, 0.03, 1.0, (14, 0.4 / 14, 35)),   # shrunk to lag / ceil(lag / step)
        (0.07, 0.01, 1.0, (7, 0.01, 100)),      # 0.07 / 0.01 rounds up past 7
        (0.4, 1.0, 2.0, (1, 0.4, 5)),           # a step above the lag
        (0.0, 0.05, 1.0, (0, 0.05, 20)),        # lag 0: the requested step
        (0.0, 0.01, 7.0, (0, 0.01, 700)),
        (0.0, 0.1, 0.3, (0, 0.1, 3)),           # 0.3 / 0.1 rounds down past 3
    ])
    def test_grid(self, lag, step, horizon, expected):
        m, h, n = lag_grid(lag, step, horizon)
        assert (m, h, n) == expected

    @pytest.mark.parametrize("lag,step,horizon,message", [
        (-0.1, 0.01, 1.0, "lag must be finite and >= 0"),
        (np.inf, 0.01, 1.0, "lag must be finite and >= 0"),
        (np.nan, 0.01, 1.0, "lag must be finite and >= 0"),
        (0.4, 0.0, 1.0, "step must be finite and > 0"),
        (0.4, -0.01, 1.0, "step must be finite and > 0"),
        (0.4, np.nan, 1.0, "step must be finite and > 0"),
        (0.0, np.inf, 1.0, "step must be finite and > 0"),
        (0.4, 0.01, 0.0, "horizon must be finite and > 0"),
        (0.4, 0.01, -1.0, "horizon must be finite and > 0"),
        (0.4, 0.01, np.inf, "horizon must be finite and > 0"),
        (0.4, 0.01, np.nan, "horizon must be finite and > 0"),
        (1e300, 1e-10, 1e-5, r"lag / step = 1e\+300 / 1e-10 overflows"),
        (1.7e308, 0.5, 1.0, r"lag / step = 1\.7e\+308 / 0\.5 overflows"),
    ])
    def test_rejects_bad_inputs(self, lag, step, horizon, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lag_grid(lag, step, horizon)

    @pytest.mark.parametrize("lag,step,horizon,nodes", [
        (0.0, 1.0, 1e7, "10000001"),            # one node past the budget
        (1e-300, 5e-302, 1.0, r"2e\+301"),      # a tiny lag shrinks the step
        (0.0, 1e-300, 1e300, "inf"),            # horizon / step overflows
    ])
    def test_rejects_grids_beyond_the_node_budget(self, lag, step, horizon, nodes):
        with pytest.raises(ValueError, match=f"^the grid needs {nodes} nodes, "
                                             "more than the 10000000 allowed$"):
            lag_grid(lag, step, horizon)

    def test_node_budget_is_inclusive(self):
        assert lag_grid(0.0, 1.0, 9999999.0) == (0, 1.0, 9999999)


class TestIntegrate:
    def test_fixed_point_stays_exact(self):
        # 5 = lam / (2 mu) is the fixed point, and the arithmetic keeps it
        traj = _integrate(0.01, 20.0, phi=(5.0, 5.0))
        np.testing.assert_array_equal(traj.states, 5.0)

    @pytest.mark.parametrize("delta", [0.0, 0.13, 0.4, 1.7])
    def test_symmetric_history_matches_scalar_ode(self, delta):
        # identical histories collapse both components onto
        # q(t) = lam/2mu + (c - lam/2mu) e^(-mu t)
        c = 8.0
        traj = _integrate(0.01, 20.0, delta=delta, phi=(c, c))
        exact = 5.0 + (c - 5.0) * np.exp(-traj.times)
        np.testing.assert_allclose(traj.states[:, 0], exact, atol=1e-6, rtol=0.0)
        np.testing.assert_allclose(traj.states[:, 1], exact, atol=1e-6, rtol=0.0)

    def test_supercritical_delay_sustains_oscillation(self):
        traj = _integrate(0.01, 100.0, delta=0.4)
        diff = traj.states[:, 0] - traj.states[:, 1]
        n = diff.size
        tail = diff[n // 2:]
        last = diff[3 * n // 4:]
        assert tail.max() - tail.min() > 1.0
        # non-decaying: the final quarter swings as widely as the one before
        assert last.max() - last.min() > 0.8 * (tail.max() - tail.min())

    def test_lag_alignment_shrinks_step(self):
        # a step above the lag shrinks to the lag itself
        for step in (0.013, 0.7):
            traj = _integrate(step, 5.0, delta=0.5)
            assert traj.step <= step
            ratio = 0.5 / traj.step
            assert abs(ratio - round(ratio)) < 1e-9
            assert traj.lag == 0.5
        assert traj.step == 0.5

    def test_node_count(self):
        traj = _integrate(0.01, 7.0, delta=0.4)
        assert traj.states.shape == (701, 2)
        assert traj.times[-1] == pytest.approx(7.0)

    def test_node_derivatives_match_rhs(self):
        params, rhs, x0 = _constant_scenario()
        traj = integrate(rhs, params.delta, x0, 0.01, 3.0)
        m = round(params.delta / traj.step)
        for k in (0, 1, m - 1, m, m + 1, 200, 300):
            # before the grid the lagged state is the history, node 0
            lagged = traj.states[max(k - m, 0)]
            expected = models.constant_delay_rhs(traj.states[k], lagged, params)
            np.testing.assert_array_equal(traj.derivs[k], expected)
        np.testing.assert_array_equal(traj.states[0], x0)

    def test_determinism_bitwise(self):
        a = _integrate(0.01, 50.0)
        b = _integrate(0.01, 50.0)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.derivs, b.derivs)

    def test_fourth_order_convergence(self):
        # symmetric case has a closed form; halving h cuts the error ~16x

        def max_err(h):
            traj = _integrate(h, 4.0, phi=(7.0, 7.0))
            exact = 5.0 + 2.0 * np.exp(-traj.times)
            return np.max(np.abs(traj.states[:, 0] - exact))

        ratio = max_err(0.05) / max_err(0.025)
        assert 12.0 < ratio < 20.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_state_raises_with_time(self):
        with pytest.raises(NumericalFailureError) as info:
            integrate(lambda x, xl: x * x, 0.0, [5.0], 0.05, 5.0)
        assert 0.0 < info.value.time <= 5.0

    def test_config_validation(self):
        # lag_grid checks the grid inputs before anything is integrated
        params, rhs, x0 = _constant_scenario()
        for lag, step, horizon in ((0.4, 0.0, 1.0), (0.4, 0.1, -1.0), (-0.4, 0.1, 1.0),
                                   (0.0, np.nan, 1.0), (0.4, 0.1, np.inf)):
            with pytest.raises(ValueError) as info:
                integrate(rhs, lag, x0, step, horizon)
            with pytest.raises(ValueError, match=f"^{re.escape(str(info.value))}$"):
                lag_grid(lag, step, horizon)


class TestDenseEval:
    def test_node_times_return_stored_states(self):
        traj = _integrate(0.01, 5.0)
        for k in (0, 1, 77, 250, 500):
            np.testing.assert_array_equal(traj.eval(traj.times[k]), traj.states[k])

    def test_constant_trajectory_exact_everywhere(self):
        traj = _integrate(0.01, 5.0, phi=(5.0, 5.0))
        rng = np.random.default_rng(7)
        ts = rng.uniform(0.0, traj.horizon, 64)
        np.testing.assert_array_equal(traj.eval(ts), 5.0)

    def test_cubic_is_reproduced_exactly(self):
        # Hermite with exact endpoint data reproduces any cubic
        h = 0.5
        ts = np.arange(9) * h
        traj = Trajectory(step=h,
                          states=(ts ** 3 - ts)[:, None],
                          derivs=(3.0 * ts ** 2 - 1.0)[:, None],
                          lag=0.0)
        tq = np.linspace(0.01, 3.99, 313)
        err = np.max(np.abs(traj.eval(tq)[:, 0] - (tq ** 3 - tq)))
        assert err < 1e-12

    def test_history_delegation_and_zero_consistency(self):
        traj = _integrate(0.01, 5.0, phi=(5.5, 4.5))
        np.testing.assert_array_equal(traj.eval(-0.25), [5.5, 4.5])
        # t = 0- (history) and t = 0 (trajectory) agree for constant histories
        np.testing.assert_array_equal(traj.eval(-1e-12), traj.eval(0.0))

    def test_beyond_front_raises(self):
        traj = _integrate(0.01, 5.0)
        with pytest.raises(ValueError):
            traj.eval(5.1)
        with pytest.raises(ValueError):
            traj.eval(-1.0)

    def test_nan_time_raises(self):
        # NaN passes both range checks, which compare false on it
        traj = Trajectory(step=0.1, states=np.ones((3, 1)), derivs=np.zeros((3, 1)),
                          lag=0.0)
        for t in (np.nan, np.array([0.05, np.nan]), np.array([[np.nan]])):
            with pytest.raises(ValueError, match="^dense evaluation at a NaN time$"):
                traj.eval(t)

    def test_midpoint_accuracy_on_smooth_solution(self):
        # dense output between nodes stays 4th-order accurate
        traj = _integrate(0.01, 5.0, delta=0.4, phi=(8.0, 8.0))
        ts = np.linspace(0.005, 4.995, 500)
        exact = 5.0 + 3.0 * np.exp(-ts)
        assert np.max(np.abs(traj.eval(ts)[:, 0] - exact)) < 1e-6

    def test_scalar_and_array_shapes(self):
        traj = _integrate(0.01, 1.0)
        assert traj.eval(0.5).shape == (2,)
        assert traj.eval(np.array([0.1, 0.2, 0.3])).shape == (3, 2)
        assert traj.eval(-0.1).shape == (2,)
        assert traj.eval(np.array([-0.3, -0.1, 0.5])).shape == (3, 2)

    @pytest.mark.parametrize("step,lag,message", [
        (np.nan, 0.0, "step"), (np.inf, 0.0, "step"), (0.0, 0.0, "step"),
        (-0.1, 0.0, "step"), (0.1, np.nan, "lag"), (0.1, np.inf, "lag"),
        (0.1, -0.5, "lag"), (0.1, 0.0, "states"),
    ])
    def test_trajectory_validation(self, step, lag, message):
        # "states": a trajectory without node 0, which horizon, repr and eval read
        nodes, reason = (0, "non-empty") if message == "states" else (3, "finite")
        with pytest.raises(ValueError, match=f"^{message} must be {reason}"):
            Trajectory(step=step, states=np.zeros((nodes, 1)),
                       derivs=np.zeros((nodes, 1)), lag=lag)
