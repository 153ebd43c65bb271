"""Integrator and dense-output tests.

Expected values come from closed-form solutions (fixed points, symmetric
collapse to a scalar linear ODE, manufactured cubics), never from the code
under test.
"""

import numpy as np
import pytest

from qdelay import (
    DdeSystem,
    HistoryFunction,
    IntegrationConfig,
    NumericalFailureError,
    Trajectory,
    integrate,
    models,
)


def _constant_scenario(lam=10.0, mu=1.0, delta=0.4, phi=(5.5, 4.5)):
    params = models.ModelParams(lam=lam, mu=mu, delta=delta)
    system = models.constant_delay_system(params)
    history = HistoryFunction.constant(list(phi), delta)
    return params, system, history


class TestHistoryFunction:
    def test_constant_eval(self):
        hist = HistoryFunction.constant([5.0, 4.0], 0.4)
        np.testing.assert_array_equal(hist(-0.2), [5.0, 4.0])
        np.testing.assert_array_equal(hist(0.0), [5.0, 4.0])
        assert hist.dimension == 2

    def test_table_linear_interpolation(self):
        times = np.array([-1.0, -0.5, 0.0])
        values = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        hist = HistoryFunction.from_samples(times, values)
        assert hist.delta == 1.0
        np.testing.assert_allclose(hist(-0.75), [0.5, 1.5], rtol=1e-15)
        np.testing.assert_array_equal(hist(0.0), [2.0, 0.0])

    def test_array_evaluation(self):
        hist = HistoryFunction.constant([3.0], 1.0)
        out = hist(np.array([-1.0, -0.5, 0.0]))
        assert out.shape == (3, 1)
        np.testing.assert_array_equal(out, 3.0)

    def test_out_of_range_raises(self):
        hist = HistoryFunction.constant([5.0], 0.4)
        with pytest.raises(ValueError):
            hist(-0.5)
        with pytest.raises(ValueError):
            hist(0.1)

    def test_table_validation(self):
        with pytest.raises(ValueError):  # not strictly increasing
            HistoryFunction.from_samples([-1.0, -1.0, 0.0], np.zeros((3, 1)))
        with pytest.raises(ValueError):  # does not end at 0
            HistoryFunction.from_samples([-1.0, -0.5], np.zeros((2, 1)))
        with pytest.raises(ValueError):  # non-finite values
            HistoryFunction.constant([np.inf], 1.0)


class TestIntegrate:
    def test_fixed_point_stays_exact(self):
        # 5 = lam / (2 mu) is the fixed point, and the arithmetic keeps it
        params, system, history = _constant_scenario(phi=(5.0, 5.0))
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=20.0))
        np.testing.assert_array_equal(traj.states, 5.0)

    @pytest.mark.parametrize("delta", [0.0, 0.13, 0.4, 1.7])
    def test_symmetric_history_matches_scalar_ode(self, delta):
        # identical histories collapse both components onto
        # q(t) = lam/2mu + (c - lam/2mu) e^(-mu t)
        c = 8.0
        params, system, history = _constant_scenario(delta=delta, phi=(c, c))
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=20.0))
        exact = 5.0 + (c - 5.0) * np.exp(-traj.times)
        np.testing.assert_allclose(traj.states[:, 0], exact, atol=1e-6, rtol=0.0)
        np.testing.assert_allclose(traj.states[:, 1], exact, atol=1e-6, rtol=0.0)

    def test_supercritical_delay_sustains_oscillation(self):
        params, system, history = _constant_scenario(delta=0.4)
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=100.0))
        diff = traj.states[:, 0] - traj.states[:, 1]
        n = diff.size
        tail = diff[n // 2:]
        last = diff[3 * n // 4:]
        assert tail.max() - tail.min() > 1.0
        # non-decaying: the final quarter swings as widely as the one before
        assert last.max() - last.min() > 0.8 * (tail.max() - tail.min())

    def test_lag_alignment_shrinks_step(self):
        # a step above the lag shrinks to the lag itself
        params, system, history = _constant_scenario(delta=0.5)
        for step in (0.013, 0.7):
            traj = integrate(system, history, IntegrationConfig(step=step, horizon=5.0))
            assert traj.step <= step
            ratio = 0.5 / traj.step
            assert abs(ratio - round(ratio)) < 1e-9
        assert traj.step == 0.5

    def test_node_count(self):
        params, system, history = _constant_scenario(delta=0.4)
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=7.0))
        assert traj.states.shape == (701, 2)
        assert traj.times[-1] == pytest.approx(7.0)

    def test_node_derivatives_match_rhs(self):
        params, system, history = _constant_scenario()
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=3.0))
        m = round(params.delta / traj.step)
        for k in (0, 1, m - 1, m, m + 1, 200, 300):
            t = traj.times[k]
            lagged = traj.states[k - m] if k - m >= 0 else history((k - m) * traj.step)
            expected = models.constant_delay_rhs(t, traj.states[k], lagged, params)
            np.testing.assert_array_equal(traj.derivs[k], expected)

    def test_determinism_bitwise(self):
        params, system, history = _constant_scenario()
        config = IntegrationConfig(step=0.01, horizon=50.0)
        a = integrate(system, history, config)
        b = integrate(system, history, config)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.derivs, b.derivs)

    def test_fourth_order_convergence(self):
        # symmetric case has a closed form; halving h cuts the error ~16x
        params, system, history = _constant_scenario(phi=(7.0, 7.0))

        def max_err(h):
            traj = integrate(system, history, IntegrationConfig(step=h, horizon=4.0))
            exact = 5.0 + 2.0 * np.exp(-traj.times)
            return np.max(np.abs(traj.states[:, 0] - exact))

        ratio = max_err(0.05) / max_err(0.025)
        assert 12.0 < ratio < 20.0

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_nonfinite_state_raises_with_time(self):
        system = DdeSystem(dimension=1, lag=0.0, rhs=lambda t, x, xl: x * x)
        history = HistoryFunction.constant([5.0], 0.0)
        with pytest.raises(NumericalFailureError) as info:
            integrate(system, history, IntegrationConfig(step=0.05, horizon=5.0))
        assert 0.0 < info.value.time <= 5.0

    def test_mismatched_lag_raises(self):
        params, system, _ = _constant_scenario(delta=0.4)
        history = HistoryFunction.constant([5.0, 5.0], 0.3)
        with pytest.raises(ValueError):
            integrate(system, history, IntegrationConfig(step=0.01, horizon=1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrationConfig(step=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            IntegrationConfig(step=0.1, horizon=-1.0)


class TestDenseEval:
    def test_node_times_return_stored_states(self):
        params, system, history = _constant_scenario()
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=5.0))
        for k in (0, 1, 77, 250, 500):
            np.testing.assert_array_equal(traj.eval(traj.times[k]), traj.states[k])

    def test_constant_trajectory_exact_everywhere(self):
        params, system, history = _constant_scenario(phi=(5.0, 5.0))
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=5.0))
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
                          history=HistoryFunction.constant([0.0], 0.0))
        tq = np.linspace(0.01, 3.99, 313)
        err = np.max(np.abs(traj.eval(tq)[:, 0] - (tq ** 3 - tq)))
        assert err < 1e-12

    def test_history_delegation_and_zero_consistency(self):
        params, system, history = _constant_scenario()
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=5.0))
        np.testing.assert_array_equal(traj.eval(-0.25), history(-0.25))
        # t = 0- (history) and t = 0 (trajectory) agree for constant histories
        np.testing.assert_array_equal(traj.eval(-1e-12), traj.eval(0.0))

    def test_beyond_front_raises(self):
        params, system, history = _constant_scenario()
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=5.0))
        with pytest.raises(ValueError):
            traj.eval(5.1)
        with pytest.raises(ValueError):
            traj.eval(-1.0)

    def test_midpoint_accuracy_on_smooth_solution(self):
        # dense output between nodes stays 4th-order accurate
        params, system, history = _constant_scenario(delta=0.4, phi=(8.0, 8.0))
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=5.0))
        ts = np.linspace(0.005, 4.995, 500)
        exact = 5.0 + 3.0 * np.exp(-ts)
        assert np.max(np.abs(traj.eval(ts)[:, 0] - exact)) < 1e-6

    def test_scalar_and_array_shapes(self):
        params, system, history = _constant_scenario()
        traj = integrate(system, history, IntegrationConfig(step=0.01, horizon=1.0))
        assert traj.eval(0.5).shape == (2,)
        assert traj.eval(np.array([0.1, 0.2, 0.3])).shape == (3, 2)
