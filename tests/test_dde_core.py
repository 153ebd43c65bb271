"""Integrator and dense-output tests.

Expected values come from closed-form solutions (fixed points, symmetric
collapse to a scalar linear ODE, manufactured cubics), never from the code
under test.
"""

import re

import numpy as np
import pytest

from qdelay import NumericalFailureError, Trajectory, integrate, models
from qdelay.dde import lag_grid, lagged_nodes


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

    def test_non_finite_node_0_derivative_fails_at_zero(self):
        # node 0 is checked as every node is, without a numpy warning
        with pytest.raises(NumericalFailureError) as info:
            integrate(lambda x, xl: 1e300 * x * xl, 0.5, [1e10], 0.1, 1.0)
        assert info.value.time == 0.0

    def test_non_finite_node_derivative_fails_at_that_node(self):
        # y' = -y at h = 1 visits 1, 0.5, 0.75 and 0.25 in its stages and
        # lands on 0.375, the only value at which z' overflows
        def rhs(x, xl):
            return np.array([-x[0], 1e300 * (1e10 if 0.3 < x[0] < 0.45 else 1.0)])

        with pytest.raises(NumericalFailureError) as info:
            integrate(rhs, 0.0, [1.0, 0.0], 1.0, 5.0)
        assert info.value.time == 1.0

    def test_config_validation(self):
        # lag_grid checks the grid inputs before anything is integrated
        params, rhs, x0 = _constant_scenario()
        for lag, step, horizon in ((0.4, 0.0, 1.0), (0.4, 0.1, -1.0), (-0.4, 0.1, 1.0),
                                   (0.0, np.nan, 1.0), (0.4, 0.1, np.inf)):
            with pytest.raises(ValueError) as info:
                integrate(rhs, lag, x0, step, horizon)
            with pytest.raises(ValueError, match=f"^{re.escape(str(info.value))}$"):
                lag_grid(lag, step, horizon)


def _integrate_by_lookup(rhs, lag, x0, step, horizon):
    """The method of steps with its lagged reads as array lookups, node
    ``max(k + 1 - m, 0)`` and the Hermite midpoint of segment
    ``[k - m, k + 1 - m]``, or the history ``x0`` before the grid: the
    oracle for ``integrate``'s stream of lagged nodes."""
    m, h, n = lag_grid(lag, step, horizon)
    states = np.empty((n + 1, len(x0)))
    derivs = np.empty((n + 1, len(x0)))
    states[0] = x0
    x0 = states[0]

    def node_lag(j):
        return states[max(j - m, 0)]

    def mid_lag(k):
        i = k - m
        if i >= 0:
            y0 = states[i]
            y1 = states[i + 1]
            return y0 + 0.5 * (y1 - y0) + 0.125 * h * (derivs[i] - derivs[i + 1])
        return x0

    derivs[0] = rhs(x0, x0)
    half, sixth = 0.5 * h, h / 6.0
    for k in range(n):
        x, k1 = states[k], derivs[k]
        if m == 0:
            s = x + half * k1
            k2 = rhs(s, s)
            s = x + half * k2
            k3 = rhs(s, s)
            s = x + h * k3
            k4 = rhs(s, s)
            xe = None
        else:
            xm, xe = mid_lag(k), node_lag(k + 1)
            s = x + half * k1
            k2 = rhs(s, xm)
            s = x + half * k2
            k3 = rhs(s, xm)
            s = x + h * k3
            k4 = rhs(s, xe)
        xn = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        states[k + 1] = xn
        derivs[k + 1] = rhs(xn, xn if m == 0 else xe)
    return states, derivs


class TestLaggedNodes:
    def test_history_copies_then_the_nodes_as_they_grow(self):
        values, slopes = [1.5], [-0.25]
        stream = lagged_nodes(values, slopes, 3)
        # m - 1 = 2 copies of node 0, then node 0 itself
        assert [next(stream) for _ in range(3)] == [(1.5, -0.25)] * 3
        values += [2.5, 3.5]
        slopes += [0.5, 0.75]
        assert list(stream) == [(2.5, 0.5), (3.5, 0.75)]

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_a_lag_below_one_step(self, m):
        with pytest.raises(ValueError, match="at least one step"):
            lagged_nodes([1.0], [0.0], m)

    @pytest.mark.parametrize("model", models.MODEL_KINDS)
    def test_integrate_matches_the_lookup_loop_bit_for_bit(self, model):
        rng = np.random.default_rng(18 if model == models.CONSTANT else 19)
        seen = set()
        for i in range(60):
            lam, mu = rng.uniform(0.5, 60.0), rng.uniform(0.2, 5.0)
            q = lam / mu
            kind = i % 5
            delta = rng.uniform(0.05, 4.0)
            step = rng.uniform(0.01, 0.4) / max(1.0, mu)
            horizon = rng.uniform(1.0, 10.0)
            if kind == 0 and model == models.CONSTANT:  # an ODE
                delta = 0.0
            elif kind == 1:  # a lag of one step
                delta = rng.uniform(0.02, 0.3) / mu
                step = delta * rng.uniform(1.0, 2.0)
            elif kind == 2:  # the whole run reads the history
                horizon = delta * rng.uniform(0.1, 1.0)
            params = models.ModelParams(lam, mu, delta)
            dim = 2 if model == models.CONSTANT else 4
            phi = rng.uniform(0.0, q, 2)
            x0 = np.concatenate([phi, phi])[:dim]

            def rhs(x, xl):
                if model == models.CONSTANT:
                    return models.constant_delay_rhs(x, xl, params)
                return models.ma_rhs(x, xl, params)

            m, _, n = lag_grid(delta, step, horizon)
            seen.add("ode" if m == 0 else "m=1" if m == 1 else "m>=n" if m >= n else "m<n")
            traj = integrate(rhs, delta, x0, step, horizon)
            states, derivs = _integrate_by_lookup(rhs, delta, x0, step, horizon)
            np.testing.assert_array_equal(traj.states, states)
            np.testing.assert_array_equal(traj.derivs, derivs)
        expected = {"m=1", "m>=n", "m<n"} | ({"ode"} if model == models.CONSTANT else set())
        assert seen == expected


def _eval_one(traj, t):
    """Dense output for one time, as a per-query loop: clip to [0, front],
    return the node at a node time, else the Hermite cubic of the segment."""
    t = min(max(float(t), 0.0), traj.horizon)
    k = int(np.flatnonzero(traj.times <= t)[-1])
    if traj.times[k] == t:
        return traj.states[k]
    theta, h = (t - traj.times[k]) / traj.step, traj.step
    y0, y1 = traj.states[k], traj.states[k + 1]
    m0, m1 = traj.derivs[k], traj.derivs[k + 1]
    return (y0 + theta * theta * (3.0 - 2.0 * theta) * (y1 - y0)
            + h * (theta * (theta - 1.0)) * ((theta - 1.0) * m0 + theta * m1))


def _assert_eval_matches_the_loop(traj, rng):
    # random, node, next-to-node, front, history, signed-zero and
    # within-tolerance times, read as one 2-d array and one by one
    front, lag = traj.horizon, traj.lag
    nodes = traj.times[rng.integers(0, traj.times.size, 6)]
    queries = np.concatenate([
        rng.uniform(-lag, front, 24), rng.uniform(-lag, 0.0, 4), nodes,
        np.nextafter(nodes, np.inf), np.nextafter(nodes, -np.inf),
        [front, front + 5e-10 * max(1.0, front), -0.0, 0.0, -lag,
         -lag - 5e-10 * max(1.0, lag)]])
    want = np.array([_eval_one(traj, t) for t in queries])
    got = traj.eval(queries.reshape(4, -1))
    assert got.shape == (4, queries.size // 4, traj.dimension)
    for out, expected in ((got.reshape(want.shape), want),
                          (np.array([traj.eval(t) for t in queries]), want)):
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


class TestDenseEval:
    @pytest.mark.parametrize("model", models.MODEL_KINDS)
    def test_matches_a_per_query_loop_on_random_trajectories(self, model):
        rng = np.random.default_rng(16)
        for i in range(24):
            lam, mu = rng.uniform(0.5, 60.0), rng.uniform(0.2, 5.0)
            delta = 0.0 if model == models.CONSTANT and i % 4 == 0 else rng.uniform(0.05, 4.0)
            q = lam / mu
            traj = models.simulate(model, models.ModelParams(lam, mu, delta),
                                   rng.uniform(0.05, 10.0), step=rng.uniform(0.01, 0.4),
                                   phi1=rng.uniform(0.0, q), phi2=rng.uniform(0.0, q))
            if i % 8 == 1:  # node 0 alone: every time reads the history
                traj = Trajectory(step=traj.step, states=traj.states[:1],
                                  derivs=traj.derivs[:1], lag=traj.lag)
            _assert_eval_matches_the_loop(traj, rng)

    def test_node_reads_return_the_node_where_the_cubic_would_not(self):
        # the cubic at theta = 0 turns a -0.0 node into +0.0, and overflows
        # (a warning, an error here) where y1 - y0 does; the node is kept
        states = np.array([[-0.0, 1.0], [2.0, -0.0], [-0.0, 3.0], [1.0, -0.0]])
        traj = Trajectory(step=0.5, states=states, derivs=np.ones_like(states), lag=1.0)
        _assert_eval_matches_the_loop(traj, np.random.default_rng(3))
        assert np.signbit(traj.eval(traj.times)).tolist() == np.signbit(states).tolist()
        wide = Trajectory(step=1.0, states=[[1e308], [-1e308]], derivs=np.zeros((2, 1)),
                          lag=0.0)
        np.testing.assert_array_equal(wide.eval([-0.0, 1.0]), wide.states)

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
