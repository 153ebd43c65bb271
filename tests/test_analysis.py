"""Classification, conservation, sweep, and threshold-vs-simulation tests."""

import math

import numpy as np
import pytest

from qdelay import (
    CONSTANT,
    MOVING_AVERAGE,
    ModelParams,
    Trajectory,
    analysis,
    critical_delay_constant,
    critical_delay_ma,
    equilibrium,
    simulate,
)
from qdelay.analysis import (
    FAILED,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    OSCILLATORY,
    SYNCHRONIZED,
    classify_stability,
    conservation_check,
    default_thresholds,
    locate_transition,
    sweep,
)


def _classify(model, lam, mu, delta, horizon, **history):
    p = ModelParams(lam, mu, delta)
    traj = simulate(model, p, horizon=horizon, **history)
    return classify_stability(traj, p)


class TestClassifyStability:
    def test_equilibrium_run_is_synchronized_with_zero_amplitude(self):
        v = _classify(CONSTANT, 10.0, 1.0, 0.4, 100.0, phi1=5.0, phi2=5.0)
        assert v.classification == SYNCHRONIZED
        assert v.amplitude == 0.0
        assert not v.growing

    def test_regimes_straddling_the_constant_threshold(self):
        low = _classify(CONSTANT, 10.0, 1.0, 0.34, 200.0)
        high = _classify(CONSTANT, 10.0, 1.0, 0.40, 200.0)
        assert low.classification == SYNCHRONIZED
        assert high.classification == OSCILLATORY
        assert high.amplitude > 1.0

    def test_verdict_fields(self):
        v = _classify(CONSTANT, 10.0, 1.0, 0.34, 200.0)
        assert v.burn_in == pytest.approx(100.0)
        assert v.horizon == pytest.approx(200.0)

    def test_growth_indicator(self):
        # early in an unstable run the envelope is still expanding
        grow = _classify(MOVING_AVERAGE, 10.0, 1.0, 4.0, 120.0)
        assert grow.growing
        decay = _classify(CONSTANT, 10.0, 1.0, 0.34, 200.0)
        assert not decay.growing

    def test_horizon_invariance_away_from_threshold(self):
        for horizon in (150.0, 300.0):
            assert _classify(CONSTANT, 10.0, 1.0, 0.30, horizon).classification \
                == SYNCHRONIZED
            assert _classify(CONSTANT, 10.0, 1.0, 0.50, horizon).classification \
                == OSCILLATORY

    def test_swap_invariance(self):
        a = _classify(CONSTANT, 10.0, 1.0, 0.4, 200.0, phi1=5.5, phi2=4.5)
        b = _classify(CONSTANT, 10.0, 1.0, 0.4, 200.0, phi1=4.5, phi2=5.5)
        assert a.classification == b.classification
        assert a.amplitude == b.amplitude

    def test_parameter_validation(self):
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate(CONSTANT, p, horizon=0.1)
        with pytest.raises(ValueError):  # burn-in leaves too little tail
            classify_stability(traj, p)

    def test_envelope_rate_matches_tracked_root(self):
        # just below the 2.1448 threshold the T = 300 tail still swings by
        # more than eps_osc, but the fitted envelope decays at the rate of
        # the dominant characteristic root
        from qdelay import critical_delay_ma, root_track

        point = critical_delay_ma(10.0, 1.0)[0]
        root = root_track(MOVING_AVERAGE, 10.0, 1.0, 2.0, 1j * point.omega)
        v = _classify(MOVING_AVERAGE, 10.0, 1.0, 2.0, 300.0)
        assert v.amplitude > default_thresholds(ModelParams(10.0, 1.0, 2.0))[1]
        assert v.rate == pytest.approx(root.real, rel=0.05)
        assert v.limit_amplitude == 0.0
        assert v.classification == SYNCHRONIZED

    def test_one_percent_either_side_of_the_constant_threshold(self):
        delta_cr = critical_delay_constant(10.0, 1.0).delta_cr
        below = _classify(CONSTANT, 10.0, 1.0, 0.99 * delta_cr, 200.0)
        above = _classify(CONSTANT, 10.0, 1.0, 1.01 * delta_cr, 200.0)
        assert below.rate < 0.0 < above.rate
        assert below.classification == SYNCHRONIZED
        assert above.classification == OSCILLATORY

    def test_modulated_cycle_stays_oscillatory(self):
        # a settled limit cycle whose half-swings wander between 7.1097 and
        # 7.1169: its fitted log-envelope changes by -7.6e-6 over the tail,
        # far below the 5% a trusted fit needs, so the raw amplitude decides,
        # and the fit's limit 0, which contradicts it, is reported as nan
        v = _classify(MOVING_AVERAGE, 452.311, 20.7113, 0.0544787, 1.634361)
        assert math.isnan(v.rate) and math.isnan(v.limit_amplitude)
        assert v.classification == OSCILLATORY

    @pytest.mark.parametrize("model,lam,mu,fraction", [
        (CONSTANT, 100.0, 1.0, 1.01),
        (MOVING_AVERAGE, 100.0, 5.0, 1.3),
    ])
    def test_no_decay_evidence_on_an_oscillatory_verdict(self, model, lam, mu, fraction):
        # cycles whose untrusted envelope fit says rate < 0 and limit 0, at
        # the horizon 200 / mu that sweep gives them
        delta = fraction * analysis.analytic_threshold(model, lam, mu)
        v = _classify(model, lam, mu, delta, 200.0 / mu)
        assert v.classification == OSCILLATORY
        assert math.isnan(v.rate) and math.isnan(v.limit_amplitude)

    def test_no_envelope_fit_once_synchronized(self):
        v = _classify(CONSTANT, 10.0, 1.0, 0.30, 200.0)
        assert v.classification == SYNCHRONIZED
        assert math.isnan(v.rate) and math.isnan(v.limit_amplitude)

    def test_default_thresholds_scale_with_equilibrium(self):
        eps_sync, eps_osc = default_thresholds(ModelParams(10.0, 1.0, 0.4))
        assert (eps_sync, eps_osc) == (5e-3, 5e-2)
        eps_sync, eps_osc = default_thresholds(ModelParams(100.0, 1.0, 0.4))
        assert (eps_sync, eps_osc) == (5e-2, 5e-1)


class TestConservationCheck:
    def test_equilibrium_start_is_exact(self):
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate(CONSTANT, p, horizon=50.0, phi1=5.0, phi2=5.0)
        assert conservation_check(traj, p) < 1e-12

    def test_constant_model_at_balanced_start(self):
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate(CONSTANT, p, horizon=100.0, phi1=5.5, phi2=4.5)
        assert conservation_check(traj, p) < 1e-6

    def test_ma_model_against_inline_solution(self):
        # s(0) = 10.5, so s(t) = 10 + 0.5 e^(-t); recompute the deviation
        # here and require the module to agree with it
        p = ModelParams(10.0, 1.0, 4.0)
        traj = simulate(MOVING_AVERAGE, p, horizon=100.0, phi1=6.0, phi2=4.5)
        s = traj.states[:, 0] + traj.states[:, 1]
        inline = np.max(np.abs(s - (10.0 + 0.5 * np.exp(-traj.times))))
        assert inline < 1e-6
        assert conservation_check(traj, p) == pytest.approx(inline, rel=1e-12)


class TestAnalyticThreshold:
    def test_constant(self):
        assert analysis.analytic_threshold(CONSTANT, 10.0, 1.0) == \
            pytest.approx(0.3617394710074713, abs=1e-12)
        assert analysis.analytic_threshold(CONSTANT, 1.0, 1.0) is None

    def test_moving_average(self):
        got = analysis.analytic_threshold(MOVING_AVERAGE, 10.0, 1.0)
        assert got == pytest.approx(2.1448, abs=1e-3)
        assert analysis.analytic_threshold(MOVING_AVERAGE, 4.0, 1.0) is None

    def test_moving_average_at_huge_rates(self):
        # the search also finds the right root of (pi, 2 pi), whose phase
        # rounds 1 - cos(theta) to 0 above lam / mu ~ 1.19e9
        got = analysis.analytic_threshold(MOVING_AVERAGE, 1e16, 1.0)
        assert got == pytest.approx(math.pi ** 2 / 1e16, rel=1e-6)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            analysis.analytic_threshold("other", 10.0, 1.0)


class TestSweep:
    def test_constant_model_rows_agree_across_threshold(self):
        rows = sweep(CONSTANT, 1.0, [10.0], [0.2, 0.3, 0.34, 0.4, 0.5, 1.0])
        assert len(rows) == 6
        threshold = analysis.analytic_threshold(CONSTANT, 10.0, 1.0)
        for row in rows:
            expected = SYNCHRONIZED if row.delta < threshold else OSCILLATORY
            assert row.predicted == expected
            assert row.observed == expected
            assert row.agree

    def test_subcritical_rates_have_no_prediction(self):
        rows = sweep(CONSTANT, 1.0, [1.5, 2.0], [0.5, 1.0, 2.0])
        assert len(rows) == 6
        for row in rows:
            assert row.predicted == NOT_APPLICABLE
            assert row.observed == SYNCHRONIZED
            assert row.agree

    def test_ma_rows_track_the_observed_regimes(self):
        rows = sweep(MOVING_AVERAGE, 1.0, [10.0], [1.0, 2.0, 3.0, 4.0, 6.0])
        by_delta = {row.delta: row for row in rows}
        assert by_delta[1.0].observed == SYNCHRONIZED and by_delta[1.0].agree
        assert by_delta[4.0].observed == OSCILLATORY and by_delta[4.0].agree
        # delta = 6 lies past the restabilising crossing at 5.9635, where the
        # critical pair is back in the left half-plane (Re r ~ -1.7e-4)
        assert by_delta[6.0].predicted == SYNCHRONIZED
        assert by_delta[6.0].observed == SYNCHRONIZED and by_delta[6.0].agree
        # delta = 2 and 3 sit near the 2.1448 threshold where the transient
        # decays at only ~e^(-0.008 t); record them without asserting a side
        for near in (2.0, 3.0):
            assert by_delta[near].observed in (SYNCHRONIZED, OSCILLATORY, INCONCLUSIVE)
            assert math.isfinite(by_delta[near].amplitude)

    def test_ma_high_rate_oscillates_between_small_thresholds(self):
        # at lam / mu = 1000 the first crossings lie at 0.0099 and 0.0892, so
        # delta = 0.05 is past a destabilising crossing
        rows = sweep(MOVING_AVERAGE, 1.0, [1000.0], [0.05], horizon=20.0)
        assert rows[0].predicted == OSCILLATORY
        assert rows[0].observed == OSCILLATORY
        assert rows[0].agree

    def test_failures_are_recorded_per_row(self):
        rows = sweep(MOVING_AVERAGE, 1.0, [10.0], [0.0, 1.0])
        assert rows[0].observed == FAILED
        assert not rows[0].agree
        assert rows[0].error is not None
        assert math.isnan(rows[0].amplitude)
        assert rows[1].observed == SYNCHRONIZED
        # the first threshold, 2.1448, lies above every delay of the sweep
        assert rows[1].predicted == SYNCHRONIZED

    def test_infinite_delay_fails_only_its_row(self):
        # the Hopf search reaches the largest finite delay, 1e-5, not inf
        rows = sweep(MOVING_AVERAGE, 1.0, [1e7], [1e-5, math.inf, math.nan],
                     horizon=1e-3)
        assert rows[0].observed != FAILED and rows[0].error is None
        assert rows[0].predicted == OSCILLATORY
        # a row that cannot run gets no verdict to confront
        for row in rows[1:]:
            assert (row.predicted, row.observed) == (NOT_APPLICABLE, FAILED)
            assert row.error == "delta must be finite"

    def test_rows_match_full_state_classification(self):
        # sweep integrates only q1 - q2; classifying the full-state run of
        # each cell must rebuild its row
        for model, lam, deltas in ((CONSTANT, 10.0, [0.3, 0.45]),
                                   (CONSTANT, 1.5, [0.5]),
                                   (MOVING_AVERAGE, 10.0, [1.5, 3.0])):
            threshold = analysis.analytic_threshold(model, lam, 1.0)
            for row in sweep(model, 1.0, [lam], deltas, horizon=60.0):
                p = ModelParams(lam, 1.0, row.delta)
                v = classify_stability(simulate(model, p, 60.0), p)
                if threshold is None:
                    predicted = NOT_APPLICABLE
                else:
                    predicted = OSCILLATORY if row.delta >= threshold else SYNCHRONIZED
                assert (row.predicted, row.observed, row.growing) == \
                    (predicted, v.classification, v.growing)
                assert row.agree == (predicted in (NOT_APPLICABLE, v.classification))
                assert abs(row.amplitude - v.amplitude) <= 1e-12 * equilibrium(p)

    def test_rows_follow_grid_order(self):
        rows = sweep(CONSTANT, 1.0, [5.0, 10.0], [0.1, 0.2])
        assert [(r.lam, r.delta) for r in rows] == \
            [(5.0, 0.1), (5.0, 0.2), (10.0, 0.1), (10.0, 0.2)]


class TestLocateTransition:
    @pytest.mark.parametrize("lam,mu", [(10.0, 1.0), (100.0, 5.0), (20.0, 2.0)])
    def test_simulated_flip_within_five_percent_of_analytic(self, lam, mu):
        point = critical_delay_constant(lam, mu)
        flip = locate_transition(CONSTANT, lam, mu,
                                 0.5 * point.delta_cr, 1.5 * point.delta_cr)
        assert abs(flip - point.delta_cr) / point.delta_cr < 0.05

    @pytest.mark.parametrize("branch,lo,hi", [(0, 1.5, 3.0), (1, 7.0, 5.0)])
    def test_moving_average_flips_within_one_percent_of_analytic(self, branch, lo, hi):
        # onset from below, and the restabilisation from a reversed bracket
        point = critical_delay_ma(10.0, 1.0)[branch]
        flip = locate_transition(MOVING_AVERAGE, 10.0, 1.0, lo, hi)
        assert abs(flip - point.delta_cr) / point.delta_cr < 0.01

    def test_rejects_bad_bracket(self):
        with pytest.raises(ValueError):
            locate_transition(CONSTANT, 10.0, 1.0, 0.5, 1.0)  # lo not synchronized


class TestNearThresholdDecay:
    """The moving-average model at lam=10, mu=1, delta=2 sits just below its
    2.1448 threshold, where the slowest mode decays at only |Re r| ~ 0.008.

    The regime is synchronized.  The raw tail amplitude needs a horizon near
    2000 to fall below the synchronized threshold, while shorter runs still
    show the decaying oscillation; the envelope fit of ``classify_stability``
    reads the decay from a T = 300 run already.  These tests follow the raw
    transient to long horizons and confirm its decay rate independently.
    """

    def test_slow_transient_resolves_with_horizon(self):
        # a run to T is the T = 2000 run cut after its node at T: the
        # integrator never reads ahead of the node it is computing
        p = ModelParams(10.0, 1.0, 2.0)
        full = simulate(MOVING_AVERAGE, p, horizon=2000.0)
        verdicts = {}
        for horizon in (300.0, 1000.0, 2000.0):
            n = int(math.floor(horizon / full.step + 1e-9)) + 1
            traj = Trajectory(step=full.step, states=full.states[:n],
                              derivs=full.derivs[:n], lag=full.lag)
            v = classify_stability(traj, p)
            verdicts[horizon] = v
            assert not v.growing
        assert verdicts[300.0].amplitude > verdicts[1000.0].amplitude \
            > verdicts[2000.0].amplitude
        assert verdicts[2000.0].classification == SYNCHRONIZED

    def test_envelope_decay_matches_tracked_root(self):
        # two independent routes to the decay rate: the simulated envelope
        # of q1 - q2 and Newton tracking of the characteristic root
        from qdelay import critical_delay_ma, root_track

        point = critical_delay_ma(10.0, 1.0)[0]
        root = root_track(MOVING_AVERAGE, 10.0, 1.0, 2.0, 1j * point.omega)
        assert root.real < 0.0
        p = ModelParams(10.0, 1.0, 2.0)
        traj = simulate(MOVING_AVERAGE, p, horizon=400.0)
        diff = np.abs(traj.states[:, 0] - traj.states[:, 1])
        window = int(round(10.0 / traj.step))  # a few oscillation periods

        def envelope(t):
            k = int(round(t / traj.step))
            return diff[k - window:k + window].max()

        measured = math.log(envelope(350.0) / envelope(100.0)) / 250.0
        assert measured == pytest.approx(root.real, rel=0.25)
