"""Classification, conservation, sweep, and threshold-vs-simulation tests."""

import dataclasses
import math
import re

import numpy as np
import pytest

from qdelay import (
    CONSTANT,
    MOVING_AVERAGE,
    ModelParams,
    Trajectory,
    analysis,
    checks,
    critical_delay_constant,
    critical_delay_ma,
    crossing_rate,
    equilibrium,
    hopf_points,
    simulate,
    simulate_difference,
    unstable_delays,
)
from qdelay.analysis import (
    FAILED,
    INCONCLUSIVE,
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

    @pytest.mark.parametrize("step,diff,message", [
        (0.1, np.r_[np.ones(30), math.nan, np.ones(9)], "diff must be finite"),
        (0.1, np.r_[-math.inf, np.ones(39)], "diff must be finite"),
        (0.1, np.ones((40, 2)), "diff must be 1-D, got 2 dimensions"),
        (0.0, np.ones(40), "step must be finite and > 0"),
        (math.nan, np.ones(40), "step must be finite and > 0"),
        (math.inf, np.ones(40), "step must be finite and > 0"),
    ])
    def test_classify_difference_rejects_bad_input(self, step, diff, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            analysis.classify_difference(step, diff, ModelParams(10.0, 1.0, 0.4))

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
        # below, the tail still decays and the fit decides; above, its last
        # two quarters differ by 1.2%, so the settled raw amplitude does
        assert below.rate < 0.0
        assert math.isnan(above.rate)
        assert below.classification == SYNCHRONIZED
        assert above.classification == OSCILLATORY

    def test_modulated_cycle_stays_oscillatory(self):
        # a settled limit cycle whose half-swings wander between 7.1097 and
        # 7.1169: its last two quarters differ by 2e-5, so the raw amplitude
        # decides and no fit is reported
        v = _classify(MOVING_AVERAGE, 452.311, 20.7113, 0.0544787, 1.634361)
        assert math.isnan(v.rate) and math.isnan(v.limit_amplitude)
        assert v.classification == OSCILLATORY

    @pytest.mark.parametrize("model,lam,mu,fraction", [
        (CONSTANT, 100.0, 1.0, 1.01),
        (MOVING_AVERAGE, 100.0, 5.0, 1.3),
    ])
    def test_no_decay_evidence_on_an_oscillatory_verdict(self, model, lam, mu, fraction):
        # settled cycles, at the horizon 200 / mu that sweep gives them,
        # whose envelope fit would say rate < 0 and limit 0
        delta = fraction * unstable_delays(model, lam, mu)[0]
        v = _classify(model, lam, mu, delta, 200.0 / mu)
        assert v.classification == OSCILLATORY
        assert math.isnan(v.rate) and math.isnan(v.limit_amplitude)

    def test_no_envelope_fit_once_synchronized(self):
        v = _classify(CONSTANT, 10.0, 1.0, 0.30, 200.0)
        assert v.classification == SYNCHRONIZED
        assert math.isnan(v.rate) and math.isnan(v.limit_amplitude)

    @pytest.mark.filterwarnings("error")
    def test_envelope_fit_refuses_a_zero_swing(self):
        # half of the smallest subnormal rounds to 0, so every half-swing of
        # this tail is 0 and its log has no value
        x = np.array([0.0, 5e-324] * 8 + [0.0])
        assert analysis._envelope_fit(x, 0.1) is None

    def test_flat_maximum_is_one_extremum(self):
        # the turn across the flat step lies between a moving and a flat
        # difference; the parabola through them peaks at 1.125
        cycle = [0.0, 1.0, 0.0, -1.0]
        x = np.array(cycle * 2 + [0.0, 1.0, 1.0, 0.0, -1.0] + cycle * 2 + [0.0])
        positions, extrema = analysis._tail_extrema(x)
        signs = np.sign(np.diff(extrema))
        assert np.all(signs[1:] == -signs[:-1])
        assert extrema.tolist() == [1.0, -1.0] * 2 + [1.125, -1.0] + [1.0, -1.0] * 2
        assert positions[4] == 9.5

    def test_extrema_alternate_across_plateau_wiggles(self):
        # the settled constant tail at (5, 1, 33) turns across differences
        # that round to 0 on its plateaus; every half-swing is the cycle's
        _, diff = simulate_difference(CONSTANT, ModelParams(5.0, 1.0, 33.0), 1650.0)
        _, extrema = analysis._tail_extrema(diff[diff.size // 2:])
        swings = 0.5 * np.abs(np.diff(extrema))
        assert extrema.size == 24
        signs = np.sign(np.diff(extrema))
        assert np.all(signs[1:] == -signs[:-1])
        assert swings == pytest.approx(np.full(swings.size, 4.928), rel=1e-3)

    @pytest.mark.parametrize("lam,delta", [(40.0, 20.0), (100.0, 33.232)])
    def test_settled_moving_average_tails_far_past_threshold_oscillate(self, lam, delta):
        # the last two quarters differ by 0.8% and 0.4%; an envelope fit
        # gives these tails a decay to 0
        v = analysis._observe(MOVING_AVERAGE, ModelParams(lam, 1.0, delta), None)
        assert v.classification == OSCILLATORY
        assert v.amplitude > 3.0 * equilibrium(ModelParams(lam, 1.0, delta))
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
    """The analytic threshold that a sweep confronts with simulation: the
    onset of ``unstable_delays``."""

    def test_constant(self):
        assert unstable_delays(CONSTANT, 10.0, 1.0)[0] == \
            pytest.approx(0.3617394710074713, abs=1e-12)
        assert unstable_delays(CONSTANT, 1.0, 1.0) is None

    def test_moving_average(self):
        got = unstable_delays(MOVING_AVERAGE, 10.0, 1.0)[0]
        assert got == pytest.approx(2.1448, abs=1e-3)
        assert unstable_delays(MOVING_AVERAGE, 4.0, 1.0) is None

    def test_moving_average_at_huge_rates(self):
        # the left root of (pi, 2 pi), beside a right root whose phase
        # rounds 1 - cos(theta) to 0 above lam / mu ~ 1.19e9
        got = unstable_delays(MOVING_AVERAGE, 1e16, 1.0)[0]
        assert got == pytest.approx(math.pi ** 2 / 1e16, rel=1e-6)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            unstable_delays("other", 10.0, 1.0)

    @pytest.mark.parametrize("model", [CONSTANT, MOVING_AVERAGE])
    def test_onset_is_the_first_hopf_point(self, model):
        # lam / mu log-uniform over 0.5-2000, so both models also meet rates
        # with no Hopf point
        rng = np.random.default_rng(23)
        a = np.exp(rng.uniform(math.log(0.5), math.log(2000.0), 1000))
        mu = np.exp(rng.uniform(-3.0, 3.0, 1000))
        nones = 0
        for lam, m in zip((a * mu).tolist(), mu.tolist()):
            unstable = unstable_delays(model, lam, m)
            points = hopf_points(model, lam, m)
            assert (unstable is None) == (not points), (lam, m)
            if unstable is None:
                nones += 1
            else:
                assert unstable[0] == points[0].delta_cr, (lam, m)
        assert 0 < nones < 1000


class TestSweep:
    def test_constant_model_rows_agree_across_threshold(self):
        rows = sweep(CONSTANT, 1.0, [10.0], [0.2, 0.3, 0.34, 0.4, 0.5, 1.0])
        assert len(rows) == 6
        threshold = unstable_delays(CONSTANT, 10.0, 1.0)[0]
        for row in rows:
            expected = SYNCHRONIZED if row.delta < threshold else OSCILLATORY
            assert row.predicted == expected
            assert row.observed == expected
            assert row.agree

    def test_subcritical_rates_are_predicted_synchronized(self):
        rows = sweep(CONSTANT, 1.0, [1.5, 2.0], [0.5, 1.0, 2.0])
        assert len(rows) == 6
        for row in rows:
            assert row.predicted == SYNCHRONIZED
            assert row.observed == SYNCHRONIZED
            assert row.agree

    def test_cells_without_a_hopf_point_are_predicted_and_observed_synchronized(self):
        # lam / mu below 2 (Halanay, both models) and moving-average lam / mu
        # in [2, 9.2], below a_min = 9.2066777: 40 random cells each, with
        # mu = e^U(-1, 1) and delta log-uniform on 0.05-60
        rng = np.random.default_rng(26)
        for model, lo, hi in ((CONSTANT, 0.2, 2.0), (MOVING_AVERAGE, 0.2, 2.0),
                              (MOVING_AVERAGE, 2.0, 9.2)):
            for _ in range(40):
                mu = float(np.exp(rng.uniform(-1.0, 1.0)))
                lam = mu * float(rng.uniform(lo, hi))
                delta = float(np.exp(rng.uniform(math.log(0.05), math.log(60.0))))
                (row,) = sweep(model, mu, [lam], [delta])
                assert (row.predicted, row.observed, row.agree) == \
                    (SYNCHRONIZED, SYNCHRONIZED, True), (model, lam, mu, delta)

    def test_agree_is_read_from_the_columns(self):
        assert "agree" not in [f.name for f in dataclasses.fields(analysis.SweepRow)]
        row = analysis.SweepRow(1.0, 1.0, 1.0, SYNCHRONIZED, SYNCHRONIZED, 0.0)
        assert row.agree
        assert not dataclasses.replace(row, observed=OSCILLATORY).agree
        assert not dataclasses.replace(row, predicted=FAILED, observed=FAILED).agree

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
        rows = sweep(MOVING_AVERAGE, 1.0, [1e7], [1e-5, math.inf, math.nan],
                     horizon=1e-3)
        assert rows[0].observed != FAILED and rows[0].error is None
        assert rows[0].predicted == OSCILLATORY
        # a row that cannot run fails in both columns
        for row in rows[1:]:
            assert (row.predicted, row.observed) == (FAILED, FAILED)
            assert not row.agree
            assert row.error == "delta must be finite and >= 0"

    def test_rows_match_full_state_classification(self):
        # sweep integrates only q1 - q2; classifying the full-state run of
        # each cell must rebuild its row, and give the verdict of its
        # difference mode
        for model, lam, deltas in ((CONSTANT, 10.0, [0.3, 0.45]),
                                   (CONSTANT, 1.5, [0.5]),
                                   (MOVING_AVERAGE, 10.0, [1.5, 3.0])):
            unstable = unstable_delays(model, lam, 1.0)
            threshold = math.inf if unstable is None else unstable[0]
            for row in sweep(model, 1.0, [lam], deltas, horizon=60.0):
                p = ModelParams(lam, 1.0, row.delta)
                v = classify_stability(simulate(model, p, 60.0), p)
                d = analysis.classify_difference(*simulate_difference(model, p, 60.0), p)
                assert (d.classification, d.growing, d.burn_in, d.horizon) == \
                    (v.classification, v.growing, v.burn_in, v.horizon)
                assert abs(d.amplitude - v.amplitude) <= 1e-12 * equilibrium(p)
                predicted = OSCILLATORY if row.delta >= threshold else SYNCHRONIZED
                assert (row.predicted, row.observed, row.growing) == \
                    (predicted, v.classification, v.growing)
                assert row.agree == (predicted == v.classification)
                assert abs(row.amplitude - v.amplitude) <= 1e-12 * equilibrium(p)

    def test_bracket_prediction_equals_the_signed_crossing_count(self, monkeypatch):
        # the reference rule: oscillatory where more destabilising than
        # restabilising crossings, signed by crossing_rate, lie at or below
        # the delay.  A stub stands in for the integration; every Hopf delay
        # and its neighbouring floats are among the cells
        unobserved = analysis.StabilityVerdict(SYNCHRONIZED, 0.0, 0.0, 0.0, False)
        monkeypatch.setattr(analysis, "_observe", lambda *args: unobserved)
        rng = np.random.default_rng(21)
        cells = 0
        for model in (CONSTANT, MOVING_AVERAGE):
            for _ in range(300):
                mu = float(np.exp(rng.uniform(-3.0, 3.0)))
                lam = mu * float(np.exp(rng.uniform(0.0, math.log(2000.0))))
                # the constant model's branches never end: its first spans the cells
                every = math.inf if model == MOVING_AVERAGE else 0.0
                hopf = [p.delta_cr for p in hopf_points(model, lam, mu, every)]
                span = hopf or [1.0 / mu]
                deltas = [d for h in hopf for d in (math.nextafter(h, 0.0), h,
                                                    math.nextafter(h, math.inf))]
                deltas += list(np.exp(rng.uniform(math.log(0.25 * min(span)),
                                                  math.log(4.0 * max(span)), 20)))
                reach = max(deltas)
                crossings = [(p.delta_cr, crossing_rate(model, lam, mu, p.delta_cr,
                                                        1j * p.omega).real > 0.0)
                             for p in hopf_points(model, lam, mu, reach)]
                bracket = unstable_delays(model, lam, mu)
                assert (bracket is None) == (not crossings)
                rows = sweep(model, mu, [lam], deltas)
                for row in rows:
                    net = sum(1 if up else -1 for delta_cr, up in crossings
                              if delta_cr <= row.delta)
                    if crossings:
                        assert (bracket[0] <= row.delta < bracket[1]) == (net > 0)
                    expected = OSCILLATORY if net > 0 else SYNCHRONIZED
                    assert row.predicted == expected, (model, lam, mu, row.delta)
                cells += len(rows)
        assert cells >= 10_000

    def test_overflowing_crossing_rate_does_not_hide_the_threshold(self):
        # delta_cr = 1.8e-308 lies far below the delay; crossing_rate
        # overflows to nan here, and the prediction does not read it
        (row,) = sweep(CONSTANT, 1e3, [1.7e308], [0.5])
        assert (row.predicted, row.observed, row.agree) == (OSCILLATORY, OSCILLATORY, True)

    def test_a_sweep_past_the_hopf_point_cap_fails_one_row(self):
        # every Hopf point up to 1e6 would be 3.2 million points, past the
        # cap; the first bracket alone predicts, and the cell fails on its grid
        (row,) = sweep(MOVING_AVERAGE, 1.0, [1e8], [1e6])
        assert (row.predicted, row.observed) == (OSCILLATORY, FAILED)
        assert row.error == "the grid needs 5e+09 nodes, more than the 10000000 allowed"

    def test_an_overflowing_default_horizon_is_named(self):
        (row,) = sweep(MOVING_AVERAGE, 1e-320, [1e-300], [1e154])
        assert row.observed == FAILED
        assert row.error == "the default horizon max(200/mu, 50 delta) overflows"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam,mu,verdict", [
        # a settled cycle, classified by its raw amplitude
        (1e154, 1.0, "StabilityVerdict(classification='oscillatory', "
         "amplitude=7.833954189396469e+153, burn_in=100.0, horizon=200.0, "
         "growing=False, rate=nan, limit_amplitude=nan)"),
        (1.7e308, 1e3, "StabilityVerdict(classification='oscillatory', "
         "amplitude=3.3999999999999986e+305, burn_in=12.5, horizon=25.0, "
         "growing=False, rate=nan, limit_amplitude=nan)"),
    ])
    def test_extreme_rates_classify_without_warnings(self, lam, mu, verdict):
        assert repr(analysis._observe(CONSTANT, ModelParams(lam, mu, 0.5), None)) == verdict

    @pytest.mark.filterwarnings("error")
    def test_envelope_fit_of_swings_whose_squares_overflow(self):
        # the tail of the (1e154, 1, 0.5) cycle, whose squared swings,
        # unscaled, would overflow: the fit gives rate 0
        params = ModelParams(1e154, 1.0, 0.5)
        h, diff = simulate_difference(CONSTANT, params, 200.0)
        start = math.ceil(0.5 * (diff.size - 1))
        assert analysis._envelope_fit(diff[start:], h) == (0.0, math.inf)

    def test_moving_average_cells_far_past_threshold(self):
        # delta 20 and 33 lie inside the first Hopf pair (0.2754, 39.085),
        # where the tails have settled, and 60 past it, where the oscillation
        # has decayed; at 46.9022 the dominant root decays at only 1.5e-4, and
        # the default horizon still sees the transient oscillate
        rows = sweep(MOVING_AVERAGE, 1.0, [40.0], [20.0, 33.0, 46.9022, 60.0])
        assert [row.predicted for row in rows] == \
            [OSCILLATORY, OSCILLATORY, SYNCHRONIZED, SYNCHRONIZED]
        assert [row.delta for row in rows if not row.agree] == [46.9022]

    def test_rows_follow_grid_order(self):
        rows = sweep(CONSTANT, 1.0, [5.0, 10.0], [0.1, 0.2])
        assert [(r.lam, r.delta) for r in rows] == \
            [(5.0, 0.1), (5.0, 0.2), (10.0, 0.1), (10.0, 0.2)]


class TestDelayIndependentStability:
    # the cells of verify's delay-independent-stability check: Halanay's
    # bound holds for every history, so lam / mu = 1.5 starts far from the
    # equilibrium; the moving-average band below a_min is stable near it
    @pytest.mark.parametrize("delta", [0.5, 5.0, 50.0])
    @pytest.mark.parametrize("model,ratio,far", [
        (CONSTANT, 1.5, True), (MOVING_AVERAGE, 1.5, True),
        (MOVING_AVERAGE, 5.0, False), (MOVING_AVERAGE, 9.0, False)])
    def test_no_hopf_point_and_the_tail_decays(self, model, ratio, far, delta):
        params = ModelParams(ratio, 1.0, delta)
        history = (10.0 * equilibrium(params), 0.0) if far else (None, None)
        stable, verdict = checks.delay_independent_verdict(model, params, *history)
        assert stable
        assert verdict.classification == SYNCHRONIZED


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
        with pytest.raises(ValueError, match="^delta_hi classifies as synchronized$"):
            locate_transition(CONSTANT, 10.0, 1.0, 0.2, 0.3)


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
