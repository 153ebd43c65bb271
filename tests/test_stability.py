"""Hopf machinery tests.

Independent oracles: the moving-average threshold condition is re-derived
inline in its delay form and bisected by a local helper, and its phase
form is bisected on every odd interval to check the Newton roots; residuals are
checked at claimed roots; the crossing rate is checked against its closed
form on the constant-delay model and against finite differences of Newton
root tracking on the moving-average model.
"""

import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qdelay import analysis, checks, stability
from qdelay import (
    CONSTANT,
    MOVING_AVERAGE,
    ConvergenceError,
    ModelParams,
    characteristic_residual_constant,
    characteristic_residual_ma,
    critical_delay_constant,
    critical_delay_ma,
    crossing_rate,
    hopf_curve,
    hopf_points,
    ma_candidate_roots,
    ma_threshold_function,
    root_track,
)

RNG = np.random.default_rng(5)


class _Counting:
    """Stands in for a module and counts the calls of one of its functions."""

    def __init__(self, module, name):
        self._module = module
        self.calls = 0
        original = getattr(module, name)

        def counted(*args):
            self.calls += 1
            return original(*args)

        setattr(self, name, counted)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _ma_threshold_oracle(delta, lam, mu):
    # written out independently of the package implementation
    omega = math.sqrt(lam / delta - mu * mu)
    return math.sin(delta * omega) + (2.0 * mu * delta / lam) * omega


def _bisect_oracle(f, lo, hi, n=200):
    f_lo, f_hi = f(lo), f(hi)
    assert f_lo * f_hi < 0.0, "oracle bracket must straddle a sign change"
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCriticalDelayConstant:
    def test_reference_point(self):
        point = critical_delay_constant(10.0, 1.0)
        assert point.omega == pytest.approx(0.5 * math.sqrt(96.0), abs=1e-14)
        assert point.delta_cr == pytest.approx(0.3617394710074713, abs=1e-14)
        assert 0.3607 < point.delta_cr < 0.3627
        assert point.branch == 0 and point.validated

    def test_boundary_and_subcritical(self):
        assert critical_delay_constant(2.0, 1.0) is None
        assert critical_delay_constant(1.0, 1.0) is None
        assert critical_delay_constant(1.99, 1.0) is None

    def test_high_rate_point(self):
        point = critical_delay_constant(100.0, 5.0)
        assert point.delta_cr == pytest.approx(0.033588, abs=5e-6)
        assert point.omega == pytest.approx(49.7494, abs=5e-4)
        assert 0.02 < point.delta_cr < 0.05

    def test_imaginary_axis_conditions(self):
        # cos(w d) = -2 mu / lam and sin(w d) = 2 w / lam at every point
        for mu in (0.5, 1.0, 2.0):
            for lam in np.linspace(2.5 * mu, 100.0 * mu, 15):
                point = critical_delay_constant(float(lam), mu)
                x = point.omega * point.delta_cr
                assert abs(math.cos(x) + 2.0 * mu / lam) < 1e-9
                assert abs(math.sin(x) - 2.0 * point.omega / lam) < 1e-9

    def test_same_bits_as_the_rate_formula(self):
        # arccos(-p0 / q) with p0 = mu, q = lam / 2 rounds as arccos(-2 mu / lam)
        rng = np.random.default_rng(29)
        for _ in range(2000):
            mu = float(np.exp(rng.uniform(-5.0, 5.0)))
            lam = mu * float(np.exp(rng.uniform(math.log(2.0), math.log(2000.0))))
            point = critical_delay_constant(lam, mu)
            omega = math.sqrt(0.5 * lam - mu) * math.sqrt(0.5 * lam + mu)
            assert (point.omega, point.delta_cr) == \
                (omega, math.acos(-2.0 * mu / lam) / omega)

    @pytest.mark.parametrize("lam,mu", [(1.4e154, 1.0), (1e300, 1.0), (1.7e308, 8e307)])
    def test_no_square_overflows_at_huge_rates(self, lam, mu):
        # lam^2 overflows above ~1.3e154, which once gave omega = inf and
        # delta_cr = 0; so does lam + 2 mu near the largest float
        point = critical_delay_constant(lam, mu)
        assert math.isfinite(point.omega) and point.delta_cr > 0.0
        ratio = 2.0 * mu / lam
        assert point.omega == pytest.approx(0.5 * lam * math.sqrt(1.0 - ratio * ratio), rel=1e-14)
        assert checks.worst_residual(CONSTANT, [point]) <= 1e-15 * lam

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            critical_delay_constant(-1.0, 1.0)
        with pytest.raises(ValueError):
            critical_delay_constant(10.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -2.0])
    def test_each_rate_must_be_finite_and_positive(self, bad):
        # the phase function tests the rates inline by chained comparisons,
        # which NaN must fail like every other invalid value
        for call in (critical_delay_constant,
                     lambda lam, mu: ma_threshold_function(1.0, lam, mu)):
            with pytest.raises(ValueError, match="lam must be finite and > 0"):
                call(bad, 1.0)
            with pytest.raises(ValueError, match="mu must be finite and > 0"):
                call(10.0, bad)
        assert ma_threshold_function(1.0, 5e-324, 1.7e308) > 0.0


class TestResidualConstant:
    def test_zero_delay_root_is_exact(self):
        assert characteristic_residual_constant(-6.0, 10.0, 1.0, 0.0) == 0.0

    def test_at_origin(self):
        res = characteristic_residual_constant(0.0, 10.0, 1.0, 0.7)
        assert res == 6.0 + 0.0j

    def test_vanishes_at_hopf_point(self):
        point = critical_delay_constant(10.0, 1.0)
        assert checks.worst_residual(CONSTANT, [point]) < 1e-9


class TestResidualMa:
    def test_cleared_form_trivial_root(self):
        assert characteristic_residual_ma(0.0, 10.0, 1.0, 2.0) == 0.0

    def test_closed_form_value(self):
        res = characteristic_residual_ma(-10.0, 10.0, 1.0, 1.0)
        expected = 100.0 - 10.0 - 5.0 * (math.exp(10.0) - 1.0)
        assert res.real == pytest.approx(expected, rel=1e-14)
        assert res.imag == 0.0

    def test_vanishes_at_validated_point(self):
        point = critical_delay_ma(10.0, 1.0)[0]
        assert checks.worst_residual(MOVING_AVERAGE, [point]) < 1e-8

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            characteristic_residual_ma(1.0, 10.0, 1.0, 0.0)


class TestCriticalDelayMa:
    def test_smallest_root_matches_bisection_oracle(self):
        oracle = _bisect_oracle(lambda d: _ma_threshold_oracle(d, 10.0, 1.0), 2.0, 2.2)
        points = critical_delay_ma(10.0, 1.0)
        assert points[0].delta_cr == pytest.approx(oracle, abs=1e-8)
        assert 2.0 < points[0].delta_cr < 2.2
        assert points[0].omega == pytest.approx(
            math.sqrt(10.0 / oracle - 1.0), abs=1e-8)
        assert points[0].branch == 0 and points[0].validated

    def test_second_validated_branch(self):
        points = critical_delay_ma(10.0, 1.0)
        assert len(points) == 2
        assert points[1].branch == 1
        assert points[1].delta_cr == pytest.approx(5.9634666, abs=1e-5)

    def test_extraneous_candidate_near_four_is_rejected(self):
        # the delay form of the threshold condition changes sign near 4 ...
        oracle = _bisect_oracle(lambda d: _ma_threshold_oracle(d, 10.0, 1.0), 3.95, 4.1)
        omega = math.sqrt(10.0 / oracle - 1.0)
        # ... where the unsquared cosine condition fails by a wide margin
        required = 1.0 - 2.0 * oracle * omega ** 2 / 10.0
        assert abs(math.cos(omega * oracle) - required) > 0.3
        # so no Hopf point of the phase equation lies there
        assert not [p for p in ma_candidate_roots(10.0, 1.0) if 3.9 < p.delta_cr < 4.2]

    def test_high_rate_smallest_root(self):
        oracle = _bisect_oracle(lambda d: _ma_threshold_oracle(d, 100.0, 1.0),
                                0.08, 0.12)
        points = critical_delay_ma(100.0, 1.0)
        assert points[0].delta_cr == pytest.approx(oracle, abs=1e-8)
        assert points[0].delta_cr == pytest.approx(0.103, abs=1e-3)

    def test_smallest_roots_near_pi_squared_over_lam(self):
        # at lam / mu = 1000 the first thresholds sit near pi^2 / lam and
        # 9 pi^2 / lam, four orders of magnitude below lam / mu^2
        points = critical_delay_ma(1000.0, 1.0)
        assert points[0].delta_cr == pytest.approx(0.0099093, abs=1e-7)
        assert points[1].delta_cr == pytest.approx(0.0891908, abs=1e-7)
        assert checks.worst_residual(MOVING_AVERAGE, points[:2]) < 1e-8

    @pytest.mark.parametrize("lam", [2e9, 1e16])
    def test_right_root_next_to_two_pi(self, lam):
        # above lam / mu ~ 1.19e9 the right root of (pi, 2 pi) lies so close
        # to 2 pi that 1 - cos(theta) rounds to 0 in its delay; the bracket
        # holds branch 0 only, but the scan computes both roots of (pi, 2 pi)
        points = critical_delay_ma(lam, 1.0, bracket=(0.0, 4.0 * math.pi ** 2 / lam))
        assert len(points) == 1
        point = points[0]
        assert point.delta_cr == pytest.approx(math.pi ** 2 / lam, rel=1e-6)
        assert checks.worst_residual(MOVING_AVERAGE, [point]) <= 1e-12 * lam / point.delta_cr

    def test_right_roots_beyond_every_float_are_left_out(self):
        # at lam / mu = 1e20 and lam = 1e-300, lam sin(theta / 2)^2 underflows
        # to 0 at every right root: no float delay holds one
        lam = 1e-300
        points = critical_delay_ma(lam, 1e-320, bracket=(0.0, 1e302))
        assert [p.delta_cr for p in points] == pytest.approx(
            [math.pi ** 2 / lam, 9.0 * math.pi ** 2 / lam], rel=1e-12)

    def test_validated_points_satisfy_both_conditions(self):
        for lam in (10.0, 30.0, 100.0):
            for p in critical_delay_ma(lam, 1.0):
                x = p.omega * p.delta_cr
                assert abs(math.cos(x) - (1.0 - 2.0 * p.delta_cr * p.omega ** 2 / lam)) < 5e-3
                assert abs(math.sin(x) + 2.0 * p.delta_cr * p.mu * p.omega / lam) < 5e-3
                assert checks.worst_residual(MOVING_AVERAGE, [p]) < 1e-8

    def test_no_root_cases(self):
        assert critical_delay_ma(4.0, 1.0) == []
        assert critical_delay_ma(10.0, 1.0, bracket=(0.5, 1.5)) == []

    @pytest.mark.parametrize("bracket", [(5.0, 1.0), (math.nan, 5.0), (0.0, math.nan),
                                         (math.inf, 5.0), (math.nan, math.nan)])
    def test_invalid_bracket_is_rejected(self, bracket):
        with pytest.raises(ValueError, match="lo <= hi"):
            critical_delay_ma(10.0, 1.0, bracket=bracket)

    def test_open_and_degenerate_brackets(self):
        every = critical_delay_ma(10.0, 1.0)
        assert critical_delay_ma(10.0, 1.0, bracket=(0.0, math.inf)) == every
        first = every[0].delta_cr
        assert critical_delay_ma(10.0, 1.0, bracket=(first, first)) == every[:1]
        assert critical_delay_ma(10.0, 1.0, bracket=(3.0, 3.0)) == []

    def test_threshold_function_domain(self):
        # the phase function lam sin(theta) + 2 mu theta is defined for every
        # phase, vanishes at the trivial theta = 0 and at the phase of every
        # Hopf point, and rejects invalid rates
        assert ma_threshold_function(0.0, 10.0, 1.0) == 0.0
        assert ma_threshold_function(4.0, 10.0, 1.0) == \
            pytest.approx(10.0 * math.sin(4.0) + 8.0, abs=1e-14)
        for p in ma_candidate_roots(10.0, 1.0):
            assert abs(ma_threshold_function(p.omega * p.delta_cr, 10.0, 1.0)) < 1e-12
        with pytest.raises(ValueError):
            ma_threshold_function(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ma_threshold_function(1.0, 10.0, math.nan)


def _phase_bisection_deltas(lam, mu):
    # every Hopf delay, by bisecting lam sin(theta) + 2 mu theta on both
    # sides of its minimum on each odd interval (k pi, (k + 1) pi)
    def f(theta):
        return lam * math.sin(theta) + 2.0 * mu * theta

    deltas = []
    k = 1
    while 2.0 * mu * k * math.pi < lam:
        low = k * math.pi + math.acos(2.0 * mu / lam)
        if f(low) < 0.0:
            for a, b in ((k * math.pi, low), (low, (k + 1) * math.pi)):
                theta = _bisect_oracle(f, a, b)
                deltas.append(2.0 * theta ** 2 / (lam * (1.0 - math.cos(theta))))
        k += 2
    return sorted(deltas)


def _existence_edge(k, mu):
    # the smallest float lam at which the minimum of the phase function on
    # (k pi, (k + 1) pi), as the package evaluates it, is negative
    def minimum(lam):
        return ma_threshold_function(k * math.pi + math.acos(2.0 * mu / lam), lam, mu)

    lo, hi = 2.0 * mu * k * math.pi, 4.0 * mu * (k + 1) * math.pi
    assert minimum(lo) > 0.0 > minimum(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if minimum(mid) < 0.0:
            hi = mid
        else:
            lo = mid


class TestNewtonPhaseRoots:
    def test_agrees_with_phase_bisection(self):
        rng = np.random.default_rng(11)
        for ratio in np.geomspace(2.5, 1000.0, 24):
            mu = float(rng.uniform(0.3, 3.0))
            lam = float(ratio) * mu
            got = [p.delta_cr for p in critical_delay_ma(lam, mu)]
            expected = _phase_bisection_deltas(lam, mu)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert a == pytest.approx(b, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("k", [1, 3])
    def test_two_roots_at_the_existence_edge(self, k):
        # where an interval just gains its root pair the roots nearly
        # coincide and are ill-conditioned; both must still be found, with
        # residuals at rounding level
        mu = 1.0
        edge = _existence_edge(k, mu)
        for lam in (edge, edge * (1.0 + 1e-13), edge * (1.0 + 1e-12)):
            inside = [p for p in critical_delay_ma(lam, mu)
                      if k * math.pi < p.omega * p.delta_cr < (k + 1) * math.pi]
            assert len(inside) == 2
            for p in inside:
                scale = lam / p.delta_cr + mu * mu
                assert checks.worst_residual(MOVING_AVERAGE, [p]) <= 1e-12 * scale
        below = math.nextafter(edge, 0.0)
        assert not [p for p in critical_delay_ma(below, mu)
                    if k * math.pi < p.omega * p.delta_cr < (k + 1) * math.pi]

    def test_phase_evaluations_per_root(self, monkeypatch):
        # bisection to float resolution took about 47 evaluations per root.
        # Every phase evaluation, inline in the Newton or through
        # ma_threshold_function at an interval end, takes one sin; so does
        # the map of each root to its delay, which is not one
        sine = _Counting(math, "sin")
        monkeypatch.setattr(stability, "math", sine)
        points = critical_delay_ma(1000.0, 1.0)
        assert len(points) == 158
        assert sine.calls - len(points) <= 10 * len(points)


class TestHopfPointCap:
    def test_unbounded_list_fails_before_the_scan(self, monkeypatch):
        # about lam / (2 pi mu) = 1.6e11 points: the scan must not start
        sine = _Counting(math, "sin")
        monkeypatch.setattr(stability, "math", sine)
        for query in (critical_delay_ma, ma_candidate_roots):
            with pytest.raises(ValueError, match=r"1\.5915494e\+11 Hopf points.*"
                                                 r"1000000 allowed.*--bracket"):
                query(1e12, 1.0)
        assert sine.calls == 0

    def test_narrow_bracket_still_answers(self):
        points = critical_delay_ma(1e12, 1.0, bracket=(0.0, 1e-10))
        assert points
        assert points[0].delta_cr == pytest.approx(math.pi ** 2 / 1e12, rel=1e-5)
        assert all(p.delta_cr <= 1e-10 for p in points)

    def test_bound_is_met_below_the_cap(self):
        # 2 mu k pi < lam holds for the odd k up to 159153: two points each
        assert stability._hopf_point_bound(1e6, 1.0, math.inf) == 159154.0
        assert len(critical_delay_ma(1e6, 1.0)) == 159154

    def test_bound_of_empty_and_open_brackets(self):
        assert stability._hopf_point_bound(10.0, 1.0, -1.0) == 0.0
        assert stability._hopf_point_bound(1e300, 1e-300, math.inf) == math.inf
        assert critical_delay_ma(10.0, 1.0, bracket=(-2.0, -1.0)) == []


class TestDelayBound:
    def test_bracket_equals_filtered_list(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            mu = float(rng.uniform(0.3, 3.0))
            lam = float(np.exp(rng.uniform(math.log(10.0), math.log(1000.0)))) * mu
            every = critical_delay_ma(lam, mu)
            deltas = [p.delta_cr for p in every]
            # random edges, and edges exactly at a root's delay
            edges = [tuple(sorted(rng.uniform(0.0, 1.2 * deltas[-1], 2)))]
            i, j = sorted(rng.integers(0, len(deltas), 2))
            edges += [(deltas[i], deltas[j]), (0.0, deltas[j]), (deltas[i], math.inf)]
            for lo, hi in edges:
                expected = [replace(p, branch=n) for n, p in
                            enumerate(p for p in every if lo <= p.delta_cr <= hi)]
                assert critical_delay_ma(lam, mu, bracket=(lo, hi)) == expected

    def test_hopf_curve_branch_zero(self):
        for mu in (0.5, 1.0, 2.0):
            points = hopf_curve(MOVING_AVERAGE, mu, (2.5 * mu, 1000.0 * mu), 60)
            assert len(points) > 50
            for p in points:
                assert p == critical_delay_ma(p.lam, mu)[0]

    def test_first_branch_below_nine_pi_squared_over_lam(self):
        for mu in (0.5, 1.0, 2.0):
            for lam in np.geomspace(9.5 * mu, 1000.0 * mu, 40):
                first = critical_delay_ma(float(lam), mu)[0]
                assert math.pi < first.omega * first.delta_cr < 1.5 * math.pi
                assert first.delta_cr < 4.5 * math.pi ** 2 / lam


class TestHopfPoints:
    def test_moving_average_smallest_and_through_delta_max(self):
        first, second = critical_delay_ma(10.0, 1.0)[:2]
        assert hopf_points(MOVING_AVERAGE, 10.0, 1.0) == [first]
        assert first.delta_cr == pytest.approx(2.1448, abs=1e-4)
        assert hopf_points(MOVING_AVERAGE, 10.0, 1.0, 6.0) == [first, second]
        assert second.delta_cr == pytest.approx(5.9635, abs=1e-4)
        # a point exactly at delta_max is kept
        assert hopf_points(MOVING_AVERAGE, 10.0, 1.0, second.delta_cr) == [first, second]
        assert hopf_points(MOVING_AVERAGE, 4.0, 1.0, 100.0) == []

    def test_constant_single_point(self):
        point = critical_delay_constant(10.0, 1.0)
        assert hopf_points(CONSTANT, 10.0, 1.0) == [point]
        assert hopf_points(CONSTANT, 10.0, 1.0, 100.0) == [point]
        assert hopf_points(CONSTANT, 2.0, 1.0) == []

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            hopf_points("other", 10.0, 1.0)
        for model in (CONSTANT, MOVING_AVERAGE):
            for lam in (0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="^lam must be finite and > 0$"):
                    hopf_points(model, lam, 1.0)


class TestCrossingRate:
    def test_constant_closed_form(self):
        # Re dr/ddelta at i omega, written out for the constant-delay model
        point = critical_delay_constant(10.0, 1.0)
        d, w = point.delta_cr, point.omega
        expected = 4.0 * w * w / (8.0 * d * 1.0 + d * d * 100.0 + 4.0)
        got = crossing_rate(CONSTANT, 10.0, 1.0, d, 1j * w).real
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(4.805, abs=2e-3)

    def test_constant_pair_always_destabilises(self):
        for _ in range(50):
            mu = RNG.uniform(0.3, 5.0)
            lam = RNG.uniform(2.2 * mu, 60.0 * mu)
            point = critical_delay_constant(lam, mu)
            d, w = point.delta_cr, point.omega
            got = crossing_rate(CONSTANT, lam, mu, d, 1j * w).real
            assert got > 0.0
            assert got == pytest.approx(
                4.0 * w * w / (8.0 * d * mu + d * d * lam * lam + 4.0), rel=1e-14)

    def test_ma_rate_matches_tracked_roots(self):
        # central differences of Newton-tracked roots on both branches at
        # (10, 1): the pair enters the right half-plane at 2.1448 and leaves
        # it at 5.9635
        h = 1e-4
        rates = []
        for point in critical_delay_ma(10.0, 1.0):
            above, below = (root_track(MOVING_AVERAGE, 10.0, 1.0, point.delta_cr + d,
                                       1j * point.omega) for d in (h, -h))
            fd = (above - below) / (2.0 * h)
            rate = crossing_rate(MOVING_AVERAGE, 10.0, 1.0, point.delta_cr,
                                 1j * point.omega)
            assert rate.real == pytest.approx(fd.real, rel=1e-5)
            assert rate.imag == pytest.approx(fd.imag, rel=1e-5)
            rates.append(rate.real)
        assert rates == pytest.approx([0.0477374, -0.00476397], rel=1e-5)

    def test_errors(self):
        with pytest.raises(ValueError):
            crossing_rate("other", 10.0, 1.0, 0.4, 1j)
        with pytest.raises(ValueError):
            crossing_rate(MOVING_AVERAGE, 10.0, 1.0, 0.0, 1j)
        with pytest.raises(ValueError):
            crossing_rate(CONSTANT, 0.0, 1.0, 0.4, 1j)
        for delta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^delta must be finite and >= 0"):
                crossing_rate(CONSTANT, 10.0, 1.0, delta, 1j)
            with pytest.raises(ValueError, match="^delta must be finite and > 0"):
                crossing_rate(MOVING_AVERAGE, 10.0, 1.0, delta, 1j)
        for model in (CONSTANT, MOVING_AVERAGE):
            for r in (complex(math.nan, 1.0), complex(0.0, math.inf), math.nan):
                with pytest.raises(ValueError, match="^r must be finite"):
                    crossing_rate(model, 10.0, 1.0, 0.3, r)
            with pytest.raises(ValueError, match=r"^e\^\(-r delta\) overflows at "
                                                 r"r = -5000$"):
                crossing_rate(model, 10.0, 1.0, 0.4, -5000)
        # the real r = ln(lam delta / 2) / delta, where R_r = 1 - delta q e is 0
        with pytest.raises(ValueError, match=r"^singular residual derivative at "
                                             r"2\.2314355131420975$"):
            crossing_rate(CONSTANT, 25.0, 1.0, 0.1, 2.2314355131420975)


def _default_tol(model, lam, mu, delta):
    scale = lam + mu if model == CONSTANT else lam / delta + mu * mu
    return max(1e-12, 1e-13 * scale)


def _coefficients(model, lam, mu, delta):
    # (p2, p1, p0, q, dp0/ddelta, dq/ddelta) of the residual
    # (p2 r + p1) r + p0 + q e^(-r delta), written out here as the test's own
    if model == CONSTANT:
        return 0.0, 1.0, mu, 0.5 * lam, 0.0, 0.0
    gain = 0.5 * lam / delta
    return 1.0, mu, gain, -gain, -gain / delta, gain / delta


def _slope(model, lam, mu, delta, r):
    # R_r = 2 p2 r + p1 - delta q e^(-r delta), the partial derivative of the
    # residual in r
    p2, p1, _, q, _, _ = _coefficients(model, lam, mu, delta)
    return 2.0 * p2 * r + p1 - delta * q * cmath.exp(-r * delta)


def _reference_newton(model, lam, mu, delta, seed, tol, max_iter=100):
    """Newton on the public residual and R_r, one call each per iterate.

    Returns the root, or the ConvergenceError text, and the number of
    residual evaluations.
    """
    residual = (characteristic_residual_constant if model == CONSTANT
                else characteristic_residual_ma)
    r = complex(seed)
    evaluations = 0
    for _ in range(max_iter):
        value = residual(r, lam, mu, delta)
        evaluations += 1
        if abs(value) < tol:
            return r, evaluations
        r = r - value / _slope(model, lam, mu, delta, r)
    evaluations += 1
    if abs(residual(r, lam, mu, delta)) < tol:
        return r, evaluations
    return (f"Newton did not reach |residual| < {tol:g} in {max_iter} iterations",
            evaluations)


def _tracked(model, lam, mu, delta, seed, **kw):
    try:
        return root_track(model, lam, mu, delta, seed, **kw)
    except ConvergenceError as exc:
        return str(exc)


def _near_threshold_cases():
    # delta_cr (1 -+ 1e-3) of the Hopf points of both models for lam / mu
    # from 3 to 1000, seeded with i omega
    rng = np.random.default_rng(13)
    for ratio in np.geomspace(3.0, 1000.0, 12):
        mu = float(rng.uniform(0.5, 2.0))
        lam = float(ratio) * mu
        for model in (CONSTANT, MOVING_AVERAGE):
            for point in hopf_points(model, lam, mu, delta_max=300.0 / lam)[:3]:
                for factor in (1.0 - 1e-3, 1.0 + 1e-3):
                    yield model, lam, mu, point.delta_cr * factor, 1j * point.omega


def _random_cases():
    # (model, lam, mu, delta, seed, max_iter): seeds near i omega of a Hopf
    # point at delays around it, and far seeds with few iterations, which
    # often fail to converge or overflow e^(-r delta)
    rng = np.random.default_rng(17)
    cases = [(model, 10.0, 1.0, 0.4, -5000.0, 100) for model in (CONSTANT, MOVING_AVERAGE)]
    for _ in range(1100):
        model = (CONSTANT, MOVING_AVERAGE)[len(cases) % 2]
        mu = float(rng.uniform(0.3, 3.0))
        lam = mu * float(np.exp(rng.uniform(math.log(2.5), math.log(1000.0))))
        points = hopf_points(model, lam, mu, 300.0 / lam)
        if not points:
            continue
        point = points[int(rng.integers(len(points)))]
        if len(cases) % 4 < 2:
            delta = point.delta_cr * float(rng.uniform(0.5, 1.5))
            seed = complex(rng.normal(0.0, 0.3 * point.omega),
                           point.omega * float(rng.uniform(0.7, 1.3)))
            max_iter = 100
        else:
            delta = point.delta_cr * float(rng.uniform(0.1, 3.0))
            seed = complex(*rng.normal(0.0, 3.0 * point.omega, 2))
            max_iter = int(rng.integers(2, 30))
        cases.append((model, lam, mu, delta, seed, max_iter))
    return cases


def _per_model_root_track(model, lam, mu, delta, seed, max_iter):
    """``root_track`` as it ran with one Newton loop per model, each on its
    residual written out: the root, or the ConvergenceError text."""
    tol = _default_tol(model, lam, mu, delta)
    half_lam = 0.5 * lam
    gain = half_lam / delta

    def value_and_slope(r):
        decay = cmath.exp(-r * delta)
        if model == CONSTANT:
            return r + half_lam * decay + mu, 1.0 - half_lam * delta * decay
        return r * r + mu * r - gain * (decay - 1.0), 2.0 * r + mu + half_lam * decay

    r = complex(seed)
    for _ in range(max_iter):
        value, slope = value_and_slope(r)
        if abs(value) < tol:
            return r
        if slope == 0.0:
            return f"singular residual derivative at {r}"
        r = r - value / slope
    if abs(value_and_slope(r)[0]) < tol:
        return r
    return f"Newton did not reach |residual| < {tol:g} in {max_iter} iterations"


def _per_model_crossing_rate(model, lam, mu, delta, r):
    # -R_delta / R_r with both partials written out per model
    decay = cmath.exp(-r * delta)
    if model == CONSTANT:
        r_delta = -0.5 * lam * r * decay
        r_r = 1.0 - 0.5 * lam * delta * decay
    else:
        r_delta = 0.5 * lam / delta * (r * decay + (decay - 1.0) / delta)
        r_r = 2.0 * r + mu + 0.5 * lam * decay
    return -r_delta / r_r


class TestRootTrack:
    def test_bit_identical_to_newton_on_the_public_residuals(self):
        cases = list(_near_threshold_cases())
        assert sum(model == MOVING_AVERAGE for model, *_ in cases) >= 40
        for model, lam, mu, delta, seed in cases:
            for tol in (None, 1e-9, 1e-14):
                ref_tol = _default_tol(model, lam, mu, delta) if tol is None else tol
                expected, _ = _reference_newton(model, lam, mu, delta, seed, ref_tol)
                got = _tracked(model, lam, mu, delta, seed, tol=tol)
                if isinstance(expected, str):
                    assert got == expected
                else:
                    # the same bits, signed zeros included
                    assert (got.real.hex(), got.imag.hex()) == \
                        (expected.real.hex(), expected.imag.hex())

    def test_max_iter_error_matches_the_reference(self):
        for model in (CONSTANT, MOVING_AVERAGE):
            tol = _default_tol(model, 10.0, 1.0, 0.4)
            expected, _ = _reference_newton(model, 10.0, 1.0, 0.4, 100.0 + 100.0j, tol,
                                            max_iter=2)
            assert isinstance(expected, str)
            with pytest.raises(ConvergenceError) as info:
                root_track(model, 10.0, 1.0, 0.4, 100.0 + 100.0j, max_iter=2)
            assert str(info.value) == expected

    def test_one_exponential_per_residual_evaluation(self, monkeypatch):
        cases = list(_near_threshold_cases())[::5]
        cases.append((CONSTANT, 10.0, 1.0, 0.4, 100.0 + 100.0j))
        for model, lam, mu, delta, seed in cases:
            root, evaluations = _reference_newton(
                model, lam, mu, delta, seed, _default_tol(model, lam, mu, delta),
                max_iter=3)
            exp = _Counting(cmath, "exp")
            monkeypatch.setattr(stability, "cmath", exp)
            try:
                root_track(model, lam, mu, delta, seed, max_iter=3)
            except ConvergenceError:
                assert isinstance(root, str)
            monkeypatch.undo()
            assert evaluations > 1
            assert exp.calls == evaluations

    def test_crossing_rate_is_minus_r_delta_over_r_r(self):
        for model, lam, mu, delta, seed in _near_threshold_cases():
            _, _, _, q, p0_delta, q_delta = _coefficients(model, lam, mu, delta)
            r_delta = p0_delta + (q_delta - seed * q) * cmath.exp(-seed * delta)
            expected = -r_delta / _slope(model, lam, mu, delta, seed)
            assert crossing_rate(model, lam, mu, delta, seed) == expected

    def test_same_outcomes_as_the_per_model_loops(self):
        # a root within 1e-14 relative, or the same error; only an overflow
        # of e^(-r delta), an OverflowError before, is now a ConvergenceError
        cases = [case + (100,) for case in _near_threshold_cases()]
        cases += _random_cases()
        assert len(cases) >= 1000
        seen = {"root": 0, "trivial root": 0, "error": 0, "overflow": 0}
        for model, lam, mu, delta, seed, max_iter in cases:
            got = _tracked(model, lam, mu, delta, seed, max_iter=max_iter)
            try:
                expected = _per_model_root_track(model, lam, mu, delta, seed, max_iter)
            except OverflowError:
                assert got.startswith("the residual overflows at ")
                seen["overflow"] += 1
                continue
            if isinstance(expected, str):
                assert got == expected
                seen["error"] += 1
            elif model == MOVING_AVERAGE and abs(expected) < 1e-9:
                # the cleared form's trivial root r = 0, met within tol
                assert abs(got) < 1e-9
                seen["trivial root"] += 1
            else:
                assert abs(got - expected) <= 1e-14 * abs(expected)
                assert abs(crossing_rate(model, lam, mu, delta, got) -
                           _per_model_crossing_rate(model, lam, mu, delta, got)) <= \
                    1e-14 * abs(crossing_rate(model, lam, mu, delta, got))
                seen["root"] += 1
        assert min(seen.values()) >= 2, seen

    def test_rates_at_hopf_points_match_the_per_model_formulas(self):
        for model, lam, mu, _, seed in _near_threshold_cases():
            point = next(p for p in hopf_points(model, lam, mu, 300.0 / lam)
                         if 1j * p.omega == seed)
            got = crossing_rate(model, lam, mu, point.delta_cr, seed)
            expected = _per_model_crossing_rate(model, lam, mu, point.delta_cr, seed)
            assert abs(got - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-12, -math.inf])
    def test_tol_must_be_positive(self, tol, monkeypatch):
        # rejected with the other arguments, before any residual evaluation
        exp = _Counting(cmath, "exp")
        monkeypatch.setattr(stability, "cmath", exp)
        for model in (CONSTANT, MOVING_AVERAGE):
            with pytest.raises(ValueError, match="^tol must be > 0"):
                root_track(model, 10.0, 1.0, 0.4, 1j, tol=tol)
        assert exp.calls == 0

    def test_zero_delay_exact_root(self):
        root = root_track(CONSTANT, 10.0, 1.0, 0.0, -6.0)
        assert root == -6.0 + 0.0j

    def test_real_part_vanishes_at_threshold(self):
        for lam, mu in ((10.0, 1.0), (100.0, 5.0), (20.0, 2.0)):
            point = critical_delay_constant(lam, mu)
            root = root_track(CONSTANT, lam, mu, point.delta_cr, 1j * point.omega)
            assert abs(root.real) < 1e-7

    def test_crossing_direction_matches_crossing_rate(self):
        eps = 1e-3
        for lam, mu in ((10.0, 1.0), (100.0, 5.0), (20.0, 2.0), (5.0, 0.5)):
            point = critical_delay_constant(lam, mu)
            rate = crossing_rate(CONSTANT, lam, mu, point.delta_cr, 1j * point.omega)
            for d1 in (eps, -eps):
                root = root_track(CONSTANT, lam, mu, point.delta_cr + d1,
                                  1j * point.omega)
                assert math.copysign(1.0, root.real) == math.copysign(1.0, rate.real * d1)
                # near the threshold the tracked real part follows the rate
                assert root.real == pytest.approx(rate.real * d1, rel=0.1)

    def test_ma_track_finds_residual_root(self):
        point = critical_delay_ma(10.0, 1.0)[0]
        for d1 in (0.05, -0.05):
            root = root_track(MOVING_AVERAGE, 10.0, 1.0, point.delta_cr + d1,
                              1j * point.omega)
            assert abs(characteristic_residual_ma(root, 10.0, 1.0,
                                                  point.delta_cr + d1)) < 1e-12

    def test_ma_first_branch_crosses_left_to_right(self):
        # numerical arbiter for the crossing direction at the smallest branch:
        # the pair sits left of the axis below the threshold and right above it.
        # At lam / delta ~ 1e5 the default tolerance must scale with the
        # residual's terms for Newton to converge at all
        for lam, mu in ((10.0, 1.0), (1000.0, 1.0), (400.0, 2.0)):
            point = critical_delay_ma(lam, mu)[0]
            assert checks.crossing_signs(MOVING_AVERAGE, [point],
                                         1e-3 * point.delta_cr) == [1]

    def test_errors(self):
        with pytest.raises(ValueError):
            root_track("other", 10.0, 1.0, 0.1, 1j)
        with pytest.raises(ValueError):
            root_track(MOVING_AVERAGE, 10.0, 1.0, 0.0, 1j)
        with pytest.raises(ValueError):
            root_track(CONSTANT, 10.0, 1.0, 0.4, complex(math.nan, 0.0))
        with pytest.raises(ConvergenceError):
            root_track(CONSTANT, 10.0, 1.0, 0.4, 100.0 + 100.0j, max_iter=2)
        for delta in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^delta must be finite and >= 0"):
                root_track(CONSTANT, 10.0, 1.0, delta, 1j)
            with pytest.raises(ValueError, match="^delta must be finite and > 0"):
                root_track(MOVING_AVERAGE, 10.0, 1.0, delta, 1j)
        for model in (CONSTANT, MOVING_AVERAGE):
            # e^(2000) overflows at the seed
            with pytest.raises(ConvergenceError, match=r"^the residual overflows "
                                                       r"at \(-5000\+0j\)$"):
                root_track(model, 10.0, 1.0, 0.4, -5000.0)


class TestHopfCurve:
    def test_constant_curve_strictly_decreasing(self):
        for mu in (0.5, 1.0):
            points = hopf_curve(CONSTANT, mu, (2.5, 100.0), 50)
            assert len(points) == 50
            deltas = [p.delta_cr for p in points]
            assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_divergence_near_onset(self):
        # as lam -> 2 mu from above the critical delay grows without bound
        d = [critical_delay_constant(lam, 1.0).delta_cr for lam in (2.001, 2.01, 2.1)]
        assert d[0] > d[1] > d[2]
        assert d[0] > 20.0

    def test_skips_subcritical_rates(self):
        points = hopf_curve(CONSTANT, 1.0, (1.0, 3.0), 5)
        assert all(p.lam > 2.0 for p in points)
        assert 0 < len(points) < 5

    def test_ma_curve_only_validated_points(self):
        points = hopf_curve(MOVING_AVERAGE, 1.0, (2.5, 100.0), 20)
        assert points, "expected validated roots somewhere on the grid"
        assert all(p.validated and p.branch == 0 for p in points)

    @pytest.mark.parametrize("bounds", [(1.0, math.inf), (math.inf, math.inf),
                                        (math.nan, 10.0), (1.0, math.nan),
                                        (-math.inf, 1.0), (10.0, 1.0)])
    def test_lambda_range_must_be_finite_and_ordered(self, bounds):
        # rejected before the lambda grid is built, so numpy warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^lambda_range must satisfy "
                                                 "0 < lo <= hi < inf"):
                hopf_curve(CONSTANT, 1.0, bounds, 3)

    def test_grid_beyond_the_cap_fails_before_it_is_built(self, monkeypatch):
        # 10^9 points would take 8 GB and 10^9 queries: numpy is never asked
        linspace = _Counting(np, "linspace")
        monkeypatch.setattr(stability, "np", linspace)
        for n_points in (10 ** 9, stability._MAX_HOPF_POINTS + 1):
            with pytest.raises(ValueError, match=f"^n_points = {n_points} is more "
                                                 "than the 1000000 allowed$"):
                hopf_curve(CONSTANT, 1.0, (2.5, 10.0), n_points)
        assert linspace.calls == 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hopf_curve(CONSTANT, 1.0, (0.0, 10.0), 5)
        with pytest.raises(ValueError):
            hopf_curve(CONSTANT, 1.0, (2.5, 10.0), 0)
        with pytest.raises(ValueError):
            hopf_curve("other", 1.0, (2.5, 10.0), 5)


class TestTimeRescaling:
    """Metamorphic oracle: (lam, mu, delta) -> (c lam, c mu, delta / c) is
    the time rescaling t -> t / c, so Hopf points move to (delta_cr / c,
    c omega), crossing rates to c^2 rate, and the difference mode on the
    rescaled grid to the same values."""

    @pytest.mark.parametrize("model", [CONSTANT, MOVING_AVERAGE])
    @pytest.mark.parametrize("lam,mu", [(10.0, 1.0), (30.0, 2.0), (100.0, 5.0),
                                        (1000.0, 1.0), (3.5, 0.5)])
    @pytest.mark.parametrize("c", [0.1, 3.0, 10.0])
    def test_rescaled_inputs_give_rescaled_answers(self, model, lam, mu, c):
        threshold = analysis.analytic_threshold(model, lam, mu)
        # past the first threshold where there is one, so the kernel runs a cycle
        delta = 1.2 * threshold if threshold is not None else 1.0
        params = ModelParams(lam, mu, delta)
        devs = checks.scaling_deviations(model, params, c, 50.0 * delta, delta / 20.0)
        assert all(dev < 1e-12 for dev in devs), devs
