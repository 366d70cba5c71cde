import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pinchopt.noma import (
    ALPHA_TOL,
    MAX_RATE,
    RATE_TOL,
    _alpha2_raw,
    evaluate_snrs,
    evaluate_snrs_batch,
    gain_snr,
    noma_rates,
    qos_verdicts,
)

from pinchopt import (
    AntennaLayout,
    PowerSplit,
    QosTargets,
    SystemParams,
    check_feasibility,
    optimal_alpha2,
    rate_report,
    snr_scale,
)

from grid_reference import sum_rate_objective

snrs = st.floats(min_value=1e-6, max_value=1e9)
alphas = st.floats(min_value=0.0, max_value=0.5)


class TestSnrScale:
    def test_reference_setting(self, params):
        # 1 W over 3 antennas against 1e-12 W noise
        assert snr_scale(params) == pytest.approx(1.0 / 3e-12, rel=1e-12)

    def test_unit_when_power_equals_noise(self):
        p = SystemParams(n_antennas=1, pt_dbm=-20.0, noise_dbm=-20.0)
        assert snr_scale(p) == pytest.approx(1.0, rel=1e-12)

    def test_halves_when_antennas_double(self, params):
        p6 = SystemParams(n_antennas=6)
        assert snr_scale(p6) == pytest.approx(snr_scale(params) / 2.0, rel=1e-12)


# a complex part: zero of either sign, subnormal, ordinary or huge, up to
# where |g|^2 stays finite (a Python float's ** raises on overflow)
GAIN_PARTS = (st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 9e153))
              | st.floats(min_value=-1e-300, max_value=1e-300)
              | st.floats(min_value=-9e153, max_value=9e153))


@given(st.lists(st.builds(complex, GAIN_PARTS, GAIN_PARTS), min_size=1, max_size=6))
@settings(max_examples=250, derandomize=True)
@example([complex(3.0, 4.0), complex(-0.0, -0.0), complex(1e-160, -3e-161)])
def test_gain_snr_scalar_form(gains):
    """abs(g) ** 2 on Python complexes is gain_snr at unit rho, bit for bit:
    both take C's hypot, then C's pow."""
    g = np.array(gains)
    want = gain_snr(1.0, g).tolist()
    assert [(abs(z) ** 2).hex() for z in g.tolist()] == [x.hex() for x in want]


class TestRates:
    """r1 is the weak user's rate, r2 the strong user's after SIC and
    r2_to_1 the strong user's decoding of the weak user's signal."""

    def test_weak_user_unit_rate(self):
        split = PowerSplit.from_alpha2(1.0 / 3.0)
        assert rate_report(3.0, 3.0, split).r1 == pytest.approx(1.0, rel=1e-12)

    def test_weak_user_zero_channel(self):
        assert rate_report(0.0, 0.0, PowerSplit.from_alpha2(0.3)).r1 == 0.0

    def test_weak_user_oma_limit(self):
        split = PowerSplit.from_alpha2(0.0)
        assert rate_report(7.0, 7.0, split).r1 == pytest.approx(math.log2(8.0), rel=1e-12)

    def test_sic_rate_value(self):
        # oracle: log2(1 + 6/4) = log2(2.5)
        split = PowerSplit.from_alpha2(1.0 / 3.0)
        assert rate_report(9.0, 9.0, split).r2_to_1 == pytest.approx(
            1.3219280948873624, rel=1e-12
        )

    def test_sic_equals_weak_formula(self):
        split = PowerSplit.from_alpha2(0.21)
        r1, _, r2_to_1 = noma_rates(4.2, 4.2, split.alpha1, split.alpha2)
        assert r2_to_1 == r1

    def test_sic_interference_limited_ceiling(self):
        split = PowerSplit.from_alpha2(0.25)
        ceiling = math.log2(1.0 + split.alpha1 / split.alpha2)
        assert rate_report(1e15, 1e15, split).r2_to_1 == pytest.approx(ceiling, rel=1e-6)

    def test_strong_user_value(self):
        split = PowerSplit.from_alpha2(1.0 / 3.0)
        assert rate_report(9.0, 9.0, split).r2 == pytest.approx(2.0, rel=1e-12)

    def test_strong_user_no_power(self):
        assert rate_report(9.0, 9.0, PowerSplit.from_alpha2(0.0)).r2 == 0.0

    def test_strong_user_zero_channel(self):
        assert rate_report(0.0, 0.0, PowerSplit.from_alpha2(0.4)).r2 == 0.0


def test_rate_targets_met_at_their_slack():
    qos = QosTargets(1.0, 2.0)
    assert qos_verdicts(1.0 - RATE_TOL, 2.0 - RATE_TOL, 1.0 - RATE_TOL, qos) == (True,) * 3


class TestObjective:
    def test_reference_point(self):
        # oracle: 3 + (2/3)(1 + 3)(3)/(2) = 7, and log2(8) = 3 = R1 + R2
        f = sum_rate_objective(3.0, 9.0, 1.0 / 3.0)
        assert f == pytest.approx(7.0, rel=1e-12)
        split = PowerSplit.from_alpha2(1.0 / 3.0)
        assert math.log2(1.0 + f) == pytest.approx(
            rate_report(3.0, 9.0, split).sum_rate, rel=1e-12
        )

    def test_alpha2_zero_boundary(self):
        assert sum_rate_objective(5.5, 9.0, 0.0) == pytest.approx(5.5, rel=1e-12)

    def test_zero_channels(self):
        assert sum_rate_objective(0.0, 0.0, 0.3) == 0.0

    @given(snrs, snrs, alphas)
    def test_sum_rate_identity(self, snr1, snr2, alpha2):
        split = PowerSplit.from_alpha2(alpha2)
        lhs = math.log2(1.0 + sum_rate_objective(snr1, snr2, alpha2))
        rhs = rate_report(snr1, snr2, split).sum_rate
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_conditional_monotonicity_grid(self, rng):
        grid = np.linspace(0.0, 0.5, 200)
        for _ in range(100):
            snr1 = 10 ** rng.uniform(-2, 4)
            snr2 = snr1 * 10 ** rng.uniform(0, 3)
            f = np.array([sum_rate_objective(snr1, snr2, a) for a in grid])
            assert np.all(np.diff(f) >= -1e-12)


class TestOptimalAlpha2:
    def test_interior_solution_meets_target_exactly(self):
        alpha2, clamped = optimal_alpha2(3.0, QosTargets(1.0, 0.5))
        assert clamped == "none"
        assert alpha2 == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rate_report(3.0, 3.0, PowerSplit.from_alpha2(alpha2)).r1 == pytest.approx(
            1.0, abs=1e-12
        )

    def test_vanishing_numerator_clamps_low(self):
        alpha2, clamped = optimal_alpha2(2**0.5 - 1.0, QosTargets(0.5, 0.0))
        assert (alpha2, clamped) == (0.0, "low")

    def test_ample_headroom_clamps_high(self):
        # oracle: raw value (10 + 1 - 2**0.5) / (10 * 2**0.5) = 0.6778 > 0.5
        alpha2, clamped = optimal_alpha2(10.0, QosTargets(0.5, 0.0))
        assert (alpha2, clamped) == (0.5, "high")
        # (1e17 + 1 - 2) / (1e17 * 2) rounds to 0.5 exactly: the clamp is inclusive
        assert _alpha2_raw(1e17, QosTargets(r1_min=1.0)) == 0.5
        assert optimal_alpha2(1e17, QosTargets(r1_min=1.0)) == (0.5, "high")

    def test_zero_channel_degenerates(self):
        assert optimal_alpha2(0.0, QosTargets(0.5, 0.5)) == (0.0, "low")

    @given(st.floats(min_value=1e-3, max_value=1e8),
           st.floats(min_value=0.01, max_value=4.0))
    @settings(max_examples=200)
    def test_unclamped_solution_is_tight(self, snr1, r1_min):
        alpha2, clamped = optimal_alpha2(snr1, QosTargets(r1_min, 0.0))
        if clamped == "none":
            split = PowerSplit.from_alpha2(alpha2)
            assert rate_report(snr1, snr1, split).r1 == pytest.approx(r1_min, abs=1e-9)

    def test_sic_dominance(self, rng):
        # whenever snr2 >= snr1 the SIC stage supports at least the weak rate
        for _ in range(300):
            snr1 = 10 ** rng.uniform(-3, 6)
            snr2 = snr1 * 10 ** rng.uniform(0, 4)
            split = PowerSplit.from_alpha2(rng.uniform(0, 0.5))
            rates = rate_report(snr1, snr2, split)
            assert rates.r2_to_1 >= rates.r1 - 1e-12


class TestPowerSplit:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError):
            PowerSplit(0.7, 0.6)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PowerSplit(1.2, -0.2)

    def test_sum_beyond_tolerance_rejected(self):
        with pytest.raises(ValueError):
            PowerSplit(0.5, 0.5 + 2e-12)
        assert PowerSplit.from_alpha2(0.25) == (0.75, 0.25)

    def test_candidate_splits_above_half_are_constructible(self):
        # feasibility of the NOMA ordering is judged by check_feasibility,
        # not at construction time
        split = PowerSplit(0.4, 0.6)
        assert split.alpha2 == 0.6


class TestCheckFeasibility:
    @staticmethod
    def _unit_rho_params():
        # Pt == noise and N = 1 make rho exactly 1, so |g|^2 is the SNR
        return SystemParams(n_antennas=1, pt_dbm=0.0, noise_dbm=0.0)

    def test_reference_configuration_all_pass(self):
        p = self._unit_rho_params()
        layout = AntennaLayout(xs=(0.0,), feed_x=0.0)
        gains = (complex(math.sqrt(3.0)), complex(3.0))
        report = check_feasibility(
            p, layout, gains, PowerSplit.from_alpha2(1.0 / 3.0), QosTargets(1.0, 0.5)
        )
        assert report.overall
        assert report.qos_ok

    def test_oversized_alpha2_fails_ordering(self):
        p = self._unit_rho_params()
        layout = AntennaLayout(xs=(0.0,), feed_x=0.0)
        gains = (complex(1.0), complex(2.0))
        report = check_feasibility(
            p, layout, gains, PowerSplit(0.4, 0.6), QosTargets(0.0, 0.0)
        )
        assert not report.order_alpha
        assert not report.overall

    def test_equal_split_boundary_is_accepted(self):
        p = self._unit_rho_params()
        layout = AntennaLayout(xs=(0.0,), feed_x=0.0)
        gains = (complex(100.0), complex(200.0))
        # the order's bound takes the split's ALPHA_TOL slack as well
        for split in (PowerSplit.from_alpha2(0.5), PowerSplit(0.5 - ALPHA_TOL, 0.5 + ALPHA_TOL)):
            report = check_feasibility(p, layout, gains, split, QosTargets(0.0, 0.0))
            assert report.order_alpha

    def test_wrong_channel_order_flagged(self):
        p = self._unit_rho_params()
        layout = AntennaLayout(xs=(0.0,), feed_x=0.0)
        gains = (complex(3.0), complex(1.0))
        report = check_feasibility(
            p, layout, gains, PowerSplit.from_alpha2(0.3), QosTargets(0.0, 0.0)
        )
        assert not report.order_channel

    def test_spacing_violation_flagged(self, params):
        layout = AntennaLayout(
            xs=(0.0, params.delta_min / 3, params.delta_min), feed_x=0.0
        )
        report = check_feasibility(
            params,
            layout,
            (complex(1.0), complex(2.0)),
            PowerSplit.from_alpha2(0.4),
            QosTargets(0.0, 0.0),
        )
        assert not report.spacing


@st.composite
def batch_cases(draw):
    """Rate targets and SNR pairs, each with a spacing verdict, at which
    :func:`evaluate_snrs_batch` must equal :func:`evaluate_snrs`: zero,
    subnormal and huge SNRs, and weak-user SNRs at which the unclamped alpha2
    is exactly 0 (2**r1_min - 1 at an integer target) or exactly 0.5 (at
    r1_min = 1, any SNR of 2**55 or more, as (s + 1 - 2) / 2s then rounds to
    s / 2s)."""
    r1 = draw(st.one_of(st.floats(0.0, MAX_RATE), st.integers(0, 200).map(float)))
    r2 = draw(st.floats(0.0, MAX_RATE))
    gate = 2.0**r1
    plain = st.one_of(st.just(0.0), st.floats(5e-324, 2.2250738585072014e-308),
                      st.floats(0.0, 1e300))
    weak = st.one_of(plain, st.just(gate - 1.0),
                     st.floats(2.0**55, 1e300) if r1 == 1.0 else plain)
    pairs = draw(st.lists(st.tuples(weak, plain, st.booleans()), min_size=1, max_size=40))
    return QosTargets(r1, r2), pairs


def _bits(x) -> str:
    return float(x).hex()


class TestBatchChain:
    @given(batch_cases())
    @example((QosTargets(1.0, 0.5),
              [(2.0**55, 2.0**60, True), (1.0, 3.0, False), (0.0, 1.0, True)]))
    @example((QosTargets(2.0, 0.0),
              [(3.0, 3.0, True), (3.0, 3.0, False), (3.0, 2.0, True), (5e-324, 0.0, False)]))
    @example((QosTargets(MAX_RATE, MAX_RATE),
              [(1e300, 1e300, True), (2.0**MAX_RATE - 1.0, 0.0, True)]))
    # raw alpha2 is 0/0 = NaN at r1_min = 0 with a weak SNR of 0
    @example((QosTargets(0.0, 0.5), [(0.0, 1.0, True), (0.0, 0.0, False), (2.0, 1.0, True)]))
    # raw alpha2 overflows to -inf at a subnormal weak SNR
    @example((QosTargets(3.0, 0.5), [(5e-324, 1.0, True), (1e-320, 0.0, True), (7.0, 9.0, False)]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_batch_equals_scalar_bit_for_bit(self, case):
        qos, pairs = case
        weak, strong, spacing = (np.array(column) for column in zip(*pairs))
        rates, qos_ok, overall = evaluate_snrs_batch(weak, strong, qos, spacing)
        for i, (s1, s2, spacing_i) in enumerate(pairs):
            _, report_rates, report, _ = evaluate_snrs(s1, s2, qos, spacing_i)
            assert _bits(rates[i]) == _bits(report_rates.sum_rate)
            assert bool(qos_ok[i]) is report.qos_ok
            assert bool(overall[i]) is report.overall

    @given(batch_cases(), st.lists(st.sampled_from((0.0, 5e-324, 1.0)) | st.floats(0.0, 1.0),
                                   min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rows_equal_one_row_calls_bit_for_bit(self, case, scales):
        """A (P, L) call, with one (L,) spacing array for every row, equals P
        one-row calls, bit for bit: the SNR pairs scaled by P factors, as a
        replayed walk evaluates its layouts at P powers."""
        qos, pairs = case
        weak, strong, spacing = (np.array(column) for column in zip(*pairs))
        weak2, strong2 = np.multiply.outer(scales, weak), np.multiply.outer(scales, strong)
        got = evaluate_snrs_batch(weak2, strong2, qos, spacing)
        assert all(a.shape == weak2.shape for a in got)
        for i in range(len(scales)):
            want = evaluate_snrs_batch(weak2[i], strong2[i], qos, spacing)
            for a, b in zip(got, want):
                assert a[i].dtype == b.dtype and a[i].tobytes() == b.tobytes()

    def test_raw_alpha2_edges_are_drawn(self):
        """The edge draws above do hit the clamp boundaries exactly."""
        assert _alpha2_raw(2.0**55, QosTargets(1.0, 0.0)) == 0.5
        assert _alpha2_raw(2.0**5 - 1.0, QosTargets(5.0, 0.0)) == 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            assert np.isnan(_alpha2_raw(np.array(0.0), QosTargets(0.0, 0.0)))
            assert (_alpha2_raw(np.array([5e-324, 1e-320]), QosTargets(3.0, 0.0)) == -np.inf).all()
