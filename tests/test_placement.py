import dataclasses
import math
import signal
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pinchopt import (
    AlgoConfig,
    AntennaLayout,
    PlacementError,
    QosTargets,
    SystemParams,
    UserPosition,
    bisection_solve,
    check_feasibility,
    circular_phase_error,
    evaluate_placement,
    fine_tune,
    initial_layout,
    iteration_bound,
    pinching_gain,
    snr_scale,
    wavelength,
)
from pinchopt.channel import phases_and_distances
from pinchopt.noma import evaluate_snrs, gain_snr
from pinchopt.oracle import batch_solution_metrics
from pinchopt import placement
from pinchopt.placement import (
    MAX_FINE_SHIFTS,
    _channel_scope,
    _ScopedTable,
    _tune_layout,
    CAP_SLACK,
    _antenna_cap,
    center_bounds,
    center_index,
    pinned_antennas,
)
from pinchopt.sim import sample_scenario, trial_rng

TWO_PI = 2 * math.pi


def composite_phases(params, layout, user):
    """Composite phase of every antenna of ``layout`` toward ``user``."""
    return phases_and_distances(params, user, np.asarray(layout.xs), layout.feed_x)[0]


class TestCircularPhaseError:
    def test_identical_phases(self):
        assert circular_phase_error(1.234, 1.234) == 0.0

    def test_full_wrap(self):
        assert circular_phase_error(0.0, TWO_PI) == pytest.approx(0.0, abs=1e-12)

    def test_wrap_around(self):
        # oracle: |1.9 * 2pi| mod 2pi = 0.9 * 2pi, circular distance 0.1 * 2pi
        assert circular_phase_error(1.9 * TWO_PI, 0.0) == pytest.approx(
            0.1 * TWO_PI, rel=1e-9
        )

    def test_result_range(self, rng):
        for _ in range(200):
            a, b = rng.uniform(-1e4, 1e4, size=2)
            e = circular_phase_error(a, b)
            assert 0.0 <= e <= math.pi + 1e-12

    def test_bit_equal_to_remainder_form(self, rng):
        # the phase differences fine-tuning meets run to several hundred rad
        a = rng.uniform(-800.0, 800.0, size=100_000)
        b = rng.uniform(-800.0, 800.0, size=100_000)
        m = np.abs(a - b) % TWO_PI
        expected = np.minimum(m, TWO_PI - m)
        assert np.array_equal(circular_phase_error(a, b), expected)
        assert circular_phase_error(a[0], b[0]) == expected[0]


class TestInitialLayout:
    def test_single_antenna(self):
        p = SystemParams(n_antennas=1)
        layout = initial_layout(p, 1.5, -5.0)
        assert layout.xs == (1.5,)

    def test_three_antennas_symmetric(self, params):
        layout = initial_layout(params, 0.0, -5.0)
        d = params.delta_min
        assert layout.xs == (-d, 0.0, d)
        layout.validate(params)

    def test_centre_too_close_to_edge(self, params):
        with pytest.raises(PlacementError):
            initial_layout(params, params.side_d / 2, -5.0)

    def test_even_count_centre_index(self):
        p = SystemParams(n_antennas=4)
        layout = initial_layout(p, 0.0, -5.0)
        assert layout.xs[center_index(4)] == 0.0
        layout.validate(p)

    def test_array_cannot_fit_region(self):
        p = SystemParams(side_d=0.02, n_antennas=5, delta_min=0.01)
        with pytest.raises(PlacementError):
            center_bounds(p)


class TestFineTune:
    def test_shift_budget_is_bounded_before_allocation(self, params):
        assert AlgoConfig(max_fine_shifts=MAX_FINE_SHIFTS).resolved_max_shifts(params) == (
            MAX_FINE_SHIFTS
        )
        # 5e-324 makes the default budget infinite: still a PlacementError
        for cfg in (AlgoConfig(max_fine_shifts=MAX_FINE_SHIFTS + 1),
                    AlgoConfig(fine_step=1e-16), AlgoConfig(fine_step=5e-324)):
            with pytest.raises(PlacementError, match="fine-tune budget"):
                cfg.resolved_max_shifts(params)
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        with pytest.raises(PlacementError, match="fine-tune budget"):
            bisection_solve(params, users, QosTargets(), AlgoConfig(fine_step=1e-16))

    def test_single_antenna_unchanged(self):
        p = SystemParams(n_antennas=1)
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        layout = initial_layout(p, 0.3, -5.0)
        assert fine_tune(p, layout, users, AlgoConfig()).xs == layout.xs

    def test_maximally_lax_tolerances_keep_layout(self, params):
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        cfg = AlgoConfig(delta1=math.pi, delta2=math.pi)
        layout = initial_layout(params, 0.0, -5.0)
        assert fine_tune(params, layout, users, cfg).xs == layout.xs

    def test_alignment_achieved_at_reference_setting(self, params):
        # dense enough steps and window for the joint tolerance bands
        lam = wavelength(params)
        cfg = AlgoConfig(delta1=0.5, delta2=0.02,
                         fine_step=lam / 400, max_fine_shifts=12000)
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        layout = fine_tune(params, initial_layout(params, 0.0, -5.0), users, cfg)
        layout.validate(params)
        for user, tol in zip(users, (cfg.delta1, cfg.delta2)):
            phases = composite_phases(params, layout, user)
            for n in (1, 2):
                err = circular_phase_error(phases[n], phases[n - 1])
                assert err <= tol + 1e-12

    def test_output_always_valid(self, params):
        for t in range(25):
            scen = sample_scenario(trial_rng(99, t), params.side_d, t)
            users = (scen.user1, scen.user2)
            centre = 0.5 * (scen.user1.x + scen.user2.x)
            lo, hi = center_bounds(params)
            centre = min(max(centre, lo), hi)
            layout = fine_tune(
                params, initial_layout(params, centre, -5.0), users, AlgoConfig()
            )
            layout.validate(params)

    def test_shift_budget_respected(self, params):
        cfg = AlgoConfig()
        step = cfg.resolved_fine_step(params)
        budget = cfg.resolved_max_shifts(params) * step
        for t in range(25):
            scen = sample_scenario(trial_rng(7, t), params.side_d, t)
            rigid = initial_layout(params, 0.0, -5.0)
            tuned = fine_tune(params, rigid, (scen.user1, scen.user2), cfg)
            for x0, x1 in zip(rigid.xs, tuned.xs):
                assert abs(x1 - x0) <= budget + 1e-12

    def test_first_fit_soundness(self, params):
        # if the returned position misses a tolerance, no earlier candidate
        # on the walk may have satisfied both tolerances with valid spacing
        cfg = AlgoConfig()
        step = cfg.resolved_fine_step(params)
        users_sets = [
            (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3)),
            (UserPosition(3.5, -2.0), UserPosition(-1.0, 1.1)),
            (UserPosition(1.0, 4.0), UserPosition(-3.0, -0.2)),
        ]
        for users in users_sets:
            rigid = initial_layout(params, 0.0, -5.0)
            tuned = fine_tune(params, rigid, users, cfg)
            c = center_index(params.n_antennas)
            for n, side in ((c + 1, +1), (c - 1, -1)):
                inner = tuned.xs[n - side]
                final = tuned.xs[n]
                # walk the candidates strictly before the returned one
                k = 0
                while True:
                    x = rigid.xs[n] + side * k * step
                    if (x - final) * side >= -1e-15:
                        break
                    if (x - inner) * side >= params.delta_min - 1e-12:
                        trial = AntennaLayout(
                            tuned.xs[:n] + (x,) + tuned.xs[n + 1:], tuned.feed_x
                        )
                        errs = [
                            circular_phase_error(
                                composite_phases(params, trial, u)[n],
                                composite_phases(params, tuned, u)[n - side],
                            )
                            for u in users
                        ]
                        assert not (
                            errs[0] <= cfg.delta1 and errs[1] <= cfg.delta2
                        ), "an earlier candidate already satisfied both tolerances"
                    k += 1


class TestTunedLayoutReuse:
    """fine_tune reuses layouts across power levels, never across scopes."""

    POWERS = (0.0, 20.0, 40.0)
    PAIRS = ((0.5, 0.02), (0.2, 0.02), (0.5, 100.0))

    @staticmethod
    def _evaluate_uncached(params, layout, users, qos):
        """evaluate_placement's chain with nothing kept between calls."""
        gains = np.array([pinching_gain(params, layout, u) for u in users])
        snr1, snr2 = gain_snr(snr_scale(params), gains).tolist()
        return evaluate_snrs(snr1, snr2, qos, layout.spacing_ok(params))

    @staticmethod
    def _cases(seed, count, params):
        """(users, rigid layouts at a few centres) per drawn scenario."""
        lo, hi = center_bounds(params)
        cases = []
        for t in range(count):
            scen = sample_scenario(trial_rng(seed, t), params.side_d, t)
            mid = 0.5 * (scen.user1.x + scen.user2.x)
            centres = [min(max(c, lo), hi) for c in (mid, scen.user2.x, 0.0)]
            layouts = [initial_layout(params, c, -params.side_d / 2) for c in centres]
            cases.append(((scen.user1, scen.user2), layouts))
        return cases

    def test_scope_covers_every_field_but_power(self, params):
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        layout = initial_layout(params, 0.0, -params.side_d / 2)
        channel_base = _channel_scope(params, users)

        def hit(p, u, c):
            """Whether fine_tune answers (p, u, c) with the entry just made
            for (params, users, cfg): _tune_layout makes a new object."""
            first = fine_tune(params, layout, users, cfg)
            return fine_tune(p, layout, u, c) is first

        # explicit fine-tune steps, so no field reaches the table only
        # through the wavelength-derived defaults
        for cfg in (AlgoConfig(), AlgoConfig(fine_step=1e-4, max_fine_shifts=50)):
            for f in dataclasses.fields(SystemParams):
                value = getattr(params, f.name)
                bumped = value + 2 if isinstance(value, int) else value * 1.25
                other = dataclasses.replace(params, **{f.name: bumped})
                power = f.name in ("pt_dbm", "noise_dbm")
                # both tables key on the channel scope; a layout of another
                # length is never tuned for the same key anyway
                assert (_channel_scope(other, users) == channel_base) == power, f.name
                if f.name != "n_antennas":
                    assert hit(other, users, cfg) == power, f.name
            for change in ({"delta1": 0.3}, {"delta2": 0.3}, {"fine_step": 2e-4},
                           {"max_fine_shifts": 70}):
                assert not hit(params, users, dataclasses.replace(cfg, **change))
            assert hit(params, users, dataclasses.replace(cfg, epsilon=1e-3))
            swapped = (users[0], UserPosition(-2.0, 0.4))
            assert not hit(params, swapped, cfg)
            assert _channel_scope(params, swapped) != channel_base

    def test_reused_across_power_levels(self, params):
        users, layouts = self._cases(11, 1, params)[0]
        cfg = AlgoConfig()
        first = fine_tune(params, layouts[0], users, cfg)
        again = fine_tune(dataclasses.replace(params, pt_dbm=0.0, noise_dbm=-80.0),
                          layouts[0], users, cfg)
        assert again is first

    def test_matches_uncached_over_interleaved_scopes(self, params):
        cases = self._cases(12, 3, params)
        calls = [
            (dataclasses.replace(params, pt_dbm=pt), users, layout,
             AlgoConfig(delta1=d1, delta2=d2))
            for users, layouts in cases
            for d1, d2 in self.PAIRS
            for pt in self.POWERS
            for layout in layouts
        ]
        order = np.random.default_rng(5).permutation(len(calls))
        qos = QosTargets()
        # scenario-major runs (table reused) then shuffled calls (table swapped)
        for p, users, layout, cfg in calls + [calls[i] for i in order]:
            tuned = fine_tune(p, layout, users, cfg)
            assert tuned == _tune_layout(p, layout, users, cfg)
            for evaluated in (tuned, layout):
                assert evaluate_placement(p, evaluated, users, qos) == (
                    self._evaluate_uncached(p, evaluated, users, qos)
                )

    def test_threads_on_different_scenarios(self, params):
        cfg = AlgoConfig()
        qos = QosTargets()
        # the same rigid layouts for every scenario, so a table holding
        # another scenario's entries would answer the lookup
        layouts = [initial_layout(params, c, -5.0) for c in (-1.0, 0.0, 1.0)]
        cases = [(users, layouts) for users, _ in self._cases(13, 4, params)]
        expected = [
            [_tune_layout(params, layout, users, cfg) for layout in layouts]
            for users, _ in cases
        ]
        powers = [dataclasses.replace(params, pt_dbm=pt) for pt in self.POWERS]
        # per scenario and power: uncached results for its tuned layouts and
        # for the rigid ones, which every scenario shares as keys
        evaluated = [
            [
                [self._evaluate_uncached(p, layout, users, qos) for layout in want + layouts]
                for p in powers
            ]
            for (users, _), want in zip(cases, expected)
        ]
        errors = []
        start = threading.Barrier(len(cases))

        def work(users, layouts, want, want_eval):
            try:
                start.wait(timeout=60)
                for _ in range(20):
                    for p, want_at_p in zip(powers, want_eval):
                        for layout, tuned in zip(layouts, want):
                            got = fine_tune(p, layout, users, cfg)
                            if got != tuned:
                                errors.append((users, layout.xs, got.xs, tuned.xs))
                        for layout, ev in zip(want + layouts, want_at_p):
                            got_ev = evaluate_placement(p, layout, users, qos)
                            if got_ev != ev:
                                errors.append((users, layout.xs, got_ev, ev))
            except Exception as exc:  # would not reach the test from a thread
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(*case, want, want_eval))
                for case, want, want_eval in zip(cases, expected, evaluated)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert errors == []


    @settings(max_examples=15, deadline=None)
    @given(
        side_d=st.sampled_from((10.0, 30.0)),
        coords=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
        powers=st.lists(st.floats(-10.0, 40.0), min_size=1, max_size=3),
        pairs=st.lists(
            st.tuples(st.sampled_from((0.2, 0.5, 3.2)), st.sampled_from((0.02, 0.3, 100.0))),
            min_size=1, max_size=2,
        ),
    )
    def test_warm_tables_match_reset_tables(self, side_d, coords, powers, pairs):
        x1, y1, x2, y2 = (c * side_d for c in coords)
        assume(x1 != x2 and abs(y2) < abs(y1))
        users = (UserPosition(x1, y1), UserPosition(x2, y2))
        qos = QosTargets()
        runs = [
            (SystemParams(side_d=side_d, pt_dbm=pt), AlgoConfig(delta1=d1, delta2=d2))
            for d1, d2 in pairs
            for pt in powers
        ]
        # one scenario's solves back to back, the tables warm from the first
        warm = [bisection_solve(p, users, qos, cfg) for p, cfg in runs]
        for (p, cfg), want in zip(runs, warm):
            with mock.patch.object(placement, "_tuned_layouts", _ScopedTable()), \
                    mock.patch.object(placement, "_channel_terms", _ScopedTable()):
                assert bisection_solve(p, users, qos, cfg) == want


coords = st.floats(min_value=-5.0, max_value=5.0)


@st.composite
def mirror_cases(draw):
    """An odd-N geometry, tolerance pair, users, feed and a centre that is
    one of the two ``center_bounds`` ends or lies between them."""
    params = SystemParams(n_antennas=draw(st.sampled_from((1, 3, 5))))
    lo, hi = center_bounds(params)
    centre = draw(st.sampled_from((lo, hi)) | st.floats(min_value=lo, max_value=hi))
    delta1, delta2 = draw(st.sampled_from(TestTunedLayoutReuse.PAIRS))
    users = tuple(UserPosition(draw(coords), draw(coords)) for _ in range(2))
    return params, AlgoConfig(delta1=delta1, delta2=delta2), users, centre, draw(coords)


def mirrored_layout(layout):
    return AntennaLayout(tuple(-x for x in reversed(layout.xs)), -layout.feed_x)


@given(mirror_cases())
@settings(max_examples=150, deadline=None)
def test_fine_tune_mirror_symmetric(case):
    """Mirroring users, feed and layout (x -> -x) mirrors the tuned layout
    exactly, which lets one outward-coordinate body serve both sides."""
    params, cfg, users, centre, feed = case
    layout = initial_layout(params, centre, feed)
    mirror_users = tuple(UserPosition(-u.x, u.y) for u in users)
    tuned = fine_tune(params, layout, users, cfg)
    mirror = fine_tune(params, mirrored_layout(layout), mirror_users, cfg)
    assert mirror == mirrored_layout(tuned)


class TestScopedTable:
    """The one-scope table on its own, without threads or timing."""

    USERS = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))

    @staticmethod
    def _never():
        raise AssertionError("computed again: the lookup should have hit")

    def test_compute_that_changes_scope_keeps_its_entry_out(self, params):
        other = dataclasses.replace(params, side_d=20.0)
        table = _ScopedTable()

        def compute():
            # a nested lookup in another scope swaps the state mid-call
            assert table.lookup(other, self.USERS, "inner", lambda: "other") == "other"
            return "first"

        assert table.lookup(params, self.USERS, "key", compute) == "first"
        assert table.lookup(other, self.USERS, "inner", self._never) == "other"
        assert table.lookup(other, self.USERS, "key", lambda: "fresh") == "fresh"

    def test_equal_distinct_arguments_hit(self, params):
        table = _ScopedTable()
        value = object()
        assert table.lookup(params, self.USERS, "key", lambda: value) is value
        copies = (dataclasses.replace(params),
                  tuple(UserPosition(u.x, u.y) for u in self.USERS))
        assert copies[0] is not params and copies[1] is not self.USERS
        assert table.lookup(*copies, "key", self._never) is value
        # the powers are not part of the scope
        louder = dataclasses.replace(params, pt_dbm=0.0, noise_dbm=-80.0)
        assert table.lookup(louder, self.USERS, "key", self._never) is value

    def test_other_scope_never_returns_stale_entry(self, params):
        others = [
            (dataclasses.replace(params, **{name: value}), self.USERS)
            for name, value in (("fc", 30e9), ("n_eff", 1.5), ("h", 2.0),
                                ("side_d", 20.0), ("n_antennas", 5),
                                ("delta_min", 0.01))
        ] + [
            (params, (self.USERS[1], self.USERS[0])),
            (params, (self.USERS[0], UserPosition(-2.0, 0.4))),
        ]
        table = _ScopedTable()
        for p, users in others:
            table.lookup(params, self.USERS, "key", lambda: "base")
            assert table.lookup(p, users, "key", lambda: "new") == "new"
        # back in the first scope, its entries are gone, never mixed in
        assert table.lookup(params, self.USERS, "key", lambda: "again") == "again"


class TestPinnedAntennas:
    def test_on_cap_pinned_and_just_inside_not(self, params):
        # 1e-10 m is far above CAP_SLACK but inside a 1e-9 relative
        # tolerance at a 5 m cap
        right = _antenna_cap(params, 2, +1)
        left = _antenna_cap(params, 0, -1)
        assert 1e-10 > 100 * CAP_SLACK
        on_cap = AntennaLayout((left, 0.0, right), -params.side_d / 2)
        assert pinned_antennas(params, on_cap) == (0, 2)
        inside = AntennaLayout((left + 1e-10, 0.0, right - 1e-10), -params.side_d / 2)
        assert pinned_antennas(params, inside) == ()


class TestBisectionSolve:
    def test_degenerate_scenario_rejected(self, params, qos, algo_cfg):
        users = (UserPosition(1.0, 2.0), UserPosition(1.0, 0.5))
        with pytest.raises(PlacementError):
            bisection_solve(params, users, qos, algo_cfg)

    def test_non_finite_coordinates_rejected(self, params, qos, algo_cfg):
        users = (UserPosition(math.inf, 2.0), UserPosition(1.0, 0.5))
        with pytest.raises(PlacementError):
            bisection_solve(params, users, qos, algo_cfg)

    @pytest.mark.parametrize("x, y", [(1e300, 2.0), (1e6, 1e6), (5.0 + 1e-9, 2.0),
                                      (1.0, math.nan), (True, 2.0), ("1.0", 2.0)])
    def test_users_outside_region_rejected(self, params, qos, algo_cfg, x, y):
        users = (UserPosition(x, y), UserPosition(-1.0, 0.5))
        with pytest.raises(PlacementError, match="is not a number in"):
            bisection_solve(params, users, qos, algo_cfg)

    def test_users_on_region_edge_accepted(self, params, qos, algo_cfg):
        half = params.side_d / 2
        users = (UserPosition(half, -half), UserPosition(-half, 0.5))
        assert bisection_solve(params, users, qos, algo_cfg).iterations >= 1

    def test_feed_point_is_region_left_edge(self, params, qos, algo_cfg):
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        sol = bisection_solve(params, users, qos, algo_cfg)
        assert sol.layout.feed_x == -params.side_d / 2
        assert sol.feasible_found

    def test_single_antenna_converges_to_grid_optimum(self):
        p = SystemParams(n_antennas=1)
        users = (UserPosition(3.1, 2.2), UserPosition(-1.7, 0.4))
        qos = QosTargets(0.0, 0.0)
        cfg = AlgoConfig()
        sol = bisection_solve(p, users, qos, cfg)
        assert sol.feasible_found

        def grid_argmax(step, span):
            grid = users[1].x + step * np.arange(-round(span / step), round(span / step) + 1)
            rates, feas, _ = batch_solution_metrics(
                p, grid[:, None], -p.side_d / 2, users, qos
            )
            rates = np.where(feas, rates, -np.inf)
            return float(grid[np.argmax(rates)])

        # the coarse reference grid locates the optimum up to its own step
        coarse = grid_argmax(wavelength(p) / 10, 1.0)
        assert abs(sol.layout.xs[0] - coarse) <= wavelength(p) / 20 + 2 * cfg.epsilon
        # a bisection-resolution grid pins it down to the stated tolerance
        fine = grid_argmax(cfg.epsilon / 2, 0.005)
        assert abs(sol.layout.xs[0] - fine) <= 2 * cfg.epsilon

    def test_iteration_count_within_bound(self, params, qos, algo_cfg):
        bound = iteration_bound(params, algo_cfg)
        for t in range(20):
            scen = sample_scenario(trial_rng(3, t), params.side_d, t)
            sol = bisection_solve(params, (scen.user1, scen.user2), qos, algo_cfg)
            assert 1 <= sol.iterations <= bound

    def test_epsilon_below_float_spacing_terminates(self, params, qos):
        # these scenarios never returned when the midpoint rounded onto an
        # endpoint and the interval stopped shrinking
        cfg = AlgoConfig(epsilon=1e-300)

        def timeout(signum, frame):
            raise TimeoutError("bisection_solve did not return")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(30)
        try:
            for seed, t in ((7, 1), (2024, 39)):
                scen = sample_scenario(trial_rng(seed, t), params.side_d, t)
                sol = bisection_solve(params, (scen.user1, scen.user2), qos, cfg)
                assert 1 <= sol.iterations <= iteration_bound(params, cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    def test_feasible_solutions_pass_full_check(self, params, qos, algo_cfg):
        for t in range(15):
            scen = sample_scenario(trial_rng(5, t), params.side_d, t)
            sol = bisection_solve(params, (scen.user1, scen.user2), qos, algo_cfg)
            sol.layout.validate(params)
            if sol.feasible_found:
                g1 = pinching_gain(params, sol.layout, scen.user1)
                g2 = pinching_gain(params, sol.layout, scen.user2)
                report = check_feasibility(params, sol.layout, (g1, g2), sol.split, qos)
                assert report.overall
                rho = snr_scale(params)
                assert sol.rates.sum_rate == pytest.approx(
                    math.log2(1 + rho * abs(g1) ** 2 * sol.split.alpha1
                              / (rho * abs(g1) ** 2 * sol.split.alpha2 + 1))
                    + math.log2(1 + sol.split.alpha2 * rho * abs(g2) ** 2),
                    rel=1e-12,
                )

    def test_unreachable_qos_returns_infeasible(self, params, algo_cfg):
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        sol = bisection_solve(params, users, QosTargets(50.0, 0.5), algo_cfg)
        assert not sol.feasible_found
        assert sol.rates.sum_rate == 0.0
        sol.layout.validate(params)

    def test_deterministic(self, params, qos, algo_cfg):
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        a = bisection_solve(params, users, qos, algo_cfg)
        b = bisection_solve(params, users, qos, algo_cfg)
        assert a == b
