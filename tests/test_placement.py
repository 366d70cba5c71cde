import dataclasses
import math
import signal
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pinchopt import (
    AlgoConfig,
    AntennaLayout,
    PlacementError,
    QosTargets,
    SystemParams,
    UserPosition,
    bisection_solve,
    check_feasibility,
    evaluate_placement,
    fine_tune,
    initial_layout,
    pinching_gain,
    snr_scale,
    wavelength,
)
from pinchopt.channel import (
    FC_RANGE_HZ,
    MAX_N_EFF,
    MAX_SIZE_M,
    phase_turns_and_distances,
    phases_and_distances,
)
from pinchopt.noma import evaluate_snrs, evaluate_snrs_batch, gain_snr
from pinchopt.oracle import OracleConfig, batch_solution_metrics
from pinchopt import channel, placement, sim
from pinchopt.placement import (
    MAX_FINE_SHIFTS,
    _tune_layout,
    _tune_setup,
    CAP_SLACK,
    _antenna_cap,
    center_bounds,
    center_index,
    iteration_bound,
    new_tables,
    pinned_antennas,
    placement_solution,
)
from pinchopt.sim import sample_scenario, trial_rng

import grid_reference
from grid_reference import circular_phase_error

TWO_PI = 2 * math.pi


def composite_phases(params, layout, user):
    """Composite phase of every antenna of ``layout`` toward ``user``."""
    return phases_and_distances(params, user, np.asarray(layout.xs), layout.feed_x)[0]


def run_threads(work, cases):
    """Run ``work(*case, errors)`` for each case on its own thread, started
    together at a 1 us switch interval, and return what they appended to
    ``errors`` (an exception raised in a thread lands there too)."""
    errors = []
    start = threading.Barrier(len(cases))

    def guarded(*case):
        try:
            start.wait(timeout=60)
            work(*case, errors)
        except Exception as exc:  # would not reach the test from a thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=case) for case in cases]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    return errors


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
    """fine_tune reuses layouts across power levels within one set of tables."""

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

    def test_setup_built_once_per_scope(self, params):
        users, layouts = self._cases(14, 1, params)[0]
        built = []

        def setup(p, c):
            built.append((p, c.fine_step, c.max_fine_shifts))
            return _tune_setup(p, c)

        cfg, over = AlgoConfig(), AlgoConfig(fine_step=1e-16)
        tables, other_tables = new_tables(), new_tables()
        with mock.patch.object(placement, "_tune_setup", setup):
            for p in (params, dataclasses.replace(params, pt_dbm=0.0)):
                for layout in layouts:
                    for delta2 in (0.02, 0.2):
                        fine_tune(p, layout, users, dataclasses.replace(cfg, delta2=delta2),
                                  tables)
            assert len(built) == 1
            fine_tune(params, layouts[0], users, AlgoConfig(fine_step=1e-4, max_fine_shifts=50),
                      tables)
            assert len(built) == 2 and built[1] == (params, 1e-4, 50)
            other = (users[0], UserPosition(users[1].x, users[1].y / 2))
            tuned = fine_tune(params, layouts[0], other, cfg, other_tables)
            # the same step and budget on another scenario's tables: built again
            assert len(built) == 3 and built[2] == built[0]
            assert tuned == _tune_layout(params, layouts[0], other, cfg, other_tables)
            setup = other_tables[0][None, None]
            assert setup[1:3] == (float(setup[0][-1]),
                                  params.delta_min - AntennaLayout.SPACING_SLACK)
            # a budget over its cap is refused on every call, and leaves no entry
            for _ in range(2):
                with pytest.raises(PlacementError, match="fine-tune budget"):
                    fine_tune(params, layouts[0], other, over, other_tables)
            assert len(built) == 5
            assert (over.fine_step, None) not in other_tables[0]
            # without tables, each call builds its own
            for _ in range(2):
                fine_tune(params, layouts[0], users, cfg)
            assert len(built) == 7
        offsets = _tune_setup(params, AlgoConfig(fine_step=1e-4, max_fine_shifts=10))[0]
        assert not offsets.flags.writeable and np.array_equal(offsets, 1e-4 * np.arange(11))
        # each entry is (side, antenna, outward cap), the right side first
        four = dataclasses.replace(params, n_antennas=4)
        assert _tune_setup(four, AlgoConfig())[3] == (
            ((+1, 2, _antenna_cap(four, 2, +1)), (-1, 0, -_antenna_cap(four, 0, -1))),
            ((+1, 3, _antenna_cap(four, 3, +1)),))
        # a left grid is x minus the offsets: x plus their negation, bit for bit
        for x in (0.0, -0.0, -1e-4, -3.7):
            assert np.array_equal(np.subtract(x, offsets).view(np.uint64),
                                  np.add(x, -offsets).view(np.uint64))

    def test_reused_across_power_levels(self, params):
        users, layouts = self._cases(11, 1, params)[0]
        for cfg in (AlgoConfig(), AlgoConfig(fine_step=1e-4, max_fine_shifts=50)):
            tables = new_tables()
            first = fine_tune(params, layouts[0], users, cfg, tables)
            again = fine_tune(dataclasses.replace(params, pt_dbm=0.0, noise_dbm=-80.0),
                              layouts[0], users, cfg, tables)
            assert again is first
            assert fine_tune(params, layouts[0], users, cfg) is not first  # fresh tables
            # the key holds every AlgoConfig field a tune reads, and only those
            for change in ({"delta1": 0.3}, {"delta2": 0.3}, {"fine_step": 2e-4},
                           {"max_fine_shifts": 70}):
                other = dataclasses.replace(cfg, **change)
                assert fine_tune(params, layouts[0], users, other, tables) is not first
            assert fine_tune(params, layouts[0], users, dataclasses.replace(cfg, epsilon=1e-3),
                             tables) is first

    def test_matches_uncached_over_interleaved_scopes(self, params):
        cases = self._cases(12, 3, params)
        tables = [new_tables() for _ in cases]
        calls = [
            (dataclasses.replace(params, pt_dbm=pt), users, layout,
             AlgoConfig(delta1=d1, delta2=d2), tables[n])
            for n, (users, layouts) in enumerate(cases)
            for d1, d2 in self.PAIRS
            for pt in self.POWERS
            for layout in layouts
        ]
        order = np.random.default_rng(5).permutation(len(calls))
        qos = QosTargets()
        # scenario-major runs (tables filled) then shuffled calls (tables warm)
        for p, users, layout, cfg, own in calls + [calls[i] for i in order]:
            tuned = fine_tune(p, layout, users, cfg, own)
            assert tuned == _tune_layout(p, layout, users, cfg, new_tables())
            for evaluated in (tuned, layout):
                assert evaluate_placement(p, evaluated, users, qos, own) == (
                    self._evaluate_uncached(p, evaluated, users, qos)
                )

    def test_threads_on_different_scenarios(self, params):
        """Threads running four drops' chunks (the solver and the baselines
        at several powers, the powers descending and then ascending), with a
        short switch interval, each get the records of a serial run of each
        task on fresh tables."""
        cfg, qos = AlgoConfig(), QosTargets(4.0, 4.0)
        powers = [dataclasses.replace(params, pt_dbm=pt) for pt in TestWarmWalks.POWERS]
        schemes = ("pinching", *channel.BASELINE_SCHEMES)
        chunks = []
        for t in range(4):
            scen = sample_scenario(trial_rng(22, t), params.side_d, t)
            tasks = [(p, scen, qos, cfg, scheme, OracleConfig())
                     for p in powers[::-1] + powers for scheme in schemes]
            chunks.append(list(enumerate(tasks, start=100 * t)))
        # each task alone, on fresh tables
        expected = [repr([(i, sim.evaluate_scheme(*task)) for i, task in chunk])
                    for chunk in chunks]

        def work(chunk, want, errors):
            for _ in range(20):
                got = repr(sim._run_group(chunk))
                if got != want:
                    errors.append((chunk[0], got, want))

        assert run_threads(work, list(zip(chunks, expected))) == []

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
        tables = new_tables()
        warm = [bisection_solve(p, users, qos, cfg, tables) for p, cfg in runs]
        for (p, cfg), want in zip(runs, warm):
            assert bisection_solve(p, users, qos, cfg) == want


class TestIterateTables:
    """The rigid layouts that sweeps keep per scenario, and the tuple records
    an iterate builds."""

    def test_rigid_layout_table_equals_initial_layout(self, params, qos, algo_cfg):
        users, _ = TestTunedLayoutReuse._cases(15, 1, params)[0]
        c = center_index(params.n_antennas)
        seen = []

        def spy(p, layout, u, cfg, tables):
            """Check each iterate's rigid layout is the table's entry for its
            centre, and the rigid array there."""
            centre = layout.xs[c]
            assert tables[2][centre] is layout
            assert layout == initial_layout(p, centre, -p.side_d / 2)
            seen.append(layout.xs)
            return fine_tune(p, layout, u, cfg, tables)

        with mock.patch.object(placement, "fine_tune", spy):
            # the first midpoint recurs in the wider region, with another feed
            for side_d in (params.side_d, 2 * params.side_d):
                tables = new_tables()
                for pt in TestTunedLayoutReuse.POWERS:
                    p = dataclasses.replace(params, side_d=side_d, pt_dbm=pt)
                    bisection_solve(p, users, qos, algo_cfg, tables)
        assert len(set(seen)) < len(seen) / 2  # centres met again

    def test_records_refuse_assignment(self, params, qos, algo_cfg):
        users, _ = TestTunedLayoutReuse._cases(17, 1, params)[0]
        sol = bisection_solve(params, users, qos, algo_cfg)
        for record, name in ((sol.split, "alpha2"), (sol.rates, "sum_rate"),
                             (sol.feasibility, "spacing")):
            assert isinstance(record, tuple)
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                record.extra = 1.0


class TestWarmWalks:
    """A solve that replays its tables' last walk returns the same solution,
    bit for bit, as one that starts from nothing."""

    POWERS = (0.0, 10.0, 20.0, 30.0, 40.0)
    ORDERS = {"ascending": POWERS, "descending": POWERS[::-1],
              "interleaved": (20.0, 0.0, 40.0, 10.0, 30.0)}

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), side_d=st.sampled_from((10.0, 30.0)),
           order=st.sampled_from(sorted(ORDERS)),
           qos=st.sampled_from((QosTargets(), QosTargets(4.0, 4.0))))
    def test_warm_solves_equal_fresh_solves(self, seed, side_d, order, qos):
        scen = sample_scenario(trial_rng(seed, 0), side_d)
        users = (scen.user1, scen.user2)
        # fig3's order: every tolerance pair at one power, then the next
        # power; the two epsilons share one walk
        runs = [(SystemParams(side_d=side_d, pt_dbm=pt),
                 AlgoConfig(epsilon=eps, delta1=d1, delta2=d2))
                for pt in self.ORDERS[order]
                for d1, d2 in TestTunedLayoutReuse.PAIRS
                for eps in (1e-3, 1e-5)]
        tables = new_tables()
        warm = [bisection_solve(p, users, qos, cfg, tables) for p, cfg in runs]
        for (p, cfg), got in zip(runs, warm):
            assert repr(got) == repr(bisection_solve(p, users, qos, cfg))

    # the powers solved, a subset of POWERS
    SOLVED = st.permutations(POWERS).flatmap(
        lambda ps: st.integers(1, len(ps)).map(lambda k: ps[:k]))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), side_d=st.sampled_from((10.0, 30.0)), solved=SOLVED,
           declared=st.sets(st.sampled_from(POWERS + (-15.0, 5.0, 35.0))), data=st.data())
    @example(seed=1, side_d=10.0, solved=POWERS, declared=set(), data=None)
    @example(seed=2, side_d=30.0, solved=POWERS[:2], declared={*POWERS, 5.0}, data=None)
    def test_declared_scales_any_set(self, seed, side_d, solved, declared, data):
        """Tables declaring a subset, a superset or none of the solved powers'
        scales, with scales never solved, give every solve, in any order, at
        both QoS targets and two epsilons, the fresh solution."""
        scen = sample_scenario(trial_rng(seed, 0), side_d)
        users = (scen.user1, scen.user2)
        tables = new_tables({snr_scale(SystemParams(side_d=side_d, pt_dbm=pt))
                             for pt in declared})
        runs = [(SystemParams(side_d=side_d, pt_dbm=pt), qos, AlgoConfig(epsilon=eps))
                for pt in solved for qos in (QosTargets(), QosTargets(4.0, 4.0))
                for eps in (1e-3, 1e-5)]
        if data is not None:
            runs = data.draw(st.permutations(runs))
        for p, qos, cfg in runs:
            got = bisection_solve(p, users, qos, cfg, tables)
            assert repr(got) == repr(bisection_solve(p, users, qos, cfg))

    @pytest.mark.parametrize("qos, feasible", [(QosTargets(), True),
                                               (QosTargets(60.0, 60.0), False)])
    def test_replayed_solve_evaluates_only_its_answer(self, params, qos, feasible):
        """Every iterate on the recorded walk is read from its row, so the
        scalar chain runs once, on the returned iterate: the best one, or
        the last one when none is feasible.  fine_tune still runs once per
        iterate."""
        scen = sample_scenario(trial_rng(18, 0), params.side_d)
        users, cfg = (scen.user1, scen.user2), AlgoConfig()
        evaluated, tuned = [], []

        def evaluate(p, layout, u, q, tables):
            evaluated.append(layout)
            return evaluate_placement(p, layout, u, q, tables)

        def tune(p, layout, u, c, tables):
            tuned.append(layout)
            return fine_tune(p, layout, u, c, tables)

        later = dataclasses.replace(params, pt_dbm=params.pt_dbm + 7.0)
        key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
        tables = new_tables({snr_scale(params), snr_scale(later)})
        first = bisection_solve(params, users, qos, cfg, tables)
        walk = tables[3][key]
        layouts, rows = walk
        assert rows == {}  # a cold solve makes no rows
        with mock.patch.object(placement, "evaluate_placement", evaluate), \
                mock.patch.object(placement, "fine_tune", tune):
            got = bisection_solve(later, users, qos, cfg, tables)
        assert tables[3][key] is walk
        # the replay made the rows of both declared powers, each what
        # evaluate_placement gives
        assert set(rows) == {(snr_scale(params), qos), (snr_scale(later), qos)}
        for p in (params, later):
            for layout, row in zip(layouts, rows[snr_scale(p), qos], strict=True):
                _, rates, report, _ = evaluate_placement(p, layout, users, qos, tables)
                assert row == (rates.sum_rate, report.qos_ok, report.overall)
        assert got.iterations == first.iterations > 1
        assert evaluated == [got.layout]
        assert len(tuned) == got.iterations
        assert got.feasible_found is feasible
        assert repr(got) == repr(bisection_solve(later, users, qos, cfg))

    def test_one_batch_per_walk_and_qos(self, params):
        """A walk's first replay evaluates every declared scale in one
        evaluate_snrs_batch call on (P, L) arrays, and the later solves at
        those scales read their rows; a second QoS on the same tables gets
        its own rows, from one more call."""
        scen = sample_scenario(trial_rng(18, 0), params.side_d)
        users, cfg = (scen.user1, scen.user2), AlgoConfig()
        key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
        levels = [dataclasses.replace(params, pt_dbm=pt) for pt in self.POWERS]
        scales = {snr_scale(p) for p in levels}
        loose, strict = QosTargets(), QosTargets(4.0, 4.0)
        calls = []

        def batch(weak, strong, qos, spacing):
            calls.append((weak.shape, qos))
            return evaluate_snrs_batch(weak, strong, qos, spacing)

        tables = new_tables(scales)
        with mock.patch.object(placement, "evaluate_snrs_batch", batch):
            got = [bisection_solve(p, users, loose, cfg, tables) for p in levels]
            walk = tables[3][key]
            layouts, rows = walk
            n = len(layouts)
            assert calls == [((len(levels), n), loose)]
            got.append(bisection_solve(levels[2], users, strict, cfg, tables))
        assert tables[3][key] is walk  # no solve parted from the cold solve's walk
        assert calls == [((len(levels), n), loose), ((len(levels), n), strict)]
        assert set(rows) == {(s, q) for s in scales for q in (loose, strict)}
        assert rows[snr_scale(levels[2]), strict] != rows[snr_scale(levels[2]), loose]
        for p, qos, sol in zip(levels + levels[2:3], [loose] * len(levels) + [strict], got):
            assert repr(sol) == repr(bisection_solve(p, users, qos, cfg))

    def test_walk_recorded_where_it_parts(self, params):
        """At QoS 4/4 the walks of low and high power part ways; each solve
        records its own walk, keeping the common head."""
        qos, cfg = QosTargets(4.0, 4.0), AlgoConfig()
        key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
        parted = 0
        for t in range(6):
            scen = sample_scenario(trial_rng(19, t), params.side_d)
            users = (scen.user1, scen.user2)
            walks, tables = [], new_tables()
            for pt in (0.0, 40.0, 0.0):
                p = dataclasses.replace(params, pt_dbm=pt)
                bisection_solve(p, users, qos, cfg, tables)
                walks.append(tables[3][key])
            low, high, again = walks
            assert again[0] == low[0] and len(low[0]) == len(high[0])
            head = next((i for i, (a, b) in enumerate(zip(low[0], high[0])) if a != b),
                        len(low[0]))
            parted += head < len(low[0])
            # the common head and the walk found again hold the tuned layouts' own objects
            assert all(a is b for a, b in zip(low[0][:head], high[0]))
            assert all(a is b for a, b in zip(again[0], low[0]))
        assert parted > 0

    def test_solution_is_its_layouts_own(self, params):
        """Cold, fully replayed and parted solves, feasible or not, each
        return placement_solution's solution for their own layout and
        iteration count, bit for bit.  A cold solve evaluates every iterate,
        then its answer once more."""
        cfg = AlgoConfig()
        key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
        evaluated, seen = [], set()

        def evaluate(p, layout, u, q, tables):
            evaluated.append(layout)
            return evaluate_placement(p, layout, u, q, tables)

        for qos in (QosTargets(), QosTargets(4.0, 4.0), QosTargets(60.0, 60.0)):
            for t in range(6):
                scen = sample_scenario(trial_rng(19, t), params.side_d)
                users, tables = (scen.user1, scen.user2), new_tables()
                for pt in (0.0, 40.0, 0.0):
                    p = dataclasses.replace(params, pt_dbm=pt)
                    walk = tables[3].get(key)
                    evaluated.clear()
                    with mock.patch.object(placement, "evaluate_placement", evaluate):
                        sol = bisection_solve(p, users, qos, cfg, tables)
                    kind = ("cold" if walk is None
                            else "replayed" if tables[3][key] is walk else "parted")
                    if kind == "cold":
                        assert len(evaluated) == sol.iterations + 1
                    assert evaluated[-1] is sol.layout
                    seen.add((kind, sol.feasible_found))
                    want = placement_solution(p, sol.layout, users, qos, sol.iterations)
                    assert repr(sol) == repr(want)
        assert seen == {(kind, feasible) for kind in ("cold", "replayed", "parted")
                        for feasible in (True, False)}

    @pytest.mark.parametrize("drop_db, feasible", [(25.0, True), (50.0, False)])
    def test_walk_meeting_one_centre_again(self, params, qos, drop_db, feasible):
        """Users within delta_min of the right edge clamp every midpoint to
        the top of ``center_bounds``, so one walk meets that centre at every
        iterate.  A solve at a lower power reads each iterate from its row,
        also where its rate verdicts, and so its midpoints, differ."""
        edge = params.side_d / 2
        users = (UserPosition(edge - 0.2 * params.delta_min, 4.0),
                 UserPosition(edge - 0.6 * params.delta_min, 1.0))
        cfg = AlgoConfig()
        key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
        tables = new_tables()
        first = bisection_solve(params, users, qos, cfg, tables)
        walk = tables[3][key][0]
        assert first.layout.xs[center_index(params.n_antennas)] == center_bounds(params)[1]
        assert len(walk) == first.iterations > 1 and all(w is walk[0] for w in walk)
        evaluated = []

        def evaluate(p, layout, u, q, tables):
            evaluated.append(layout)
            return evaluate_placement(p, layout, u, q, tables)

        later = dataclasses.replace(params, pt_dbm=params.pt_dbm - drop_db)
        with mock.patch.object(placement, "evaluate_placement", evaluate):
            got = bisection_solve(later, users, qos, cfg, tables)
        assert evaluated == [got.layout] and got.iterations == first.iterations
        assert first.feasible_found and got.feasible_found is feasible
        assert repr(got) == repr(bisection_solve(later, users, qos, cfg))

    def test_threads_replaying_walks(self, params):
        """Threads solving different scenarios at several powers, each on
        its own scenario's tables, with a short switch interval, each get
        the fresh solution."""
        cfg, qos = AlgoConfig(), QosTargets(4.0, 4.0)
        cases = [(scen.user1, scen.user2) for scen in
                 (sample_scenario(trial_rng(20, t), params.side_d) for t in range(4))]
        powers = [dataclasses.replace(params, pt_dbm=pt) for pt in self.POWERS]
        expected = [[repr(bisection_solve(p, users, qos, cfg)) for p in powers]
                    for users in cases]

        def work(users, want, errors):
            tables = new_tables()
            for _ in range(10):
                for p, w in zip(powers[::-1] + powers, want[::-1] + want):
                    got = repr(bisection_solve(p, users, qos, cfg, tables))
                    if got != w:
                        errors.append((users, p.pt_dbm, got, w))

        assert run_threads(work, list(zip(cases, expected))) == []


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


# zero, tiny, the sweep pairs' values, at least pi, and anything up to 4 rad
TOLERANCES = st.sampled_from(
    (0.0, 5e-324, 1e-13, 0.02, 0.02, 0.2, 0.5, 0.5, 1.0, 100.0, math.pi, 3.2)
) | st.floats(min_value=0.0, max_value=4.0)


UNIT = st.floats(min_value=0.0, max_value=1.0)
# a region coordinate in units of the side, its two corners included
PICK_PLACES = st.sampled_from((0.0, 1.0)) | UNIT
# up to the config's limits, where the phases in turns are largest
PICK_SIDES = (st.sampled_from((10.0, 30.0, MAX_SIZE_M))
              | st.floats(min_value=0.05, max_value=MAX_SIZE_M))
PICK_N_EFF = (st.sampled_from((1.0, 1.4, MAX_N_EFF))
              | st.floats(min_value=1.0, max_value=MAX_N_EFF))
PICK_H = st.sampled_from((3.0,)) | st.floats(min_value=0.1, max_value=10.0)
# log-uniform over the whole range
PICK_FC = st.sampled_from((28e9,)) | st.floats(
    min_value=math.log10(FC_RANGE_HZ[0]), max_value=math.log10(FC_RANGE_HZ[1])
).map(lambda e: min(max(10.0**e, FC_RANGE_HZ[0]), FC_RANGE_HZ[1]))
PICK_SIZES = st.sampled_from((1, 2, 3, 1001)) | st.integers(min_value=1, max_value=1001)
# a positive shift puts the inner neighbour past the rigid position's pitch;
# past 1 it leaves every candidate too close
PICK_SHIFTS = st.sampled_from((0.0,)) | st.floats(min_value=-0.1, max_value=1.05)


def _pick_scene(draw):
    """The geometry, the users and the feed of a pick, as :func:`pick_cases`
    draws them."""
    side_d = draw(PICK_SIDES)
    params = SystemParams(fc=draw(PICK_FC), n_eff=draw(PICK_N_EFF), h=draw(PICK_H),
                          side_d=side_d)
    users = tuple(UserPosition(side_d * (draw(PICK_PLACES) - 0.5),
                               side_d * (draw(PICK_PLACES) - 0.5)) for _ in range(2))
    feed_x = side_d * (draw(st.sampled_from((0, 1))) - 0.5)
    return params, users, feed_x


def _pick_grid(draw, params):
    """One pick's candidate grid, inner neighbour and cap, as :func:`pick_cases`
    draws them."""
    inner_x = params.side_d * (draw(PICK_PLACES) - 0.5)
    step = wavelength(params) / 100.0
    size = draw(PICK_SIZES)
    cand = inner_x + params.delta_min + step * (np.arange(size) - draw(PICK_SHIFTS) * (size - 1))
    # the cap truncates the grid unless it lies past the last candidate
    cap = float(cand[0]) - step + draw(UNIT) * (float(cand[-1] - cand[0]) + 2.0 * step)
    cap = draw(st.sampled_from((cap, float(cand[-1]), float(cand[-1]) + 1.0)))
    return cand, inner_x, cap


def tolerance_at(err):
    """The largest tolerance delta whose bound in turns, fl(delta / 2pi), is
    at most ``err``: the one with fl(delta / 2pi) == err where there is one."""
    delta = err * TWO_PI
    while delta / TWO_PI > err:
        delta = math.nextafter(delta, 0.0)
    while math.nextafter(delta, math.inf) / TWO_PI <= err:
        delta = math.nextafter(delta, math.inf)
    return delta


def _pick_config(draw, params, users, feed_x, cand, inner_x):
    """The tolerances of a pick, as :func:`pick_cases` draws them."""
    delta1, delta2 = draw(TOLERANCES), draw(TOLERANCES)
    edge = draw(st.sampled_from((None, 0, 1)))
    if edge is not None:
        k = int(draw(PICK_PLACES) * (cand.size - 1))  # the first candidate too
        turns = phase_turns_and_distances(params, users[edge], np.array([inner_x, cand[k]]),
                                          feed_x)[0]
        err = grid_reference.turn_error(*turns.tolist())
        # on the candidate's turn error, as the pick compares it, or one ulp inside
        err = tolerance_at(draw(st.sampled_from((err, math.nextafter(err, 0.0)))))
        delta1, delta2 = (err, delta2) if edge == 0 else (delta1, err)
    return AlgoConfig(delta1=delta1, delta2=delta2)


@st.composite
def pick_cases(draw):
    """Arguments of one fine-tune pick: the geometry, the users, the feed
    side, the inner neighbour (the centre for the first antenna) and the
    candidate grid, which may start inside the inner neighbour's minimum
    pitch, hold 1 to 1001 candidates and run past a cap.  The users and the
    inner neighbour may sit on the region's corners, where the phases are
    largest.  A tolerance may sit exactly on, or one ulp inside, one
    candidate's turn error."""
    params, users, feed_x = _pick_scene(draw)
    cand, inner_x, cap = _pick_grid(draw, params)
    cfg = _pick_config(draw, params, users, feed_x, cand, inner_x)
    return params, users, cfg, feed_x, cand, inner_x, cap


def round_pick(params, users, cfg, feed_x, cand, inner_x, cap) -> float:
    """One antenna's step of ``_tune_layout`` on its own, in outward
    coordinates: its trimmed grid, one kernel call led by the inner
    neighbour, and the round pick on that call's turns."""
    grid = placement._candidate_grid(cand, inner_x, cap,
                                     params.delta_min - AntennaLayout.SPACING_SLACK)
    if grid.size == 0:
        return min(inner_x + params.delta_min, cap)
    xs = np.concatenate(([inner_x], grid))
    turns = phase_turns_and_distances(params, users, xs, feed_x)[0]
    return float(grid[placement._pick_round(turns, [(0, grid.size)], cfg)[0]])


@given(pick_cases())
@settings(max_examples=800, deadline=None, derandomize=True)
def test_pick_matches_full_scan(case):
    """The round pick returns exactly what the per-candidate scan returns."""
    assert round_pick(*case) == grid_reference.pick_candidate_scan(*case)


# where a round's phases turn NaN, in one case of four: a whole segment, a
# segment's inner neighbour, or one of its candidates (by its place in it)
POISON = st.one_of(st.none(), st.none(), st.none(),
                   st.tuples(st.sampled_from((0, 1)), st.sampled_from(("all", "inner")) | UNIT))


@st.composite
def round_cases(draw):
    """Arguments of one fine-tune round of two picks: the geometry, the users,
    the feed and the tolerances of :func:`pick_cases`, and each pick's own
    inner neighbour, candidate grid and cap.  So the two grids are cut at
    their own caps and spacings, mostly to different sizes, and follow
    distinct inner neighbours, as in the rounds after the first at N >= 5.
    A tolerance may sit on an exact error in either grid.  ``poison`` names
    where the round's phases turn NaN (see ``POISON``)."""
    params, users, feed_x = _pick_scene(draw)
    grids = [_pick_grid(draw, params) for _ in range(2)]
    cand, inner_x, _ = grids[draw(st.sampled_from((0, 1)))]
    cfg = _pick_config(draw, params, users, feed_x, cand, inner_x)
    return params, users, cfg, feed_x, grids, draw(POISON)


@given(round_cases())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_round_pick_matches_each_segment_alone(case):
    """Each pick of a round of two, its errors taken over the whole row, is
    what the per-candidate scan gives on its own segment alone.  A NaN
    phase makes NaN errors, which neither fit nor score below the first
    NaN score, and the NaN segment leaves the finite one's pick alone."""
    params, users, cfg, feed_x, grids, poison = case
    threshold = params.delta_min - AntennaLayout.SPACING_SLACK
    trimmed = [placement._candidate_grid(cand, inner_x, cap, threshold)
               for cand, inner_x, cap in grids]
    assume(all(grid.size for grid in trimmed))  # a grid the inner neighbour passed has no pick
    xs = np.concatenate([np.concatenate(([inner_x], grid))
                         for (_, inner_x, _), grid in zip(grids, trimmed)])
    segments = [(0, trimmed[0].size), (trimmed[0].size + 1, trimmed[1].size)]
    turns = phase_turns_and_distances(params, users, xs, feed_x)[0]
    bad = {}  # segment -> its NaN columns, counted from its inner neighbour
    if poison is not None:
        seg, where = poison
        first, size = segments[seg]
        bad[seg] = (slice(None) if where == "all" else 0 if where == "inner"
                    else 1 + int(where * (size - 1)))
        turns[:, first:first + 1 + size][:, bad[seg]] = np.nan
    picks = placement._pick_round(turns, segments, cfg)
    kernel = channel.phase_turns_and_distances
    for seg, ((cand, inner_x, cap), grid, k) in enumerate(zip(grids, trimmed, picks)):
        cols = bad.get(seg)
        if isinstance(cols, int) and cols > 0:
            # a candidate: the scan reads the capped grid, the trimmed one its tail
            cols += grid_reference.capped(cand, cap).size - grid.size

        def poisoned(params, user, xs, feed_x):
            turns, dist = kernel(params, user, xs, feed_x)
            if cols is not None:
                turns[cols] = np.nan
            return turns, dist

        with mock.patch.object(channel, "phase_turns_and_distances", poisoned):
            want = grid_reference.pick_candidate_scan(params, users, cfg, feed_x, cand,
                                                      inner_x, cap)
        assert float(grid[k]) == want


# the budget in fine steps: two candidates, a few, or the default 10 wavelengths
TUNE_BUDGETS = st.sampled_from((None, 1, 7, 60))
# an antenna's start, outward from its rigid position, in budgets: below -1
# its inner neighbour may pass its whole grid, above 0 it may start past its cap
TUNE_STARTS = st.sampled_from((0.0,)) | st.floats(min_value=-1.6, max_value=0.3)


@st.composite
def tune_cases(draw):
    """A layout of 1 to 7 antennas to tune, in a region small enough for the
    caps to bind, with each off-centre antenna starting off its rigid
    position, and the users, the feed and the tolerances."""
    n_ant = draw(st.integers(min_value=1, max_value=7))
    side_d = draw(st.sampled_from((10.0, 0.05, 0.2)) | st.floats(min_value=0.04, max_value=10.0))
    params = SystemParams(side_d=side_d, n_antennas=n_ant)
    lo, hi = center_bounds(params)
    centre = draw(st.sampled_from((lo, hi)) | st.floats(min_value=lo, max_value=hi))
    cfg = AlgoConfig(delta1=draw(TOLERANCES), delta2=draw(TOLERANCES),
                     max_fine_shifts=draw(TUNE_BUDGETS))
    budget = cfg.resolved_max_shifts(params) * cfg.resolved_fine_step(params)
    c = center_index(n_ant)
    rigid = initial_layout(params, centre, side_d * draw(st.sampled_from((-0.5, 0.5))))
    xs = list(rigid.xs)
    for n in range(n_ant):
        if n != c:
            xs[n] += (1 if n > c else -1) * draw(TUNE_STARTS) * budget
    users = tuple(UserPosition(side_d * (draw(UNIT) - 0.5), side_d * (draw(UNIT) - 0.5))
                  for _ in range(2))
    return params, AntennaLayout(tuple(xs), rigid.feed_x), users, cfg


def boundary_case(last_past=None, gap_short=None):
    """Default geometry, a zero tolerance pair and a one-step budget (two
    candidates a grid), with a symmetric three-antenna layout at a boundary
    of the whole-grid check on both sides: each outer antenna's last
    candidate ``last_past`` float steps past its cap plus CAP_SLACK, or its
    gap to the centre at 0 ``gap_short`` float steps short of delta_min -
    SPACING_SLACK.  The weak user is placed so that both picks take the
    candidate the check is about: the last at the cap, the first at the gap
    (when the gap is not short)."""
    params, cfg = SystemParams(), AlgoConfig(delta1=0.0, delta2=0.0, max_fine_shifts=1)
    step = cfg.resolved_fine_step(params)
    if last_past is not None:
        edge = params.side_d / 2.0 + CAP_SLACK
        for _ in range(last_past):
            edge = math.nextafter(edge, math.inf)
        probe = x = edge - step
        assert x + step == edge
    else:
        probe = x = params.delta_min - AntennaLayout.SPACING_SLACK
        for _ in range(gap_short):
            x = math.nextafter(x, 0.0)
    for k in range(200):
        users = (UserPosition(-4.0 + 0.04 * k, 2.0), UserPosition(-4.0, -1.0))
        tuned, _ = grid_reference.tune_layout_scan(
            params, AntennaLayout((-probe, 0.0, probe), -5.0), users, cfg)
        if tuned.xs[0] < -probe and tuned.xs[2] > probe if last_past is not None else (
                tuned.xs[0] == -probe and tuned.xs[2] == probe):
            return params, AntennaLayout((-x, 0.0, x), -5.0), users, cfg
    raise AssertionError("no user places both picks")


@example(boundary_case(last_past=0))
@example(boundary_case(last_past=1))
@example(boundary_case(gap_short=0))
@example(boundary_case(gap_short=1))
# the left antenna's first candidate, and its pick at these tolerances, is
# the real coordinate 0, which the outward grid's negation makes -0.0
@example((SystemParams(), AntennaLayout((0.0, SystemParams().delta_min, 0.2), -5.0),
          (UserPosition(1.0, 2.0), UserPosition(-4.0, -1.0)),
          AlgoConfig(delta1=math.pi, delta2=math.pi)))
@given(tune_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tune_matches_per_antenna_scan(case):
    """Tuning both chains round by round through one kernel call gives the
    layout of the per-antenna scan in the one-chain-at-a-time order,
    bit for bit, and the channel terms it stores for that layout are
    bit-equal to evaluate_placement's own; it stores them whenever the
    kernel read every tuned position."""
    params, layout, users, cfg = case
    want, passed = grid_reference.tune_layout_scan(params, layout, users, cfg)
    tables = new_tables()
    tuned = _tune_layout(params, layout, users, cfg, tables)
    stored = tables[1].get((tuned.xs, tuned.feed_x))
    assert [x.hex() for x in tuned.xs] == [x.hex() for x in want.xs]
    assert tuned.feed_x.hex() == want.feed_x.hex()
    # the centre is read as the inner neighbour of a pick next to it, and so
    # is an antenna whose inner neighbour passed its grid
    c = center_index(params.n_antennas)
    picked = set(range(params.n_antennas)) - passed - {c}
    outward = {a: {a - 1, a + 1} if a == c else {a + (1 if a > c else -1)}
               for a in passed | {c}}
    assert (stored is not None) == all(outward[a] & picked for a in outward)
    if stored is not None:
        gains = gain_snr(1.0, pinching_gain(params, tuned, users)).tolist()
        assert [g.hex() for g in stored[0]] == [g.hex() for g in gains]
        assert stored[1] is tuned.spacing_ok(params)



def within_ulps(got: float, want: float, ulps: int = 4) -> bool:
    return abs(got - want) <= ulps * math.ulp(want)


@st.composite
def bisection_cases(draw):
    """A drop of 1 to 5 antennas in a region from a few pitches wide up to
    30 m, its tolerance pair, epsilon, budget and rate targets, and 1 to 3
    of its powers in the order they are solved."""
    n_ant = draw(st.integers(min_value=1, max_value=5))
    side_d = draw(st.sampled_from((10.0, 30.0, 0.05)) | st.floats(min_value=0.03, max_value=30.0))
    scen = sample_scenario(trial_rng(draw(st.integers(0, 10**6)), 0), side_d)
    cfg = AlgoConfig(epsilon=draw(st.sampled_from((1e-5, 1e-3, 0.3))),
                     delta1=draw(TOLERANCES), delta2=draw(TOLERANCES),
                     max_fine_shifts=draw(st.sampled_from((None, None, 60, 7, 1))))
    qos = QosTargets(*draw(st.sampled_from(((0.5, 0.5), (4.0, 4.0), (0.0, 0.0), (60.0, 0.5)))
                           | st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0))))
    powers = draw(st.lists(st.floats(-20.0, 50.0), min_size=1, max_size=3))
    params = [SystemParams(side_d=side_d, n_antennas=n_ant, pt_dbm=pt) for pt in powers]
    return params, (scen.user1, scen.user2), qos, cfg


@example(([SystemParams()], (UserPosition(-3.0, 4.0), UserPosition(2.0, 1.0)), QosTargets(),
          AlgoConfig()))
@given(bisection_cases())
@settings(max_examples=140, deadline=None, derandomize=True)
def test_bisection_matches_plain_loop(case):
    """Each solve of a drop's powers, in drawn order on tables shared and
    declaring their scales, has the layout, the iteration count and the
    verdict of Algorithm 1 as a plain loop over the per-antenna tune scan,
    bit for bit, and its rates within a few ulp."""
    levels, users, qos, cfg = case
    tables = new_tables({snr_scale(p) for p in levels})
    for p in levels:
        got = bisection_solve(p, users, qos, cfg, tables)
        layout, (r1, r2, rate), iterations, feasible = grid_reference.bisection_scan(
            p, users, qos, cfg)
        assert [x.hex() for x in got.layout.xs] == [x.hex() for x in layout.xs]
        assert got.layout.feed_x.hex() == layout.feed_x.hex()
        assert (got.iterations, got.feasible_found) == (iterations, feasible)
        assert within_ulps(got.rates.r1, r1) and within_ulps(got.rates.r2, r2)
        assert within_ulps(got.rates.sum_rate, rate)


class TestPickOnCraftedPhases:
    """The pick on composite phases that drawn geometry seldom produces."""

    @staticmethod
    def picks(diffs, cfg):
        """The round pick on composite phases, in turns, of ``diffs`` for
        both users (the inner neighbour's being 0), and the per-candidate
        scan on candidates with those phases."""
        row = np.concatenate(([0.0], diffs))
        cand = 1.0 + 0.01 * np.arange(len(diffs))
        pick = float(cand[placement._pick_round(np.stack([row, row]), [(0, len(diffs))], cfg)[0]])

        def turns(params, user, xs, feed_x):
            return row, None

        args = (SystemParams(), (UserPosition(1.0, 1.0), UserPosition(-1.0, 0.5)), cfg,
                -5.0, cand, 0.0, 5.0)
        with mock.patch.object(channel, "phase_turns_and_distances", turns):
            return pick, grid_reference.pick_candidate_scan(*args)

    def test_single_near_candidate_without_a_hit_is_the_pick(self):
        # every phase difference is over 0.01 rad from a whole turn, and one
        # weighted error is far below the others
        pick, scan = self.picks(np.array([0.3, 0.1, 0.25]), AlgoConfig(delta1=0.01, delta2=0.01))
        assert pick == scan == 1.01

    def test_nan_phases_take_the_full_scan(self):
        # the NaN candidate does not fit, and the later one does
        pick, scan = self.picks(np.array([0.05, np.nan, 0.003]), AlgoConfig())
        assert pick == scan == 1.02
        # with no fit, np.argmin takes the first NaN score as the least
        pick, scan = self.picks(np.array([0.05, np.nan, 0.03]), AlgoConfig())
        assert pick == scan == 1.01

    def test_exact_tie_takes_the_first(self):
        # a whole turn apart, and on either side of it, three candidates have
        # the same error, 0.25 turns, and no candidate fits
        pick, scan = self.picks(np.array([0.4, 1.25, -0.25, 0.25]),
                                AlgoConfig(delta1=0.01, delta2=0.01))
        assert pick == scan == 1.01

    @pytest.mark.parametrize("inside", [False, True])
    def test_tolerance_on_the_edge(self, inside):
        # a tolerance whose bound in turns is the candidate's error fits it;
        # one ulp inside it does not
        err = 0.1
        delta = tolerance_at(math.nextafter(err, 0.0) if inside else err)
        assert (delta / TWO_PI == err) is not inside
        cfg = AlgoConfig(delta1=delta, delta2=delta)
        pick, scan = self.picks(np.array([0.4, err, 0.05]), cfg)
        assert pick == scan == (1.02 if inside else 1.01)


class TestSchemesShareOneScope:
    """``sim.evaluate_scheme`` passes one scenario's tables to the solver;
    the fixed-array baselines, interleaved with it, read none."""

    SCHEMES = ("pinching", *channel.BASELINE_SCHEMES)

    def test_threads_evaluating_schemes(self, params):
        """Threads running the solver and the baselines on different
        scenarios at several powers, each on its own scenario's tables, with
        a short switch interval, each get the record of a run on fresh
        tables."""
        cfg, qos = AlgoConfig(), QosTargets(4.0, 4.0)
        scens = [sample_scenario(trial_rng(22, t), params.side_d) for t in range(4)]
        runs = [(dataclasses.replace(params, pt_dbm=pt), scheme)
                for pt in TestWarmWalks.POWERS for scheme in self.SCHEMES]
        expected = [[repr(sim.evaluate_scheme(p, scen, qos, cfg, scheme)) for p, scheme in runs]
                    for scen in scens]

        def work(scen, want, errors):
            tables = new_tables()
            for _ in range(10):
                for (p, scheme), w in zip(runs[::-1] + runs, want[::-1] + want):
                    got = repr(sim.evaluate_scheme(p, scen, qos, cfg, scheme,
                                                   OracleConfig(), tables))
                    if got != w:
                        errors.append((scen, p.pt_dbm, scheme, got, w))

        assert run_threads(work, list(zip(scens, expected))) == []


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
        with pytest.raises(PlacementError, match=r"user1\.[xy] must be "
                           r"(a number|finite|in \[-5\.0, 5\.0\]), got "):
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
            rates, feas = batch_solution_metrics(
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
        """At the default epsilon, at and above D (one iteration), and at the
        subnormal epsilons the config accepts, where D / epsilon overflows."""
        for cfg in (algo_cfg, *(AlgoConfig(epsilon=e) for e in (10.0, 20.0, 100.0, 1e300,
                                                                 1e-320, 5e-324))):
            bound = iteration_bound(params, cfg)
            for t in range(20):
                scen = sample_scenario(trial_rng(3, t), params.side_d, t)
                sol = bisection_solve(params, (scen.user1, scen.user2), qos, cfg)
                assert 1 <= sol.iterations <= bound
                if cfg.epsilon >= params.side_d:
                    assert sol.iterations == bound == 1

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
