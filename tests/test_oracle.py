import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from pinchopt import (
    AlgoConfig,
    AntennaLayout,
    OracleConfig,
    OracleSizeError,
    PlacementError,
    PowerSplit,
    QosTargets,
    SystemParams,
    UserPosition,
    bisection_solve,
    conventional_effective_gain,
    evaluate_placement,
    exhaustive_placement,
    optimal_alpha2,
    rate_report,
    sample_scenario,
    snr_scale,
    trial_rng,
    wavelength,
)
from pinchopt.noma import ZERO_RATES
from pinchopt.oracle import _grid, _winner, batch_solution_metrics
from pinchopt.placement import _pitch_offsets, center_bounds, placement_solution
from pinchopt.sim import evaluate_scheme

from grid_reference import grid_alpha2, sum_rate_objective

ALPHA_STEP = 1e-4


def rigid_rows(params, users, cfg):
    """The two-stage search's stage-1 rows: the rigid array at each grid
    centre that fits the region, or at the clamped midpoint if none does."""
    lo_c, hi_c = center_bounds(params)
    centers = _grid(params, users, cfg)
    centers = centers[(centers >= lo_c) & (centers <= hi_c)]
    if centers.size == 0:
        centers = np.array([min(max(0.5 * (users[0].x + users[1].x), lo_c), hi_c)])
    return centers[:, None] + np.array(_pitch_offsets(params))[None, :]


class TestGridAlpha2:
    def test_matches_closed_form_reference(self):
        best = grid_alpha2(3.0, 9.0, QosTargets(1.0, 0.5), ALPHA_STEP)
        assert best == pytest.approx(1.0 / 3.0, abs=ALPHA_STEP)

    def test_unsatisfiable_target_is_infeasible(self):
        assert grid_alpha2(3.0, 9.0, QosTargets(50.0, 0.5)) is None

    def test_lax_targets_pick_equal_split(self):
        # monotone objective when the strong channel dominates
        assert grid_alpha2(2.0, 8.0, QosTargets(0.0, 0.0)) == 0.5

    def test_agreement_with_closed_form_randomized(self, rng):
        checked = 0
        while checked < 200:
            snr1 = 10 ** rng.uniform(-1, 5)
            snr2 = snr1 * 10 ** rng.uniform(0, 3)
            qos = QosTargets(rng.uniform(0.05, 3.0), rng.uniform(0.0, 2.0))
            best = grid_alpha2(snr1, snr2, qos, ALPHA_STEP)
            if best is None:
                continue
            closed, _ = optimal_alpha2(snr1, qos)
            assert abs(best - closed) <= 2 * ALPHA_STEP
            checked += 1

    def test_objective_at_gridpoint_not_above_closed_form(self, rng):
        for _ in range(50):
            snr1 = 10 ** rng.uniform(0, 4)
            snr2 = snr1 * 10 ** rng.uniform(0, 2)
            qos = QosTargets(0.2, 0.1)
            best = grid_alpha2(snr1, snr2, qos)
            if best is None:
                continue
            closed, _ = optimal_alpha2(snr1, qos)
            assert sum_rate_objective(snr1, snr2, best) <= sum_rate_objective(
                snr1, snr2, closed
            ) * (1 + 1e-9) + 1e-12


class TestExhaustivePlacementSingleAntenna:
    def test_near_coincident_users_track_the_user(self):
        # single-user limit: the best radiation point simply minimises the
        # distance, so the winner is the grid point nearest the users
        p = SystemParams(n_antennas=1)
        users = (UserPosition(1.2001, 1.3), UserPosition(1.2, 1.29))
        sol = exhaustive_placement(p, users, QosTargets(0.0, 0.0), OracleConfig())
        assert sol.feasible_found
        assert abs(sol.layout.xs[0] - users[1].x) <= wavelength(p) / 10

    def test_agrees_with_bisection_within_one_step(self):
        p = SystemParams(n_antennas=1)
        users = (UserPosition(3.1, 2.2), UserPosition(-1.7, 0.4))
        qos = QosTargets(0.0, 0.0)
        cfg = OracleConfig()
        sol_o = exhaustive_placement(p, users, qos, cfg)
        sol_b = bisection_solve(p, users, qos, AlgoConfig())
        # allowance: the value change induced by one grid step at the optimum
        step = cfg.resolved_step(p)
        x = sol_o.layout.xs[0]
        probe = np.array([[x - step], [x], [x + step]])
        rates, _ = batch_solution_metrics(p, probe, -p.side_d / 2, users, qos)
        allowance = float(np.max(np.abs(rates - rates[1])))
        assert abs(sol_b.rates.sum_rate - sol_o.rates.sum_rate) <= allowance + 1e-9


class TestTwoStage:
    def test_dominates_grid_snapped_bisection(self, params, qos):
        lam = wavelength(params)
        step = lam / 10
        for t in range(5):
            rng = np.random.default_rng(400 + t)
            u1 = UserPosition(rng.uniform(-4, 4), rng.uniform(1.5, 4.5))
            u2 = UserPosition(rng.uniform(-4, 4), rng.uniform(0.1, 1.0))
            if u1.x == u2.x:
                continue
            users = (u1, u2)
            sol = bisection_solve(params, users, qos, AlgoConfig())
            if not sol.feasible_found:
                continue
            orc = exhaustive_placement(params, users, qos, OracleConfig())
            anchor = max(min(u1.x, u2.x) - 1.0, -params.side_d / 2)
            ks = [round((x - anchor) / step) for x in sol.layout.xs]
            for i in range(1, len(ks)):
                if ks[i] - ks[i - 1] < 5:
                    ks[i] = ks[i - 1] + 5
            snapped = np.array([anchor + k * step for k in ks])
            rates, feas = batch_solution_metrics(
                params, snapped[None, :], -params.side_d / 2, users, qos
            )
            if not feas[0]:
                continue
            # full enumeration of the small grid window around the snap
            k0 = math.ceil((snapped.min() - 2 * lam - anchor) / step)
            k1 = math.floor((snapped.max() + 2 * lam - anchor) / step)
            grid = anchor + step * np.arange(k0, k1 + 1)
            combos = [
                (a, b, c)
                for a in range(len(grid))
                for b in range(a + 5, len(grid))
                for c in range(b + 5, len(grid))
            ]
            rows = grid[np.array(combos)]
            full_rates, full_feas = batch_solution_metrics(
                params, rows, -params.side_d / 2, users, qos
            )
            assert full_feas.any()
            best = float(full_rates[full_feas].max())
            assert best >= rates[0] - 1e-9
            assert orc.feasible_found

    @pytest.mark.parametrize("side", [1, -1], ids=["right", "left"])
    def test_no_centre_in_bounds_takes_the_nearest_bound(self, qos, side):
        # with 1 m spacing the centre stays within 4 m of the middle, while
        # the users' window is [4.3, 5] m: the one centre is the bound itself
        p = SystemParams(delta_min=1.0)
        users = (UserPosition(side * 4.9, 2.0), UserPosition(side * 4.8, 0.5))
        sol = exhaustive_placement(p, users, qos, OracleConfig(search_window=0.5))
        assert sol.feasible_found
        # the centre never moves in stage 2, and the edge antenna has no room
        assert sol.layout.xs[1] == center_bounds(p)[side > 0] == side * 4.0
        assert sol.layout.xs[1 + side] == side * 5.0

    def test_infeasible_stage_one_returns_best_rigid_row(self, params):
        # no rigid array meets a 50 bit/s/Hz target: the reference search
        # reports the highest-rate centre's rigid array, infeasible, unrefined
        qos = QosTargets(50.0, 50.0)
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        cfg = OracleConfig()
        sol = exhaustive_placement(params, users, qos, cfg)
        rows = rigid_rows(params, users, cfg)
        rates, feasible = batch_solution_metrics(params, rows, -params.side_d / 2,
                                                 users, qos)
        assert not feasible.any() and np.sum(rates == rates.max()) == 1
        assert sol.layout.xs == tuple(rows[np.argmax(rates)])
        assert not sol.feasible_found and sol.rates.sum_rate == 0.0
        assert sol.iterations == 0

    @given(n=st.integers(2, 5), fill=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
           edge=st.sampled_from([-1.0, 1.0]), inset=st.tuples(st.floats(0.0, 0.3),
                                                              st.floats(0.0, 0.3)),
           ys=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           window=st.floats(1e-3, 0.05), r_min=st.floats(0.0, 2.0))
    @example(n=3, fill=1.0, edge=1.0, inset=(0.0, 0.1), ys=(2.0, 0.3), window=1e-3, r_min=0.5)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_cramped_feasible_stage_one_stays_feasible(self, n, fill, edge, inset, ys, window,
                                                       r_min):
        """Near a region edge, at a pitch up to the whole region over N - 1
        and a small window, a feasible stage-1 row gives a feasible, valid
        solution: each stage-2 sweep can always rebuild the current row."""
        params = SystemParams(n_antennas=n, delta_min=fill * 10.0 / (n - 1))
        users = tuple(UserPosition(edge * (5.0 - d), y) for d, y in zip(inset, ys))
        assume(users[0].x != users[1].x)
        qos, cfg = QosTargets(r_min, r_min), OracleConfig(search_window=window)
        try:
            rows = rigid_rows(params, users, cfg)
        except PlacementError:  # the pitch rounds past a region that it fills
            reject()
        _, feasible = batch_solution_metrics(params, rows, -params.side_d / 2, users, qos)
        assume(feasible.any())
        sol = exhaustive_placement(params, users, qos, cfg)
        assert sol.feasible_found and sol.feasibility.overall
        sol.layout.validate(params)

    def test_never_worse_than_rigid_centre_sweep(self, params, qos):
        # stage 2 refinement starts from the stage-1 winner and keeps the
        # best feasible snapshot, so it cannot lose to the rigid sweep
        users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
        cfg = OracleConfig()
        sol = exhaustive_placement(params, users, qos, cfg)
        rigid = params.delta_min * (np.arange(params.n_antennas) - 1)
        centers = np.arange(-3.0, 3.0, cfg.resolved_step(params))
        rows = centers[:, None] + rigid[None, :]
        rates, feas = batch_solution_metrics(
            params, rows, -params.side_d / 2, users, qos
        )
        assert sol.rates.sum_rate >= float(rates[feas].max()) - 1e-9


class TestFullGrid:
    @pytest.mark.parametrize(
        "n_antennas, half_span", [(1, 0.2), (2, 0.2), (3, 0.02)], ids=["n1", "n2", "n3"]
    )
    def test_dominates_every_enumerated_layout(self, qos, n_antennas, half_span):
        p = SystemParams(n_antennas=n_antennas)
        users = (UserPosition(half_span, 2.0), UserPosition(-half_span, 0.5))
        cfg = OracleConfig(strategy="full-grid", search_window=0.01)
        sol = exhaustive_placement(p, users, qos, cfg)
        assert sol.feasible_found
        step = cfg.resolved_step(p)
        lo = min(users[0].x, users[1].x) - cfg.search_window
        span = (users[0].x - users[1].x) + 2 * cfg.search_window
        grid = lo + step * np.arange(int(math.floor(span / step)) + 1)
        # every increasing tuple, then the spacing constraint itself
        rows = grid[np.array(list(itertools.combinations(range(grid.size), n_antennas)))]
        rows = rows[np.all(np.diff(rows, axis=1)
                           >= p.delta_min - AntennaLayout.SPACING_SLACK, axis=1)]
        rates, feas = batch_solution_metrics(p, rows, -p.side_d / 2, users, qos)
        assert abs(sol.rates.sum_rate - float(rates[feas].max())) <= 1e-12

    def test_no_feasible_row_returns_best_row(self):
        # no layout meets a 50 bit/s/Hz target: the search reports the row the
        # winner rule picks among all admissible rows, infeasible
        p, qos = SystemParams(n_antennas=2), QosTargets(50.0, 50.0)
        users = (UserPosition(0.15, 2.0), UserPosition(-0.15, 0.5))
        cfg = OracleConfig(strategy="full-grid", search_window=0.01)
        sol = exhaustive_placement(p, users, qos, cfg)
        grid = _grid(p, users, cfg)
        rows = grid[np.array(list(itertools.combinations(range(grid.size), 2)))]
        rows = rows[rows[:, 1] - rows[:, 0] >= p.delta_min - AntennaLayout.SPACING_SLACK]
        rates, feasible = batch_solution_metrics(p, rows, -p.side_d / 2, users, qos)
        assert not feasible.any()
        assert sol.layout.xs == tuple(_winner(rows, rates, ~feasible)[2])
        assert not sol.feasible_found and sol.rates == ZERO_RATES
        assert sol.iterations == 0

    def test_winner_rule(self):
        rows = np.array([[0.0, 1.0], [2.0, 2.0], [2.0, 3.0], [1.0, 4.0]])
        rates = np.array([5.0, 4.0, 4.0, 4.0])
        everything = np.ones(4, dtype=bool)
        assert _winner(rows, rates, np.zeros(4, dtype=bool)) is None
        # the highest rate wins outright
        assert _winner(rows, rates, everything)[2].tolist() == [0.0, 1.0]
        # equal rates: the larger first coordinate; then the earliest row
        rate, x0, row = _winner(rows, rates, np.array([False, True, True, True]))
        assert (rate, x0, row.tolist()) == (4.0, 2.0, [2.0, 2.0])
        # across chunks an exact tie keeps the earlier winner, and an empty
        # chunk keeps it too
        earlier = _winner(rows[1:2], rates[1:2], everything[1:2])
        assert _winner(rows[2:], rates[2:], everything[2:], earlier) is earlier
        assert _winner(rows, rates, ~everything, earlier) is earlier
        assert _winner(rows, rates, everything, earlier)[2].tolist() == [0.0, 1.0]

    def test_combination_cap_refused(self, params, qos):
        users = (UserPosition(4.0, 2.0), UserPosition(-4.0, 0.5))
        cfg = OracleConfig(strategy="full-grid", search_window=1.0)
        with pytest.raises(OracleSizeError):
            exhaustive_placement(params, users, qos, cfg)

    def test_window_without_room_refused(self, params, qos):
        # a grid of three 1.07 mm steps holds no two points half a wavelength apart
        users = (UserPosition(0.001, 2.0), UserPosition(0.0, 0.5))
        cfg = OracleConfig(strategy="full-grid", search_window=0.001)
        with pytest.raises(PlacementError, match="^search window too small for the antenna array$"):
            exhaustive_placement(params, users, qos, cfg)

    def test_deterministic(self, qos):
        p = SystemParams(n_antennas=2)
        users = (UserPosition(0.15, 2.0), UserPosition(-0.15, 0.5))
        cfg = OracleConfig(strategy="full-grid", search_window=0.01)
        a = exhaustive_placement(p, users, qos, cfg)
        b = exhaustive_placement(p, users, qos, cfg)
        assert a == b


@pytest.mark.parametrize("strategy", ["full-grid", "two-stage"])
@pytest.mark.parametrize("qos, feasible", [(QosTargets(), True), (QosTargets(50.0, 50.0), False)])
def test_solution_is_its_layouts_own(strategy, qos, feasible):
    """Each reference solution, feasible or not, is placement_solution's for
    its own layout, bit for bit."""
    p = SystemParams(n_antennas=2)
    users = (UserPosition(0.15, 2.0), UserPosition(-0.15, 0.5))
    sol = exhaustive_placement(p, users, qos, OracleConfig(strategy=strategy, search_window=0.01))
    assert sol.feasible_found is feasible and sol.iterations == 0
    assert all(type(x) is float for x in sol.layout.xs)
    assert repr(sol) == repr(placement_solution(p, sol.layout, users, qos, 0))


@pytest.mark.parametrize("strategy", ["full-grid", "two-stage"])
def test_feed_point_is_region_left_edge(qos, strategy):
    p = SystemParams(n_antennas=2)
    users = (UserPosition(0.15, 2.0), UserPosition(-0.15, 0.5))
    cfg = OracleConfig(strategy=strategy, search_window=0.01)
    assert exhaustive_placement(p, users, qos, cfg).layout.feed_x == -p.side_d / 2


@pytest.mark.parametrize("users, message", [
    ((UserPosition(float("nan"), 2.0), UserPosition(1.0, 0.5)), "user1.x must be finite, got nan"),
    ((UserPosition(1.0, 2.0), UserPosition(1.0, float("nan"))), "user2.y must be finite, got nan"),
    ((UserPosition(7.0, 2.0), UserPosition(6.5, 0.5)), "user1.x must be in [-5.0, 5.0], got 7.0"),
    ((UserPosition(1.0, 2.0), UserPosition(-6.0, 0.5)), "user2.x must be in [-5.0, 5.0], got -6.0"),
    ((UserPosition(1.0, 2.0), UserPosition(1.0, 0.5)),
     "degenerate scenario: users share the same x-coordinate"),
], ids=["nan-x", "nan-y", "outside", "outside-user2", "shared-x"])
def test_both_solvers_refuse_the_same_users(params, qos, users, message):
    solvers = [lambda: bisection_solve(params, users, qos, AlgoConfig())]
    solvers += [lambda s=s: exhaustive_placement(params, users, qos, OracleConfig(strategy=s))
                for s in ("full-grid", "two-stage")]
    for solve in solvers:
        with pytest.raises(PlacementError) as exc:
            solve()
        assert str(exc.value) == message


class TestOracleConfig:
    def test_default_step_is_tenth_wavelength(self, params):
        assert OracleConfig().resolved_step(params) == pytest.approx(
            wavelength(params) / 10, rel=1e-12
        )

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            OracleConfig(strategy="random-restart")


class TestEvaluationPathsAgree:
    """The batched oracle metrics and the solver's per-layout evaluation run
    the same NOMA formulas, so on the same layouts they must agree."""

    USERS = (UserPosition(12.0, -14.0), UserPosition(-9.0, 0.5))

    @staticmethod
    def _grid_rows(params, users, count=300):
        # admissible N = 3 rows on the oracle's position grid
        cfg = OracleConfig()
        grid = _grid(params, users, cfg)
        step = cfg.resolved_step(params)
        gap = math.ceil((params.delta_min - AntennaLayout.SPACING_SLACK) / step)
        rng = np.random.default_rng(3)
        i0 = rng.integers(0, grid.size - 3 * gap - 20, count)
        i1 = i0 + gap + rng.integers(0, 10, count)
        i2 = i1 + gap + rng.integers(0, 10, count)
        return grid[np.stack([i0, i1, i2], axis=1)]

    @pytest.mark.parametrize("pt_dbm", [0.0, 30.0])
    def test_batch_matches_evaluate_placement(self, pt_dbm):
        params = SystemParams(side_d=30.0, pt_dbm=pt_dbm)
        qos = QosTargets()
        feed_x = -params.side_d / 2.0
        rows = self._grid_rows(params, self.USERS)
        rates, feasible = batch_solution_metrics(
            params, rows, feed_x, self.USERS, qos
        )
        assert 0 < feasible.sum() < len(rows)
        unclamped = False
        for row, rate, ok in zip(rows, rates, feasible):
            layout = AntennaLayout(xs=tuple(row), feed_x=feed_x)
            split, report_rates, report, _ = evaluate_placement(
                params, layout, self.USERS, qos
            )
            unclamped |= 0.0 < split.alpha2 < 0.5
            assert report.overall == ok
            # array and scalar log2 may differ in the last bit
            assert abs(report_rates.sum_rate - rate) <= 4 * np.spacing(rate)
        if pt_dbm == 0.0:  # the closed form is unclamped on part of the rows
            assert unclamped

    @pytest.mark.parametrize(
        "scheme", ["conventional-uniform", "conventional-mrt"], ids=["uniform", "mrt-strong"]
    )
    @pytest.mark.parametrize("seed_id", range(6))
    def test_conventional_record_matches_scalar_api(self, scheme, seed_id):
        # at 0 dBm over 30 m these drops mix swaps, clamps, interior splits
        # and infeasible cells
        params = SystemParams(pt_dbm=0.0, side_d=30.0)
        qos = QosTargets()
        scen = sample_scenario(trial_rng(11, seed_id), params.side_d, seed_id)
        rec = evaluate_scheme(params, scen, qos, AlgoConfig(), scheme)
        g1_sq, g2_sq = conventional_effective_gain(
            params, (scen.user1, scen.user2), scheme
        )
        assert rec.swapped == (g2_sq < g1_sq)
        g1_sq, g2_sq = sorted((g1_sq, g2_sq))
        rho = snr_scale(params)
        alpha2, _ = optimal_alpha2(rho * g1_sq, qos)
        rates = rate_report(rho * g1_sq, rho * g2_sq, PowerSplit.from_alpha2(alpha2))
        assert rec.alpha2 == alpha2
        if rec.feasible:
            assert (rec.r1, rec.r2) == (rates.r1, rates.r2)
            assert rec.sum_rate == rates.sum_rate
        else:
            assert rec.sum_rate == 0.0
