import csv
import json
import math

import pytest

from pinchopt import (
    AlgoConfig,
    QosTargets,
    ResultTable,
    Scenario,
    SweepSpec,
    SystemParams,
    UserPosition,
    evaluate_scheme,
    run_sweeps,
    sample_scenario,
    trial_rng,
    write_table,
)
from pinchopt import sim
from pinchopt.sim import worker_count

FIGURES = ["power", "delta", "oracle"]


class TestSampleScenario:
    def test_seeded_draw_reproduces(self):
        a = sample_scenario(trial_rng(42, 0), 10.0)
        b = sample_scenario(trial_rng(42, 0), 10.0)
        assert a == b

    def test_distinct_trials_differ(self):
        a = sample_scenario(trial_rng(42, 0), 10.0)
        b = sample_scenario(trial_rng(42, 1), 10.0)
        assert a != b

    def test_labelling_by_waveguide_distance(self):
        for t in range(200):
            s = sample_scenario(trial_rng(9, t), 10.0, t)
            assert abs(s.user2.y) < abs(s.user1.y)
            assert s.user1.x != s.user2.x

    def test_stays_inside_region(self):
        for t in range(200):
            s = sample_scenario(trial_rng(1, t), 6.0, t)
            for u in (s.user1, s.user2):
                assert abs(u.x) <= 3.0 and abs(u.y) <= 3.0

    def test_coordinate_means_near_zero(self):
        d = 10.0
        n = 10_000
        xs, ys = [], []
        for t in range(n):
            s = sample_scenario(trial_rng(123, t), d, t)
            xs.extend((s.user1.x, s.user2.x))
            ys.extend((s.user1.y, s.user2.y))
        sigma = d / math.sqrt(12) / 100.0
        assert abs(sum(xs) / len(xs)) < 3 * sigma
        assert abs(sum(ys) / len(ys)) < 3 * sigma

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError):
            sample_scenario(trial_rng(0, 0), -1.0)

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            Scenario(UserPosition(1.0, 0.2), UserPosition(2.0, 3.0))
        with pytest.raises(ValueError):
            Scenario(UserPosition(1.0, 2.0), UserPosition(1.0, 0.2))


class TestEvaluateScheme:
    def test_pinching_record_reproduces(self, params, qos, algo_cfg):
        scen = sample_scenario(trial_rng(7, 3), params.side_d, 3)
        a = evaluate_scheme(params, scen, qos, algo_cfg, "pinching")
        b = evaluate_scheme(params, scen, qos, algo_cfg, "pinching")
        assert a == b

    def test_conventional_equidistant_users_keep_labels(self, qos, algo_cfg):
        p = SystemParams(n_antennas=1)
        scen = Scenario(UserPosition(2.0, -1.5), UserPosition(-2.0, 1.4))
        rec = evaluate_scheme(p, scen, qos, algo_cfg, "conventional-uniform")
        # near-equal distances from the origin: the |y| labelling stands
        assert not rec.swapped

    def test_conventional_swaps_when_weak_user_is_nearer(self, qos, algo_cfg):
        p = SystemParams()
        # user1 (weak label) much closer to the fixed array at the origin
        scen = Scenario(UserPosition(0.1, 2.0), UserPosition(4.5, 0.5))
        rec = evaluate_scheme(p, scen, qos, algo_cfg, "conventional-uniform")
        assert rec.swapped

    def test_unknown_scheme_rejected(self, params, qos, algo_cfg):
        scen = sample_scenario(trial_rng(7, 0), params.side_d)
        with pytest.raises(ValueError, match="unknown scheme"):
            evaluate_scheme(params, scen, qos, algo_cfg, "beam-hopping")

    def test_pinching_beats_conventional_on_average(self, params, qos, algo_cfg):
        wins = 0
        trials = 20
        for t in range(trials):
            scen = sample_scenario(trial_rng(2, t), params.side_d, t)
            pin = evaluate_scheme(params, scen, qos, algo_cfg, "pinching")
            conv = evaluate_scheme(params, scen, qos, algo_cfg, "conventional-uniform")
            wins += pin.sum_rate > conv.sum_rate
        assert wins >= trials * 0.8


class TestSweepSpec:
    def test_lists_equal_tuples(self):
        lists = SweepSpec(pt_dbm_values=[0, 30], d_values=[10.0],
                          delta_pairs=[[0.5, 0.02], (0.2, 0.02)], schemes=["pinching"])
        tuples = SweepSpec(pt_dbm_values=(0, 30), d_values=(10.0,),
                           delta_pairs=((0.5, 0.02), (0.2, 0.02)), schemes=("pinching",))
        assert lists == tuples and hash(lists) == hash(tuples)


def assert_figures_table_matches(spec, index, alone):
    """Table ``index`` (fig2, fig3, fig4) of all three sweeps run together,
    serial and pooled, equals the sweep ``alone`` run by itself."""
    for threads in (1, 2):
        merged = run_sweeps(FIGURES, SystemParams(), QosTargets(), AlgoConfig(), spec,
                            threads=threads)[index]
        assert merged.table == alone.table
        assert merged.records == alone.records


@pytest.fixture(scope="module")
def sweep_result():
    spec = SweepSpec(
        pt_dbm_values=(10.0, 20.0, 30.0),
        d_values=(10.0, 20.0),
        trials=10,
        seed=77,
        schemes=("pinching", "conventional-uniform"),
    )
    return run_sweeps(["power"], SystemParams(), QosTargets(), AlgoConfig(), spec)[0], spec


class TestPowerSweep:
    def test_row_cardinality(self, sweep_result):
        result, spec = sweep_result
        assert len(result.table.rows) == 3 * 2 * 2
        assert result.table.header == (
            "pt_dbm", "side_d_m", "scheme", "trials",
            "mean_sum_rate_bpshz", "feasible_fraction",
        )

    def test_mean_rate_monotone_in_power(self, sweep_result):
        result, spec = sweep_result
        cells = {(r[0], r[1], r[2]): r[4] for r in result.table.rows}
        for d in spec.d_values:
            for scheme in spec.schemes:
                series = [cells[(pt, d, scheme)] for pt in spec.pt_dbm_values]
                assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))

    def test_feasible_fraction_in_range(self, sweep_result):
        result, _ = sweep_result
        for row in result.table.rows:
            assert 0.0 <= row[5] <= 1.0

    def test_paired_scenarios_across_schemes(self, sweep_result):
        result, spec = sweep_result
        # same trial count everywhere; per-trial records line up by index
        for key, recs in result.records.items():
            assert len(recs) == spec.trials

    def test_feasible_fraction_nonincreasing_in_target(self):
        spec = SweepSpec(pt_dbm_values=(0.0,), d_values=(20.0,), trials=12,
                         seed=3, schemes=("conventional-uniform",))
        fractions = []
        for r1 in (0.1, 2.0, 8.0):
            res = run_sweeps(["power"], SystemParams(), QosTargets(r1, r1), AlgoConfig(),
                             spec)[0]
            fractions.append(res.table.rows[0][5])
        assert fractions[0] >= fractions[1] >= fractions[2]

    def test_parallel_matches_sequential(self):
        spec = SweepSpec(pt_dbm_values=(0.0, 20.0, 40.0), d_values=(10.0, 20.0),
                         trials=3, seed=8)
        args = (["power"], SystemParams(), QosTargets(), AlgoConfig(), spec)
        seq = run_sweeps(*args)[0]
        par = run_sweeps(*args, threads=2)[0]
        assert seq.table == par.table
        assert seq.records == par.records
        assert_figures_table_matches(spec, 0, seq)


class TestDeltaSweep:
    def test_shape_and_order(self):
        spec = SweepSpec(
            pt_dbm_values=(20.0, 30.0),
            d_values=(10.0,),
            delta_pairs=((0.5, 0.02), (0.5, 100.0)),
            trials=5,
            seed=4,
        )
        res = run_sweeps(["delta"], SystemParams(), QosTargets(), AlgoConfig(), spec)[0]
        assert res.table.header == (
            "pt_dbm", "delta1_rad", "delta2_rad", "mean_sum_rate_bpshz"
        )
        assert len(res.table.rows) == 4
        for row in res.table.rows:
            assert row[3] >= 0.0 and math.isfinite(row[3])

    def test_parallel_matches_sequential(self):
        spec = SweepSpec(pt_dbm_values=(0.0, 20.0, 40.0), d_values=(10.0,),
                         delta_pairs=((0.5, 0.02), (0.2, 0.02)), trials=3, seed=9)
        args = (["delta"], SystemParams(), QosTargets(), AlgoConfig(), spec)
        seq = run_sweeps(*args)[0]
        par = run_sweeps(*args, threads=2)[0]
        assert seq.table == par.table
        assert seq.records == par.records
        assert_figures_table_matches(spec, 1, seq)


class TestOracleComparison:
    def test_gap_statistics(self):
        spec = SweepSpec(pt_dbm_values=(30.0,), d_values=(10.0,), trials=5, seed=21)
        res = run_sweeps(["oracle"], SystemParams(), QosTargets(), AlgoConfig(), spec)[0]
        assert res.table.header == ("trial", "sum_rate_algo", "sum_rate_oracle", "rel_gap")
        assert len(res.table.rows) == 5
        for t, row in enumerate(res.table.rows):
            algo, orac = res.records[t]
            assert (algo.scheme, orac.scheme) == ("pinching", "exhaustive")
            assert row[:3] == (t, algo.sum_rate, orac.sum_rate)

    def test_parallel_matches_sequential(self):
        spec = SweepSpec(pt_dbm_values=(30.0,), d_values=(10.0,), trials=4, seed=21)
        args = (["oracle"], SystemParams(), QosTargets(), AlgoConfig(), spec)
        seq = run_sweeps(*args)[0]
        par = run_sweeps(*args, threads=2)[0]
        assert seq.table == par.table
        assert seq.records == par.records
        assert_figures_table_matches(spec, 2, seq)


class TestRunSweeps:
    def test_each_drop_drawn_once(self, monkeypatch):
        # fig3 and fig4 run at the first region size, which fig2 also sweeps
        drawn = []

        def counting(rng, side_d, seed_id=0):
            drawn.append((side_d, seed_id))
            return sample_scenario(rng, side_d, seed_id)

        monkeypatch.setattr(sim, "sample_scenario", counting)
        spec = SweepSpec(pt_dbm_values=(30.0,), d_values=(10.0, 20.0), trials=3, seed=5,
                         schemes=("conventional-uniform",))
        alone = [run_sweeps([name], SystemParams(), QosTargets(), AlgoConfig(), spec)[0]
                 for name in FIGURES]
        assert len(drawn) == 2 * 3 + 3 + 3
        drawn.clear()
        together = run_sweeps(FIGURES, SystemParams(), QosTargets(), AlgoConfig(), spec)
        assert sorted(drawn) == [(d, t) for d in spec.d_values for t in range(spec.trials)]
        assert [r.table for r in together] == [r.table for r in alone]


class TestWorkerCount:
    def test_capped_by_cpus_for_a_huge_request(self):
        assert worker_count(10**6, cpus=2, n_tasks=10**6) == 2

    def test_capped_by_tasks(self):
        assert worker_count(10**6, cpus=64, n_tasks=3) == 3

    def test_zero_means_one_per_cpu(self):
        assert worker_count(0, cpus=4, n_tasks=100) == 4

    def test_explicit_request_below_the_caps(self):
        assert worker_count(3, cpus=8, n_tasks=100) == 3

    @pytest.mark.parametrize("threads,n_tasks", [(1, 100), (8, 1), (8, 0)])
    def test_serial_cases_give_one(self, threads, n_tasks):
        assert worker_count(threads, cpus=8, n_tasks=n_tasks) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="threads must be >= 0"):
            worker_count(-3, cpus=8, n_tasks=100)


class TestWriteTable:
    def test_empty_table_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(ResultTable(header=("a", "b"), rows=()), str(path), "csv")
        assert path.read_text() == "a,b\n"

    def test_csv_round_trip(self, tmp_path):
        table = ResultTable(
            header=("name", "value", "count"),
            rows=(("x", 1.0 / 3.0, 7),),
        )
        path = tmp_path / "t.csv"
        write_table(table, str(path), "csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "value", "count"]
        assert rows[1][0] == "x"
        assert float(rows[1][1]) == 1.0 / 3.0
        assert int(rows[1][2]) == 7

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = ResultTable(header=("v",), rows=((0.1234567890123456789,), (2.0,)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(table, str(p1), "csv")
        write_table(table, str(p2), "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirrors_fields(self, tmp_path):
        table = ResultTable(header=("a", "b"), rows=((1, 2.5), (3, 4.5)))
        path = tmp_path / "t.json"
        write_table(table, str(path), "json")
        data = json.loads(path.read_text())
        assert data == [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(ResultTable(("a",), ()), str(tmp_path / "t.xml"), "xml")
