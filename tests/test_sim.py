import csv
import json
import math
import statistics
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchopt import (
    AlgoConfig,
    OracleConfig,
    QosTargets,
    ResultTable,
    Scenario,
    SweepSpec,
    SystemParams,
    UserPosition,
    evaluate_scheme,
    exhaustive_placement,
    run_sweeps,
    sample_scenario,
    trial_rng,
    write_table,
)
from pinchopt import placement, sim
from pinchopt.channel import BASELINE_SCHEMES
from pinchopt.noma import snr_scale
from pinchopt.oracle import OracleSizeError
from pinchopt.placement import PlacementError
from pinchopt.sim import SCHEMES, SWEEPS, worker_count

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

    def test_coordinates_are_python_floats(self):
        # a solve's scalar steps then run as float arithmetic, not NumPy's
        for seed in range(40):
            for t in range(25):
                s = sample_scenario(trial_rng(seed, t), 10.0, t)
                assert all(type(v) is float for u in (s.user1, s.user2) for v in (u.x, u.y))

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


class TestChunks:
    """Each chunk that _run_plans forms is one drop, so its tasks may share
    one set of placement.new_tables."""

    @pytest.mark.parametrize("names, spec", [
        (FIGURES, SweepSpec(trials=3)),
        (["power"], SweepSpec(pt_dbm_values=(0.0, 40.0), d_values=(10.0, 20.0), trials=3,
                              schemes=SCHEMES)),
    ], ids=["figures", "power-all-schemes"])
    def test_one_scenario_and_one_set_of_tables_per_chunk(self, monkeypatch, names, spec):
        chunks, made, fresh = [], [], []
        run_group, new_tables = sim._run_group, placement.new_tables

        def group(jobs):
            chunks.append(jobs)
            return run_group(jobs)

        def counted(calls):
            def tables(*args):
                made = new_tables(*args)
                calls.append((len(chunks), made[4]))
                return made
            return tables

        monkeypatch.setattr(sim, "_run_group", group)
        monkeypatch.setattr(sim, "new_tables", counted(made))
        monkeypatch.setattr(placement, "new_tables", counted(fresh))
        run_sweeps(names, SystemParams(), QosTargets(), AlgoConfig(), spec)
        assert len(chunks) == len(spec.d_values) * spec.trials
        for jobs in chunks:
            tasks = [task for _, task in jobs]
            assert len({id(task[1]) for task in tasks}) == 1
            assert len({replace(task[0], pt_dbm=0.0, noise_dbm=0.0) for task in tasks}) == 1
        # once per chunk, as it starts, declaring its solver tasks' SNR scales
        assert [n for n, _ in made] == list(range(1, len(chunks) + 1))
        for jobs, (_, scales) in zip(chunks, made):
            assert scales == {snr_scale(task[0]) for _, task in jobs if task[4] == "pinching"}
            assert len(scales) == len(spec.pt_dbm_values)
        # within a chunk only the reference search's final evaluation takes
        # fresh tables
        assert len(fresh) == sum(task[4] == "exhaustive" for jobs in chunks for _, task in jobs)


class TestBaselineGains:
    """Each drop computes a baseline scheme's gains once, for all its powers."""

    def test_one_gain_call_per_drop_and_scheme(self, monkeypatch):
        calls = Counter()
        gain = sim.conventional_effective_gain

        def counted(params, users, scheme):
            calls[users, replace(params, pt_dbm=0.0, noise_dbm=0.0), scheme] += 1
            return gain(params, users, scheme)

        monkeypatch.setattr(sim, "conventional_effective_gain", counted)
        spec = SweepSpec(d_values=(10.0, 30.0), trials=3, schemes=("pinching", *BASELINE_SCHEMES))
        run_sweeps(["power"], SystemParams(), QosTargets(), AlgoConfig(), spec)
        assert len(spec.pt_dbm_values) == 9
        assert len(calls) == len(spec.d_values) * spec.trials * len(BASELINE_SCHEMES)
        assert set(calls.values()) == {1}

    def test_records_on_drop_state_equal_fresh_ones(self, monkeypatch):
        # seed 2 over 40 drops gives each scheme swapped, feasible and
        # infeasible cells
        made = []

        def spy(*args):
            made.append((args, evaluate_scheme(*args)))
            return made[-1][1]

        monkeypatch.setattr(sim, "evaluate_scheme", spy)
        spec = SweepSpec(d_values=(10.0, 30.0), trials=40, seed=2, schemes=BASELINE_SCHEMES)
        run_sweeps(["power"], SystemParams(), QosTargets(), AlgoConfig(), spec)
        assert len(made) == len(spec.pt_dbm_values) * len(spec.d_values) * spec.trials * 2
        drops = {}
        for args, rec in made:
            params, scen, qos, _, scheme, _, _, gains = args
            # one dict per drop, holding each baseline scheme once it has run
            assert drops.setdefault((params.side_d, scen.seed_id), gains) is gains
            rates, split, ok, swapped = sim._conventional_record(
                params, (scen.user1, scen.user2), qos, scheme)
            assert (rec.sum_rate.hex(), rec.r1.hex(), rec.r2.hex(), rec.alpha2.hex(),
                    rec.feasible, rec.swapped) == (
                rates.sum_rate.hex(), rates.r1.hex(), rates.r2.hex(), split.alpha2.hex(),
                ok, swapped)
        assert len(drops) == len(spec.d_values) * spec.trials
        assert all(set(g) == set(BASELINE_SCHEMES) for g in drops.values())
        for scheme in BASELINE_SCHEMES:
            cells = {(r.swapped, r.feasible) for a, r in made if a[4] == scheme}
            assert {True, False} == {s for s, _ in cells} == {f for _, f in cells}


SUBNORMALS = st.floats(min_value=5e-324, max_value=2.225e-308)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.just(0.0), SUBNORMALS, st.floats(1e-300, 1e300),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=200))
@example([0.0, 5e-324, 1e-300, 1.0, 7.25, 1e300])
@example([2.0**-1074] * 199 + [0.0])
@example([1e300, -1e300, 5e-324])
@example([0.1] * 10)
def test_exact_mean_is_statistics_mean(values):
    got, want = sim.exact_mean(values), statistics.mean(values)
    assert type(got) is float and got.hex() == float(want).hex()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(names=st.lists(st.sampled_from(list(SWEEPS)), min_size=1, unique=True),
       d_values=st.lists(st.sampled_from([0.004, 0.012, 10.0]), min_size=1, unique=True),
       n_antennas=st.integers(1, 4),
       schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, unique=True),
       fine_step=st.booleans())
def test_refused_before_any_task_or_never(names, d_values, n_antennas, schemes, fine_step):
    """A sweep is refused before its first task, or no task meets a size error:
    arrays of 1 to 4 antennas on regions they do or do not fit, and a search
    step whose worst-case grid is 2e6 points over the default 10 m region."""
    params = SystemParams(n_antennas=n_antennas)
    oracle_cfg = OracleConfig(position_step=params.side_d / 2e6 if fine_step else None)
    spec = SweepSpec(pt_dbm_values=(0.0,), d_values=tuple(d_values), trials=1,
                     schemes=tuple(schemes))
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate_scheme(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "evaluate_scheme", counting)
        try:
            run_sweeps(names, params, QosTargets(), AlgoConfig(), spec, oracle_cfg)
        except (PlacementError, OracleSizeError):
            assert calls == []



@pytest.mark.parametrize("side_d, n_antennas, oracle_cfg, seed, error, match", [
    # drop 0's search has 7.0e4 layouts, drop 1's 2.9e8, over the cap
    (1.5, 3, OracleConfig(search_window=0.02, strategy="full-grid"), 4,
     OracleSizeError, "would enumerate 286562199 layouts"),
    # drop 0's window holds two positions a step apart, drop 1's one
    (10.0, 2, OracleConfig(position_step=4.0, search_window=0.01, strategy="full-grid"), 0,
     PlacementError, "search window too small"),
])
def test_full_grid_refused_before_any_task(side_d, n_antennas, oracle_cfg, seed, error, match):
    """A full-grid search that a later drop would refuse, over its combination
    cap or with no layout, is refused before the first task, with the error
    the search itself raises on that drop."""
    params = SystemParams(side_d=side_d, n_antennas=n_antennas)
    spec = SweepSpec(pt_dbm_values=(0.0,), d_values=(side_d,), trials=2, seed=seed,
                     schemes=("pinching", "exhaustive"))
    calls = []

    def counting(*args):
        calls.append(args)
        return evaluate_scheme(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "evaluate_scheme", counting)
        with pytest.raises(error, match=match) as refused:
            run_sweeps(["power"], params, QosTargets(), AlgoConfig(), spec, oracle_cfg)
    assert calls == []
    first, second = (sample_scenario(trial_rng(seed, t), side_d, t) for t in range(2))
    exhaustive_placement(params, (first.user1, first.user2), QosTargets(), oracle_cfg)
    with pytest.raises(error) as searched:
        exhaustive_placement(params, (second.user1, second.user2), QosTargets(), oracle_cfg)
    assert str(searched.value) == str(refused.value)


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
