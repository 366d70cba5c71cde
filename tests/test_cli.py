import contextlib
import csv
import dataclasses
import io
import json
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

import pinchopt
from pinchopt import AntennaLayout, sim
from pinchopt.channel import MAX_ANTENNAS
from pinchopt.cli import ConfigError, build_config, load_config, main
from pinchopt.oracle import OracleSizeError
from pinchopt.sim import SamplingError, run_sweeps

SCENARIO_SET = 'scenario={"user1":{"x":2.0,"y":1.0},"user2":{"x":-2.0,"y":0.3}}'
SMALL_SWEEP = [
    "--set", "sweep.trials=2",
    "--set", "sweep.pt_dbm_values=[10,30]",
    "--set", "sweep.d_values=[10]",
    "--set", "sweep.delta_pairs=[[0.5,0.02],[0.5,100]]",
]


class TestConfig:
    def test_defaults_reproduce_reference_setting(self):
        cfg = build_config({})
        assert cfg.system.fc == 28e9
        assert cfg.system.noise_dbm == -90.0
        assert cfg.system.h == 3.0
        assert cfg.system.n_eff == 1.4
        assert cfg.system.n_antennas == 3
        assert cfg.system.delta_min == pytest.approx(0.0107068735 / 2, rel=1e-12)
        assert cfg.qos.r1_min == 0.5 and cfg.qos.r2_min == 0.5

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: antena"):
            build_config({"antena": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key: system.fcc"):
            build_config({"system": {"fcc": 1e9}})

    def test_round_trip_is_stable(self):
        cfg = load_config(None, ["system.pt_dbm=25", "sweep.trials=7"], seed=99)
        doc = dataclasses.asdict(cfg)
        again = build_config(json.loads(json.dumps(doc)))
        assert dataclasses.asdict(again) == doc

    def test_override_value_parsing(self):
        cfg = load_config(None, ["sweep.pt_dbm_values=[1,2,3]"], None)
        assert cfg.sweep.pt_dbm_values == (1, 2, 3)
        # a value that is not JSON is taken as the string it reads
        cfg = load_config(None, ["oracle.strategy=full-grid"], None)
        assert cfg.oracle.strategy == "full-grid"

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, ["sweep.trials"], None)


# every scalar number field: (dotted key, the kind it must be, whether its default is None)
NUMBER_FIELDS = [
    *((f, "a number", False) for f in (
        "system.fc", "system.n_eff", "system.h", "system.side_d", "system.pt_dbm",
        "system.noise_dbm", "algo.epsilon", "algo.delta1", "algo.delta2", "qos.r1_min",
        "qos.r2_min", "oracle.search_window")),
    *((f, "a number", True) for f in (
        "system.delta_min", "algo.fine_step", "oracle.position_step")),
    *((f, "an integer", False) for f in (
        "system.n_antennas", "sweep.trials", "sweep.seed", "scenario.seed_id")),
    ("algo.max_fine_shifts", "an integer", True),
]


class TestSolveCommand:
    def test_feasible_scenario_exits_zero(self, capsys):
        code = main(["solve", "--set", SCENARIO_SET])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["antenna_xs"]) == 3
        assert out["feasible"] is True
        assert out["rates"]["sum"] > 0
        assert list(out["feasibility"]) == [  # the record's field order
            "spacing", "r1_qos", "r2_qos", "sic", "order_alpha", "order_channel",
        ]

    def test_unsatisfiable_target_exits_two(self, capsys):
        code = main(["solve", "--set", SCENARIO_SET, "--set", "qos.r1_min=50"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["feasible"] is False

    BAD_VALUES = [
        *((v, "must be finite") for v in (
            "system.pt_dbm=NaN", "system.noise_dbm=-Infinity", "system.fc=Infinity",
            "algo.epsilon=NaN", "algo.delta1=NaN", "algo.delta2=Infinity",
            "algo.fine_step=Infinity", "qos.r1_min=NaN", "qos.r2_min=Infinity",
            "oracle.position_step=NaN", "oracle.search_window=NaN", "sweep.pt_dbm_values=[0,NaN]",
            "sweep.d_values=[10,Infinity]", "sweep.delta_pairs=[[0.5,NaN]]",
        )),
        *((v, "must be an integer") for v in (
            "system.n_antennas=2.5", "system.n_antennas=true",
            "algo.max_fine_shifts=3.5", "sweep.trials=2.5", "sweep.seed=1.5",
            "sweep.seed=false", "scenario.seed_id=1.5",
        )),
        ("sweep.seed=-1", "seed must be >= 0"),
        # finite but absurd values that overflowed, or divided by zero, in the solve
        ("system.pt_dbm=4000", "pt_dbm must be in [-300.0, 300.0], got 4000"),
        ("system.noise_dbm=-4000", "noise_dbm must be in [-300.0, 300.0], got -4000"),
        ("qos.r1_min=1e300", "r1_min must be in [0, 200.0], got 1e+300"),
        ("qos.r2_min=1e300", "r2_min must be in [0, 200.0], got 1e+300"),
        ("sweep.pt_dbm_values=[0,4000]", "pt_dbm_values must be in [-300.0, 300.0], got 4000"),
        ("system.h=1e300", "h must be in (0, 1000.0], got 1e+300"),
        ("system.side_d=1e300", "side_d must be in (0, 1000.0], got 1e+300"),
        ("system.n_eff=1e306", "n_eff must be in [1, 100.0], got 1e+306"),
        ("system.fc=1e300", "fc must be in [1000.0, 1000000000000000.0], got 1e+300"),
        ("system.fc=1e-300", "fc must be in [1000.0, 1000000000000000.0], got 1e-300"),
        # a pitch that rounds away, and a spacing below the spacing check's slack
        ("system.delta_min=1e-17", "delta_min must be >= 1e-09, got 1e-17"),
        ("system.delta_min=5e-324", "delta_min must be >= 1e-09, got 5e-324"),
        ("sweep.d_values=[10,1e300]", "d_values must be in (0, 1000.0], got 1e+300"),
        ("sweep.d_values=[-5]", "d_values must be in (0, 1000.0], got -5"),
        ("sweep.d_values=[0]", "d_values must be in (0, 1000.0], got 0"),
        ("sweep.delta_pairs=[[0.5,-0.1]]", "delta_pairs must be >= 0, got -0.1"),
        ("algo.fine_step=1e-16", "fine-tune budget"),
        ("oracle.alpha_step=Infinity", "unknown key"),
        ("sweep.schemes=[]", "must be non-empty"),
        ('sweep.schemes=["beam-hopping"]', "unknown scheme 'beam-hopping'"),
        ("system.n_antennas=3000", "do not fit"),
        # a count whose rigid array fits a 1000 m region at 1e15 Hz, over the cap
        ("system.n_antennas=100000000", "n_antennas must be in [1, 10000], got 100000000"),
        *((v, "must be a JSON object") for v in (
            "system=5", "scenario=5", "scenario.user1=5",
        )),
        ("sweep.d_values=5", "d_values must be a list"),
        ("sweep.delta_pairs=[5]", "must be [delta1, delta2] pairs"),
        ("sweep.delta_pairs=[[0.5]]", "must be [delta1, delta2] pairs"),
        ("sweep.schemes=\"pinching\"", "schemes must be a list"),
        # a repeated value would give rows that share one key, and so one cell's records
        ("sweep.pt_dbm_values=[0,5,0.0]",
         "pt_dbm_values must not repeat a value, got [0, 5, 0.0]"),
        ("sweep.d_values=[10,10]", "d_values must not repeat a value"),
        ("sweep.delta_pairs=[[0.5,0.02],[0.5,0.02]]", "delta_pairs must not repeat a value"),
        ('sweep.schemes=["pinching","pinching"]', "schemes must not repeat a value"),
        # an override below a key that holds a number
        ("scenario.user1.x.y=1", "cannot override inside non-object key 'x'"),
        ('scenario={"user1":{"x":1e300,"y":1},"user2":{"x":0,"y":0.5}}',
         "user1.x must be in [-5.0, 5.0], got 1e+300"),
        ("qos.r1_min=true", "r1_min must be a number"),
        ("sweep.pt_dbm_values=[true]", "pt_dbm_values must be a number, got True"),
        # a string in every number field, and null where the default is not None
        *((f"{field}={bad}", f"{field.rsplit('.', 1)[1]} must be {kind}, got {got}")
          for field, kind, optional in NUMBER_FIELDS
          for bad, got in (('"x"', "'x'"), ("null", "None"))[:1 if optional else 2]),
        *((template.format(bad), f"{name} must be a number, got {got}")
          for template, name in (("sweep.pt_dbm_values=[{}]", "pt_dbm_values"),
                              ("sweep.d_values=[{}]", "d_values"),
                              ("sweep.delta_pairs=[[0.5,{}]]", "delta_pairs"),
                              ("scenario.user1.x={}", "user1.x"))
          for bad, got in (('"x"', "'x'"), ("null", "None"))),
    ]

    @pytest.mark.parametrize(
        "value, message", BAD_VALUES, ids=[v for v, _ in BAD_VALUES]
    )
    def test_non_finite_system_value_exits_one(self, value, message, tmp_path, capsys):
        # rejected while loading the config: before any solve, and before
        # `figures` creates its output directory
        code = main(["solve", "--set", SCENARIO_SET, "--set", value])
        assert code == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "D"
        code = main(["figures", "--out", str(out), "--set", SCENARIO_SET, "--set", value])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_removed_baseline_mode_is_unknown(self, capsys):
        code = main(
            ["solve", "--set", SCENARIO_SET, "--set", 'algo.baseline_mode="bogus"']
        )
        assert code == 1
        assert "unknown key: algo.baseline_mode" in capsys.readouterr().err

    def test_nan_result_exits_one_without_output(self, monkeypatch, capsys):
        # a solution with a NaN in it, which strict JSON refuses
        def nan_solve(*args):
            sol = pinchopt.bisection_solve(*args)
            rates = sol.rates._replace(sum_rate=float("nan"))
            return dataclasses.replace(sol, rates=rates)

        monkeypatch.setattr("pinchopt.cli.bisection_solve", nan_solve)
        code = main(["solve", "--set", SCENARIO_SET])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    def test_sampling_error_exits_one(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise SamplingError("could not draw a non-degenerate scenario")

        monkeypatch.setattr("pinchopt.cli.sample_scenario", exhausted)
        code = main(["solve", "--seed", "3"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: could not draw")

    def test_missing_config_file_exits_one(self, capsys):
        code = main(["solve", "--config", "/no/such/file.json"])
        err = capsys.readouterr().err
        assert code == 1
        assert "/no/such/file.json" in err

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"qos": {"r9_min": 1}}')
        code = main(["solve", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "qos.r9_min" in err

    @pytest.mark.parametrize("text, message", [
        ("{bad", "malformed JSON in "), ("[1]", "must be a JSON object"),
    ], ids=["malformed", "not-an-object"])
    def test_bad_config_file_exits_one(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(path) in err and "Traceback" not in err

    def test_seeded_solve_without_scenario(self, capsys):
        code = main(["solve", "--seed", "12"])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert "scenario" in out


class TestReferenceGridCheck:
    """The reference-search grid is sized, on the worst case of side_d / step
    points, before any task and only where a search runs; the array is fitted
    to a region only where it is placed."""

    # a tiny step, and an fc whose default step (a tenth of a wavelength) is one
    TOO_FINE = ["oracle.position_step=1e-9", "system.fc=1e14"]

    @pytest.mark.parametrize("value", TOO_FINE)
    def test_solve_runs_no_grid_check(self, value, capsys):
        code = main(["solve", "--set", SCENARIO_SET, "--set", value])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert out["feasible"] is (code == 0)

    @pytest.mark.parametrize("value", TOO_FINE)
    @pytest.mark.parametrize("command", [
        ["figures", "--out", "D"],
        ["sweep", "oracle", "--out", "D/t.csv"],
        ["sweep", "power", "--out", "D/t.csv", "--set", 'sweep.schemes=["exhaustive"]'],
    ], ids=["figures", "sweep-oracle", "sweep-power-exhaustive"])
    def test_search_commands_refuse_oversized_grid(self, command, value, tmp_path,
                                                   monkeypatch, capsys):
        calls = []

        def refused(*args):
            calls.append(args)
            raise AssertionError("a task ran before the grid was sized")

        monkeypatch.setattr(sim, "evaluate_scheme", refused)
        monkeypatch.chdir(tmp_path)
        if command[0] == "sweep":
            os.mkdir("D")
        code = main([*command, "--set", SCENARIO_SET, "--set", value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: position grid of") and "Traceback" not in err
        assert calls == []
        assert os.listdir(tmp_path) == (["D"] if command[0] == "sweep" else [])
        assert command[0] == "figures" or os.listdir("D") == []

    def test_grid_checked_only_where_searched(self, monkeypatch):
        monkeypatch.setattr(sim, "_run_plans", lambda plans, threads: plans)  # checks only

        def check(names, *extra):
            cfg = load_config(None, [*sets, *extra], None)
            run_sweeps(names, cfg.system, cfg.qos, cfg.algo, cfg.sweep, cfg.oracle)

        # 1.5e-5 m steps: 6.7e5 points over 10 m, 2e6 over 30 m
        sets = ["sweep.d_values=[10,30]", "oracle.position_step=1.5e-5", "sweep.trials=1"]
        for names in (list(sim.SWEEPS), ["oracle"], ["power"]):
            check(names)  # fig4 searches at the first D only
        for names in (list(sim.SWEEPS), ["power"]):
            with pytest.raises(OracleSizeError, match="position grid of 2e"):
                check(names, 'sweep.schemes=["pinching","exhaustive"]')

    def test_array_checked_only_where_placed(self, tmp_path, capsys):
        # the delta sweep runs at the first D only, so 1 mm is never placed on
        out = tmp_path / "t.csv"
        assert main(["sweep", "delta", "--out", str(out), "--set", "sweep.d_values=[10,0.001]",
                     "--set", "sweep.trials=1", "--set", "sweep.pt_dbm_values=[0]"]) == 0
        assert "3 rows" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 1 + 3
        # a fixed array is never placed, so it may be longer than the region
        out = tmp_path / "p.csv"
        assert main(["sweep", "power", "--out", str(out), "--set", "system.n_antennas=3000",
                     "--set", 'sweep.schemes=["conventional-uniform"]',
                     "--set", "sweep.trials=1", "--set", "sweep.pt_dbm_values=[0]"]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3

    def test_power_sweep_without_search_runs_no_grid_check(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = main(["sweep", "power", "--out", str(out), "--set", "system.fc=1e14",
                     "--set", "sweep.trials=1", "--set", "sweep.pt_dbm_values=[30]"])
        assert code == 0
        assert out.exists()


class TestSweepCommand:
    def test_power_sweep_schema(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["sweep", "power", "--out", str(out), "--seed", "5", *SMALL_SWEEP])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "pt_dbm", "side_d_m", "scheme", "trials",
            "mean_sum_rate_bpshz", "feasible_fraction",
        ]
        assert len(rows) == 1 + 2 * 1 * 2
        assert (tmp_path / "config.json").exists()

    def test_json_output(self, tmp_path):
        out = tmp_path / "delta.json"
        code = main(["sweep", "delta", "--out", str(out), "--seed", "5", *SMALL_SWEEP])
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data[0]) == {"pt_dbm", "delta1_rad", "delta2_rad", "mean_sum_rate_bpshz"}

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sweep", "power", "--out", str(out), "--seed", "5", *SMALL_SWEEP]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_exits_one(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr("pinchopt.cli.run_sweeps", unreachable)
        code = main(["sweep", "power", "--out", "/no/such/dir/t.csv",
                     "--seed", "5", *SMALL_SWEEP])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not os.path.exists("/no/such/dir")

    def test_directory_out_path_exits_one(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr("pinchopt.cli.run_sweeps", unreachable)
        code = main(["sweep", "delta", "--out", f"{tmp_path}/", *SMALL_SWEEP])
        assert code == 1
        assert "is a directory" in capsys.readouterr().err

    def test_config_json_out_path_exits_one(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr("pinchopt.cli.run_sweeps", unreachable)
        code = main(["sweep", "oracle", "--out", str(tmp_path / "config.json"), *SMALL_SWEEP])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: output path")
        assert not (tmp_path / "config.json").exists()

    def test_oracle_sweep_completes_quickly(self, tmp_path):
        out = tmp_path / "oracle.csv"
        start = time.perf_counter()
        code = main([
            "sweep", "oracle", "--out", str(out), "--seed", "5",
            "--set", "sweep.trials=5",
            "--set", "sweep.pt_dbm_values=[30]",
            "--set", "sweep.d_values=[10]",
        ])
        assert code == 0
        assert time.perf_counter() - start < 60.0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["trial", "sum_rate_algo", "sum_rate_oracle", "rel_gap"]
        assert len(rows) == 6

    def test_oversized_position_grid_exits_one(self, tmp_path, capsys):
        # a 1e-12 m step over a 10 m region would be about 1e13 points
        code = main([
            "sweep", "oracle", "--out", str(tmp_path / "oracle.csv"),
            "--set", "oracle.position_step=1e-12", "--set", "sweep.trials=1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: position grid of")
        assert "Traceback" not in err
        assert not (tmp_path / "oracle.csv").exists()

    def test_oversized_full_grid_exits_one(self, tmp_path, capsys):
        code = main([
            "sweep", "oracle", "--out", str(tmp_path / "oracle.csv"),
            "--set", 'oracle.strategy="full-grid"', "--set", "sweep.trials=1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: full-grid search would enumerate")
        assert "Traceback" not in err


class TestFiguresCommand:
    def test_writes_three_tables_and_config(self, tmp_path, capsys):
        out = tmp_path / "figs"
        code = main(["figures", "--out", str(out), "--seed", "5", *SMALL_SWEEP])
        assert code == 0
        headers = {
            "fig2.csv": "pt_dbm,side_d_m,scheme,trials,mean_sum_rate_bpshz,feasible_fraction",
            "fig3.csv": "pt_dbm,delta1_rad,delta2_rad,mean_sum_rate_bpshz",
            "fig4.csv": "trial,sum_rate_algo,sum_rate_oracle,rel_gap",
        }
        for name, header in headers.items():
            first = (out / name).read_text().splitlines()[0]
            assert first == header
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["sweep"]["seed"] == 5

    def test_run_error_leaves_no_directory(self, tmp_path, capsys):
        # the full grid is refused only when the first reference search starts
        out = tmp_path / "fg"
        code = main(["figures", "--out", str(out),
                     "--set", 'oracle.strategy="full-grid"', "--set", "sweep.trials=1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: full-grid search would enumerate")
        assert "Traceback" not in err
        assert not out.exists()

    def test_file_out_path_exits_one(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweeps ran before the output path was checked")

        monkeypatch.setattr("pinchopt.cli.run_sweeps", unreachable)
        out = tmp_path / "fg"
        out.write_text("")
        assert main(["figures", "--out", str(out), *SMALL_SWEEP]) == 1
        assert "is not a directory" in capsys.readouterr().err

    def test_out_under_a_file_exits_one(self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweeps ran before the output path was checked")

        monkeypatch.setattr("pinchopt.cli.run_sweeps", unreachable)
        afile = tmp_path / "afile"
        afile.write_text("")
        for args in (["figures", "--out", str(afile / "sub" / "deeper")],
                     ["sweep", "power", "--out", str(afile / "t.csv")]):
            assert main([*args, *SMALL_SWEEP]) == 1
            assert f"output path {afile} is not a directory" in capsys.readouterr().err
        assert afile.read_text() == ""

    @pytest.mark.parametrize("command", [["figures"], ["sweep", "power"]],
                             ids=["figures", "sweep"])
    def test_empty_out_exits_one(self, monkeypatch, capsys, command):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sweeps ran before the output path was checked")

        monkeypatch.setattr("pinchopt.cli.run_sweeps", unreachable)
        assert main([*command, "--out", "", *SMALL_SWEEP]) == 1
        assert capsys.readouterr().err == "error: --out must not be empty\n"

    def test_zero_trials_errors_before_writing(self, tmp_path, capsys):
        out = tmp_path / "figs"
        code = main(["figures", "--out", str(out), "--set", "sweep.trials=0"])
        assert code == 1
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_out_exits_one(self, capsys):
        assert main(["sweep", "power"]) == 1

    def test_solve_threads_exit_one(self, capsys):
        # only the sweeps run worker processes
        assert main(["solve", "--threads", "2"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --threads 2" in err

    @pytest.mark.parametrize("flag", [["--threads", "-3"], ["--threads=-3"]],
                             ids=["--threads", "--threads="])
    def test_negative_threads_exit_one(self, tmp_path, capsys, flag):
        args = ["sweep", "power", "--out", str(tmp_path / "t.csv"), "--seed", "5",
                *SMALL_SWEEP, *flag]
        assert main(args) == 1
        assert "--threads must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


# every number field a solve reads or checks, and each scenario coordinate
FUZZ_FIELDS = (
    *(f"system.{f.name}" for f in dataclasses.fields(pinchopt.SystemParams)),
    *(f"algo.{f.name}" for f in dataclasses.fields(pinchopt.AlgoConfig)),
    *(f"qos.{f.name}" for f in dataclasses.fields(pinchopt.QosTargets)),
    "oracle.position_step", "oracle.search_window",
    "sweep.trials", "sweep.seed", "sweep.pt_dbm_values", "sweep.d_values",
    *(f"scenario.{u}.{c}" for u in ("user1", "user2") for c in ("x", "y")),
)
# extremes: the largest floats, subnormals, a signed zero, an integer beyond
# any float, and values of the wrong JSON type
FUZZ_VALUES = (1e308, -1e308, 5e-324, -5e-324, 2.225e-308, -0.0, 10**400,
               "x", None, True, False)


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=refuse)


class TestExitCodeContract:
    @given(st.dictionaries(st.sampled_from(FUZZ_FIELDS), st.sampled_from(FUZZ_VALUES),
                           min_size=1, max_size=3),
           st.sampled_from((None,) * 7 + (MAX_ANTENNAS + 1, 10**5, 10**8)))
    @settings(max_examples=2000, deadline=None, derandomize=True)
    def test_solve_on_extreme_fields(self, fields, big_n):
        """``pinch solve`` with one to three fields set to extremes exits 0, 1
        or 2 without a traceback; a solution is strict JSON, and a feasible
        layout is valid under the configuration it was solved on.  With
        ``big_n``, the fields are set over an antenna count above the cap in
        a region of side 1000 m at 1e15 Hz, where that many antennas fit:
        the solve exits 1, as no value of FUZZ_VALUES is a valid count either."""
        overrides = [SCENARIO_SET] if any(k.startswith("scenario.") for k in fields) else []
        if big_n is not None:
            overrides += [f"system.n_antennas={big_n}", "system.side_d=1000", "system.fc=1e15"]
        for key, value in fields.items():
            value = [value] if key in ("sweep.pt_dbm_values", "sweep.d_values") else value
            overrides.append(f"{key}={json.dumps(value)}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", *(a for o in overrides for a in ("--set", o))])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        assert big_n is None or code == 1
        if code == 1:
            assert out.getvalue() == ""
            return
        doc = _strict_json(out.getvalue())
        if code == 0:
            system = load_config(None, overrides, None).system
            AntennaLayout(tuple(doc["antenna_xs"]), doc["feed_x"]).validate(system)
