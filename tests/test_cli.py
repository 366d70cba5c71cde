import csv
import dataclasses
import json
import os
import time

import pytest

from pinchopt.cli import ConfigError, build_config, load_config, main
from pinchopt.sim import SamplingError

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

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="key=value"):
            load_config(None, ["sweep.trials"], None)


class TestSolveCommand:
    def test_feasible_scenario_exits_zero(self, capsys):
        code = main(["solve", "--set", SCENARIO_SET])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(out["antenna_xs"]) == 3
        assert out["feasible"] is True
        assert out["rates"]["sum"] > 0
        assert set(out["feasibility"]) == {
            "spacing", "r1_qos", "r2_qos", "sic", "order_alpha", "order_channel",
        }

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
        ("sweep.d_values=[-5]", "must be finite and positive"),
        ("sweep.d_values=[0]", "must be finite and positive"),
        ("sweep.delta_pairs=[[0.5,-0.1]]", "must be finite and >= 0"),
        ("algo.fine_step=1e-16", "fine-tune budget"),
        ("oracle.alpha_step=Infinity", "unknown key"),
        ("sweep.schemes=[]", "must be non-empty"),
        ("system.n_antennas=3000", "do not fit"),
        # refused on the worst case of side_d / step points, before any draw
        ("oracle.position_step=1e-9", "position grid of"),
        *((v, "must be a JSON object") for v in (
            "system=5", "scenario=5", "scenario.user1=5",
        )),
        ("sweep.d_values=5", "d_values must be a list"),
        ("sweep.delta_pairs=[5]", "must be [delta1, delta2] pairs"),
        ("sweep.delta_pairs=[[0.5]]", "must be [delta1, delta2] pairs"),
        ("sweep.schemes=\"pinching\"", "schemes must be a list"),
        ('scenario={"user1":{"x":1e300,"y":1},"user2":{"x":0,"y":0.5}}',
         "user coordinate 1e+300 is not a number in [-5.0, 5.0]"),
        ("qos.r1_min=true", "r1_min must be a number"),
        ("sweep.pt_dbm_values=[true]", "sweep values must each be a number"),
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

    def test_seeded_solve_without_scenario(self, capsys):
        code = main(["solve", "--seed", "12"])
        out = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert "scenario" in out


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

    def test_bad_threads_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PINCH_THREADS", "many")
        code = main(["sweep", "power", "--out", str(tmp_path / "t.csv"),
                     "--seed", "5", *SMALL_SWEEP])
        assert code == 1
        assert "PINCH_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--threads", "env"])
    def test_negative_threads_exit_one(self, tmp_path, monkeypatch, capsys, flag):
        args = ["sweep", "power", "--out", str(tmp_path / "t.csv"), "--seed", "5",
                *SMALL_SWEEP]
        if flag == "env":
            monkeypatch.setenv("PINCH_THREADS", "-2")
        else:
            args += ["--threads", "-3"]
        assert main(args) == 1
        assert "must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PINCH_THREADS", "1")
        out = tmp_path / "t.csv"
        assert main(["sweep", "power", "--out", str(out), "--seed", "5", *SMALL_SWEEP]) == 0
        assert out.exists()
