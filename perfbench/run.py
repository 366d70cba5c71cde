#!/usr/bin/env python3
"""pinchopt benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads, each one closed loop with one client:

  figures       ``pinch figures --threads 1`` (the paper's three tables) with
                sweep.trials=10 at default physics, a fresh sweep seed per call
  figures-pool  the same calls with ``--threads 2``; the only workload that
                runs sim's process pool
  oracle        ``pinch sweep oracle`` (the fig4 table) at D = 30 m, 0 dBm,
                100 trials per call
  solve         ``bisection_solve`` on distinct scenarios drawn with
                ``trial_rng(seed, t)``, each solved once, at defaults

The package is imported from ``src/`` of the checkout.  This script calls only
``pinchopt.cli.main``, ``bisection_solve``, ``sample_scenario`` and
``trial_rng``; the seed reaches the program only through the inputs.

``--trace 0`` prints the end-to-end metrics.  To time each solve and check its
result, it wraps the two solver entry points (wall and process CPU clock
reads around each solve); the wrappers also time the reference kernel of
``hostspeed`` every 10 ms, and every reported time is scaled for the host's
speed (see that module).  Solve latencies are process CPU time, so time the
solver waited for a CPU is left out.  The unscaled wall-clock figures go to
standard error.  Per-layer times are unscaled.
``--trace 1`` runs one fixed unit of the workload untraced, then the same unit
with spans recorded around every function in ``tracing.TRACE_TARGETS``, and
prints the per-layer metrics.  Pool workers inherit the wrappers by fork.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any raised error,
non-zero exit or failed output check makes the exit code 1.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("figures", "figures-pool", "oracle", "solve")
FIG_TRIALS = 10
ORACLE_TRIALS = 100
POOL_WORKERS = 2
MIN_SOLVES = 1000  # p99 needs ten samples beyond it
SETUP_PROBES = 11
SETUP_KERNEL_RUNS = 8  # kernel runs before and after each set-up probe
# calls (solves on ``solve``) whose solutions give the quality metrics; the
# loop always runs at least this many, so quality is fixed by the seed
QUALITY_UNITS = {"figures": 5, "figures-pool": 5, "oracle": 10, "solve": MIN_SOLVES}
WALL_CAP_S = 150.0  # stop adding calls past this, to exit within 180 s


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def load_pinchopt():
    """Import pinchopt from this checkout's sources, never an installed copy."""
    pkg = SRC / "pinchopt"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no pinchopt sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import pinchopt
    import pinchopt.channel
    import pinchopt.cli
    import pinchopt.noma
    import pinchopt.oracle
    import pinchopt.placement
    import pinchopt.sim

    if Path(pinchopt.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported pinchopt from {pinchopt.__file__}, not {pkg}")
    return pinchopt


def unit_seed(seed: int, i: int) -> int:
    """Sweep seed of the i-th call; every call of a run draws fresh scenarios."""
    return seed * 10_000 + i


def cli_argv(workload: str, seed: int, out: Path) -> list[str]:
    if workload == "oracle":
        return [
            "sweep", "oracle", "--out", str(out / "fig4.csv"), "--seed", str(seed),
            "--threads", "1",
            "--set", "sweep.d_values=[30]", "--set", "sweep.pt_dbm_values=[0]",
            "--set", f"sweep.trials={ORACLE_TRIALS}",
        ]
    threads = POOL_WORKERS if workload == "figures-pool" else 1
    return [
        "figures", "--out", str(out), "--seed", str(seed),
        "--threads", str(threads), "--set", f"sweep.trials={FIG_TRIALS}",
    ]


class Tally:
    """Operations attempted and failed, solve latencies and quality samples."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # (start, end, process CPU seconds) of each bisection_solve
        self.solves: list[tuple[float, float, float]] = []
        self.calls: list[tuple[float, float]] = []  # each timed cli.main call
        self.evaluations = 0
        self.quality: list[tuple[float, bool]] = []

    def op(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


# --- output checks ---------------------------------------------------------


def check_solution(pinchopt, params, users, qos, sol) -> list[str]:
    """Layout invariants, finite and consistent rates, targets when feasible."""
    errs = []
    try:
        sol.layout.validate(params)
    except pinchopt.LayoutError as exc:
        errs.append(f"invalid layout {sol.layout.xs}: {exc}")
    r = sol.rates
    if not all(math.isfinite(v) for v in (r.r1, r.r2, r.r2_to_1, r.sum_rate)):
        errs.append(f"non-finite rate in {r}")
    elif r.r1 + r.r2 != r.sum_rate:
        errs.append(f"r1 + r2 != sum_rate in {r}")
    if sol.feasible_found:
        tol = pinchopt.noma.RATE_TOL
        if r.r1 < qos.r1_min - tol:
            errs.append(f"feasible solution misses r1_min: {r}")
        if r.r2 < qos.r2_min - tol:
            errs.append(f"feasible solution misses r2_min: {r}")
        if r.r2_to_1 < qos.r1_min - tol:
            errs.append(f"feasible solution misses the SIC target: {r}")
    return errs


def check_spans(pinchopt, spans, tally: Tally, keep_quality: bool) -> list[str]:
    """Check every solver result in ``spans``; record latency and quality."""
    errs = []
    for s in spans:
        if (s.layer, s.name) not in tracing.SOLVER_TARGETS or s.measure is None:
            continue
        params, users, qos, sol = s.measure
        errs.extend(check_solution(pinchopt, params, users, qos, sol))
        if s.name == "bisection_solve":
            tally.solves.append((s.start, s.end, s.cpu))
            if keep_quality:
                tally.quality.append((sol.rates.sum_rate, sol.feasible_found))
    return errs


def check_csv(path: Path, expected_rows: int) -> list[str]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error) as exc:
        return [f"{path.name}: {exc}"]
    if not rows:
        return [f"{path.name}: empty"]
    header, body = rows[0], rows[1:]
    if len(body) != expected_rows:
        return [f"{path.name}: {len(body)} rows, expected {expected_rows}"]
    for row in body:
        if len(row) != len(header):
            return [f"{path.name}: row {row} does not match header {header}"]
        for col, cell in zip(header, row):
            if col == "scheme":
                continue
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                return [f"{path.name}: {col}={cell!r} is not a finite number"]
    return []


def expected_tables(workload: str, out: Path) -> tuple[dict[str, int], int]:
    """Row count of each CSV and number of scheme evaluations of one call,
    from the effective configuration the CLI echoes next to its outputs."""
    with open(out / "config.json") as fh:
        sweep = json.load(fh)["sweep"]
    trials = sweep["trials"]
    if workload == "oracle":
        return {"fig4.csv": trials}, 2 * trials
    n_pt = len(sweep["pt_dbm_values"])
    fig2 = n_pt * len(sweep["d_values"]) * len(sweep["schemes"])
    fig3 = n_pt * len(sweep["delta_pairs"])
    tables = {"fig2.csv": fig2, "fig3.csv": fig3, "fig4.csv": trials}
    return tables, (fig2 + fig3 + 2) * trials


# --- one call of a workload ------------------------------------------------


def cli_unit(pinchopt, rec, workload, seed, out, tally, keep_quality):
    """One ``cli.main`` call with its checks; returns (wall seconds, evaluations)."""
    argv = cli_argv(workload, seed, out)
    errs: list[str] = []
    wall, evaluations = 0.0, 0
    out.mkdir(parents=True, exist_ok=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            rc = pinchopt.cli.main(argv)
            end = perf_counter()
            wall = end - start
            tally.calls.append((start, end))
        if rc != 0:
            errs.append(f"pinch {' '.join(argv)} exited {rc}")
        else:
            tables, evaluations = expected_tables(workload, out)
            for name, rows in tables.items():
                errs.extend(check_csv(out / name, rows))
    except Exception:
        errs.append(traceback.format_exc())
    errs.extend(check_spans(pinchopt, rec.drain(), tally, keep_quality))
    tally.op(errs)
    return wall, evaluations


def draw_scenarios(pinchopt, seed: int, start: int, count: int, side_d: float):
    sim = pinchopt.sim
    return [
        sim.sample_scenario(sim.trial_rng(seed, t), side_d, seed_id=t)
        for t in range(start, start + count)
    ]


class SolveInputs:
    """Defaults-only inputs of the ``solve`` workload."""

    def __init__(self, pinchopt, seed: int) -> None:
        self.params = pinchopt.SystemParams()
        self.qos = pinchopt.QosTargets()
        self.algo = pinchopt.AlgoConfig()
        self.scenarios = draw_scenarios(pinchopt, seed, 0, MIN_SOLVES, self.params.side_d)

    def solve(self, pinchopt, scen, rec, tally, keep_quality) -> None:
        errs: list[str] = []
        try:
            pinchopt.placement.bisection_solve(
                self.params, (scen.user1, scen.user2), self.qos, self.algo
            )
        except Exception:
            errs.append(traceback.format_exc())
        errs.extend(check_spans(pinchopt, rec.drain(), tally, keep_quality))
        tally.op(errs)


# --- end-to-end run ----------------------------------------------------------


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to its first timed call,
    scaled to reference time; and the median unscaled.

    The kernel is timed here just before each probe starts and in the probe
    just after it is ready; the probe's set-up time is scaled by the median
    of those kernel times.
    """
    scaled, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        before = kernel_times()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            rest = proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe exited {rc}: {line!r}")
        kernel_s = statistics.median(before + json.loads(rest))
        scaled.append(elapsed * hostspeed.REF_S / kernel_s)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def setup_probe(workload: str, seed: int) -> None:
    pinchopt = load_pinchopt()
    if workload == "solve":
        SolveInputs(pinchopt, seed)
    else:
        cli_argv(workload, unit_seed(seed, 0), OUT)
    print("ready", flush=True)
    print(json.dumps(kernel_times()), flush=True)


def kernel_times() -> list[float]:
    """Wall times of SETUP_KERNEL_RUNS kernel runs, after one to warm up.

    Wall time, like the set-up time it scales: when a fresh interpreter was
    ready, its process CPU time read about 1.5 times its wall time, so more
    than one of its threads runs during start-up.
    """
    samples = [hostspeed.time_kernel() for _ in range(SETUP_KERNEL_RUNS + 1)]
    return [end - start for start, end, _ in samples[1:]]


def run_e2e(pinchopt, workload, seed, seconds, run_dir, tally) -> dict[str, float]:
    speed = hostspeed.SpeedLog()
    rec = tracing.Recorder(tracing.SOLVER_TARGETS, run_dir, speed=speed)
    solve_inputs = SolveInputs(pinchopt, seed) if workload == "solve" else None
    rec.install()
    try:
        speed.sample()
        start = perf_counter()
        i = 0
        while tally.failed == 0:
            keep = i < QUALITY_UNITS[workload]
            if workload == "solve":
                if i == len(solve_inputs.scenarios):
                    solve_inputs.scenarios += draw_scenarios(
                        pinchopt, seed, i, MIN_SOLVES, solve_inputs.params.side_d
                    )
                solve_inputs.solve(pinchopt, solve_inputs.scenarios[i], rec, tally, keep)
            else:
                out = run_dir / f"call{i}"
                _, evaluations = cli_unit(
                    pinchopt, rec, workload, unit_seed(seed, i), out, tally, keep
                )
                tally.evaluations += evaluations
                speed.sample()
                if i > 0:
                    shutil.rmtree(out, ignore_errors=True)
            i += 1
            elapsed = perf_counter() - start
            if elapsed >= WALL_CAP_S:
                break
            if (elapsed >= seconds and i >= QUALITY_UNITS[workload]
                    and len(tally.solves) >= MIN_SOLVES):
                break
        if workload == "figures-pool" and tally.failed == 0:
            compare_with_serial(pinchopt, rec, seed, run_dir / "call0", run_dir, tally)
    finally:
        rec.uninstall()
    if tally.failed:
        return {}
    scale = hostspeed.Scale(speed.samples)
    # a solve's CPU time leaves out time its process waited for a CPU
    latencies = [cpu * scale.at((a + b) / 2) for a, b, cpu in tally.solves]
    raw_latencies = [b - a for a, b, _ in tally.solves]
    if workload == "solve":
        trials_per_s = len(latencies) / math.fsum(latencies)
        raw_trials_per_s = len(raw_latencies) / math.fsum(raw_latencies)
    else:
        processes = POOL_WORKERS if workload == "figures-pool" else 1
        trials_per_s = tally.evaluations / math.fsum(
            scale.duration(a, b, processes) for a, b in tally.calls
        )
        raw_trials_per_s = tally.evaluations / math.fsum(b - a for a, b in tally.calls)
    setup_s, raw_setup_s = measure_setup(workload, seed)
    print(
        f"unscaled: setup_s {raw_setup_s:.6g} trials_per_s {raw_trials_per_s:.6g} "
        f"solve_p50_ms {tracing.percentile(raw_latencies, 50) * 1e3:.6g} "
        f"solve_p99_ms {tracing.percentile(raw_latencies, 99) * 1e3:.6g}; "
        f"mean host factor {scale.mean_factor():.4f} over {len(speed.samples)} "
        "kernel samples",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "trials_per_s": trials_per_s,
        "solve_p50_ms": tracing.percentile(latencies, 50) * 1e3,
        "solve_p99_ms": tracing.percentile(latencies, 99) * 1e3,
        "mean_sum_rate_bpshz": math.fsum(q[0] for q in tally.quality) / len(tally.quality),
        "feasible_fraction": sum(q[1] for q in tally.quality) / len(tally.quality),
    }


def compare_with_serial(pinchopt, rec, seed, pooled: Path, run_dir, tally) -> float:
    """Rerun the first pooled call serially; its CSVs must match byte for byte.

    Returns the serial call's wall time.
    """
    serial_out = run_dir / "serial0"
    serial_tally = Tally()
    wall, _ = cli_unit(pinchopt, rec, "figures", unit_seed(seed, 0), serial_out,
                       serial_tally, False)
    errs = list(serial_tally.errors)
    for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
        if (pooled / name).read_bytes() != (serial_out / name).read_bytes():
            errs.append(f"{name} differs between --threads {POOL_WORKERS} and --threads 1")
    tally.op(errs)
    return wall


# --- traced run ----------------------------------------------------------------


def one_unit(pinchopt, rec, workload, seed, run_dir, out_name, tally):
    """One fixed unit of the workload; returns (wall, evaluations requested)."""
    if workload == "solve":
        start = perf_counter()
        inputs = SolveInputs(pinchopt, seed)
        for scen in inputs.scenarios:
            inputs.solve(pinchopt, scen, rec, tally, False)
        return perf_counter() - start, 0
    return cli_unit(pinchopt, rec, workload, unit_seed(seed, 0), run_dir / out_name,
                    tally, False)


def run_traced(pinchopt, workload, seed, run_dir, tally) -> dict[str, float]:
    timing = tracing.Recorder(tracing.SOLVER_TARGETS, run_dir)
    timing.install()
    try:
        untraced_s, _ = one_unit(pinchopt, timing, workload, seed, run_dir, "untraced", tally)
        pool_efficiency = 0.0
        if workload == "figures-pool" and tally.failed == 0:
            serial_s = compare_with_serial(
                pinchopt, timing, seed, run_dir / "untraced", run_dir, tally
            )
            # the pooled and serial calls do the same evaluations
            pool_efficiency = serial_s / (POOL_WORKERS * untraced_s)
    finally:
        timing.uninstall()

    rec = tracing.Recorder(tracing.TRACE_TARGETS, run_dir, keep=True)
    rec.install()
    try:
        missed = rec.missed_bindings()
        traced_s, requested = one_unit(pinchopt, rec, workload, seed, run_dir, "call0", tally)
    finally:
        rec.uninstall()
    spans = rec.kept
    m = tracing.layer_metrics(spans)
    errs = [f"{b} was not rebound" for b in missed]
    if m["placement.fine_tune.calls"] != m["placement.iterations"]:
        errs.append(
            f"placement.fine_tune.calls {m['placement.fine_tune.calls']} != "
            f"sum of iterations {m['placement.iterations']}"
        )
    if m["sim.evaluate_scheme.calls"] != requested:
        errs.append(
            f"sim.evaluate_scheme.calls {m['sim.evaluate_scheme.calls']} != "
            f"{requested} requested"
        )
    tally.op(errs)
    write_trace(spans, OUT / f"trace-{workload}-seed{seed}.csv.gz")
    m["sim.pool_efficiency"] = pool_efficiency
    m["trace.overhead_s"] = traced_s - untraced_s
    return m


def write_trace(spans, path: Path) -> None:
    with gzip.open(path, "wt", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("pid", "sid", "parent", "layer", "name", "start", "end"))
        for s in spans:
            writer.writerow((s.pid, s.sid, s.parent, s.layer, s.name,
                             repr(s.start), repr(s.end)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    pinchopt = load_pinchopt()
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if args.trace:
            units = declared_units("per_layer")
            metrics = run_traced(pinchopt, args.workload, args.seed, run_dir, tally)
            metrics["error_rate"] = tally.failed / tally.attempted
        else:
            units = declared_units("end_to_end")
            metrics = run_e2e(pinchopt, args.workload, args.seed, args.seconds,
                              run_dir, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if metrics and set(metrics) != set(units):
        tally.op([f"metrics {sorted(set(metrics) ^ set(units))} are reported "
                  "but not declared, or declared but not reported"])
        metrics = {k: v for k, v in metrics.items() if k in units}
    for err in tally.errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
