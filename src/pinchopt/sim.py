"""Seeded Monte Carlo experiment harness with tabular outputs.

Every trial draws one two-user scenario from its own deterministic random
stream derived from (seed, trial index), so all schemes within a sweep see
the identical scenario sequence and paired comparisons are exact.  Sweep
results come back as a flat table (ready for CSV/JSON) plus the underlying
per-trial records for deeper inspection.
"""
from __future__ import annotations

import concurrent.futures
import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field, replace
from statistics import mean

import numpy as np

from .channel import SystemParams, UserPosition, conventional_effective_gain, require_int
from .noma import ZERO_RATES, QosTargets, evaluate_snrs, snr_scale
from .oracle import OracleConfig, exhaustive_placement
from .placement import AlgoConfig, bisection_solve

# fixed-array baseline scheme -> its conventional_effective_gain mode
BASELINE_SCHEMES = {"conventional-uniform": "uniform", "conventional-mrt": "mrt-strong"}
SCHEMES = ("pinching", *BASELINE_SCHEMES, "exhaustive")


class SamplingError(RuntimeError):
    """Scenario sampling exhausted its redraw budget."""


@dataclass(frozen=True)
class Scenario:
    """One random two-user drop; user2 is the one closer to the waveguide."""

    user1: UserPosition
    user2: UserPosition
    seed_id: int = 0

    def __post_init__(self) -> None:
        require_int(self, ("seed_id",))
        if abs(self.user2.y) > abs(self.user1.y):
            raise ValueError("user2 must be the user closer to the waveguide")
        if self.user1.x == self.user2.x:
            raise ValueError("users must have distinct x-coordinates")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, how many trials, and under which seed."""

    pt_dbm_values: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    d_values: tuple[float, ...] = (10.0, 20.0, 30.0)
    delta_pairs: tuple[tuple[float, float], ...] = ((0.5, 0.02), (0.2, 0.02), (0.5, 100.0))
    trials: int = 100
    seed: int = 2024
    schemes: tuple[str, ...] = ("pinching", "conventional-uniform")

    def __post_init__(self) -> None:
        require_int(self, ("trials", "seed"))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (self.pt_dbm_values and self.d_values and self.delta_pairs and self.schemes):
            raise ValueError("sweep value lists must be non-empty")
        # checked before any output exists, not when a sweep reaches them
        if not all(map(math.isfinite, self.pt_dbm_values)):
            raise ValueError(f"pt_dbm_values must be finite: {self.pt_dbm_values}")
        if not all(0 < d < math.inf for d in self.d_values):
            raise ValueError(f"d_values must be finite and positive: {self.d_values}")
        if not all(0 <= t < math.inf for pair in self.delta_pairs for t in pair):
            raise ValueError(f"delta_pairs must be finite and >= 0: {self.delta_pairs}")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; expected one of {SCHEMES}")


@dataclass(frozen=True)
class TrialRecord:
    scheme: str
    sum_rate: float
    r1: float
    r2: float
    alpha2: float
    feasible: bool
    swapped: bool = False
    iterations: int = 0


@dataclass(frozen=True)
class ResultTable:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class SweepResult:
    table: ResultTable
    records: dict = field(default_factory=dict)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Deterministic per-trial PCG64 stream derived from (seed, trial)."""
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def sample_scenario(rng: np.random.Generator, side_d: float, seed_id: int = 0) -> Scenario:
    """Draw two users uniformly over the square region.

    The draw is rejected and retried (at most 100 times) if the users share
    an x-coordinate or a |y| exactly, so the strong/weak labelling is
    always unambiguous.
    """
    if side_d <= 0:
        raise ValueError("side_d must be positive")
    half = side_d / 2.0
    for _ in range(100):
        pts = rng.uniform(-half, half, size=(2, 2))
        (x_a, y_a), (x_b, y_b) = pts
        if x_a == x_b or abs(y_a) == abs(y_b):
            continue
        if abs(y_b) < abs(y_a):
            return Scenario(UserPosition(x_a, y_a), UserPosition(x_b, y_b), seed_id)
        return Scenario(UserPosition(x_b, y_b), UserPosition(x_a, y_a), seed_id)
    raise SamplingError("could not draw a non-degenerate scenario in 100 attempts")


def _conventional_record(params, scenario, qos, mode) -> tuple:
    g1_sq, g2_sq = conventional_effective_gain(
        params, (scenario.user1, scenario.user2), mode
    )
    # relabel up front so user 2 keeps the stronger effective channel;
    # the rate targets follow the weak/strong role, not the identity
    swapped = g2_sq < g1_sq
    if swapped:
        g1_sq, g2_sq = g2_sq, g1_sq
    # a fixed array has no spacing to violate, and the relabel leaves the
    # channels in order
    rho = snr_scale(params)
    split, rates, report, _ = evaluate_snrs(rho * g1_sq, rho * g2_sq, qos)
    ok = report.overall
    return rates if ok else ZERO_RATES, split, ok, swapped


def evaluate_scheme(
    params: SystemParams,
    scenario: Scenario,
    qos: QosTargets,
    cfg: AlgoConfig,
    scheme: str,
    oracle_cfg: OracleConfig = OracleConfig(),
) -> TrialRecord:
    """Run one scheme on one scenario and summarise the outcome.

    The waveguide schemes keep the scenario's strong/weak labelling (a
    wrong ordering after optimisation counts as infeasible); the fixed
    antenna baselines relabel users up front so the stronger effective
    channel is user 2, recording the swap.
    """
    users = (scenario.user1, scenario.user2)
    iterations = 0
    if scheme in BASELINE_SCHEMES:
        rates, split, feasible, swapped = _conventional_record(
            params, scenario, qos, BASELINE_SCHEMES[scheme]
        )
    elif scheme in ("pinching", "exhaustive"):
        sol = (bisection_solve(params, users, qos, cfg) if scheme == "pinching"
               else exhaustive_placement(params, users, qos, oracle_cfg))
        rates, split, feasible, swapped = sol.rates, sol.split, sol.feasible_found, False
        iterations = sol.iterations
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return TrialRecord(scheme, rates.sum_rate, rates.r1, rates.r2, split.alpha2,
                       feasible, swapped, iterations)


def worker_count(threads: int, cpus: int, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` tasks when ``threads`` are asked for
    (0 = one per CPU): never more than the CPUs or the tasks, at least 1."""
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    return max(1, min(threads or cpus, cpus, n_tasks))


def _run_group(jobs):
    return [(i, evaluate_scheme(*task)) for i, task in jobs]


def _run_plans(plans, threads: int) -> list[SweepResult]:
    """Run sweeps' ``(jobs, finish)`` plans as one task list.  A job is a
    ``(key, task)`` pair, and each ``finish`` gets ``{key: [record, ...]}``
    of its own jobs.  Each scenario's tasks, from whichever sweep, run back to
    back as one chunk (in one worker when pooled), so the solver's tables
    serve all of them."""
    groups: dict = {}  # (side_d, trial) -> numbered tasks (params, scenario, ...)
    for i, task in enumerate(task for jobs, _ in plans for _, task in jobs):
        groups.setdefault((task[0].side_d, task[1].seed_id), []).append((i, task))
    chunks = list(groups.values())
    workers = worker_count(threads, os.cpu_count() or 1, len(chunks))
    if workers == 1:
        done = [_run_group(chunk) for chunk in chunks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_group, chunks))
    results = iter(sorted(pair for recs in done for pair in recs))
    out = []
    for jobs, finish in plans:
        records: dict = {}
        for (key, _), (_, rec) in zip(jobs, results):
            records.setdefault(key, []).append(rec)
        out.append(finish(records))
    return out


def _power_plan(params, qos, cfg, sweep, oracle_cfg, drops):
    """fig2: mean sum rate per (transmit power, region size, scheme) cell.

    All schemes in a cell share the same scenario sequence, and the same
    per-trial streams are reused across power levels and region sizes.
    """
    jobs = []
    for d in sweep.d_values:
        p_at = {pt: replace(params, pt_dbm=pt, side_d=d) for pt in sweep.pt_dbm_values}
        for scen in drops(d):
            for scheme in sweep.schemes:
                for pt in sweep.pt_dbm_values:
                    jobs.append(((pt, d, scheme), (p_at[pt], scen, qos, cfg, scheme, oracle_cfg)))

    def finish(records) -> SweepResult:
        rows = []
        for pt in sweep.pt_dbm_values:
            for d in sweep.d_values:
                for scheme in sweep.schemes:
                    recs = records[(pt, d, scheme)]
                    rows.append((
                        float(pt), float(d), scheme, sweep.trials,
                        mean(r.sum_rate for r in recs),
                        sum(r.feasible for r in recs) / len(recs),
                    ))
        header = ("pt_dbm", "side_d_m", "scheme", "trials",
                  "mean_sum_rate_bpshz", "feasible_fraction")
        return SweepResult(ResultTable(header, tuple(rows)), records)

    return jobs, finish


def _delta_plan(params, qos, cfg, sweep, oracle_cfg, drops):
    """fig3: mean sum rate of the waveguide scheme per phase-tolerance pair.

    Runs at the first region size of the sweep, with transmit power swept for
    every (delta1, delta2) pair over paired scenarios.
    """
    d = sweep.d_values[0]
    p_at = {pt: replace(params, pt_dbm=pt, side_d=d) for pt in sweep.pt_dbm_values}
    jobs = []
    for scen in drops(d):
        for d1, d2 in sweep.delta_pairs:
            c = replace(cfg, delta1=d1, delta2=d2)
            for pt in sweep.pt_dbm_values:
                jobs.append(((pt, d1, d2), (p_at[pt], scen, qos, c, "pinching")))

    def finish(records) -> SweepResult:
        rows = []
        for pt in sweep.pt_dbm_values:
            for d1, d2 in sweep.delta_pairs:
                recs = records[(pt, d1, d2)]
                rows.append((float(pt), float(d1), float(d2),
                             mean(r.sum_rate for r in recs)))
        header = ("pt_dbm", "delta1_rad", "delta2_rad", "mean_sum_rate_bpshz")
        return SweepResult(ResultTable(header, tuple(rows)), records)

    return jobs, finish


def _oracle_plan(params, qos, cfg, sweep, oracle_cfg, drops):
    """fig4: per-trial sum-rate gap between the solver and the exhaustive search.

    Runs at the first power level and region size of the sweep.  The
    relative gap is (oracle - solver) / oracle, zero when the oracle found
    nothing.  The records are ``{trial: [solver record, oracle record]}``.
    """
    p = replace(params, pt_dbm=sweep.pt_dbm_values[0], side_d=sweep.d_values[0])
    jobs = []
    for scen in drops(p.side_d):
        jobs.append((scen.seed_id, (p, scen, qos, cfg, "pinching")))
        jobs.append((scen.seed_id, (p, scen, qos, cfg, "exhaustive", oracle_cfg)))

    def finish(records) -> SweepResult:
        rows = []
        for t in range(sweep.trials):
            algo, orac = (r.sum_rate for r in records[t])
            rows.append((t, algo, orac, (orac - algo) / orac if orac > 0 else 0.0))
        header = ("trial", "sum_rate_algo", "sum_rate_oracle", "rel_gap")
        return SweepResult(ResultTable(header, tuple(rows)), records)

    return jobs, finish


# sweep name -> plan builder (params, qos, cfg, sweep, oracle_cfg, drops), where
# drops(side_d) gives the sweep's scenarios, one per trial, at that region size
SWEEPS = {"power": _power_plan, "delta": _delta_plan, "oracle": _oracle_plan}


def run_sweeps(
    names,
    params: SystemParams,
    qos: QosTargets,
    cfg: AlgoConfig,
    sweep: SweepSpec,
    oracle_cfg: OracleConfig = OracleConfig(),
    threads: int = 1,
) -> list[SweepResult]:
    """The named :data:`SWEEPS`, in order, each as from running it alone, but
    from one task list, so every sweep meets the layouts the others tuned on
    each scenario.  Each (region size, trial) drop is drawn once and the same
    :class:`Scenario` goes to every sweep."""
    @functools.cache
    def drops(side_d: float) -> list[Scenario]:
        return [sample_scenario(trial_rng(sweep.seed, t), side_d, seed_id=t)
                for t in range(sweep.trials)]

    plans = [SWEEPS[name](params, qos, cfg, sweep, oracle_cfg, drops) for name in names]
    return _run_plans(plans, threads)


def _cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_table(table: ResultTable, path: str, fmt: str) -> None:
    """Serialise a result table to CSV or JSON, byte-stable across runs.

    Floats are written with 17 significant digits so a reparse recovers
    them exactly.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.header)
            for row in table.rows:
                writer.writerow([_cell(v) for v in row])
    elif fmt == "json":
        payload = [dict(zip(table.header, row)) for row in table.rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown table format {fmt!r}; expected csv or json")
