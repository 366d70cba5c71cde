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
import itertools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    BASELINE_SCHEMES,
    MAX_SIZE_M,
    POWER_RANGE_DBM,
    SystemParams,
    UserPosition,
    check_number,
    conventional_effective_gain,
)
from .noma import ZERO_RATES, QosTargets, evaluate_snrs, snr_scale
from .oracle import OracleConfig, exhaustive_placement, full_grid_shape, grid_points
from .placement import AlgoConfig, bisection_solve, center_bounds, new_tables

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
        check_number("seed_id", self.seed_id, integer=True)
        if abs(self.user2.y) > abs(self.user1.y):
            raise ValueError("user2 must be the user closer to the waveguide")
        if self.user1.x == self.user2.x:
            raise ValueError("users must have distinct x-coordinates")


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, how many trials, and under which seed (lists become tuples)."""

    pt_dbm_values: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    d_values: tuple[float, ...] = (10.0, 20.0, 30.0)
    delta_pairs: tuple[tuple[float, float], ...] = ((0.5, 0.02), (0.2, 0.02), (0.5, 100.0))
    trials: int = 100
    seed: int = 2024
    schemes: tuple[str, ...] = ("pinching", "conventional-uniform")

    def __post_init__(self) -> None:
        for name in ("pt_dbm_values", "d_values", "delta_pairs", "schemes"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in self.delta_pairs):
            raise ValueError(f"delta_pairs must be [delta1, delta2] pairs: {self.delta_pairs}")
        object.__setattr__(self, "delta_pairs", tuple(map(tuple, self.delta_pairs)))
        check_number("trials", self.trials, 1, integer=True)
        check_number("seed", self.seed, 0, integer=True)
        if not (self.pt_dbm_values and self.d_values and self.delta_pairs and self.schemes):
            raise ValueError("sweep value lists must be non-empty")
        # checked before any output exists, not when a sweep reaches them
        for v in self.pt_dbm_values:
            check_number("pt_dbm_values", v, *POWER_RANGE_DBM)
        for d in self.d_values:
            check_number("d_values", d, 0, MAX_SIZE_M, above=True)
        for t in sum(self.delta_pairs, ()):
            check_number("delta_pairs", t, 0)
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}; expected one of {SCHEMES}")
        # a repeat would make rows that share one key, and so one cell's records
        for name in ("pt_dbm_values", "d_values", "delta_pairs", "schemes"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")


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
    always unambiguous.  The coordinates are Python floats, so a solve's
    scalar steps run as float arithmetic, not as NumPy scalar operations.
    """
    check_number("side_d", side_d, 0, above=True)
    half = side_d / 2.0
    for _ in range(100):
        (x_a, y_a), (x_b, y_b) = rng.uniform(-half, half, size=(2, 2)).tolist()
        if x_a == x_b or abs(y_a) == abs(y_b):
            continue
        if abs(y_b) < abs(y_a):
            return Scenario(UserPosition(x_a, y_a), UserPosition(x_b, y_b), seed_id)
        return Scenario(UserPosition(x_b, y_b), UserPosition(x_a, y_a), seed_id)
    raise SamplingError("could not draw a non-degenerate scenario in 100 attempts")


def _conventional_record(params, users, qos, scheme, gains=None) -> tuple:
    # ``gains``: scheme -> |g|^2 pair on this drop; it reads no power, so a
    # drop's power levels share it (see _run_group)
    gains = {} if gains is None else gains
    if scheme not in gains:
        gains[scheme] = conventional_effective_gain(params, users, scheme)
    g1_sq, g2_sq = gains[scheme]
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
    tables: tuple | None = None,
    gains: dict | None = None,
) -> TrialRecord:
    """Run one scheme on one scenario and summarise the outcome; the solver
    runs on ``tables`` (see ``placement.new_tables``), a baseline on ``gains``.

    The waveguide schemes keep the scenario's strong/weak labelling (a
    wrong ordering after optimisation counts as infeasible); the fixed
    antenna baselines relabel users up front so the stronger effective
    channel is user 2, recording the swap.
    """
    users = (scenario.user1, scenario.user2)
    iterations = 0
    if scheme in BASELINE_SCHEMES:
        rates, split, feasible, swapped = _conventional_record(params, users, qos, scheme, gains)
    elif scheme in ("pinching", "exhaustive"):
        sol = (bisection_solve(params, users, qos, cfg, tables) if scheme == "pinching"
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
    check_number("threads", threads, 0, integer=True)
    return max(1, min(threads or cpus, cpus, n_tasks))


def _run_group(jobs):
    """The records of one drop's numbered tasks, which share one set of tables
    declaring its solver tasks' SNR scales and one dict of baseline gains."""
    tables = new_tables({snr_scale(task[0]) for _, task in jobs if task[4] == "pinching"})
    gains: dict = {}
    return [(i, evaluate_scheme(*task, tables, gains)) for i, task in jobs]


def _check_tasks(plans) -> None:
    """Refuse, before any task runs, what a task would meet: an array that does
    not fit the region, for the solver and the reference search, a search grid
    over its cap on the worst case, the whole region (the grid is clipped to
    it), then a full-grid search its drop refuses.  Each is checked once, in order."""
    tasks = [t for _, rows, _ in plans for _, _, ts in rows for t in ts]
    for params, scheme, oracle_cfg in dict.fromkeys((t[0], t[4], t[5]) for t in tasks):
        if scheme in ("pinching", "exhaustive"):
            center_bounds(params)
        if scheme == "exhaustive":
            grid_points(params.side_d, oracle_cfg.resolved_step(params))
    for params, scen, oracle_cfg in dict.fromkeys(
            (t[0], t[1], t[5]) for t in tasks
            if t[4] == "exhaustive" and t[5].strategy == "full-grid"):
        full_grid_shape(params, (scen.user1, scen.user2), oracle_cfg)


def _run_plans(plans, threads: int) -> list[SweepResult]:
    """Run sweeps' ``(header, rows, stat)`` plans as one task list.  A row is
    ``(key, cells, tasks)``, its table row ``cells + stat(records[key])``, and
    ``records[key]`` the records of its tasks, in order; no two rows of a plan
    share a key.
    A task is ``evaluate_scheme``'s arguments up to ``oracle_cfg``.  Each
    drop's tasks, from whichever sweep, run back to back as one chunk (in
    one worker when pooled) on one set of tables."""
    groups: dict = {}  # (side_d, trial) -> numbered tasks (params, scenario, ...)
    for i, task in enumerate(t for _, rows, _ in plans for _, _, ts in rows for t in ts):
        groups.setdefault((task[0].side_d, task[1].seed_id), []).append((i, task))
    chunks = list(groups.values())
    workers = worker_count(threads, os.cpu_count() or 1, len(chunks))
    if workers == 1:
        done = [_run_group(chunk) for chunk in chunks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_group, chunks))
    results = (rec for _, rec in sorted(pair for recs in done for pair in recs))
    out = []
    for header, rows, stat in plans:
        records: dict = {}
        for key, _, row_tasks in rows:
            records[key] = list(itertools.islice(results, len(row_tasks)))
        table = tuple((*cells, *stat(records[key])) for key, cells, _ in rows)
        out.append(SweepResult(ResultTable(header, table), records))
    return out


def exact_mean(values) -> float:
    """``statistics.mean`` of finite floats, bit for bit, at a fraction of its
    cost: each float is an integer over a power of two, so the sum over the
    largest denominator is exact, and one int division rounds it correctly."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)
    return sum(n * (den // d) for n, d in ratios) / (den * len(ratios))


def _power_plan(params, qos, cfg, sweep, oracle_cfg, drops):
    """fig2: mean sum rate per (transmit power, region size, scheme) cell.

    All schemes in a cell share the same scenario sequence, and the same
    per-trial streams are reused across power levels and region sizes.
    """
    rows = []
    for pt in sweep.pt_dbm_values:
        for d in sweep.d_values:
            p = replace(params, pt_dbm=pt, side_d=d)
            for scheme in sweep.schemes:
                rows.append(((pt, d, scheme), (float(pt), float(d), scheme, sweep.trials),
                             [(p, scen, qos, cfg, scheme, oracle_cfg) for scen in drops(d)]))
    header = ("pt_dbm", "side_d_m", "scheme", "trials",
              "mean_sum_rate_bpshz", "feasible_fraction")
    return header, rows, lambda recs: (exact_mean([r.sum_rate for r in recs]),
                                       sum(r.feasible for r in recs) / len(recs))


def _delta_plan(params, qos, cfg, sweep, oracle_cfg, drops):
    """fig3: mean sum rate of the waveguide scheme per phase-tolerance pair.

    Runs at the first region size of the sweep, with transmit power swept for
    every (delta1, delta2) pair over paired scenarios.
    """
    d = sweep.d_values[0]
    rows = []
    for pt in sweep.pt_dbm_values:
        p = replace(params, pt_dbm=pt, side_d=d)
        for d1, d2 in sweep.delta_pairs:
            c = replace(cfg, delta1=d1, delta2=d2)
            rows.append(((pt, d1, d2), (float(pt), float(d1), float(d2)),
                         [(p, scen, qos, c, "pinching", oracle_cfg) for scen in drops(d)]))
    header = ("pt_dbm", "delta1_rad", "delta2_rad", "mean_sum_rate_bpshz")
    return header, rows, lambda recs: (exact_mean([r.sum_rate for r in recs]),)


def _oracle_stat(recs) -> tuple:
    algo, orac = (r.sum_rate for r in recs)
    return algo, orac, (orac - algo) / orac if orac > 0 else 0.0


def _oracle_plan(params, qos, cfg, sweep, oracle_cfg, drops):
    """fig4: per-trial sum-rate gap between the solver and the exhaustive search.

    Runs at the first power level and region size of the sweep.  The
    relative gap is (oracle - solver) / oracle, zero when the oracle found
    nothing.  The records are ``{trial: [solver record, oracle record]}``.
    """
    p = replace(params, pt_dbm=sweep.pt_dbm_values[0], side_d=sweep.d_values[0])
    rows = [(scen.seed_id, (scen.seed_id,),
             [(p, scen, qos, cfg, scheme, oracle_cfg) for scheme in ("pinching", "exhaustive")])
            for scen in drops(p.side_d)]
    return ("trial", "sum_rate_algo", "sum_rate_oracle", "rel_gap"), rows, _oracle_stat


# sweep name -> plan builder (params, qos, cfg, sweep, oracle_cfg, drops) -> (header,
# rows, stat), where drops(side_d) gives one scenario per trial at that region size
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
    :class:`Scenario` goes to every sweep.  Every distinct task configuration
    is checked before any task runs (``PlacementError``, ``OracleSizeError``)."""
    @functools.cache
    def drops(side_d: float) -> list[Scenario]:
        return [sample_scenario(trial_rng(sweep.seed, t), side_d, seed_id=t)
                for t in range(sweep.trials)]

    plans = [SWEEPS[name](params, qos, cfg, sweep, oracle_cfg, drops) for name in names]
    _check_tasks(plans)
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
