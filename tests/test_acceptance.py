"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 5-8 and 10 share session-scoped experiment fixtures so the whole
suite stays well inside its runtime budget.
"""
import functools
import itertools
import math
import time

import numpy as np
import pytest

from pinchopt import (
    AlgoConfig,
    AntennaLayout,
    OracleConfig,
    PowerSplit,
    QosTargets,
    SystemParams,
    UserPosition,
    bisection_solve,
    exhaustive_placement,
    optimal_alpha2,
    path_gain_factor,
    pinching_gain,
    rate_report,
    run_sweeps,
    wavelength,
)
from pinchopt.channel import phases_and_distances
from pinchopt.cli import main
from pinchopt.oracle import batch_solution_metrics
from pinchopt.placement import iteration_bound
from pinchopt.sim import SweepSpec, sample_scenario, trial_rng

from grid_reference import grid_alpha2, sum_rate_objective

SEED = 20250731


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"\n[criterion {num:2d}] PASS  {desc}")
        return wrapper
    return deco


@pytest.fixture(scope="session")
def reference_setting():
    return SystemParams(), QosTargets(0.5, 0.5), AlgoConfig()


@pytest.fixture(scope="session")
def power_sweep(reference_setting):
    params, qos, cfg = reference_setting
    spec = SweepSpec(
        pt_dbm_values=(10.0, 20.0, 30.0),
        d_values=(10.0, 20.0, 30.0),
        trials=100,
        seed=SEED,
        schemes=("pinching", "conventional-uniform"),
    )
    start = time.perf_counter()
    result = run_sweeps(["power"], params, qos, cfg, spec)[0]
    return result, spec, time.perf_counter() - start


@pytest.fixture(scope="session")
def delta_sweep(reference_setting):
    params, qos, cfg = reference_setting
    spec = SweepSpec(
        pt_dbm_values=(30.0,),
        d_values=(10.0,),
        delta_pairs=((0.5, 0.02), (0.5, 100.0)),
        trials=100,
        seed=SEED,
    )
    return run_sweeps(["delta"], params, qos, cfg, spec)[0], spec


@pytest.fixture(scope="session")
def algo_vs_oracle(reference_setting):
    """50 seeded scenarios: solver, two-stage oracle, and the full-grid
    enumeration of a small window around the grid-snapped solver output."""
    params, qos, cfg = reference_setting
    lam = wavelength(params)
    step = lam / 10
    gaps, dominance, iterations = [], [], []
    start = time.perf_counter()
    for t in range(50):
        scen = sample_scenario(trial_rng(SEED, t), params.side_d, t)
        users = (scen.user1, scen.user2)
        sol = bisection_solve(params, users, qos, cfg)
        orc = exhaustive_placement(params, users, qos, OracleConfig())
        iterations.append(sol.iterations)
        if orc.rates.sum_rate > 0:
            gaps.append(
                abs(orc.rates.sum_rate - sol.rates.sum_rate) / orc.rates.sum_rate
            )
        # snap the solver layout onto the oracle position grid
        anchor = max(min(users[0].x, users[1].x) - 1.0, -params.side_d / 2)
        ks = [round((x - anchor) / step) for x in sol.layout.xs]
        for i in range(1, len(ks)):
            if ks[i] - ks[i - 1] < 5:
                ks[i] = ks[i - 1] + 5
        snapped = np.array([anchor + k * step for k in ks])
        s_rate, s_feas = batch_solution_metrics(
            params, snapped[None, :], -params.side_d / 2, users, qos
        )
        if not s_feas[0]:
            continue
        # exhaustive enumeration of the window containing the snap
        k0 = math.ceil((snapped.min() - 2 * lam - anchor) / step)
        k1 = math.floor((snapped.max() + 2 * lam - anchor) / step)
        grid = anchor + step * np.arange(k0, k1 + 1)
        # every (a, b, c) with b >= a + 5 and c >= b + 5: the 3-subsets of
        # range(len(grid) - 8), the k-th index shifted by 4 * k
        triples = itertools.chain.from_iterable(itertools.combinations(range(len(grid) - 8), 3))
        combos = np.fromiter(triples, dtype=np.intp).reshape(-1, 3) + 4 * np.arange(3)
        rows = grid[combos]
        rates, feas = batch_solution_metrics(
            params, rows, -params.side_d / 2, users, qos
        )
        best = float(rates[feas].max()) if feas.any() else -math.inf
        dominance.append(best - float(s_rate[0]))
    elapsed = time.perf_counter() - start
    return gaps, dominance, iterations, elapsed


@criterion(1, "sum-rate identity on 1e4 random triples, 1e-9 relative")
def test_sum_rate_identity():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    for _ in range(10_000):
        snr1 = 10 ** rng.uniform(-3, 6)
        snr2 = 10 ** rng.uniform(-3, 6)
        alpha2 = rng.uniform(0.0, 0.5)
        split = PowerSplit.from_alpha2(alpha2)
        lhs = math.log2(1.0 + sum_rate_objective(snr1, snr2, alpha2))
        rhs = rate_report(snr1, snr2, split).sum_rate
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    assert time.perf_counter() - start < 1.0


@criterion(2, "closed-form alpha2 matches the 1e-4 grid oracle on 1e3 instances")
def test_closed_form_power_allocation():
    rng = np.random.default_rng(SEED + 1)
    start = time.perf_counter()
    checked = 0
    while checked < 1000:
        snr1 = 10 ** rng.uniform(-1, 6)
        snr2 = snr1 * 10 ** rng.uniform(0, 3)
        qos = QosTargets(rng.uniform(0.05, 3.0), rng.uniform(0.0, 2.0))
        best = grid_alpha2(snr1, snr2, qos)
        if best is None:
            continue
        alpha2, clamped = optimal_alpha2(snr1, qos)
        assert abs(alpha2 - best) <= 2e-4
        if clamped == "none":
            rate = rate_report(snr1, snr2, PowerSplit.from_alpha2(alpha2)).r1
            assert abs(rate - qos.r1_min) <= 1e-9
        checked += 1
    assert time.perf_counter() - start < 10.0


@criterion(3, "objective nondecreasing in alpha2 whenever snr2 >= snr1")
def test_conditional_monotonicity():
    rng = np.random.default_rng(SEED + 2)
    alphas = np.linspace(0.0, 0.5, 1000)
    violations = 0
    for _ in range(1000):
        snr1 = 10 ** rng.uniform(-2, 6)
        snr2 = snr1 * 10 ** rng.uniform(0, 3)
        f = alphas * snr2 + (1 - alphas) * (1 + alphas * snr2) * snr1 / (
            alphas * snr1 + 1
        )
        violations += int(np.any(np.diff(f) < -1e-12))
    assert violations == 0


@criterion(4, "coherent bound holds everywhere, tight on aligned layouts")
def test_coherent_gain_bound():
    params = SystemParams()
    amp = math.sqrt(path_gain_factor(params))
    rng = np.random.default_rng(SEED + 3)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        start = rng.uniform(-4.0, 2.0)
        gaps = rng.uniform(params.delta_min, 20 * params.delta_min, size=n - 1)
        xs = tuple(start + np.concatenate(([0.0], np.cumsum(gaps))))
        layout = AntennaLayout(xs=xs, feed_x=rng.uniform(-5.0, 5.0))
        user = UserPosition(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
        g = pinching_gain(params, layout, user)
        _, dists = phases_and_distances(params, user, np.asarray(xs), layout.feed_x)
        assert abs(g) <= amp * float(np.sum(1.0 / dists)) + 1e-12

    # equality on constructed phase-aligned pairs: fix one antenna, then
    # ternary-search the partner position whose composite phase matches
    def phase_at(x, user, feed):
        return float(phases_and_distances(params, user, np.asarray(x), feed)[0])

    def circ(a, b):
        m = abs(a - b) % (2 * math.pi)
        return min(m, 2 * math.pi - m)

    lam = wavelength(params)
    for k in range(10):
        rng_k = np.random.default_rng(SEED + 10 + k)
        user = UserPosition(rng_k.uniform(-3, 3), rng_k.uniform(-3, 3))
        feed = -5.0
        x1 = rng_k.uniform(-2, 2)
        ref = phase_at(x1, user, feed)
        scan = x1 + params.delta_min + (lam / 200) * np.arange(0, 400)
        errs = [circ(phase_at(x, user, feed), ref) for x in scan]
        i = int(np.argmin(errs))
        lo = scan[max(i - 1, 0)]
        hi = scan[min(i + 1, len(scan) - 1)]
        for _ in range(200):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if circ(phase_at(m1, user, feed), ref) < circ(phase_at(m2, user, feed), ref):
                hi = m2
            else:
                lo = m1
        x2 = 0.5 * (lo + hi)
        assert circ(phase_at(x2, user, feed), ref) < 1e-6
        layout = AntennaLayout(xs=(x1, x2), feed_x=feed)
        g = pinching_gain(params, layout, user)
        _, dists = phases_and_distances(
            params, user, np.asarray(layout.xs), feed
        )
        bound = amp * float(np.sum(1.0 / dists))
        assert abs(g) == pytest.approx(bound, rel=1e-9)


@criterion(5, "solver within 5% of the exhaustive oracle; oracle dominates snaps")
def test_algorithm_vs_oracle(algo_vs_oracle):
    gaps, dominance, _, elapsed = algo_vs_oracle
    assert len(gaps) >= 45
    assert float(np.mean(gaps)) <= 0.05
    assert all(d >= -1e-9 for d in dominance)
    assert elapsed < 300.0


@criterion(6, "mean waveguide sum rate beats the fixed array in every cell")
def test_pinching_vs_conventional(power_sweep):
    result, _, elapsed = power_sweep
    cells = {(r[0], r[1], r[2]): r[4] for r in result.table.rows}
    for pt in (10.0, 20.0, 30.0):
        for d in (10.0, 20.0):
            assert cells[(pt, d, "pinching")] > cells[(pt, d, "conventional-uniform")]
    assert elapsed < 300.0


@criterion(7, "smaller regions give larger mean sum rates at 30 dBm")
def test_deployment_size_trend(power_sweep):
    result, _, _ = power_sweep
    cells = {(r[0], r[1], r[2]): r[4] for r in result.table.rows}
    for scheme in ("pinching", "conventional-uniform"):
        series = [cells[(30.0, d, scheme)] for d in (10.0, 20.0, 30.0)]
        assert series[0] > series[1] > series[2]


@criterion(8, "tight strong-user phase tolerance beats no alignment")
def test_phase_accuracy_trend(delta_sweep):
    result, _ = delta_sweep
    cells = {(r[1], r[2]): r[3] for r in result.table.rows}
    assert cells[(0.5, 0.02)] > cells[(0.5, 100.0)]


@criterion(9, "figures command is byte-identical for a repeated seed")
def test_figures_determinism(tmp_path):
    args = [
        "--seed", str(SEED),
        "--set", "sweep.trials=3",
        "--set", "sweep.pt_dbm_values=[10,30]",
        "--set", "sweep.d_values=[10]",
        "--set", "sweep.delta_pairs=[[0.5,0.02],[0.5,100]]",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["figures", "--out", str(out_a), *args]) == 0
    assert main(["figures", "--out", str(out_b), *args]) == 0
    for name in ("fig2.csv", "fig3.csv", "fig4.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@criterion(10, "bisection iteration counts stay within the log bound")
def test_bisection_iteration_bound(reference_setting, power_sweep, delta_sweep, algo_vs_oracle):
    params, _, cfg = reference_setting
    _, _, iterations, _ = algo_vs_oracle
    counts = list(iterations)
    power_result, _, _ = power_sweep
    for (pt, d, scheme), recs in power_result.records.items():
        if scheme != "pinching":
            continue
        bound = math.ceil(math.log2(d / cfg.epsilon)) + 1
        for rec in recs:
            assert 1 <= rec.iterations <= bound
            counts.append(rec.iterations)
    delta_result, _ = delta_sweep
    for recs in delta_result.records.values():
        for rec in recs:
            assert 1 <= rec.iterations <= iteration_bound(params, cfg)
            counts.append(rec.iterations)
    bound10 = math.ceil(math.log2(params.side_d / cfg.epsilon)) + 1
    for n in iterations:
        assert 1 <= n <= bound10
    assert len(counts) > 1000
