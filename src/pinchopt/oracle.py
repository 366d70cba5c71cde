"""Brute-force reference searches for regression-testing the solver.

Two oracles live here: an exhaustive sweep of the strong-user power
coefficient on a fine grid, and an exhaustive antenna-placement search.
The placement search comes in two flavours: ``full-grid`` enumerates every
admissible N-tuple of grid positions (guarded by a hard combination cap),
while ``two-stage`` sweeps the array centre at the grid step and then
refines each off-centre antenna within one guided wavelength, which keeps
desk-scale runtimes while preserving the phase-scale resolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .channel import (
    AntennaLayout,
    SystemParams,
    UserPosition,
    guided_wavelength,
    pinching_gains_batch,
    require_finite,
    wavelength,
)
from .noma import (
    QosTargets,
    ZERO_RATES,
    gain_snr,
    noma_rates,
    optimal_alpha2_batch,
    qos_verdicts,
    snr_scale,
    sum_rate_objective,
)
from .placement import (
    PlacementError,
    PlacementSolution,
    center_bounds,
    center_index,
    evaluate_placement,
    feed_point,
    pinned_antennas,
)

MAX_GRID_LAYOUTS = 10**8
_CHUNK = 8192


class OracleSizeError(RuntimeError):
    """The requested full-grid enumeration exceeds the combination cap."""


@dataclass(frozen=True)
class OracleConfig:
    """Resolution and extent of the brute-force searches.

    position_step  placement grid step, m (default: wavelength / 10)
    alpha_step     power-coefficient grid step
    search_window  margin, m, added on both sides of the inter-user span
    strategy       'full-grid' or 'two-stage'
    """

    position_step: float | None = None
    alpha_step: float = 1e-4
    search_window: float = 1.0
    strategy: str = "two-stage"

    def __post_init__(self) -> None:
        require_finite(self, ("position_step", "alpha_step", "search_window"))
        if self.position_step is not None and self.position_step <= 0:
            raise ValueError("position_step must be positive")
        if self.alpha_step <= 0:
            raise ValueError("alpha_step must be positive")
        if self.search_window <= 0:
            raise ValueError("search_window must be positive")
        if self.strategy not in ("full-grid", "two-stage"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def resolved_step(self, params: SystemParams) -> float:
        return self.position_step if self.position_step is not None else wavelength(params) / 10.0


def grid_alpha2(
    snr_weak: float,
    snr_strong: float,
    qos: QosTargets,
    cfg: OracleConfig,
) -> float | None:
    """Exhaustive argmax of the sum-rate objective over the alpha2 grid.

    Grid points violating any rate target are discarded; returns None when
    no point survives.
    """
    n = int(math.floor(0.5 / cfg.alpha_step)) + 1
    alphas = np.minimum(cfg.alpha_step * np.arange(n), 0.5)
    if alphas[-1] < 0.5:
        alphas = np.append(alphas, 0.5)
    r1_qos, r2_qos, sic = qos_verdicts(
        *noma_rates(snr_weak, snr_strong, 1.0 - alphas, alphas), qos
    )
    ok = r1_qos & r2_qos & sic
    if not ok.any():
        return None
    values = sum_rate_objective(snr_weak, snr_strong, alphas[ok])
    return float(alphas[ok][int(np.argmax(values))])


def batch_solution_metrics(
    params: SystemParams,
    xs_layouts: np.ndarray,
    feed_x: float,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum rate, feasibility and closed-form alpha2 for (M, N) layouts.

    Layout rows are assumed to satisfy the spacing and region constraints
    already (the enumerators only generate admissible rows), so feasibility
    here covers the rate targets and the channel-ordering requirement.
    """
    rho = snr_scale(params)
    s1, s2 = (
        gain_snr(rho, pinching_gains_batch(params, xs_layouts, feed_x, u))
        for u in users
    )
    a2 = optimal_alpha2_batch(s1, qos)
    r1, r2, r21 = noma_rates(s1, s2, 1.0 - a2, a2)
    r1_qos, r2_qos, sic = qos_verdicts(r1, r2, r21, qos)
    return r1 + r2, r1_qos & r2_qos & sic & (s2 >= s1), a2


def _grid(params: SystemParams, users, cfg: OracleConfig) -> np.ndarray:
    """Candidate positions: the inter-user span plus the window margin."""
    step = cfg.resolved_step(params)
    half = params.side_d / 2.0
    lo = max(min(users[0].x, users[1].x) - cfg.search_window, -half)
    hi = min(max(users[0].x, users[1].x) + cfg.search_window, half)
    if hi < lo:
        lo = hi = min(max(lo, -half), half)
    count = int(math.floor((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def _index_tuples(n_points: int, n_antennas: int, gap: int) -> Iterator[tuple[int, ...]]:
    """All increasing index tuples with consecutive difference >= gap."""
    def rec(prefix: tuple[int, ...], start: int, remaining: int):
        if remaining == 0:
            yield prefix
            return
        # leave room for the antennas still to be placed
        for i in range(start, n_points - (remaining - 1) * gap):
            yield from rec(prefix + (i,), i + gap, remaining - 1)

    yield from rec((), 0, n_antennas)


def _count_tuples(n_points: int, n_antennas: int, gap: int) -> int:
    slack = n_points - (n_antennas - 1) * (gap - 1)
    if slack < n_antennas:
        return 0
    return math.comb(slack, n_antennas)


class _Best:
    """Deterministic max-reduction on (sum rate, first antenna coordinate)."""

    def __init__(self) -> None:
        self.rate = -math.inf
        self.x0 = -math.inf
        self.xs: np.ndarray | None = None
        self.found = False

    def offer(self, xs_rows: np.ndarray, rates: np.ndarray, mask: np.ndarray) -> None:
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return
        rates = rates[idx]
        top = rates.max()
        tied = idx[rates == top]
        x0 = xs_rows[tied, 0]
        winner = tied[int(np.argmax(x0))]
        if (top, xs_rows[winner, 0]) > (self.rate, self.x0):
            self.rate = float(top)
            self.x0 = float(xs_rows[winner, 0])
            self.xs = xs_rows[winner].copy()
            self.found = True


def _finalize(
    params: SystemParams,
    xs: np.ndarray,
    feed_x: float,
    users,
    qos: QosTargets,
    feasible: bool,
) -> PlacementSolution:
    layout = AntennaLayout(xs=tuple(float(x) for x in xs), feed_x=feed_x)
    split, rates, report, alpha = evaluate_placement(params, layout, users, qos)
    ok = feasible and report.overall
    return PlacementSolution(
        layout=layout,
        split=split,
        rates=rates if ok else ZERO_RATES,
        feasibility=report,
        iterations=0,
        feasible_found=ok,
        alpha_clamped=alpha.clamped,
        pinned_antennas=pinned_antennas(params, layout),
    )


def _full_grid_search(params, users, qos, cfg, feed_x) -> PlacementSolution:
    grid = _grid(params, users, cfg)
    step = cfg.resolved_step(params)
    gap = max(1, math.ceil((params.delta_min - AntennaLayout.SPACING_SLACK) / step))
    total = _count_tuples(grid.size, params.n_antennas, gap)
    if total > MAX_GRID_LAYOUTS:
        raise OracleSizeError(
            f"full-grid search would enumerate {total} layouts "
            f"(cap {MAX_GRID_LAYOUTS}); shrink the window or use two-stage"
        )
    if total == 0:
        raise PlacementError("search window too small for the antenna array")
    best_feasible = _Best()
    best_any = _Best()
    chunk: list[tuple[int, ...]] = []

    def flush() -> None:
        if not chunk:
            return
        xs_rows = grid[np.array(chunk, dtype=int)]
        rates, feasible, _ = batch_solution_metrics(params, xs_rows, feed_x, users, qos)
        best_feasible.offer(xs_rows, rates, feasible)
        best_any.offer(xs_rows, rates, np.ones_like(feasible))
        chunk.clear()

    for tup in _index_tuples(grid.size, params.n_antennas, gap):
        chunk.append(tup)
        if len(chunk) >= _CHUNK:
            flush()
    flush()
    pick = best_feasible if best_feasible.found else best_any
    return _finalize(params, pick.xs, feed_x, users, qos, best_feasible.found)


def _two_stage_search(params, users, qos, cfg, feed_x) -> PlacementSolution:
    c = center_index(params.n_antennas)
    rigid = params.delta_min * (np.arange(params.n_antennas) - c)
    lo_c, hi_c = center_bounds(params)
    centers = _grid(params, users, cfg)
    centers = centers[(centers >= lo_c) & (centers <= hi_c)]
    if centers.size == 0:
        mid = 0.5 * (users[0].x + users[1].x)
        centers = np.array([min(max(mid, lo_c), hi_c)])

    xs_rows = centers[:, None] + rigid[None, :]
    rates, feasible, _ = batch_solution_metrics(params, xs_rows, feed_x, users, qos)
    stage1 = _Best()
    stage1.offer(xs_rows, rates, feasible)
    if not stage1.found:
        fallback = _Best()
        fallback.offer(xs_rows, rates, np.ones_like(feasible))
        return _finalize(params, fallback.xs, feed_x, users, qos, False)

    # stage 2: one coordinate-descent pass over the off-centre antennas,
    # each sweeping +- one guided wavelength around its stage-1 position.
    # Outermost antennas go first so inner ones inherit the freed room;
    # every evaluated row keeps spacing against both current neighbours.
    refine_step = wavelength(params) / 100.0
    reach = guided_wavelength(params)
    n_off = int(math.floor(reach / refine_step))
    offsets = refine_step * np.arange(-n_off, n_off + 1)
    order = list(range(params.n_antennas - 1, c, -1)) + list(range(0, c))
    xs = stage1.xs.copy()
    best_xs = stage1.xs.copy()
    best_rate = stage1.rate
    half = params.side_d / 2.0
    slack = AntennaLayout.SPACING_SLACK
    for n in order:
        cand = stage1.xs[n] + offsets
        ok = (cand >= -half) & (cand <= half)
        if n > 0:
            ok &= cand - xs[n - 1] >= params.delta_min - slack
        if n < params.n_antennas - 1:
            ok &= xs[n + 1] - cand >= params.delta_min - slack
        cand = cand[ok]
        if cand.size == 0:
            continue
        rows = np.tile(xs, (cand.size, 1))
        rows[:, n] = cand
        rates, feasible, _ = batch_solution_metrics(params, rows, feed_x, users, qos)
        pick = _Best()
        pick.offer(rows, rates, feasible)
        if not pick.found:
            continue
        xs = pick.xs.copy()
        if pick.rate > best_rate:
            best_rate = pick.rate
            best_xs = xs.copy()
    return _finalize(params, best_xs, feed_x, users, qos, True)


def exhaustive_placement(
    params: SystemParams,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
    cfg: OracleConfig,
    feed_x: float | None = None,
) -> PlacementSolution:
    """Best placement over the position grid, per the configured strategy.

    Deterministic: identical inputs always yield identical output, with
    ties broken lexicographically on (sum rate, first antenna coordinate).
    """
    feed_x = feed_point(params, feed_x)
    if cfg.strategy == "full-grid":
        return _full_grid_search(params, users, qos, cfg, feed_x)
    return _two_stage_search(params, users, qos, cfg, feed_x)
