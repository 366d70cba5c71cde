"""Brute-force reference placement search for regression-testing the solver.

``exhaustive_placement`` searches antenna positions on a fixed grid in one
of two ways: ``full-grid`` enumerates every admissible N-tuple of grid
positions (guarded by a hard combination cap), while ``two-stage`` sweeps
the array centre at the grid step and then refines each off-centre antenna
within one guided wavelength, which keeps desk-scale runtimes while
preserving the phase-scale resolution.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    AntennaLayout,
    SystemParams,
    UserPosition,
    check_number,
    guided_wavelength,
    pinching_gains_batch,
    spacing_holds,
    spacing_threshold,
    wavelength,
)
from .noma import QosTargets, evaluate_snrs_batch, gain_snr, snr_scale
from .placement import (
    PlacementError,
    PlacementSolution,
    _pitch_offsets,
    center_bounds,
    center_index,
    check_users,
    feed_point,
    placement_solution,
)

MAX_GRID_LAYOUTS = 10**8
MAX_GRID_POINTS = 10**6
_CHUNK = 8192


class OracleSizeError(RuntimeError):
    """The requested search grid exceeds its point or combination cap."""


@dataclass(frozen=True)
class OracleConfig:
    """Resolution and extent of the brute-force placement search.

    position_step  placement grid step, m (default: wavelength / 10)
    search_window  margin, m, added on both sides of the inter-user span
    strategy       'full-grid' or 'two-stage'
    """

    position_step: float | None = None
    search_window: float = 1.0
    strategy: str = "two-stage"

    def __post_init__(self) -> None:
        if self.position_step is not None:
            check_number("position_step", self.position_step, 0, above=True)
        check_number("search_window", self.search_window, 0, above=True)
        if self.strategy not in ("full-grid", "two-stage"):
            raise ValueError(f"unknown strategy {self.strategy!r}")

    def resolved_step(self, params: SystemParams) -> float:
        return self.position_step if self.position_step is not None else wavelength(params) / 10.0


def batch_solution_metrics(
    params: SystemParams,
    xs_layouts: np.ndarray,
    feed_x: float,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
) -> tuple[np.ndarray, np.ndarray]:
    """Sum rate and feasibility for (M, N) layouts.

    Layout rows are assumed to satisfy the spacing and region constraints
    already (the enumerators only generate admissible rows), so feasibility
    is :attr:`FeasibilityReport.overall` of a layout that keeps its spacing.
    """
    # one kernel call for both users: each user's row is its own call's, bit for bit
    s1, s2 = gain_snr(snr_scale(params), pinching_gains_batch(params, xs_layouts, feed_x, users))
    rates, _, feasible = evaluate_snrs_batch(s1, s2, qos)
    return rates, feasible


def grid_points(length: float, step: float) -> int:
    """Points of a grid at ``step`` over ``length``, both ends included;
    OracleSizeError above MAX_GRID_POINTS, before anything is allocated."""
    span = length / step
    if span >= MAX_GRID_POINTS:
        raise OracleSizeError(f"position grid of {span + 1:.6g} points exceeds {MAX_GRID_POINTS}")
    return int(math.floor(span)) + 1


def _grid(params: SystemParams, users, cfg: OracleConfig) -> np.ndarray:
    """Candidate positions: the inter-user span plus the window margin."""
    step = cfg.resolved_step(params)
    half = params.side_d / 2.0
    lo = max(min(users[0].x, users[1].x) - cfg.search_window, -half)
    hi = min(max(users[0].x, users[1].x) + cfg.search_window, half)
    return lo + step * np.arange(grid_points(hi - lo, step))


def full_grid_shape(params: SystemParams, users, cfg: OracleConfig) -> tuple:
    """The full-grid search's positions, minimum index gap and free index
    count (its layouts are the n-subsets of those indices, the k-th shifted
    by k * (gap - 1)); OracleSizeError over MAX_GRID_LAYOUTS, PlacementError at 0."""
    grid = _grid(params, users, cfg)
    gap = max(1, math.ceil(spacing_threshold(params) / cfg.resolved_step(params)))
    slack = grid.size - (params.n_antennas - 1) * (gap - 1)
    total = math.comb(max(slack, 0), params.n_antennas)
    if total > MAX_GRID_LAYOUTS:
        raise OracleSizeError(f"full-grid search would enumerate {total} layouts (cap "
                              f"{MAX_GRID_LAYOUTS}); shrink the window or use two-stage")
    if total == 0:
        raise PlacementError("search window too small for the antenna array")
    return grid, gap, slack


def _winner(
    rows: np.ndarray, rates: np.ndarray, mask: np.ndarray, best: tuple | None = None
) -> tuple | None:
    """The better of ``best`` and the best row under ``mask``, or None.

    Both are ``(rate, first coordinate, row)``.  The highest rate wins, then
    the highest first coordinate, then the earliest row; ``best`` counts as
    earlier than every row, so it is kept on an exact tie.
    """
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return best
    top = rates[idx].max()
    tied = idx[rates[idx] == top]
    row = tied[int(np.argmax(rows[tied, 0]))]
    found = (float(top), float(rows[row, 0]), rows[row])
    return found if best is None or found[:2] > best[:2] else best


def _full_grid_search(params, users, qos, cfg, feed_x) -> PlacementSolution:
    grid, gap, slack = full_grid_shape(params, users, cfg)
    n = params.n_antennas
    shift = (gap - 1) * np.arange(n)
    # the tuples' indices in order, read _CHUNK tuples at a time
    flat = itertools.chain.from_iterable(itertools.combinations(range(slack), n))
    best_feasible = best_any = None
    while (idx := np.fromiter(itertools.islice(flat, _CHUNK * n), dtype=np.intp)).size:
        xs_rows = grid[idx.reshape(-1, n) + shift]
        rates, feasible = batch_solution_metrics(params, xs_rows, feed_x, users, qos)
        best_feasible = _winner(xs_rows, rates, feasible, best_feasible)
        best_any = _winner(xs_rows, rates, np.ones_like(feasible), best_any)
    xs = (best_feasible or best_any)[2]
    return placement_solution(params, AntennaLayout(xs, feed_x), users, qos, 0)


def _two_stage_search(params, users, qos, cfg, feed_x) -> PlacementSolution:
    c = center_index(params.n_antennas)
    lo_c, hi_c = center_bounds(params)
    centers = _grid(params, users, cfg)
    centers = centers[(centers >= lo_c) & (centers <= hi_c)]
    if centers.size == 0:
        mid = 0.5 * (users[0].x + users[1].x)
        centers = np.array([min(max(mid, lo_c), hi_c)])

    xs_rows = centers[:, None] + np.array(_pitch_offsets(params))[None, :]
    rates, feasible = batch_solution_metrics(params, xs_rows, feed_x, users, qos)
    stage1 = _winner(xs_rows, rates, feasible)
    if stage1 is None:
        fallback = _winner(xs_rows, rates, np.ones_like(feasible))
        return placement_solution(params, AntennaLayout(fallback[2], feed_x), users, qos, 0)

    # stage 2: one coordinate-descent pass over the off-centre antennas,
    # each sweeping +- one guided wavelength around its stage-1 position.
    # Outermost antennas go first so inner ones inherit the freed room;
    # every evaluated row keeps spacing against both current neighbours.
    # Offset 0 rebuilds the current feasible row, so every antenna has a pick.
    refine_step = wavelength(params) / 100.0
    reach = guided_wavelength(params)
    n_off = int(math.floor(reach / refine_step))
    offsets = refine_step * np.arange(-n_off, n_off + 1)
    order = list(range(params.n_antennas - 1, c, -1)) + list(range(0, c))
    best_rate, _, start = stage1
    xs = best_xs = start
    half = params.side_d / 2.0
    for n in order:
        cand = start[n] + offsets
        ok = (cand >= -half) & (cand <= half)
        if n > 0:
            ok &= spacing_holds(params, cand - xs[n - 1])
        if n < params.n_antennas - 1:
            ok &= spacing_holds(params, xs[n + 1] - cand)
        cand = cand[ok]
        rows = np.tile(xs, (cand.size, 1))
        rows[:, n] = cand
        rates, feasible = batch_solution_metrics(params, rows, feed_x, users, qos)
        pick = _winner(rows, rates, feasible)
        xs = pick[2]
        if pick[0] > best_rate:
            best_rate = pick[0]
            best_xs = xs
    return placement_solution(params, AntennaLayout(best_xs, feed_x), users, qos, 0)


def exhaustive_placement(
    params: SystemParams,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
    cfg: OracleConfig,
) -> PlacementSolution:
    """Best placement over the position grid, per the configured strategy.

    Deterministic: identical inputs always yield identical output, with
    ties broken lexicographically on (sum rate, first antenna coordinate).
    Users outside the region or at one x raise PlacementError, as in the solver.
    """
    check_users(params, users)
    feed_x = feed_point(params)
    if cfg.strategy == "full-grid":
        return _full_grid_search(params, users, qos, cfg, feed_x)
    return _two_stage_search(params, users, qos, cfg, feed_x)
