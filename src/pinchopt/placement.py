"""Waveguide antenna placement: bisection search plus phase fine-tuning.

The solver works in two nested layers.  The outer layer bisects the
centre-antenna position between the two users' x-coordinates, contracting
toward the strong user whenever the rate targets are met.  The inner layer
takes the rigid minimum-pitch array built at the current centre and nudges
each off-centre antenna outward in wavelength-scale steps until its
composite phase lines up with its inner neighbour's for both users, which
turns the per-antenna contributions from incoherent into coherent.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from numbers import Real

import numpy as np

from .channel import (
    AntennaLayout,
    SystemParams,
    UserPosition,
    phases_and_distances,
    pinching_gain,
    require_finite,
    require_int,
    wavelength,
)
from .noma import (
    Alpha2Result,
    FeasibilityReport,
    PowerSplit,
    QosTargets,
    RateReport,
    ZERO_RATES,
    evaluate_snrs,
    gain_snr,
    snr_scale,
)

TWO_PI = 2.0 * math.pi
MAX_FINE_SHIFTS = 10**6  # candidates per antenna; 1000x the default budget
CAP_SLACK = 1e-15  # a candidate this close to its region cap counts as on it


class PlacementError(ValueError):
    """The requested placement cannot be built (geometry or scenario)."""


@dataclass(frozen=True)
class AlgoConfig:
    """Knobs of the placement solver.

    epsilon          bisection convergence threshold on the centre position, m
    delta1, delta2   phase alignment tolerances for the weak/strong user, rad
    fine_step        fine-tuning step, m (default: wavelength / 100)
    max_fine_shifts  cap on outward steps per antenna (default: a
                     10-wavelength window, ceil(10 * wavelength / fine_step))
    """

    epsilon: float = 1e-5
    delta1: float = 0.5
    delta2: float = 0.02
    fine_step: float | None = None
    max_fine_shifts: int | None = None

    def __post_init__(self) -> None:
        require_int(self, ("max_fine_shifts",))
        require_finite(
            self, ("epsilon", "delta1", "delta2", "fine_step", "max_fine_shifts")
        )
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.delta1 < 0 or self.delta2 < 0:
            raise ValueError("phase tolerances must be non-negative")
        if self.fine_step is not None and self.fine_step <= 0:
            raise ValueError("fine_step must be positive")
        if self.max_fine_shifts is not None and self.max_fine_shifts < 1:
            raise ValueError("max_fine_shifts must be >= 1")

    def resolved_fine_step(self, params: SystemParams) -> float:
        return self.fine_step if self.fine_step is not None else wavelength(params) / 100.0

    def resolved_max_shifts(self, params: SystemParams) -> int:
        shifts = self.max_fine_shifts
        if shifts is None:
            shifts = 10.0 * wavelength(params) / self.resolved_fine_step(params)
        if shifts > MAX_FINE_SHIFTS:  # checked before anything is allocated
            raise PlacementError(f"fine-tune budget of {shifts:.6g} shifts per antenna "
                                 f"exceeds {MAX_FINE_SHIFTS}")
        return math.ceil(shifts)


@dataclass(frozen=True)
class PlacementSolution:
    """Best placement found, with its power split and constraint verdicts."""

    layout: AntennaLayout
    split: PowerSplit
    rates: RateReport
    feasibility: FeasibilityReport
    iterations: int
    feasible_found: bool
    alpha_clamped: str = "none"
    pinned_antennas: tuple[int, ...] = ()


def circular_phase_error(a, b):
    """Distance between two phases on the circle, in [0, pi], any shape."""
    m = np.fmod(np.abs(a - b), TWO_PI)  # equals % on non-negative operands
    return np.minimum(m, TWO_PI - m)


def feed_point(params: SystemParams) -> float:
    """The feed point both solvers use: the region's left edge."""
    return -params.side_d / 2.0


def check_users(params: SystemParams, users: tuple[UserPosition, UserPosition]) -> None:
    """Raise PlacementError unless the users lie in the region at distinct x."""
    half = params.side_d / 2.0
    for v in (users[0].x, users[0].y, users[1].x, users[1].y):
        # float first: a solve's coordinates skip the slower Real check
        if isinstance(v, bool) or not isinstance(v, (float, Real)) or not -half <= v <= half:
            raise PlacementError(f"user coordinate {v!r} is not a number in [{-half}, {half}]")
    if users[0].x == users[1].x:
        raise PlacementError("degenerate scenario: users share the same x-coordinate")


def center_index(n_antennas: int) -> int:
    """0-based index of the centre antenna (middle of an odd array)."""
    return (n_antennas - 1) // 2


def center_bounds(params: SystemParams) -> tuple[float, float]:
    """Admissible centre-antenna range so the rigid array fits the region."""
    c = center_index(params.n_antennas)
    lo, hi = _antenna_cap(params, c, -1), _antenna_cap(params, c, +1)
    if lo > hi:
        raise PlacementError(
            f"{params.n_antennas} antennas at spacing {params.delta_min} "
            f"do not fit in a region of side {params.side_d}"
        )
    return lo, hi


def _pitch_offsets(params: SystemParams) -> tuple[float, ...]:
    """Each antenna's offset from the centre antenna in the rigid array."""
    c = center_index(params.n_antennas)
    return tuple((n - c) * params.delta_min for n in range(params.n_antennas))


def initial_layout(params: SystemParams, center_x: float, feed_x: float) -> AntennaLayout:
    """Rigid array at minimum pitch with its centre antenna at ``center_x``."""
    lo, hi = center_bounds(params)
    if not (lo <= center_x <= hi):
        raise PlacementError(
            f"centre {center_x} leaves no room for the array; "
            f"valid range is [{lo}, {hi}]"
        )
    return AntennaLayout(tuple(center_x + o for o in _pitch_offsets(params)), feed_x)


def _antenna_cap(params: SystemParams, n: int, side: int) -> float:
    """Outermost position antenna ``n`` may take while leaving minimum-pitch
    room for every antenna beyond it on the same side (+1 right, -1 left)."""
    half = params.side_d / 2.0
    if side > 0:
        return half - (params.n_antennas - 1 - n) * params.delta_min
    return -half + n * params.delta_min


def _pick_candidate(
    params: SystemParams,
    users: tuple[UserPosition, UserPosition],
    cfg: AlgoConfig,
    feed_x: float,
    cand: np.ndarray,
    inner_x: float,
    cap: float,
) -> float:
    """Pick the tuned position of one antenna from an outward candidate grid.

    Positions are outward coordinates, ascending away from the centre
    antenna: a left-side antenna passes its mirror image (x -> -x for the
    positions, the feed and the users), whose phases are bit-equal because
    rounding is symmetric under negation.  The grid is truncated at the
    room-preserving region cap (keeping the cap itself as a final
    candidate).  The first candidate that keeps spacing >= delta_min to the
    inner neighbour and aligns the composite-phase difference within
    (delta1, delta2) for both users wins; if none does, the valid candidate
    with the smallest tolerance-weighted error is used.
    """
    if cand[-1] > cap + CAP_SLACK:  # the grid ascends, so only its tail can pass the cap
        cand = cand[cand <= cap + CAP_SLACK]
        if cand.size == 0 or cand[-1] < cap - CAP_SLACK:
            cand = np.append(cand, cap)
    spacing_ok = cand - inner_x >= params.delta_min - AntennaLayout.SPACING_SLACK
    if not spacing_ok.any():
        # inner neighbour moved past the whole grid; sit at minimum pitch
        return min(inner_x + params.delta_min, cap)

    # the inner neighbour rides along as element 0: one phase call per user
    xs = np.concatenate(([inner_x], cand))
    errs = []
    for u in users:
        phases = phases_and_distances(params, u, xs, feed_x)[0]
        errs.append(circular_phase_error(phases[1:], phases[0]))
    ok = spacing_ok & (errs[0] <= cfg.delta1) & (errs[1] <= cfg.delta2)
    if ok.any():
        return float(cand[int(np.argmax(ok))])
    # tolerance-weighted fallback; guard against a zero tolerance
    score = errs[0] / max(cfg.delta1, 1e-300) + errs[1] / max(cfg.delta2, 1e-300)
    weighted = np.where(spacing_ok, score, np.inf)
    return float(cand[int(np.argmin(weighted))])


def _tune_layout(
    params: SystemParams,
    layout: AntennaLayout,
    users: tuple[UserPosition, UserPosition],
    cfg: AlgoConfig,
) -> AntennaLayout:
    """Uncached body of :func:`fine_tune`."""
    xs = list(layout.xs)
    c = center_index(params.n_antennas)
    step = cfg.resolved_fine_step(params)
    offsets = step * np.arange(cfg.resolved_max_shifts(params) + 1)
    for side, order in ((+1, range(c + 1, params.n_antennas)), (-1, range(c - 1, -1, -1))):
        # outward coordinates side * x, in which the left side is the right's mirror
        seen = users if side > 0 else tuple(UserPosition(-u.x, u.y) for u in users)
        for n in order:
            xs[n] = side * _pick_candidate(
                params, seen, cfg, side * layout.feed_x,
                cand=side * xs[n] + offsets, inner_x=side * xs[n - side],
                cap=side * _antenna_cap(params, n, side),
            )
    return AntennaLayout(xs=tuple(xs), feed_x=layout.feed_x)


# every SystemParams field but the two powers, which enter only via snr_scale
_power_free_fields = operator.attrgetter(*(
    f.name for f in fields(SystemParams) if f.name not in ("pt_dbm", "noise_dbm")
))


def _channel_scope(params: SystemParams, users: tuple[UserPosition, UserPosition]) -> tuple:
    """Everything besides the layout and the tolerances that a layout's
    tuning, its |g|^2 at unit rho and its spacing verdict depend on."""
    return _power_free_fields(params), tuple((u.x, u.y) for u in users)


class _ScopedTable:
    """Values for one scenario at a time, the scenario being its
    :func:`_channel_scope`.  The state is one (params, users, scope, table)
    tuple, read once per call and replaced whole: the scope is rebuilt only
    when the argument objects change and the table only when the scope does,
    so an entry is never returned in another scope, even to threads solving
    different scenarios, and a lost swap only repeats work."""

    def __init__(self) -> None:
        self._state: tuple = (None, None, None, {})

    def lookup(self, params: SystemParams, users: tuple, key, compute):
        state = self._state
        if params is not state[0] or users is not state[1]:
            scope = _channel_scope(params, users)
            table = state[3] if scope == state[2] else {}
            state = self._state = (params, users, scope, table)
        table = state[3]
        value = table.get(key)
        if value is None:
            value = table[key] = compute()
        return value


# Sweeps run each scenario's tasks back to back, so one scope's tables hold
# at most the layouts its solves visit (tolerance pairs times power levels
# times ``iteration_bound``) plus one per reference search.
_tuned_layouts = _ScopedTable()  # (input layout, tolerances) -> tuned layout
_channel_terms = _ScopedTable()  # layout -> (|g|^2 at unit rho, spacing verdict)


def fine_tune(
    params: SystemParams,
    layout: AntennaLayout,
    users: tuple[UserPosition, UserPosition],
    cfg: AlgoConfig,
) -> AntennaLayout:
    """Align off-centre antennas' composite phases with their inner neighbour.

    Antennas right of the centre are processed in ascending order shifting
    right, then antennas left of the centre in descending order shifting
    left; the centre antenna never moves.  The returned layout always
    satisfies the spacing and region invariants.  It does not depend on the
    transmit or noise power, so a layout already tuned for the same
    geometry, users and tolerances is returned again without retuning.
    """
    key = (
        layout.xs, layout.feed_x, cfg.delta1, cfg.delta2,
        cfg.resolved_fine_step(params), cfg.resolved_max_shifts(params),
    )
    return _tuned_layouts.lookup(
        params, users, key, lambda: _tune_layout(params, layout, users, cfg)
    )


def pinned_antennas(params: SystemParams, layout: AntennaLayout) -> tuple[int, ...]:
    """Indices of antennas sitting exactly on their region cap."""
    c = center_index(params.n_antennas)
    pinned = []
    for n in range(params.n_antennas):
        if n == c:
            continue
        side = +1 if n > c else -1
        if abs(layout.xs[n] - _antenna_cap(params, n, side)) <= CAP_SLACK:
            pinned.append(n)
    return tuple(pinned)


def placement_solution(
    params: SystemParams,
    evaluated: tuple[AntennaLayout, PowerSplit, RateReport, FeasibilityReport, Alpha2Result],
    iterations: int,
    feasible: bool,
) -> PlacementSolution:
    """The solution for a layout and its :func:`evaluate_placement` result;
    its rates are zero unless ``feasible`` and every constraint holds."""
    layout, split, rates, report, alpha = evaluated
    ok = feasible and report.overall
    return PlacementSolution(
        layout=layout, split=split, rates=rates if ok else ZERO_RATES,
        feasibility=report, iterations=iterations, feasible_found=ok,
        alpha_clamped=alpha.clamped, pinned_antennas=pinned_antennas(params, layout),
    )


def evaluate_placement(
    params: SystemParams,
    layout: AntennaLayout,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
) -> tuple[PowerSplit, RateReport, FeasibilityReport, Alpha2Result]:
    """Optimal power split, rates and constraint verdicts for one layout.

    |g|^2 and the spacing verdict do not depend on the powers, so a layout
    seen before in the same scope costs only the closed-form step; rho times
    ``gain_snr`` at unit rho is bit-equal, as its last operation is that product.
    """
    def channel_terms():
        gains = np.array([pinching_gain(params, layout, u) for u in users])
        return gain_snr(1.0, gains).tolist(), layout.spacing_ok(params)

    (g1_sq, g2_sq), spacing = _channel_terms.lookup(
        params, users, (layout.xs, layout.feed_x), channel_terms
    )
    rho = snr_scale(params)
    return evaluate_snrs(rho * g1_sq, rho * g2_sq, qos, spacing)


def bisection_solve(
    params: SystemParams,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
    cfg: AlgoConfig,
) -> PlacementSolution:
    """Bisection placement search between the users' x-coordinates.

    ``users`` must be ordered (weak, strong).  The search interval starts at
    [x_strong, x_weak]; each iteration builds and fine-tunes the array at
    the interval midpoint (clamped so it fits the region), solves the power
    split in closed form, and contracts toward the strong user when the
    rate targets hold.  The best fully feasible iterate by sum rate is
    returned; if none is feasible the last iterate comes back with zero
    rates and feasible_found False.
    """
    check_users(params, users)
    feed_x = feed_point(params)
    lo_bound, hi_bound = center_bounds(params)

    offsets = _pitch_offsets(params)

    left = users[1].x
    right = users[0].x
    best = last = None  # (layout, split, rates, report, alpha) of an iterate
    iterations = 0
    while iterations == 0 or abs(right - left) > cfg.epsilon:
        iterations += 1
        mid = 0.5 * (left + right)
        center = min(max(mid, lo_bound), hi_bound)
        rigid = AntennaLayout(tuple(center + o for o in offsets), feed_x)
        layout = fine_tune(params, rigid, users, cfg)
        split, rates, report, alpha = evaluate_placement(params, layout, users, qos)
        last = (layout, split, rates, report, alpha)
        if report.overall and (best is None or rates.sum_rate > best[2].sum_rate):
            best = last
        if report.qos_ok:
            right = mid
        else:
            left = mid
        if 0.5 * (left + right) in (left, right):
            # an epsilon below the float spacing of the coordinates: the
            # next midpoint would round onto an endpoint and never move
            break

    return placement_solution(params, best or last, iterations, best is not None)


def iteration_bound(params: SystemParams, cfg: AlgoConfig) -> int:
    """Worst-case bisection iteration count for a region of side D."""
    return math.ceil(math.log2(params.side_d / cfg.epsilon)) + 1
