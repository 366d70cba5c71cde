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
from dataclasses import dataclass

import numpy as np

from .channel import (
    AntennaLayout,
    SystemParams,
    UserPosition,
    check_number,
    gains_from_phases,
    phase_turns_and_distances,
    pinching_gain,
    spacing_threshold,
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
    evaluate_snrs_batch,
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
        check_number("epsilon", self.epsilon, 0, above=True)
        check_number("delta1", self.delta1, 0)
        check_number("delta2", self.delta2, 0)
        if self.fine_step is not None:
            check_number("fine_step", self.fine_step, 0, above=True)
        if self.max_fine_shifts is not None:
            check_number("max_fine_shifts", self.max_fine_shifts, 1, integer=True)

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


def feed_point(params: SystemParams) -> float:
    """The feed point both solvers use: the region's left edge."""
    return -params.side_d / 2.0


def check_users(params: SystemParams, users: tuple[UserPosition, UserPosition]) -> None:
    """Raise PlacementError unless the users lie in the region at distinct x."""
    half = params.side_d / 2.0
    for name, v in (("user1.x", users[0].x), ("user1.y", users[0].y),
                    ("user2.x", users[1].x), ("user2.y", users[1].y)):
        if not (isinstance(v, float) and -half <= v <= half):  # a solve's floats stop here
            try:
                check_number(name, v, -half, half)
            except ValueError as exc:
                raise PlacementError(str(exc)) from exc
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


def _candidate_grid(cand: np.ndarray, inner_x: float, cap: float, threshold: float) -> np.ndarray:
    """The candidates one antenna's pick reads, in outward coordinates
    (side * x, ascending away from the centre antenna): the grid ``cand``
    truncated at the room-preserving region cap ``cap`` (keeping the cap
    itself as a final candidate), from its first candidate whose gap to the
    inner neighbour at ``inner_x`` is at least ``threshold``, the spacing
    threshold of :func:`_tune_setup`.  Empty when the inner neighbour moved
    past the whole grid."""
    if cand[-1] > cap + CAP_SLACK:  # the grid ascends, so only its tail can pass the cap
        cand = cand[cand <= cap + CAP_SLACK]
        if cand.size == 0 or cand[-1] < cap - CAP_SLACK:
            cand = np.append(cand, cap)
    if not cand[0] - inner_x >= threshold:
        # gaps ascend with the grid, so the valid candidates are its tail
        spacing_ok = cand - inner_x >= threshold
        cand = cand[int(np.argmax(spacing_ok)):] if spacing_ok.any() else cand[:0]
    return cand


def _pick_round(turns: np.ndarray, segments: list, cfg: AlgoConfig) -> list[int]:
    """Each pick's tuned position in its :func:`_candidate_grid`, as an index,
    for one fine-tune round.

    ``turns`` holds the round's composite phases in turns from
    :func:`phase_turns_and_distances`, one row per user, and ``segments``
    each pick's (first column, grid size) in them: the column at the inner
    neighbour, then one column per candidate, in outward order.  Every
    candidate already keeps the spacing.  For each user, a candidate's error
    is the distance in turns from q = t_k - t_0, its composite-phase
    difference to the inner neighbour, to the nearest whole turn:
    |q - rint(q)|, exact once q is rounded.  In each segment the first
    candidate whose errors are within delta1 / 2pi and delta2 / 2pi wins;
    if none is, the first argmin of e1 / w1 + e2 / w2 does, w being those
    tolerances guarded against zero.  The errors are taken once over the
    whole row, each segment less its own inner column, and every step after
    that reads one segment's columns alone, so each pick is the one its
    segment would get on its own.
    """
    tol1, tol2 = cfg.delta1 / TWO_PI, cfg.delta2 / TWO_PI
    w1, w2 = max(tol1, 1e-300), max(tol2, 1e-300)  # guard against a zero tolerance
    errs = np.empty_like(turns)
    for first, size in segments:
        part = turns[:, first:first + 1 + size]
        np.subtract(part, part[:, :1], out=errs[:, first:first + 1 + size])
    errs -= np.rint(errs)
    np.abs(errs, out=errs)
    fits = (errs[0] <= tol1) & (errs[1] <= tol2)
    picks = []
    for first, size in segments:
        fit = fits[first + 1:first + 1 + size]
        j = int(fit.argmax())
        if not fit[j]:  # no fit: the tolerance-weighted fallback
            off = errs[:, first + 1:first + 1 + size]
            j = int((off[0] / w1 + off[1] / w2).argmin())
        picks.append(j)
    return picks


def _tune_setup(params: SystemParams, cfg: AlgoConfig) -> tuple:
    """What the tunes of one scenario share for ``cfg``'s step and budget:
    the outward offset grid; the grid's last offset; the spacing threshold;
    and the rounds, each a tuple of (side, antenna, outward room-preserving
    cap), the right side first.  The grid is read-only, as it is shared.  An
    over-cap budget raises before any allocation."""
    step, shifts = cfg.resolved_fine_step(params), cfg.resolved_max_shifts(params)
    offsets = step * np.arange(shifts + 1)
    offsets.flags.writeable = False
    n_ant, c = params.n_antennas, center_index(params.n_antennas)
    rounds = tuple(
        tuple((side, n, side * _antenna_cap(params, n, side))
              for side, n in ((+1, c + r), (-1, c - r)) if 0 <= n < n_ant)
        for r in range(1, max(c, n_ant - 1 - c) + 1))
    return offsets, float(offsets[-1]), spacing_threshold(params), rounds


def _tune_layout(
    params: SystemParams,
    layout: AntennaLayout,
    users: tuple[UserPosition, UserPosition],
    cfg: AlgoConfig,
    tables: tuple,
) -> AntennaLayout:
    """Uncached body of :func:`fine_tune`.  Its :func:`_tune_setup` is built
    once per :func:`new_tables`, in the tuned-layout table under the raw step
    and budget, and the tune walks the set-up's rounds.

    Round r tunes antennas c + r and c - r (c the centre antenna), each on
    its own :func:`_candidate_grid`, led by its inner neighbour.  Both grids
    go through one :func:`phase_turns_and_distances` call in real
    coordinates, with the users and the feed as given, and one
    :func:`_pick_round` call.  The picks decide in outward coordinates,
    side * x, on their own segments of that call: a left grid in real
    coordinates is the exact negation of its outward grid, and the composite
    phases are bit-equal under negating every position, the users' x and
    the feed, as rounding is symmetric.  So each side's pick is what a right
    side alone would pick on the mirror image.

    A grid that :func:`_candidate_grid` would leave whole (checked at its
    ends) goes into the row once, as x plus the offsets on the right and x
    minus them on the left: fl(x - o) = -fl(-x + o) but for the sign of a
    zero, so a grid reaching 0 does not.

    The same calls hold the turns and distances at every tuned position, as
    a chosen candidate or as an inner neighbour, so |g|^2 at unit rho and the
    spacing verdict of the tuned layout are gathered from them into the
    channel-term table, bit-equal to :func:`evaluate_placement`'s own.  A
    position no call read (a single antenna, or an outermost antenna at
    minimum pitch past its grid) leaves that to :func:`evaluate_placement`.
    """
    tuned_table, terms = tables[:2]
    setup = tuned_table.get((cfg.fine_step, cfg.max_fine_shifts))
    if setup is None:
        setup = tuned_table[cfg.fine_step, cfg.max_fine_shifts] = _tune_setup(params, cfg)
    offsets, last, threshold, rounds = setup
    xs = list(layout.xs)
    calls = []  # each round's kernel output, side by side
    column = [None] * params.n_antennas  # each tuned position's column in those outputs
    base = 0  # columns of the earlier rounds' outputs
    for entries in rounds:
        antennas, segments, width = [], [], 0  # each pick's (side, antenna), (first column, size)
        row = np.empty(2 * offsets.size + 2)  # inner neighbours, then grids in real coordinates
        for side, n, cap in entries:
            inner = side * xs[n - side]
            lo, hi = side * xs[n], side * xs[n] + last  # the outward grid's ends
            if hi <= cap + CAP_SLACK and lo - inner >= threshold and not lo <= 0 <= hi:
                size = offsets.size
                (np.add if side > 0 else np.subtract)(xs[n], offsets,
                                                      out=row[width + 1:width + 1 + size])
            else:
                cand = _candidate_grid(lo + offsets, inner, cap, threshold)
                if cand.size == 0:  # inner neighbour moved past the whole grid; sit at minimum pitch
                    xs[n] = side * min(inner + params.delta_min, cap)
                    continue
                size = cand.size
                np.multiply(cand, side, out=row[width + 1:width + 1 + size])
            antennas.append((side, n))
            segments.append((width, size))
            row[width] = xs[n - side]
            width += size + 1
        if not segments:
            continue
        calls.append(phase_turns_and_distances(params, users, row[:width], layout.feed_x))
        picks = _pick_round(calls[-1][0], segments, cfg)
        for (side, n), (first, _), k in zip(antennas, segments, picks):
            xs[n] = row.item(first + 1 + k)
            if column[n - side] is None:  # the centre, or an antenna at minimum pitch
                column[n - side] = base + first
            column[n] = base + first + 1 + k
        base += width
    tuned = AntennaLayout(tuple(xs), layout.feed_x)
    if None not in column and (tuned.xs, tuned.feed_x) not in terms:
        turns, dist = (calls[0] if len(calls) == 1
                       else (np.concatenate(a, axis=1) for a in zip(*calls)))
        gains = gains_from_phases(params, TWO_PI * turns.take(column, axis=1),
                                  dist.take(column, axis=1))
        spacing = all(b - a >= threshold for a, b in zip(xs, xs[1:]))  # spacing_ok's rule
        terms[tuned.xs, tuned.feed_x] = _terms(gains, spacing)
    return tuned


def new_tables(scales=()) -> tuple[dict, dict, dict, dict, frozenset]:
    """Empty tables for one scenario's solves: tuned layouts and tune set-ups,
    channel terms, rigid layouts and last walks, then the SNR scales
    (:func:`snr_scale`) the owner expects to solve at, which a replayed walk
    evaluates in one batch.  No entry is replaced, so a tuned layout is one
    object per rigid layout and tolerances.  Calls may share them only if
    they pass the same users and the same SystemParams but for ``pt_dbm``
    and ``noise_dbm``; nothing checks this.  sim makes one set per drop,
    declaring its solves' scales; ``tables=None`` means fresh ones for that
    call."""
    return {}, {}, {}, {}, frozenset(scales)


def fine_tune(
    params: SystemParams,
    layout: AntennaLayout,
    users: tuple[UserPosition, UserPosition],
    cfg: AlgoConfig,
    tables: tuple | None = None,
) -> AntennaLayout:
    """Align off-centre antennas' composite phases with their inner neighbour.

    Each antenna right of the centre shifts right and each antenna left of
    it shifts left, tuned after its inner neighbour, so the two sides do not
    depend on each other; the centre antenna never moves.  The returned
    layout always satisfies the spacing and region invariants.  It does not
    depend on the transmit or noise power, so a layout already tuned in
    ``tables`` for the same tolerances gets back the object tuned before.
    """
    tables = tables or new_tables()
    # the tables fix the wavelength, so the two fields fix the step and budget
    key = (layout.xs, layout.feed_x, cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
    value = tables[0].get(key)
    if value is None:
        value = tables[0][key] = _tune_layout(params, layout, users, cfg, tables)
    return value


def pinned_antennas(params: SystemParams, layout: AntennaLayout) -> tuple[int, ...]:
    """Indices of antennas sitting exactly on their region cap."""
    c = center_index(params.n_antennas)
    pinned = []
    for n in range(params.n_antennas):
        side = +1 if n > c else -1
        if n != c and abs(layout.xs[n] - _antenna_cap(params, n, side)) <= CAP_SLACK:
            pinned.append(n)
    return tuple(pinned)


def _terms(gains: np.ndarray, spacing: bool) -> tuple:
    """What the channel-term table keeps for a layout: both users' |g|^2 at
    unit rho, from their complex ``gains`` by :func:`gain_snr`'s scalar form,
    and the layout's spacing verdict."""
    return [abs(g) ** 2 for g in gains.tolist()], spacing


def _layout_terms(params: SystemParams, layout: AntennaLayout, users: tuple,
                  tables: tuple) -> tuple:
    """The channel-term table's entry for ``layout``, computed on a miss."""
    terms = tables[1]
    value = terms.get((layout.xs, layout.feed_x))
    if value is None:
        value = terms[layout.xs, layout.feed_x] = _terms(
            pinching_gain(params, layout, users), layout.spacing_ok(params))
    return value


def evaluate_placement(
    params: SystemParams,
    layout: AntennaLayout,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
    tables: tuple | None = None,
) -> tuple[PowerSplit, RateReport, FeasibilityReport, Alpha2Result]:
    """Optimal power split, rates and constraint verdicts for one layout.

    |g|^2 and the spacing verdict do not depend on the powers, so a layout
    seen before in ``tables`` costs only the closed-form step; rho times
    ``gain_snr`` at unit rho is bit-equal, as its last operation is that product.
    """
    (g1_sq, g2_sq), spacing = _layout_terms(params, layout, users, tables or new_tables())
    rho = snr_scale(params)
    return evaluate_snrs(rho * g1_sq, rho * g2_sq, qos, spacing)


def placement_solution(params: SystemParams, layout: AntennaLayout, users: tuple,
                       qos: QosTargets, iterations: int,
                       tables: tuple | None = None) -> PlacementSolution:
    """Each solver's solution for ``layout``, from the layout's own
    :func:`evaluate_placement` result; zero rates unless every constraint holds."""
    split, rates, report, alpha = evaluate_placement(params, layout, users, qos, tables)
    return PlacementSolution(
        layout=layout, split=split, rates=rates if report.overall else ZERO_RATES,
        feasibility=report, iterations=iterations, feasible_found=report.overall,
        alpha_clamped=alpha.clamped)


def _replay(params: SystemParams, users: tuple, walk: tuple, qos: QosTargets,
            tables: tuple) -> list:
    """(sum rate, qos_ok, overall) of each layout of ``walk``, a walk-table
    entry, at ``params``' powers: what :func:`evaluate_placement` gives the
    layout, bit for bit.  The entry's rows keep these lists per (rho, qos).
    On a miss, one :func:`evaluate_snrs_batch` call on (P, L) arrays makes
    the rows of this rho and of every scale the tables declare that has
    none yet, from the layouts' entries in the channel-term table;
    ``np.multiply.outer`` is the same product as ``rho * gains``."""
    rho = snr_scale(params)
    layouts, rows = walk
    if (rho, qos) not in rows:
        terms = [_layout_terms(params, layout, users, tables) for layout in layouts]
        gains = np.array([g for g, _ in terms]).T  # |g1|^2 and |g2|^2 rows
        spacing = np.array([ok for _, ok in terms])
        scales = [rho, *(s for s in tables[4] if s != rho and (s, qos) not in rows)]
        snr = np.multiply.outer(scales, gains)
        rates, qos_ok, overall = evaluate_snrs_batch(snr[:, 0], snr[:, 1], qos, spacing)
        for scale, *columns in zip(scales, rates.tolist(), qos_ok.tolist(), overall.tolist()):
            rows[scale, qos] = list(zip(*columns))
    return rows[rho, qos]


def bisection_solve(
    params: SystemParams,
    users: tuple[UserPosition, UserPosition],
    qos: QosTargets,
    cfg: AlgoConfig,
    tables: tuple | None = None,
) -> PlacementSolution:
    """Bisection placement search between the users' x-coordinates.

    ``users`` must be ordered (weak, strong).  The search interval starts at
    [x_strong, x_weak]; each iteration builds and fine-tunes the array at
    the interval midpoint (clamped so it fits the region), solves the power
    split in closed form, and contracts toward the strong user when the
    rate targets hold.  The best fully feasible iterate by sum rate is
    returned; if none is feasible the last iterate comes back with zero
    rates and feasible_found False.

    The tuned layouts do not depend on the powers, so solves on the same
    ``tables`` at other powers walk the same layouts until a rate verdict
    parts them.  The walk table keeps, per tolerances, step and budget, the
    last walk as ``(layouts, rows)``: each iterate's tuned layout, and each
    layout's sum rate and verdicts per (rho, qos).  A solve that finds
    a walk reads its power's rows, made for every declared power in one
    batch (:func:`_replay`), bit for bit as :func:`evaluate_placement` would.
    While each layout :func:`fine_tune` returns *is* the walk's layout at
    that iterate, the iterate reads its row; from the first other layout on,
    iterates run :func:`evaluate_placement`, and the walk is recorded in
    place of the last.  The solution is built by :func:`placement_solution`
    from the returned layout alone.
    """
    check_users(params, users)
    lo_bound, hi_bound = center_bounds(params)
    epsilon = cfg.epsilon
    tables = tables or new_tables()
    rigids, walks = tables[2:4]
    key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
    walk = walks.get(key) or ([], {})
    recorded = walk[0]
    rows = _replay(params, users, walk, qos, tables) if recorded else ()
    replayed = 0  # leading iterates read from rows
    layouts = []  # the iterates after those

    left, right = users[1].x, users[0].x
    mid = 0.5 * (left + right)
    best = None  # the best feasible layout
    best_rate, iterations, pitch = 0.0, 0, None  # pitch: the rigid offsets, at a first miss
    while True:
        iterations += 1
        center = lo_bound if mid < lo_bound else hi_bound if mid > hi_bound else mid
        rigid = rigids.get(center)
        if rigid is None:
            if pitch is None:
                pitch, feed_x = _pitch_offsets(params), feed_point(params)
            rigid = rigids[center] = AntennaLayout(tuple(center + o for o in pitch), feed_x)
        layout = fine_tune(params, rigid, users, cfg, tables)
        if not layouts and replayed < len(rows) and recorded[replayed] is layout:
            rate, qos_ok, overall = rows[replayed]
            replayed += 1
        else:
            _, rates, report, _ = evaluate_placement(params, layout, users, qos, tables)
            rate, qos_ok, overall = rates.sum_rate, report.qos_ok, report.overall
            layouts.append(layout)
        if overall and (best is None or rate > best_rate):
            best, best_rate = layout, rate
        if qos_ok:
            right = mid
        else:
            left = mid
        mid = 0.5 * (left + right)
        # an epsilon below the float spacing of the coordinates would leave
        # the next midpoint on an endpoint, where it never moves
        if not abs(right - left) > epsilon or mid == left or mid == right:
            break

    if layouts:  # the walk left the recorded one, or there was none
        walks[key] = (recorded[:replayed] + layouts, {})
    return placement_solution(params, best or layout, users, qos, iterations, tables)


def iteration_bound(params: SystemParams, cfg: AlgoConfig) -> int:
    """Worst-case bisection iteration count for a region of side D, at least
    one; the logs are taken apart, as D / epsilon overflows at a tiny epsilon."""
    return max(1, math.ceil(math.log2(params.side_d) - math.log2(cfg.epsilon)) + 1)
