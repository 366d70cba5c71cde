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
    gain_snr,
    snr_scale,
)

TWO_PI = 2.0 * math.pi
MAX_FINE_SHIFTS = 10**6  # candidates per antenna; 1000x the default budget
CAP_SLACK = 1e-15  # a candidate this close to its region cap counts as on it
# the fine-tune screen's error per turn of composite phase: over 80 times its
# rounding bound of 6 * 2**-53, which leaves room for rounding the bounds
SCREEN_SLACK = 2.0**-44


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
    pinned_antennas: tuple[int, ...] = ()


def circular_phase_error(a, b):
    """Distance between two phases on the circle, in [0, pi], any shape."""
    m = np.fmod(np.abs(a - b), TWO_PI)  # equals % on non-negative operands
    return np.minimum(m, TWO_PI - m)


def _turn_error(t0: float, t: float) -> float:
    """:func:`circular_phase_error` of the phases 2pi * t and 2pi * t0, on
    Python floats: the same correctly rounded operations, so the same bits."""
    m = math.fmod(abs(TWO_PI * t - TWO_PI * t0), TWO_PI)
    return min(m, TWO_PI - m)


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


def _pick_round(turns: np.ndarray, segments: list, cfg: AlgoConfig, bound: float) -> list[int]:
    """Each pick's tuned position in its :func:`_candidate_grid`, as an index,
    for one fine-tune round.

    ``turns`` holds the round's composite phases in turns from
    :func:`phase_turns_and_distances`, one row per user, and ``segments``
    each pick's (first column, grid size) in them: the column at the inner
    neighbour, then one column per candidate, in outward order.  In each
    segment the first candidate that aligns the composite-phase difference
    to its inner neighbour within (delta1, delta2) for both users wins; if
    none does, the one with the smallest tolerance-weighted error is used.
    Every candidate already keeps the spacing.  The screen below runs once
    over the whole row, each segment less its own inner column; every step
    after it reads one segment's columns alone, so each pick is the one its
    segment would get on its own.

    Every decision reads exact :func:`circular_phase_error` values of the
    phases 2pi * t that :func:`phases_and_distances` returns, t being the
    composite phases in turns, and only at the few candidates a cheap screen
    leaves (at its first hit, on Python floats by :func:`_turn_error`).
    For each user, the screen reads the difference in turns q = t_k - t_0
    to the inner neighbour's t_0, and s = |q - rint(q)| (the subtraction is
    exact).  The exact error e is the exact distance from d = fl(2pi t_k) -
    fl(2pi t_0), itself rounded, to a multiple of 2pi: fmod is exact, and
    so is 2pi - m whenever it is the smaller.  So s and e / 2pi are the
    distances of q and of d / 2pi to the nearest integer, and differ by at
    most |q - d / 2pi|.  With u = 2**-53 and T = ``bound``, at or above
    every |t| of the row (a tune takes it once, from :func:`_turns_bound`),
    each product and difference rounds with a relative error below u, so
    |q - d / 2pi| <= u (|t_k| + |t_0|) + 2u |t_k - t_0| (to first order),
    at most 6u * T.  ``slack`` bounds that gap, with a wide margin for
    rounding the thresholds and scores.  The screen then keeps the answer:

    - First fit.  A fit (e1 <= delta1 and e2 <= delta2) has
      s <= delta / 2pi + slack for both users, so every fit is a hit.  The
      first hit is checked exactly; it fails only within the slack of a
      tolerance edge.
    - Fallback.  With w the zero-guarded tolerances, the screened score
      S = sum 2pi s / w is within E = slack * sum 2pi / w of the exact
      score.  The first exact argmin j and the screened argmin m thus give
      S_j <= score_j + E <= score_m + E <= S_m + 2E, so j is near:
      S_j <= min S + 2E.

    Run on the hits and the near candidates, the rule therefore returns the
    first fit if there is one, and j otherwise, since every earlier
    candidate scores higher; a single such candidate is the answer outright
    (with no hit, so no fit, it is m).  Where the slack is not below both
    tolerances (a zero tolerance, or a bound too large or not finite), the
    screen cannot narrow a grid, and the rule runs on every candidate.
    """
    d1, d2 = cfg.delta1, cfg.delta2
    w1, w2 = max(d1, 1e-300), max(d2, 1e-300)  # guard against a zero tolerance

    def scan(first, idx):
        """The rule itself, on the candidates ``idx`` (an index array) of the
        segment at column ``first``."""
        errs = circular_phase_error(TWO_PI * turns[:, first + 1 + idx],
                                    TWO_PI * turns[:, first:first + 1])
        fits = (errs[0] <= d1) & (errs[1] <= d2)
        if fits.any():
            return int(idx[np.argmax(fits)])
        return int(idx[np.argmin(errs[0] / w1 + errs[1] / w2)])  # tolerance-weighted fallback

    slack = SCREEN_SLACK * (1.0 + bound)
    if not slack < min(d1, d2) / TWO_PI:  # NaN too: the screen cannot narrow a grid
        return [scan(first, np.arange(size)) for first, size in segments]
    screen = np.empty_like(turns)
    for first, size in segments:
        part = turns[:, first:first + 1 + size]
        np.subtract(part, part[:, :1], out=screen[:, first:first + 1 + size])
    screen -= np.rint(screen)
    np.abs(screen, out=screen)
    hits = (screen[0] <= d1 / TWO_PI + slack) & (screen[1] <= d2 / TWO_PI + slack)
    picks = []
    for first, size in segments:
        hit = hits[first + 1:first + 1 + size]
        j = int(hit.argmax())
        # the usual first fit; it misses only within the slack of an edge
        if hit[j] and (_turn_error(turns.item(0, first), turns.item(0, first + 1 + j)) <= d1
                       and _turn_error(turns.item(1, first), turns.item(1, first + 1 + j)) <= d2):
            picks.append(j)
            continue
        off = screen[:, first + 1:first + 1 + size]
        score = off[0] * (TWO_PI / w1) + off[1] * (TWO_PI / w2)
        m = int(score.argmin())
        near = score <= score[m] + 2.0 * slack * (TWO_PI / w1 + TWO_PI / w2)
        if hit[j]:  # a later hit may still fit
            near |= hit
        elif np.count_nonzero(near) == 1:  # no fit, and m alone is near
            picks.append(m)
            continue
        idx = np.flatnonzero(near)
        picks.append(int(idx[0]) if idx.size == 1 else scan(first, idx))  # one holds no choice
    return picks


def _turns_bound(params: SystemParams, setup: tuple, feed_x: float, reach: float) -> float:
    """An upper bound on |t| over the composite phases t, in turns, that
    :func:`phase_turns_and_distances` returns for the users of ``setup`` (a
    :func:`_tune_setup`) and ``feed_x`` at any positions |x| <= ``reach``;
    NaN or infinite if an input is.  It repeats the kernel's operations on
    operands at least as large (|u.x| summed over the users plus reach,
    u.y**2 summed, |feed_x| + reach): rounding is monotone, and the kernel's
    t = fl(p - g) of p, g >= 0 has |t| <= max(p, g) <= fl(p + g)."""
    lam, x_sum, y2_sum, guide_lam = setup[2:6]
    x = x_sum + reach
    far = math.sqrt(x * x + y2_sum + params.h**2)
    return far / lam + (abs(feed_x) + reach) / guide_lam


def _tune_setup(params: SystemParams, users: tuple, cfg: AlgoConfig) -> tuple:
    """What the tunes of one scenario share for ``cfg``'s step and budget:
    the outward offset grid and its negation (read-only, as they are shared);
    the operands of :func:`_turns_bound` the scenario fixes (lam, sum |u.x|, sum
    u.y**2, lam / n_eff); the centre index; whether the array fits the region
    (see :func:`center_bounds`); the grid's last offset; the spacing
    threshold delta_min - SPACING_SLACK of ``channel.spacing_holds``; and
    the rounds, each a tuple of (side, antenna, outward room-preserving cap,
    signed offsets), the right side first.  An over-cap budget raises before
    any allocation."""
    step, shifts = cfg.resolved_fine_step(params), cfg.resolved_max_shifts(params)
    offsets = step * np.arange(shifts + 1)
    lam, left = wavelength(params), -offsets
    offsets.flags.writeable = left.flags.writeable = False
    n_ant, c = params.n_antennas, center_index(params.n_antennas)
    rounds = tuple(
        tuple((side, n, side * _antenna_cap(params, n, side), offsets if side > 0 else left)
              for side, n in ((+1, c + r), (-1, c - r)) if 0 <= n < n_ant)
        for r in range(1, max(c, n_ant - 1 - c) + 1))
    return (offsets, left, lam, sum(abs(u.x) for u in users), sum(u.y**2 for u in users),
            lam / params.n_eff, c, _antenna_cap(params, c, -1) <= _antenna_cap(params, c, +1),
            float(offsets[-1]), params.delta_min - AntennaLayout.SPACING_SLACK, rounds)


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
    ends) goes into the row once, as x plus the signed offsets: fl(x - o) =
    -fl(-x + o) but for the sign of a zero, so a grid reaching 0 does not.

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
        setup = tuned_table[cfg.fine_step, cfg.max_fine_shifts] = _tune_setup(params, users, cfg)
    offsets, (c, fits, last, threshold, rounds) = setup[0], setup[6:]
    xs = list(layout.xs)
    # If the array fits the region, so does every cap, and every position a
    # call reads is the centre or past it on its side, at most CAP_SLACK
    # outside the region; max keeps a NaN centre NaN.
    reach = max(abs(xs[c]), params.side_d / 2.0) + CAP_SLACK if fits else math.inf
    bound = _turns_bound(params, setup, layout.feed_x, reach)
    calls = []  # each round's kernel output, side by side
    column = [None] * params.n_antennas  # each tuned position's column in those outputs
    base = 0  # columns of the earlier rounds' outputs
    for entries in rounds:
        antennas, segments, width = [], [], 0  # each pick's (side, antenna), (first column, size)
        row = np.empty(2 * offsets.size + 2)  # inner neighbours, then grids in real coordinates
        for side, n, cap, signed in entries:
            inner = side * xs[n - side]
            lo, hi = side * xs[n], side * xs[n] + last  # the outward grid's ends
            if hi <= cap + CAP_SLACK and lo - inner >= threshold and not lo <= 0 <= hi:
                size = offsets.size
                np.add(xs[n], signed, out=row[width + 1:width + 1 + size])
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
        picks = _pick_round(calls[-1][0], segments, cfg, bound)
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
        terms[tuned.xs, tuned.feed_x] = _terms(params, tuned, gains)
    return tuned


def new_tables() -> tuple[dict, dict, dict, dict]:
    """Empty tables for one scenario's solves: tuned layouts and tune set-ups,
    channel terms, rigid layouts and last walks.  Calls may share them only
    if they pass the same users and the same SystemParams but for ``pt_dbm``
    and ``noise_dbm``; nothing checks this.  sim makes one set per drop;
    ``tables=None`` means fresh ones for that call."""
    return {}, {}, {}, {}


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
    ``tables`` for the same tolerances is returned again without retuning.
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


def _terms(params: SystemParams, layout: AntennaLayout, gains: np.ndarray) -> tuple:
    """What the channel-term table keeps for ``layout``: both users' |g|^2 at
    unit rho, from their complex ``gains``, and the spacing verdict."""
    return gain_snr(1.0, gains).tolist(), layout.spacing_ok(params)


def _layout_terms(params: SystemParams, layout: AntennaLayout, users: tuple,
                  tables: tuple) -> tuple:
    """The channel-term table's entry for ``layout``, computed on a miss."""
    terms = tables[1]
    value = terms.get((layout.xs, layout.feed_x))
    if value is None:
        value = terms[layout.xs, layout.feed_x] = _terms(
            params, layout, pinching_gain(params, layout, users))
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


def _replay(params: SystemParams, users: tuple, walk: list, qos: QosTargets,
            tables: tuple) -> list:
    """(sum rate, qos_ok, overall) of each iterate of ``walk``, a walk-table
    entry, at ``params``' powers, from one :func:`evaluate_snrs_batch` call:
    what :func:`evaluate_placement` gives the iterate's layout, bit for bit.
    The first replay of a walk gathers its layouts' channel terms into
    the entry, as arrays of |g1|^2, |g2|^2 at unit rho and spacing verdicts."""
    if walk[2] is None:
        terms = [_layout_terms(params, layout, users, tables) for layout in walk[1]]
        walk[2] = (np.array([g for g, _ in terms]).T.copy(),
                   np.array([spacing for _, spacing in terms]))
    gains, spacing = walk[2]
    snr = snr_scale(params) * gains
    rates, _, qos_ok, ordered = evaluate_snrs_batch(snr[0], snr[1], qos)
    return list(zip(rates.tolist(), qos_ok.tolist(), (qos_ok & ordered & spacing).tolist()))


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
    ``tables`` at other powers walk the same centres until a rate verdict
    parts them.  The walk table keeps, per tolerances, step and budget, the
    last walk as ``[centres, layouts, terms]``: each iterate's clamped centre
    and tuned layout, as plain lists, and ``terms``, None until a later solve
    reuses the walk and then the layouts' |g1|^2, |g2|^2 at unit rho and
    spacing verdicts as arrays.  A solve that finds a walk evaluates all its
    iterates at its own power in one batch (:func:`_replay`), and while each
    of its iterates so far sits at the recorded centre, takes the iterate's
    sum rate and verdicts from its row: the same centre gives the same rigid
    and tuned layout, and the batch chain equals :func:`evaluate_placement`'s
    scalar one bit for bit.  From the first other centre on, each iterate runs
    :func:`evaluate_placement`, and the walk is recorded in place of the last.
    A returned iterate read from a row is evaluated once more, so the solution
    is built from :func:`evaluate_placement`'s own records.
    """
    check_users(params, users)
    feed_x = feed_point(params)
    lo_bound, hi_bound = center_bounds(params)

    offsets = _pitch_offsets(params)
    tables = tables or new_tables()
    rigids, walks = tables[2:4]
    key = (cfg.delta1, cfg.delta2, cfg.fine_step, cfg.max_fine_shifts)
    walk = walks.get(key) or [[], [], None]
    rows = _replay(params, users, walk, qos, tables) if walk[0] else ()
    replayed = 0  # leading iterates read from rows
    centres, layouts = [], []  # the iterates after those

    left = users[1].x
    right = users[0].x
    best = last = None  # (layout, evaluate_placement result or None for a row)
    best_rate = 0.0
    iterations = 0
    while iterations == 0 or abs(right - left) > cfg.epsilon:
        iterations += 1
        mid = 0.5 * (left + right)
        center = min(max(mid, lo_bound), hi_bound)
        rigid = rigids.get(center)
        if rigid is None:
            rigid = rigids[center] = AntennaLayout(tuple(center + o for o in offsets), feed_x)
        layout = fine_tune(params, rigid, users, cfg, tables)
        if replayed == iterations - 1 < len(rows) and walk[0][replayed] == center:
            rate, qos_ok, overall = rows[replayed]
            replayed += 1
            last = (layout, None)
        else:
            evaluated = evaluate_placement(params, layout, users, qos, tables)
            rate, report = evaluated[1].sum_rate, evaluated[2]
            qos_ok, overall = report.qos_ok, report.overall
            last = (layout, evaluated)
            centres.append(center)
            layouts.append(layout)
        if overall and (best is None or rate > best_rate):
            best, best_rate = last, rate
        if qos_ok:
            right = mid
        else:
            left = mid
        if 0.5 * (left + right) in (left, right):
            # an epsilon below the float spacing of the coordinates: the
            # next midpoint would round onto an endpoint and never move
            break

    if centres:  # the walk left the recorded one, or there was none
        walks[key] = [walk[0][:replayed] + centres, walk[1][:replayed] + layouts, None]
    layout, evaluated = best or last
    if evaluated is None:
        evaluated = evaluate_placement(params, layout, users, qos, tables)
    return placement_solution(params, (layout, *evaluated), iterations, best is not None)


def iteration_bound(params: SystemParams, cfg: AlgoConfig) -> int:
    """Worst-case bisection iteration count for a region of side D."""
    return math.ceil(math.log2(params.side_d / cfg.epsilon)) + 1
