"""References the tests compare the package against: the sum-rate
objective f(alpha2) (criteria 1 and 3), its grid search (criterion 2), the
composite-phase kernel as one out-of-place expression, and the fine-tune
pick as a full scan of exact phase errors, antenna by antenna."""
import math

import numpy as np

from pinchopt import AntennaLayout, QosTargets, UserPosition
from pinchopt.channel import phases_and_distances, spacing_holds, wavelength
from pinchopt.noma import noma_rates, qos_verdicts
from pinchopt.placement import CAP_SLACK, _antenna_cap, center_index, circular_phase_error


def sum_rate_objective(snr_weak, snr_strong, alpha2):
    """Interference-resolved sum-rate objective f(alpha2), any array shape.

    log2(1 + f) equals the sum rate r1 + r2, which makes f the quantity
    to maximise; it is nondecreasing in alpha2 whenever snr_strong >=
    snr_weak, so the optimum sits on the feasible upper boundary.
    """
    return alpha2 * snr_strong + (1.0 - alpha2) * (
        1.0 + alpha2 * snr_strong
    ) * snr_weak / (alpha2 * snr_weak + 1.0)


def grid_alpha2(
    snr_weak: float,
    snr_strong: float,
    qos: QosTargets,
    step: float = 1e-4,
) -> float | None:
    """Exhaustive argmax of the sum-rate objective over the alpha2 grid of
    the given step on [0, 0.5].

    Grid points violating any rate target are discarded; returns None when
    no point survives.
    """
    n = int(math.floor(0.5 / step)) + 1
    alphas = np.minimum(step * np.arange(n), 0.5)
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


def phase_turns_out_of_place(params, user, xs, feed_x):
    """``channel.phase_turns_and_distances`` as one out-of-place expression,
    with the same operations in the same order, each into a new array.  At a
    0-d ``xs`` with one user it squares a NumPy scalar, by pow, where the
    kernel squares a 0-d array, by x*x: the two agree wherever those do."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(user, UserPosition):
        ux, uy2 = user.x, user.y**2
    else:
        cols = np.array([u.x for u in user] + [u.y**2 for u in user]).reshape(
            (2, -1) + (1,) * xs.ndim)
        ux, uy2 = cols[0], cols[1]
    dist = np.sqrt((ux - xs) ** 2 + uy2 + params.h**2)
    guide = np.abs(feed_x - xs)
    lam = wavelength(params)
    return dist / lam - guide / (lam / params.n_eff), dist


def capped(cand, cap):
    """An ascending outward grid cut at its cap, keeping the cap itself."""
    if cand[-1] > cap + CAP_SLACK:
        cand = cand[cand <= cap + CAP_SLACK]
        if cand.size == 0 or cand[-1] < cap - CAP_SLACK:
            cand = np.append(cand, cap)
    return cand


def pick_candidate_scan(params, users, cfg, feed_x, cand, inner_x, cap) -> float:
    """One antenna's fine-tune pick in outward coordinates, by exact phase
    errors at every candidate: the first candidate that keeps the spacing and
    both tolerances, else the first valid argmin of the tolerance-weighted
    error; at minimum pitch (or the cap) when no candidate keeps the spacing."""
    cand = capped(cand, cap)
    spacing_ok = spacing_holds(params, cand - inner_x)
    if not spacing_ok.any():
        return min(inner_x + params.delta_min, cap)
    xs = np.concatenate(([inner_x], cand))
    errs = []
    for u in users:
        phases = phases_and_distances(params, u, xs, feed_x)[0]
        errs.append(circular_phase_error(phases[1:], phases[0]))
    ok = spacing_ok & (errs[0] <= cfg.delta1) & (errs[1] <= cfg.delta2)
    if ok.any():
        return float(cand[int(np.argmax(ok))])
    score = errs[0] / max(cfg.delta1, 1e-300) + errs[1] / max(cfg.delta2, 1e-300)
    weighted = np.where(spacing_ok, score, np.inf)
    return float(cand[int(np.argmin(weighted))])


def tune_layout_scan(params, layout, users, cfg):
    """``placement._tune_layout`` antenna by antenna, each by
    :func:`pick_candidate_scan`, in the order of one chain at a time: the
    right side ascending, then the left side descending as the mirror image
    (x -> -x for the positions, the feed and the users) of a right side.
    Also returns the antennas whose inner neighbour moved past their grid."""
    step, shifts = cfg.resolved_fine_step(params), cfg.resolved_max_shifts(params)
    offsets = step * np.arange(shifts + 1)
    mirrored = tuple(UserPosition(-u.x, u.y) for u in users)
    xs, passed = list(layout.xs), set()
    c = center_index(params.n_antennas)
    for side, order in ((+1, range(c + 1, params.n_antennas)), (-1, range(c - 1, -1, -1))):
        for n in order:
            cand, inner = side * xs[n] + offsets, side * xs[n - side]
            cap = side * _antenna_cap(params, n, side)
            if not spacing_holds(params, capped(cand, cap) - inner).any():
                passed.add(n)
            xs[n] = side * pick_candidate_scan(params, users if side > 0 else mirrored, cfg,
                                               side * layout.feed_x, cand, inner, cap)
    return AntennaLayout(tuple(xs), layout.feed_x), passed
