"""References the tests compare the package against: the sum-rate
objective f(alpha2) (criteria 1 and 3), its grid search (criterion 2), the
composite-phase kernel as one out-of-place expression, the distance of two
phases on the circle in radians, the fine-tune pick as a scan of every
candidate, one at a time on Python floats, in turns, antenna by antenna, and
the bisection search (Algorithm 1) as one plain loop over that scan."""
import math

import numpy as np

from pinchopt import AntennaLayout, QosTargets, UserPosition, channel
from pinchopt.channel import spacing_holds, wavelength
from pinchopt.noma import RATE_TOL, noma_rates, qos_verdicts
from pinchopt.placement import CAP_SLACK, TWO_PI, _antenna_cap, center_index


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


def circular_phase_error(a, b):
    """Distance between two phases on the circle, in [0, pi], any shape."""
    m = np.fmod(np.abs(a - b), TWO_PI)  # equals % on non-negative operands
    return np.minimum(m, TWO_PI - m)


def turn_error(t0: float, t: float) -> float:
    """Distance in turns from t - t0 to the nearest whole turn, on Python
    floats: exact once the difference is rounded, and NaN where it is not
    finite, as |q - rint(q)| is on arrays."""
    q = t - t0
    return abs(q - round(q)) if math.isfinite(q) else math.nan


def pick_candidate_scan(params, users, cfg, feed_x, cand, inner_x, cap) -> float:
    """One antenna's fine-tune pick in outward coordinates, candidate by
    candidate: the first one that keeps the spacing and has both users'
    turn errors within delta / 2pi, else the first valid argmin of the
    tolerance-weighted error (the first NaN score, if any, as ``np.argmin``
    takes it); at minimum pitch (or the cap) when no candidate keeps the
    spacing.  Each user's phases come from one call of
    ``channel.phase_turns_and_distances``."""
    cand = capped(cand, cap)
    spacing_ok = spacing_holds(params, cand - inner_x)
    if not spacing_ok.any():
        return min(inner_x + params.delta_min, cap)
    xs = np.concatenate(([inner_x], cand))
    t1, t2 = (channel.phase_turns_and_distances(params, u, xs, feed_x)[0].tolist()
              for u in users)
    tol1, tol2 = cfg.delta1 / TWO_PI, cfg.delta2 / TWO_PI
    w1, w2 = max(tol1, 1e-300), max(tol2, 1e-300)
    valid = [k for k in range(cand.size) if spacing_ok[k]]
    errs = {k: (turn_error(t1[0], t1[k + 1]), turn_error(t2[0], t2[k + 1])) for k in valid}
    for k in valid:
        if errs[k][0] <= tol1 and errs[k][1] <= tol2:
            return float(cand[k])
    scores = [(e1 / w1 + e2 / w2, k) for k, (e1, e2) in errs.items()]
    nan = [k for score, k in scores if math.isnan(score)]
    return float(cand[nan[0] if nan else min(scores)[1]])


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


def bisection_scan(params, users, qos, cfg):
    """Algorithm 1 as one loop on Python floats: bisect the centre antenna's
    position on [x_strong, x_weak], at each midpoint (clamped so the array
    fits the region) build the rigid minimum-pitch array fed from the
    region's left edge, tune it by :func:`tune_layout_scan`, split the power
    in closed form on |g|^2 from ``channel.pinching_gain``, keep the best
    fully feasible iterate by sum rate, and move toward the strong user when
    the three rate targets hold.  Stops once the interval is within epsilon
    or its midpoint rounds onto an end.  Returns (layout, (r1, r2, sum rate),
    iterations, feasible found): the best feasible iterate's, else the last
    iterate's with zero rates."""
    n, pitch, half = params.n_antennas, params.delta_min, params.side_d / 2.0
    c = center_index(n)
    lo, hi = -half + c * pitch, half - (n - 1 - c) * pitch
    watts = [10.0 ** ((p - 30.0) / 10.0) for p in (params.pt_dbm, params.noise_dbm)]
    rho = watts[0] / (n * watts[1])
    gate = 2.0**qos.r1_min
    left, right = users[1].x, users[0].x
    best, iterations = None, 0
    while True:
        iterations += 1
        mid = 0.5 * (left + right)
        center = lo if mid < lo else hi if mid > hi else mid
        rigid = AntennaLayout(tuple(center + (k - c) * pitch for k in range(n)), -half)
        layout, _ = tune_layout_scan(params, rigid, users, cfg)
        s1, s2 = (rho * abs(g) ** 2 for g in channel.pinching_gain(params, layout, users).tolist())
        a2 = min(max((s1 + 1.0 - gate) / (s1 * gate), 0.0), 0.5) if s1 > 0.0 else 0.0
        r1 = math.log2(1.0 + (1.0 - a2) * s1 / (a2 * s1 + 1.0))
        r2 = math.log2(1.0 + a2 * s2)
        r21 = math.log2(1.0 + (1.0 - a2) * s2 / (a2 * s2 + 1.0))
        qos_ok = (r1 >= qos.r1_min - RATE_TOL and r2 >= qos.r2_min - RATE_TOL
                  and r21 >= qos.r1_min - RATE_TOL)
        gaps = [b - a for a, b in zip(layout.xs, layout.xs[1:])]
        feasible = qos_ok and s2 >= s1 and all(g >= pitch - AntennaLayout.SPACING_SLACK
                                              for g in gaps)
        last = (layout, (r1, r2, r1 + r2))
        if feasible and (best is None or r1 + r2 > best[1][2]):
            best = last
        if qos_ok:
            right = mid
        else:
            left = mid
        if not abs(right - left) > cfg.epsilon or 0.5 * (left + right) in (left, right):
            break
    if best is None:
        return last[0], (0.0, 0.0, 0.0), iterations, False
    return best[0], best[1], iterations, True
