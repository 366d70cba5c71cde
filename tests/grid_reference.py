"""References for the closed-form power split: the sum-rate objective
f(alpha2) (criteria 1 and 3) and its grid search (criterion 2)."""
import math

import numpy as np

from pinchopt import QosTargets
from pinchopt.noma import noma_rates, qos_verdicts


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
