"""Grid-search reference for the closed-form power split (criterion 2)."""
import math

import numpy as np

from pinchopt import QosTargets, sum_rate_objective
from pinchopt.noma import noma_rates, qos_verdicts


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
