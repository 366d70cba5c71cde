"""Two-user downlink NOMA rates and closed-form power allocation.

User 1 is the weak user and decodes its signal treating user 2's as
interference; user 2 is the strong user and applies successive interference
cancellation (SIC).  All rates are in bits/s/Hz.  The per-user operating
SNR fed to these functions is rho * |g|^2 where rho = Pt / (N * sigma^2)
and g is the effective channel gain.

Each formula of the chain (the SNR, the closed-form alpha2, the three rates
and the rate-target test) is written once, as a NumPy function that takes
floats and arrays alike.  evaluate_snrs chains them at one SNR pair, for the
solver and the fixed-array baseline, and evaluate_snrs_batch at arrays of
pairs, for the reference search and the solver's replayed walks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import AntennaLayout, SystemParams, check_number, dbm_to_watts

RATE_TOL = 1e-9  # slack on rate-target comparisons
# Upper bound on the rate targets, bits/s/Hz: 2**200 is about 1.6e60, the
# largest SNR scale the power range allows, and 2**r_min times an SNR stays
# far from overflow.
MAX_RATE = 200.0
ALPHA_TOL = 1e-12  # slack on power-coefficient sanity checks


# a NamedTuple body may not define __new__, so the checks go in a subclass
class PowerSplit(NamedTuple("PowerSplit", [("alpha1", float), ("alpha2", float)])):
    """Power allocation coefficients (alpha1 for the weak user)."""

    __slots__ = ()

    def __new__(cls, alpha1: float, alpha2: float) -> "PowerSplit":
        if abs(alpha1 + alpha2 - 1.0) > ALPHA_TOL:
            raise ValueError("alpha1 + alpha2 must equal 1")
        if alpha1 < 0 or alpha2 < 0:
            raise ValueError("power coefficients must be non-negative")
        return tuple.__new__(cls, (alpha1, alpha2))

    @classmethod
    def from_alpha2(cls, alpha2: float) -> "PowerSplit":
        return cls(1.0 - alpha2, alpha2)


@dataclass(frozen=True)
class QosTargets:
    """Minimum per-user rate targets, bits/s/Hz."""

    r1_min: float = 0.5
    r2_min: float = 0.5

    def __post_init__(self) -> None:
        check_number("r1_min", self.r1_min, 0, MAX_RATE)
        check_number("r2_min", self.r2_min, 0, MAX_RATE)


class RateReport(NamedTuple):
    """Achievable rates of one configuration, bits/s/Hz."""

    r1: float
    r2: float
    r2_to_1: float
    sum_rate: float


ZERO_RATES = RateReport(0.0, 0.0, 0.0, 0.0)


class FeasibilityReport(NamedTuple):
    """Per-constraint verdicts for one (layout, power split) candidate."""

    spacing: bool
    r1_qos: bool
    r2_qos: bool
    sic: bool
    order_alpha: bool
    order_channel: bool

    @property
    def overall(self) -> bool:
        return self.qos_ok and self.spacing and self.order_alpha and self.order_channel

    @property
    def qos_ok(self) -> bool:
        """The three rate constraints that steer the placement search."""
        return self.r1_qos and self.r2_qos and self.sic


class Alpha2Result(NamedTuple):
    alpha2: float
    clamped: str  # 'none', 'low' or 'high'


def snr_scale(params: SystemParams) -> float:
    """Transmit-to-noise power ratio per radiating point, Pt / (N sigma^2)."""
    return dbm_to_watts(params.pt_dbm) / (
        params.n_antennas * dbm_to_watts(params.noise_dbm)
    )


def gain_snr(rho, gain):
    """Operating SNR rho * |g|^2 of complex gains ``gain`` (any shape).

    |g| is the C library's hypot and its square the C library's pow, which
    is what ``abs(g) ** 2`` computes on a Python complex: so that is this
    rule's scalar form at unit rho, as evaluate_snrs is evaluate_snrs_batch's.
    NumPy's own ``abs`` and ``square`` round differently in the last bit.
    """
    return rho * np.float_power(np.hypot(gain.real, gain.imag), 2.0)


def _alpha2_raw(snr_weak, qos: QosTargets):
    """Unclamped closed-form alpha2 giving the weak user exactly its target."""
    gate = 2.0**qos.r1_min
    return (snr_weak + 1.0 - gate) / (snr_weak * gate)


def _interfered_rate(snr, alpha1, alpha2):
    """Rate of the weak user's signal decoded under the strong user's."""
    return np.log2(1.0 + alpha1 * snr / (alpha2 * snr + 1.0))


def _cancelled_rate(snr, alpha2):
    """Rate of the strong user's signal after cancelling the weak user's."""
    return np.log2(1.0 + alpha2 * snr)


def noma_rates(snr_weak, snr_strong, alpha1, alpha2):
    """Rates (r1, r2, r2_to_1): the weak user's, the strong user's after
    SIC, and the strong user's decoding of the weak user's signal."""
    return (
        _interfered_rate(snr_weak, alpha1, alpha2),
        _cancelled_rate(snr_strong, alpha2),
        _interfered_rate(snr_strong, alpha1, alpha2),
    )


def qos_verdicts(r1, r2, r2_to_1, qos: QosTargets):
    """(r1_qos, r2_qos, sic): the rate targets, each with a RATE_TOL slack."""
    return (
        r1 >= qos.r1_min - RATE_TOL,
        r2 >= qos.r2_min - RATE_TOL,
        r2_to_1 >= qos.r1_min - RATE_TOL,
    )


def rate_report(snr_weak: float, snr_strong: float, split: PowerSplit) -> RateReport:
    """Evaluate all three achievable rates for one power split."""
    rates = noma_rates(snr_weak, snr_strong, split.alpha1, split.alpha2)
    r1, r2, r2_to_1 = map(float, rates)
    return RateReport(r1, r2, r2_to_1, r1 + r2)


def optimal_alpha2(snr_weak: float, qos: QosTargets) -> Alpha2Result:
    """Closed-form optimal strong-user power coefficient.

    The unconstrained optimum gives the weak user exactly its rate target:
    alpha2 = (snr_weak + 1 - 2**r1_min) / (snr_weak * 2**r1_min), clamped
    into [0, 0.5].  A 'low' clamp means the weak user needs all the power
    (the target is unreachable at this channel); a 'high' clamp caps the
    strong user at an equal split.  snr_weak = 0 degenerates to (0, 'low').
    """
    if snr_weak <= 0.0:
        return Alpha2Result(0.0, "low")
    raw = _alpha2_raw(snr_weak, qos)
    if raw <= 0.0:
        return Alpha2Result(0.0, "low")
    if raw >= 0.5:
        return Alpha2Result(0.5, "high")
    return Alpha2Result(raw, "none")


def _feasibility(snr_weak, snr_strong, split, rates, qos, spacing) -> FeasibilityReport:
    return FeasibilityReport(
        spacing,
        *qos_verdicts(rates.r1, rates.r2, rates.r2_to_1, qos),
        -ALPHA_TOL <= split.alpha2 <= 0.5 + ALPHA_TOL,  # order_alpha
        snr_strong >= snr_weak,  # order_channel
    )


def evaluate_snrs(
    snr_weak: float, snr_strong: float, qos: QosTargets, spacing: bool = True
) -> tuple[PowerSplit, RateReport, FeasibilityReport, Alpha2Result]:
    """Closed-form power split, its rates and every verdict at one SNR pair.

    ``spacing`` is the layout's spacing verdict, which SNRs cannot tell.
    """
    alpha = optimal_alpha2(snr_weak, qos)
    split = PowerSplit.from_alpha2(alpha.alpha2)
    rates = rate_report(snr_weak, snr_strong, split)
    report = _feasibility(snr_weak, snr_strong, split, rates, qos, spacing)
    return split, rates, report, alpha


def evaluate_snrs_batch(snr_weak: np.ndarray, snr_strong: np.ndarray, qos: QosTargets,
                        spacing: bool | np.ndarray = True):
    """Sum rate, the rate-target verdict and the overall verdict at arrays of
    SNR pairs, :func:`evaluate_snrs`'s bit for bit, as each step is the same
    correctly rounded operation: ``qos_ok`` is :attr:`FeasibilityReport.qos_ok`,
    ``overall`` :attr:`FeasibilityReport.overall` (the clamped alpha2 keeps
    the alpha order whenever the rates are numbers); ``spacing`` is the
    layouts' spacing verdict, a bool or an array of them.  The SNRs may be
    (L,) arrays of L layouts or (P, L) arrays of them at P powers, with a
    (L,) ``spacing`` shared by every row; each output has the SNRs' shape."""
    # a zero or subnormal weak SNR divides by zero or overflows, as the scalar chain
    # does silently; fmax sends the 0/0 NaN and the -inf to 0, the 'low' clamp
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = _alpha2_raw(snr_weak, qos)
    a2 = np.minimum(np.fmax(raw, 0.0), 0.5)
    r1, r2, r21 = noma_rates(snr_weak, snr_strong, 1.0 - a2, a2)
    r1_qos, r2_qos, sic = qos_verdicts(r1, r2, r21, qos)
    qos_ok = r1_qos & r2_qos & sic
    return r1 + r2, qos_ok, qos_ok & spacing & (snr_strong >= snr_weak)


def check_feasibility(
    params: SystemParams,
    layout: AntennaLayout,
    gains: tuple[complex, complex],
    split: PowerSplit,
    qos: QosTargets,
) -> FeasibilityReport:
    """Evaluate every constraint of the sum-rate problem for one candidate.

    Rate comparisons carry a RATE_TOL slack and the spacing check
    ``AntennaLayout.SPACING_SLACK``.  The alpha ordering accepts the closed
    interval [0, 0.5]: the equal-split boundary is the clamped optimum at
    high SNR, not a violation.
    """
    snr1, snr2 = gain_snr(snr_scale(params), np.array(gains)).tolist()
    rates = rate_report(snr1, snr2, split)
    return _feasibility(snr1, snr2, split, rates, qos, layout.spacing_ok(params))
