"""Geometry, unit conversions and effective channel gains.

A base station feeds N radiating points that sit on a dielectric waveguide
stretched along the x-axis at height h over a square deployment region of
side D.  Every link is a pure line-of-sight spherical wave: the amplitude
seen from a radiation point at distance d is sqrt(eta)/d and its phase is
the free-space path delay minus the in-waveguide delay accumulated between
the feed point and the radiation point.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

BASELINE_MODES = ("uniform", "mrt-strong")


class LayoutError(ValueError):
    """An antenna layout violates spacing or region-boundary constraints."""


def require_finite(config, names: tuple[str, ...]) -> None:
    """Raise ValueError if a named field of ``config`` is a bool, NaN or
    infinite (a field left at None is skipped)."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_int(config, names: tuple[str, ...]) -> None:
    """Raise ValueError if a named field of ``config`` is not an integer;
    a bool is not one (a field left at None is skipped)."""
    for name in names:
        value = getattr(config, name)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Physical constants and deployment geometry.

    fc          carrier frequency, Hz
    n_eff       effective refractive index of the waveguide (>= 1)
    h           waveguide/antenna height above the user plane, m
    side_d      side length D of the square deployment region, m
    n_antennas  number of radiating points N
    delta_min   minimum antenna spacing, m (default: half a wavelength)
    pt_dbm      total transmit power, dBm
    noise_dbm   noise power, dBm
    """

    fc: float = 28e9
    n_eff: float = 1.4
    h: float = 3.0
    side_d: float = 10.0
    n_antennas: int = 3
    delta_min: float | None = None
    pt_dbm: float = 30.0
    noise_dbm: float = -90.0

    def __post_init__(self) -> None:
        require_int(self, ("n_antennas",))
        if self.fc <= 0:
            raise ValueError("fc must be positive")
        if self.n_eff < 1:
            raise ValueError("n_eff must be >= 1")
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.side_d <= 0:
            raise ValueError("side_d must be positive")
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.delta_min is None:
            object.__setattr__(self, "delta_min", wavelength(self) / 2.0)
        require_finite(
            self, ("fc", "n_eff", "h", "side_d", "delta_min", "pt_dbm", "noise_dbm")
        )
        if self.delta_min <= 0:
            raise ValueError("delta_min must be positive")


@dataclass(frozen=True)
class UserPosition:
    """User location (x, y) on the ground plane, m."""

    x: float
    y: float


@dataclass(frozen=True)
class AntennaLayout:
    """Ordered antenna x-coordinates plus the waveguide feed-point position.

    Antenna n sits at (xs[n], 0, h); the feed point at (feed_x, 0, h).
    """

    xs: tuple[float, ...]
    feed_x: float

    # numeric slack on the spacing constraint
    SPACING_SLACK = 1e-12

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", tuple(map(float, self.xs)))

    def validate(self, params: SystemParams) -> None:
        """Raise LayoutError unless spacing and region bounds hold."""
        if len(self.xs) != params.n_antennas:
            raise LayoutError(
                f"expected {params.n_antennas} antennas, got {len(self.xs)}"
            )
        half = params.side_d / 2.0
        for x in self.xs:
            if not (-half <= x <= half):
                raise LayoutError(f"antenna at {x} outside [-{half}, {half}]")
        if not self.spacing_ok(params):
            gap = min(b - a for a, b in zip(self.xs, self.xs[1:]))
            raise LayoutError(f"spacing {gap} below minimum {params.delta_min}")

    def spacing_ok(self, params: SystemParams) -> bool:
        """Whether neighbouring antennas keep at least ``delta_min`` apart."""
        return all(
            b - a >= params.delta_min - self.SPACING_SLACK
            for a, b in zip(self.xs, self.xs[1:])
        )


def wavelength(params: SystemParams) -> float:
    """Free-space wavelength c/fc, m."""
    return SPEED_OF_LIGHT / params.fc


def guided_wavelength(params: SystemParams) -> float:
    """In-waveguide wavelength, m (free-space wavelength over n_eff)."""
    return wavelength(params) / params.n_eff


def path_gain_factor(params: SystemParams) -> float:
    """Spherical-wave amplitude-squared factor (wavelength / 4 pi)^2, m^2.

    The power gain of a link of length d is path_gain_factor / d^2.
    """
    return SPEED_OF_LIGHT**2 / (16.0 * math.pi**2 * params.fc**2)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level from dBm to watts."""
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power level from watts to dBm."""
    return 10.0 * math.log10(p_watts) + 30.0


def phases_and_distances(
    params: SystemParams,
    user: UserPosition,
    xs: np.ndarray,
    feed_x: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite phases and user distances for antennas at positions ``xs``.

    The composite phase of one antenna is the free-space phase toward the
    user minus the in-waveguide phase from the feed, both in radians and
    unreduced.  ``xs`` may have any shape; results share it.  This is the
    single source of truth for the phase arithmetic used throughout.
    """
    xs = np.asarray(xs, dtype=float)
    dist = np.sqrt((user.x - xs) ** 2 + user.y**2 + params.h**2)
    guide = np.abs(feed_x - xs)
    lam = wavelength(params)
    phases = 2.0 * np.pi * (dist / lam - guide / (lam / params.n_eff))
    return phases, dist


def pinching_gain(
    params: SystemParams, layout: AntennaLayout, user: UserPosition
) -> complex:
    """Effective complex channel gain of the waveguide array toward a user:
    :func:`pinching_gains_batch` on the layout as one row."""
    return complex(
        pinching_gains_batch(params, np.asarray(layout.xs), layout.feed_x, user)
    )


def pinching_gains_batch(
    params: SystemParams,
    xs_layouts: np.ndarray,
    feed_x: float,
    user: UserPosition,
) -> np.ndarray:
    """Effective complex gains of many candidate layouts toward a user.

    ``xs_layouts`` has shape (M, N), or (N,) for one layout; each gain is the
    sum over antennas of sqrt(eta) * exp(j * composite_phase) / distance.
    The distance is bounded below by the height h, so this never divides
    by zero.
    """
    phases, dist = phases_and_distances(params, user, xs_layouts, feed_x)
    amp = math.sqrt(path_gain_factor(params))
    return (amp * np.exp(1j * phases) / dist).sum(axis=-1)


def conventional_positions(params: SystemParams) -> tuple[float, ...]:
    """Fixed-array antenna x-coordinates: half-wavelength pitch, centred at 0."""
    lam = wavelength(params)
    n = params.n_antennas
    return tuple((k + 1 - (n + 1) / 2.0) * lam / 2.0 for k in range(n))


def conventional_channel(
    params: SystemParams, user: UserPosition
) -> tuple[complex, ...]:
    """Channel vector of the fixed half-wavelength array toward a user.

    Entry n is sqrt(eta) * exp(-j * 2 pi d_n / lambda) / d_n with d_n the
    distance from fixed antenna n at (x_n, 0, h) to the user.
    """
    lam = wavelength(params)
    amp = math.sqrt(path_gain_factor(params))
    out = []
    for x in conventional_positions(params):
        d = math.sqrt((user.x - x) ** 2 + user.y**2 + params.h**2)
        out.append(amp * complex(math.cos(-2 * math.pi * d / lam),
                                 math.sin(-2 * math.pi * d / lam)) / d)
    return tuple(out)


def conventional_effective_gain(
    params: SystemParams,
    users: tuple[UserPosition, UserPosition],
    mode: str,
) -> tuple[float, float]:
    """Per-user effective power gains |g|^2 of the fixed-antenna baseline.

    ``uniform``:    every antenna radiates the same signal at power Pt/N with
                    no per-antenna phase control, so |g|^2 = |sum_n h_n|^2.
    ``mrt-strong``: the array beamforms toward user 2 with the matched filter
                    w = h_2 / ||h_2||; |g|^2 = N * |<h, w>|^2, the factor N
                    keeping the shared Pt/(N sigma^2) power convention.
    """
    if mode not in BASELINE_MODES:
        raise ValueError(f"unknown baseline mode {mode!r}; expected one of {BASELINE_MODES}")
    h1 = np.asarray(conventional_channel(params, users[0]))
    h2 = np.asarray(conventional_channel(params, users[1]))
    if mode == "uniform":
        return float(abs(np.sum(h1)) ** 2), float(abs(np.sum(h2)) ** 2)
    w = h2 / np.linalg.norm(h2)
    n = params.n_antennas
    g1 = n * float(abs(np.vdot(w, h1)) ** 2)
    g2 = n * float(abs(np.vdot(w, h2)) ** 2)
    return g1, g2
