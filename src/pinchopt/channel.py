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
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

BASELINE_SCHEMES = ("conventional-uniform", "conventional-mrt")

# Upper bound on the height h and the region side D (each swept D too), m.
# Up to 1 km the composite phases stay below 1e6 rad at defaults, rounded to
# about 1e-10 rad, and squared distances are far from overflow.
MAX_SIZE_M = 1000.0
# Range of the transmit and noise powers, dBm: 1e-33 to 1e27 W, so the
# power ratio in the SNR stays within 1e60 either way, far from overflow.
POWER_RANGE_DBM = (-300.0, 300.0)
# Range of the carrier frequency fc, Hz: wavelengths from 300 km down to
# 0.3 um.  At 1 kHz the path-gain factor (wavelength / 4 pi)^2 is 6e8 m^2,
# and below it grows toward overflow (the wavelength itself overflows near
# fc = 1e-300).  At 1 PHz the default fine step, wavelength / 100, is 3e-9 m,
# still 5e4 float spacings of a coordinate in a region up to MAX_SIZE_M
# (6e-14 m at 500 m); above it pitch and step shrink toward that spacing.
FC_RANGE_HZ = (1e3, 1e15)
# Upper bound on the effective refractive index n_eff.  The in-waveguide
# phase advances n_eff / 100 turns per default fine step, so beyond 100 the
# fine-tune grid steps over whole turns.  Within it and FC_RANGE_HZ the
# composite phases across a region up to MAX_SIZE_M stay below 1e12 turns.
MAX_N_EFF = 100.0
# Lower bound on the minimum antenna spacing delta_min, m: far above
# AntennaLayout.SPACING_SLACK (1e-12), below which any gap passes, and above
# the float spacing of coordinates up to MAX_SIZE_M / 2 (6e-14 m), below
# which the pitch rounds away; half a wavelength at 1 PHz is 1.5e-7 m.
MIN_SPACING_M = 1e-9
# Upper bound on the antenna count N.  Each bisection iteration tunes N - 1
# antennas, so a solve's time grows with N: at D = 1000 m and fc = 1e15 Hz
# one solve takes about 10 s at N = 1e4 and about 100 s at 1e5 (2 CPUs).
MAX_ANTENNAS = 10_000


class LayoutError(ValueError):
    """An antenna layout violates spacing or region-boundary constraints."""


def check_number(name, value, lo=-math.inf, hi=math.inf, *, above=False, integer=False):
    """Return ``value`` if it is a real number (an integer when ``integer`` is
    set), not a bool, finite (an int too large for a float is not) and in
    [lo, hi], or in (lo, hi] when ``above`` is set; else raise ValueError
    naming the field ``name``."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        rule = "an integer" if integer else "a number"
    elif not abs(value) <= sys.float_info.max:  # NaN, infinite or beyond a float
        rule = "finite"
    elif value < lo or above and value == lo or value > hi:
        rule = (f"in {'(' if above else '['}{lo}, {hi}]" if hi < math.inf
                else f"{'>' if above else '>='} {lo}")
    else:
        return value
    raise ValueError(f"{name} must be {rule}, got {value!r}")


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
        check_number("fc", self.fc, *FC_RANGE_HZ)
        for name in ("h", "side_d"):
            check_number(name, getattr(self, name), 0, MAX_SIZE_M, above=True)
        check_number("n_eff", self.n_eff, 1, MAX_N_EFF)
        check_number("n_antennas", self.n_antennas, 1, MAX_ANTENNAS, integer=True)
        for name in ("pt_dbm", "noise_dbm"):
            check_number(name, getattr(self, name), *POWER_RANGE_DBM)
        if self.delta_min is None:
            object.__setattr__(self, "delta_min", wavelength(self) / 2.0)
        check_number("delta_min", self.delta_min, MIN_SPACING_M)


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
        return all(spacing_holds(params, b - a) for a, b in zip(self.xs, self.xs[1:]))


def spacing_threshold(params: SystemParams) -> float:
    """The least gap between neighbouring antennas that keeps ``delta_min``
    up to ``AntennaLayout.SPACING_SLACK``."""
    return params.delta_min - AntennaLayout.SPACING_SLACK


def spacing_holds(params: SystemParams, gap):
    """Whether a gap, a float or an array of them, is at least :func:`spacing_threshold`."""
    return gap >= spacing_threshold(params)


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


def phase_turns_and_distances(
    params: SystemParams,
    user: UserPosition | Sequence[UserPosition],
    xs: np.ndarray,
    feed_x: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite phases in turns, and user distances, for antennas at ``xs``.

    The composite phase of one antenna is the free-space phase toward the
    user minus the in-waveguide phase from the feed, unreduced; here it is
    counted in turns (cycles of 2 pi).  ``xs`` may have any shape; results
    share it.  Given a sequence of users, the results gain a leading users
    axis, and each row is bit-equal to that user's own call.  This is the
    single source of truth for the phase arithmetic used throughout:
    sqrt(((ux - x)**2 + uy**2) + h**2) / lam - |feed_x - x| / (lam / n_eff),
    in that order, in place in full-shape buffers (so a 0-d ``xs`` too is
    squared as an array, not by a NumPy scalar's pow), with each user's ux,
    uy**2 and h**2 applied to its own row as scalars.
    """
    xs = np.asarray(xs, dtype=float)
    if isinstance(user, UserPosition):
        dist = np.empty(xs.shape)
        rows = ((dist, user),)
    else:
        dist = np.empty((len(user),) + xs.shape)
        rows = [(dist[i, ...], u) for i, u in enumerate(user)]
    for row, u in rows:
        np.subtract(u.x, xs, out=row)
    np.square(dist, out=dist)
    for row, u in rows:
        # y squared by Python's **: its pow and NumPy's y*y differ in the
        # last bit for about one float in a thousand
        row += u.y**2
        row += params.h**2
    np.sqrt(dist, out=dist)
    guide = np.subtract(feed_x, xs, out=np.empty(xs.shape))
    np.abs(guide, out=guide)
    lam = wavelength(params)
    turns = dist / lam
    guide /= lam / params.n_eff
    turns -= guide
    return turns, dist


def phases_and_distances(
    params: SystemParams,
    user: UserPosition | Sequence[UserPosition],
    xs: np.ndarray,
    feed_x: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Composite phases in radians, and user distances: 2 pi times the
    turns of :func:`phase_turns_and_distances`, whose arguments it takes."""
    turns, dist = phase_turns_and_distances(params, user, xs, feed_x)
    turns *= 2.0 * np.pi  # in place, but for a 0-d xs, whose turns are a NumPy scalar
    return turns, dist


def pinching_gain(
    params: SystemParams,
    layout: AntennaLayout,
    user: UserPosition | Sequence[UserPosition],
) -> complex | np.ndarray:
    """Effective complex channel gain of the waveguide array toward a user:
    :func:`pinching_gains_batch` on the layout as one row.  Given a sequence
    of users, an array of their gains, each bit-equal to its own call."""
    gains = pinching_gains_batch(params, np.asarray(layout.xs), layout.feed_x, user)
    return complex(gains) if isinstance(user, UserPosition) else gains


def pinching_gains_batch(
    params: SystemParams,
    xs_layouts: np.ndarray,
    feed_x: float,
    user: UserPosition | Sequence[UserPosition],
) -> np.ndarray:
    """Effective complex gains of many candidate layouts toward a user.

    ``xs_layouts`` has shape (M, N), or (N,) for one layout; each gain is the
    sum over antennas of sqrt(eta) * exp(j * composite_phase) / distance.
    Given a sequence of users, the result has a leading users axis.  The
    distance is bounded below by the height h, so this never divides by zero.
    """
    return gains_from_phases(params, *phases_and_distances(params, user, xs_layouts, feed_x))


def gains_from_phases(params: SystemParams, phases: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Sum over the last (antenna) axis of sqrt(eta) * exp(j * phase) / distance:
    the gains of :func:`pinching_gains_batch`, from its composite phases in
    radians and distances, or from the same values gathered elsewhere."""
    amp = math.sqrt(path_gain_factor(params))
    terms = np.multiply(1j, phases)  # in place from here: a batch's arrays are large
    np.exp(terms, out=terms)
    return np.add.reduce(np.divide(np.multiply(terms, amp, out=terms), dist, out=terms), axis=-1)


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
    scheme: str,
) -> tuple[float, float]:
    """Per-user effective power gains |g|^2 of the fixed-antenna baseline.

    ``conventional-uniform``: every antenna radiates the same signal at
        power Pt/N with no per-antenna phase control, so |g|^2 = |sum_n h_n|^2.
    ``conventional-mrt``: the array beamforms toward user 2 with the matched
        filter w = h_2 / ||h_2||; |g|^2 = N * |<h, w>|^2, the factor N keeping
        the shared Pt/(N sigma^2) power convention.
    """
    if scheme not in BASELINE_SCHEMES:
        raise ValueError(f"unknown baseline scheme {scheme!r}; "
                         f"expected one of {BASELINE_SCHEMES}")
    h1 = np.asarray(conventional_channel(params, users[0]))
    h2 = np.asarray(conventional_channel(params, users[1]))
    if scheme == "conventional-uniform":
        return float(abs(np.sum(h1)) ** 2), float(abs(np.sum(h2)) ** 2)
    w = h2 / np.linalg.norm(h2)
    n = params.n_antennas
    g1 = n * float(abs(np.vdot(w, h1)) ** 2)
    g2 = n * float(abs(np.vdot(w, h2)) ** 2)
    return g1, g2
