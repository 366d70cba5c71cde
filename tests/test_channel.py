import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pinchopt import (
    AntennaLayout,
    LayoutError,
    SystemParams,
    UserPosition,
    conventional_channel,
    conventional_effective_gain,
    dbm_to_watts,
    guided_wavelength,
    path_gain_factor,
    pinching_gain,
    wavelength,
)
from pinchopt.channel import (
    FC_RANGE_HZ,
    MAX_ANTENNAS,
    MAX_N_EFF,
    MIN_SPACING_M,
    SPEED_OF_LIGHT,
    check_number,
    conventional_positions,
    phase_turns_and_distances,
    phases_and_distances,
)

import grid_reference


class TestWavelength:
    def test_28_ghz(self, params):
        # oracle: 299792458 / 28e9 evaluated directly
        assert wavelength(params) == pytest.approx(0.0107068735, rel=1e-12)

    def test_identity_frequency(self):
        p = SystemParams(fc=SPEED_OF_LIGHT, delta_min=1e-3)
        assert wavelength(p) == pytest.approx(1.0, rel=1e-15)

    def test_guided_wavelength(self, params):
        # oracle: (299792458 / 28e9) / 1.4
        assert guided_wavelength(params) == pytest.approx(
            0.0076477667857142865, rel=1e-12
        )
        assert guided_wavelength(params) < wavelength(params)


class TestPathGainFactor:
    def test_28_ghz(self, params):
        # oracle: c^2 / (16 pi^2 fc^2) evaluated directly
        assert path_gain_factor(params) == pytest.approx(
            7.259481705540116e-07, rel=1e-12
        )

    def test_matches_wavelength_form(self, params):
        expected = wavelength(params) ** 2 / (16.0 * math.pi**2)
        assert path_gain_factor(params) == pytest.approx(expected, rel=1e-14)

    def test_quarters_when_frequency_doubles(self, params):
        doubled = SystemParams(fc=2 * params.fc)
        assert path_gain_factor(doubled) == pytest.approx(
            path_gain_factor(params) / 4.0, rel=1e-14
        )


class TestPowerConversion:
    def test_reference_points(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-15)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)

    @given(st.floats(min_value=1e-15, max_value=1e3))
    def test_round_trip(self, watts):
        assert dbm_to_watts(10 * math.log10(watts) + 30) == pytest.approx(watts, rel=1e-12)


def composite_phases(params, layout, user):
    """Composite phase of every antenna of ``layout`` toward ``user``."""
    return phases_and_distances(params, user, np.asarray(layout.xs), layout.feed_x)[0]


def guide_phase(params, feed_x, antenna_x):
    """In-waveguide phase from the feed to one antenna: its free-space phase
    toward a user straight below it minus its composite phase."""
    user = UserPosition(antenna_x, 0.0)
    phases, dist = phases_and_distances(params, user, np.asarray(antenna_x), feed_x)
    return float(2.0 * np.pi * (dist / wavelength(params)) - phases)


class TestInwaveguidePhase:
    def test_zero_at_feed(self, params):
        assert guide_phase(params, 1.25, 1.25) == 0.0

    def test_full_guided_wavelength(self, params):
        lg = guided_wavelength(params)
        assert guide_phase(params, 0.0, lg) == pytest.approx(
            2 * math.pi, rel=1e-12
        )

    def test_half_guided_wavelength(self, params):
        lg = guided_wavelength(params)
        assert guide_phase(params, 0.0, -lg / 2) == pytest.approx(
            math.pi, rel=1e-12
        )


class TestAntennaUserPhase:
    def test_feed_at_antenna_leaves_free_space_term(self, params):
        layout = AntennaLayout(xs=(0.5,), feed_x=0.5)
        user = UserPosition(0.5, 2.0)
        d = math.sqrt(2.0**2 + params.h**2)
        expected = 2 * math.pi * d / wavelength(params)
        assert composite_phases(params, layout, user)[0] == pytest.approx(
            expected, rel=1e-12
        )

    def test_user_below_antenna_with_edge_feed(self, params):
        # oracle: 2 pi (h / lambda - (D/2) / lambda_g) at h=3, D=10
        layout = AntennaLayout(xs=(0.0,), feed_x=-params.side_d / 2)
        user = UserPosition(0.0, 0.0)
        assert composite_phases(params, layout, user)[0] == pytest.approx(
            -2347.3464245858827, rel=1e-12
        )

    def test_symmetric_antennas_share_free_space_term(self, params):
        user = UserPosition(0.0, 1.0)
        layout = AntennaLayout(xs=(-0.25, 0.25), feed_x=-2.0)
        lam = wavelength(params)
        lg = guided_wavelength(params)
        p0, p1 = composite_phases(params, layout, user)
        # equal distances to the user, so the difference is purely in-waveguide
        guide_diff = 2 * math.pi * (abs(-2.0 - 0.25) - abs(-2.0 + 0.25)) / lg
        assert p0 - p1 == pytest.approx(guide_diff, rel=1e-9)
        dist = math.sqrt(0.25**2 + 1.0 + params.h**2)
        assert p0 + 2 * math.pi * abs(-2.0 + 0.25) / lg == pytest.approx(
            2 * math.pi * dist / lam, rel=1e-12
        )


class TestUserSequencePhases:
    # Python's y**2 and y*y differ in the last bit here, which moves 182 of
    # the 1001 distances below when the users' y are squared as an array
    Y_POW_DIFFERS = -2.149279451485503

    @pytest.mark.parametrize("shape", [(), (1001,), (7, 3)])
    def test_rows_bit_equal_one_user_calls(self, params, shape):
        assert self.Y_POW_DIFFERS**2 != self.Y_POW_DIFFERS * self.Y_POW_DIFFERS
        users = (UserPosition(0.7, self.Y_POW_DIFFERS), UserPosition(-3.1, 0.4),
                 UserPosition(4.9, -1.3))
        xs = np.linspace(-5.0, 5.0, math.prod(shape)).reshape(shape)
        phases, dist = phases_and_distances(params, users, xs, -5.0)
        assert phases.shape == dist.shape == (len(users),) + shape
        for k, u in enumerate(users):
            one_phases, one_dist = phases_and_distances(params, u, xs, -5.0)
            assert np.array_equal(phases[k], one_phases)
            assert np.array_equal(dist[k], one_dist)

    @pytest.mark.parametrize("shape", [(), (1001,), (7, 3)])
    @pytest.mark.parametrize("n_eff", [1.0, 1.4, MAX_N_EFF])
    def test_phases_are_two_pi_times_turns(self, shape, n_eff):
        params = SystemParams(n_eff=n_eff)
        users = (UserPosition(0.7, self.Y_POW_DIFFERS), UserPosition(-3.1, 0.4))
        xs = np.linspace(-5.0, 5.0, math.prod(shape)).reshape(shape)
        for user in (users[0], users):
            phases, dist = phases_and_distances(params, user, xs, -5.0)
            turns, turn_dist = phase_turns_and_distances(params, user, xs, -5.0)
            assert np.array_equal((2 * math.pi * turns).view(np.uint64), phases.view(np.uint64))
            assert np.array_equal(turn_dist.view(np.uint64), dist.view(np.uint64))

    @pytest.mark.parametrize("shape", [(), (1001,)])
    def test_numpy_scalar_users_bit_equal_float_users(self, params, shape):
        """Users built from NumPy float64 values give the bits of users built
        from the same Python floats, one user or a sequence of them."""
        xs = np.linspace(-5.0, 5.0, math.prod(shape)).reshape(shape)
        coords = [(0.7, self.Y_POW_DIFFERS),
                  *np.random.default_rng(5).uniform(-5.0, 5.0, (40, 2)).tolist()]
        for (x1, y1), (x2, y2) in zip(coords, coords[1:]):
            floats = (UserPosition(x1, y1), UserPosition(x2, y2))
            scalars = tuple(UserPosition(np.float64(u.x), np.float64(u.y)) for u in floats)
            assert type(scalars[0].y) is np.float64
            for a, b in ((floats[0], scalars[0]), (floats, scalars)):
                for g, w in zip(phase_turns_and_distances(params, a, xs, -5.0),
                                phase_turns_and_distances(params, b, xs, -5.0)):
                    assert np.array_equal(np.asarray(g).view(np.uint64),
                                          np.asarray(w).view(np.uint64))

    @pytest.mark.parametrize("n", [1, 3, 9, 17, 130])
    def test_gains_bit_equal_one_user_calls(self, params, n):
        users = (UserPosition(0.7, self.Y_POW_DIFFERS), UserPosition(-3.1, 0.4),
                 UserPosition(4.9, -1.3))
        layout = AntennaLayout(tuple(np.linspace(-4.0, 4.0, n)), -5.0)
        gains = pinching_gain(params, layout, users)
        assert gains.shape == (len(users),)
        one = np.array([pinching_gain(params, layout, u) for u in users])
        assert np.array_equal(gains.view(np.uint64), one.view(np.uint64))


class TestInPlaceKernel:
    """The kernel, run in place, keeps the bits of the out-of-place expression."""

    Y_POW_DIFFERS = TestUserSequencePhases.Y_POW_DIFFERS

    @pytest.mark.parametrize("shape", [(), (1001,), (7, 3)])
    @pytest.mark.parametrize("feed_x", [-5.0, 0.3])  # 0.3: the feed inside the grid
    @pytest.mark.parametrize("n_eff", [1.0, 1.4, MAX_N_EFF])
    def test_bit_equal_to_out_of_place(self, shape, feed_x, n_eff):
        params = SystemParams(n_eff=n_eff)
        users = (UserPosition(0.7, self.Y_POW_DIFFERS), UserPosition(-3.1, 0.4))
        xs = np.linspace(-5.0, 5.0, math.prod(shape)).reshape(shape)
        if shape == ():  # the reference squares this case by pow, the kernel by x*x
            assert all(float(np.float64(d) ** 2) == d * d for d in (u.x - float(xs) for u in users))
        else:
            assert (feed_x - xs).min() < 0 < (feed_x - xs).max() or feed_x == -5.0
        for user in (users[0], users):
            got = phase_turns_and_distances(params, user, xs, feed_x)
            want = grid_reference.phase_turns_out_of_place(params, user, xs, feed_x)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                assert np.array_equal(np.asarray(g).view(np.uint64),
                                      np.asarray(w).view(np.uint64))

    def test_zero_d_row_bit_equal_to_its_sequence_row(self, params):
        # here a NumPy scalar's pow and x*x differ in the last bit of ux - x
        # squared, and the difference survives into the distance
        user, x = UserPosition(2.4721993970056673, 0.4), 0.07766679723145309
        d = user.x - x
        assert float(np.float64(d) ** 2) != d * d
        xs = np.asarray(x)
        one = phase_turns_and_distances(params, user, xs, -5.0)
        rows = phase_turns_and_distances(params, (user, user), xs, -5.0)
        for a, b in zip(one, rows):
            assert np.array_equal(np.asarray(a).view(np.uint64), b[0].view(np.uint64))


class TestBounds:
    @pytest.mark.parametrize("fc", [28e9, SPEED_OF_LIGHT, 56e9, 30e9, *FC_RANGE_HZ])
    @pytest.mark.parametrize("n_eff", [1.0, 1.4, 50.0, MAX_N_EFF])
    def test_admitted(self, fc, n_eff):
        params = SystemParams(fc=fc, n_eff=n_eff)
        assert params.fc == fc and params.n_eff == n_eff

    @pytest.mark.parametrize("field, value", [
        ("fc", 1e300), ("fc", 1e-300), ("fc", 0.0), ("fc", -28e9),
        ("fc", math.nextafter(FC_RANGE_HZ[0], 0.0)),
        ("fc", math.nextafter(FC_RANGE_HZ[1], math.inf)),
        ("n_eff", 1e306), ("n_eff", math.nextafter(1.0, 0.0)),
        ("n_eff", math.nextafter(MAX_N_EFF, math.inf)),
        ("n_antennas", MAX_ANTENNAS + 1), ("n_antennas", 10**8),
    ])
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be in "):
            SystemParams(**{field: value})

    def test_antenna_count_admitted_up_to_its_cap(self):
        assert SystemParams(n_antennas=MAX_ANTENNAS).n_antennas == MAX_ANTENNAS

    @pytest.mark.parametrize("fc", [28e9, FC_RANGE_HZ[1]])
    @pytest.mark.parametrize("delta_min", [None, MIN_SPACING_M, 1e-3, 0.01])
    def test_spacing_admitted(self, fc, delta_min):
        params = SystemParams(fc=fc, delta_min=delta_min)
        assert params.delta_min >= MIN_SPACING_M

    @pytest.mark.parametrize("value", [1e-17, 5e-324, 0.0, -1e-3,
                                       math.nextafter(MIN_SPACING_M, 0.0)])
    def test_spacing_refused_naming_the_field(self, value):
        with pytest.raises(ValueError, match="^delta_min must be >= 1e-09, got "):
            SystemParams(delta_min=value)


class TestPinchingGain:
    def test_single_antenna_below_user(self, params):
        # oracle: eta / (y^2 + h^2) with y=0, h=3 -> eta / 9
        layout = AntennaLayout(xs=(1.0,), feed_x=1.0)
        g = pinching_gain(params, layout, UserPosition(1.0, 0.0))
        assert abs(g) ** 2 == pytest.approx(8.066090783933463e-08, rel=1e-11)

    def test_coherent_sum_reaches_amplitude_bound(self):
        # engineered alignment: antennas symmetric about the user (equal
        # free-space terms) with a full-turn in-waveguide offset
        p = SystemParams(n_antennas=2)
        lg = guided_wavelength(p)
        user = UserPosition(0.0, 1.5)
        layout = AntennaLayout(xs=(-lg, lg), feed_x=-3.0)
        g = pinching_gain(p, layout, user)
        _, dists = phases_and_distances(p, user, np.asarray(layout.xs), layout.feed_x)
        bound = math.sqrt(path_gain_factor(p)) * float(np.sum(1.0 / dists))
        assert abs(g) == pytest.approx(bound, rel=1e-9)

    def test_destructive_pair_cancels(self):
        # equal user distances, in-waveguide phases differing by pi
        p = SystemParams(n_antennas=2)
        lg = guided_wavelength(p)
        p = SystemParams(n_antennas=2, delta_min=lg / 2)
        user = UserPosition(0.0, 2.0)
        layout = AntennaLayout(xs=(-lg / 4, lg / 4), feed_x=-4.0)
        g = pinching_gain(p, layout, user)
        bound = math.sqrt(path_gain_factor(p)) / math.sqrt(4.0 + p.h**2)
        assert abs(g) <= 2e-9 * bound

    def test_triangle_bound_randomized(self, params, rng):
        amp = math.sqrt(path_gain_factor(params))
        for _ in range(300):
            n = int(rng.integers(1, 6))
            start = rng.uniform(-4.0, 2.0)
            gaps = rng.uniform(params.delta_min, 10 * params.delta_min, size=n - 1)
            xs = tuple(start + np.concatenate(([0.0], np.cumsum(gaps))))
            layout = AntennaLayout(xs=xs, feed_x=rng.uniform(-5.0, 5.0))
            user = UserPosition(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            g = pinching_gain(params, layout, user)
            _, dists = phases_and_distances(
                params, user, np.asarray(xs), layout.feed_x
            )
            bound = amp * float(np.sum(1.0 / dists))
            assert abs(g) <= bound * (1.0 + 1e-12)

    def test_translation_invariance(self, params, rng):
        for _ in range(50):
            xs = np.sort(rng.uniform(-3, 3, size=3))
            xs = tuple(xs + np.arange(3) * params.delta_min)
            feed = rng.uniform(-5, 0)
            user = UserPosition(rng.uniform(-4, 4), rng.uniform(-4, 4))
            shift = rng.uniform(-1, 1)
            g0 = pinching_gain(params, AntennaLayout(xs, feed), user)
            g1 = pinching_gain(
                params,
                AntennaLayout(tuple(x + shift for x in xs), feed + shift),
                UserPosition(user.x + shift, user.y),
            )
            assert abs(g1) == pytest.approx(abs(g0), rel=1e-9)


class TestLayoutValidation:
    def test_spacing_violation(self, params):
        layout = AntennaLayout(xs=(0.0, params.delta_min / 2, 1.0), feed_x=0.0)
        with pytest.raises(LayoutError):
            layout.validate(params)

    def test_out_of_region(self, params):
        layout = AntennaLayout(
            xs=(params.side_d / 2 + 0.1 - params.delta_min, params.side_d / 2 + 0.1),
            feed_x=0.0,
        )
        with pytest.raises(LayoutError):
            layout.validate(SystemParams(n_antennas=2))

    def test_wrong_antenna_count(self, params):
        with pytest.raises(LayoutError, match="expected 3 antennas, got 1"):
            AntennaLayout(xs=(0.0,), feed_x=-5.0).validate(params)

    def test_valid_layout_passes(self, params):
        layout = AntennaLayout(
            xs=(-params.delta_min, 0.0, params.delta_min), feed_x=-5.0
        )
        layout.validate(params)


class TestSystemParams:
    @pytest.mark.parametrize(
        "name", ["fc", "n_eff", "h", "side_d", "delta_min", "pt_dbm", "noise_dbm"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError):
            SystemParams(**{name: value})


class TestCheckNumber:
    @pytest.mark.parametrize("value, kwargs, message", [
        ("1", {}, "v must be a number, got '1'"),
        (None, {}, "v must be a number, got None"),
        (True, {}, "v must be a number, got True"),
        (2.0, {"integer": True}, "v must be an integer, got 2.0"),
        (False, {"integer": True}, "v must be an integer, got False"),
        (math.nan, {}, "v must be finite, got nan"),
        (-math.inf, {}, "v must be finite, got -inf"),
        (10**400, {"integer": True}, "v must be finite, got 1000"),  # beyond a float
        (-0.5, {"lo": 0}, "v must be >= 0, got -0.5"),
        (0, {"lo": 0, "above": True}, "v must be > 0, got 0"),
        (3, {"lo": -2.0, "hi": 2.0}, "v must be in [-2.0, 2.0], got 3"),
        (-2.0, {"lo": -2.0, "hi": 2.0, "above": True}, "v must be in (-2.0, 2.0], got -2.0"),
    ])
    def test_rejects_with_the_field_and_the_rule(self, value, kwargs, message):
        with pytest.raises(ValueError) as info:
            check_number("v", value, **kwargs)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("value, kwargs", [
        (0, {"lo": 0}), (2.0, {"lo": -2.0, "hi": 2.0}), (np.float64(1.5), {}),
        (np.int64(3), {"lo": 1, "integer": True}), (-1e308, {}),
    ])
    def test_returns_a_value_in_range(self, value, kwargs):
        assert check_number("v", value, **kwargs) is value


class TestConventionalChannel:
    def test_single_antenna_magnitude(self, params):
        p = SystemParams(n_antennas=1)
        (h0,) = conventional_channel(p, UserPosition(0.0, 2.0))
        expected = math.sqrt(path_gain_factor(p)) / math.sqrt(4.0 + p.h**2)
        assert abs(h0) == pytest.approx(expected, rel=1e-12)

    def test_three_antennas_centre_user(self, params):
        entries = conventional_channel(params, UserPosition(0.0, 0.0))
        lam = wavelength(params)
        amp = math.sqrt(path_gain_factor(params))
        dmax = math.sqrt(params.h**2 + lam**2 / 4)
        for h_n in entries:
            d = amp / abs(h_n)
            assert params.h <= d <= dmax + 1e-15
            assert abs(h_n) == pytest.approx(amp / 3.0, rel=1e-5)

    def test_magnitudes_match_distances_exactly(self, params, rng):
        amp = math.sqrt(path_gain_factor(params))
        for _ in range(20):
            user = UserPosition(rng.uniform(-5, 5), rng.uniform(-5, 5))
            entries = conventional_channel(params, user)
            for x_n, h_n in zip(conventional_positions(params), entries):
                d = math.sqrt((user.x - x_n) ** 2 + user.y**2 + params.h**2)
                assert abs(h_n) == pytest.approx(amp / d, rel=1e-13)

    def test_magnitude_decreases_with_distance(self, params):
        near = conventional_channel(params, UserPosition(0.0, 1.0))
        far = conventional_channel(params, UserPosition(0.0, 4.0))
        for h_near, h_far in zip(near, far):
            assert abs(h_far) < abs(h_near)


class TestConventionalEffectiveGain:
    def test_single_antenna_modes_coincide(self):
        p = SystemParams(n_antennas=1)
        users = (UserPosition(1.0, 2.0), UserPosition(-1.0, 0.5))
        gu = conventional_effective_gain(p, users, "conventional-uniform")
        gm = conventional_effective_gain(p, users, "conventional-mrt")
        (h1,) = conventional_channel(p, users[0])
        assert gu[0] == pytest.approx(abs(h1) ** 2, rel=1e-12)
        assert gu == pytest.approx(gm, rel=1e-12)

    def test_mrt_strong_user_gets_matched_filter_gain(self, params):
        users = (UserPosition(3.0, 3.0), UserPosition(-1.0, 0.5))
        _, g2 = conventional_effective_gain(params, users, "conventional-mrt")
        h2 = np.asarray(conventional_channel(params, users[1]))
        assert g2 == pytest.approx(
            params.n_antennas * float(np.sum(np.abs(h2) ** 2)), rel=1e-12
        )

    def test_uniform_coherent_geometry(self):
        # two antennas symmetric about the user: equal distances, equal
        # phases, so the sum gain is N^2 times the per-antenna gain
        p = SystemParams(n_antennas=2)
        users = (UserPosition(0.0, 3.0), UserPosition(0.0, 1.0))
        g1, _ = conventional_effective_gain(p, users, "conventional-uniform")
        (h11, _) = conventional_channel(p, users[0])
        assert g1 == pytest.approx(4.0 * abs(h11) ** 2, rel=1e-12)

    def test_unknown_mode_rejected(self, params):
        users = (UserPosition(1.0, 2.0), UserPosition(-1.0, 0.5))
        with pytest.raises(ValueError, match="unknown baseline scheme"):
            conventional_effective_gain(params, users, "zero-forcing")
