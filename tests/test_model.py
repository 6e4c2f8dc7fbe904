import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from roompol import (
    SPEED_OF_LIGHT,
    DistanceCondition,
    PdsParams,
    PolGain,
    RoomGeometry,
    WallMaterial,
    bounce_count_table,
    bounce_matrix,
    bounce_matrix_power,
    channel_pair,
    co_cross_ratio,
    cpr,
    cpr_distance,
    direct_path,
    mixing_constant,
    mixing_time,
    pds,
    pds_asymptote,
    pds_components,
    pds_components_exact,
    pds_conditional,
    reverberation_time,
    wall_material_from_times,
)
from roompol.model import _octant_directions

ROOM = RoomGeometry(3.0, 4.0, 3.0)
MAT = WallMaterial(g=0.4, gamma=0.04)
LAM = 5e-3


def make_params(mu_t, mu_r, material=MAT, room=ROOM):
    return PdsParams(room=room, material=material, mu_t=mu_t, mu_r=mu_r, wavelength=LAM)


def split_params(xi, material=MAT, room=ROOM):
    mu = PolGain.from_split(xi)
    return make_params(mu, mu, material=material, room=room)


def integrate_cpr(p):
    """Independent oracle: trapezoid quadrature of the co/cross densities."""
    t_rev = reverberation_time(p.room, p.material)
    t_mix = mixing_time(p.room, p.material)
    step = min(t_rev, t_mix) / 100.0
    tau = np.arange(0.0, 60.0 * t_rev, step)
    co, cross = pds_components(tau, p)
    denom = trapezoid(cross, tau)
    if denom == 0.0:
        return math.inf
    return trapezoid(co, tau) / denom


def integrate_cpr_distance(p, cond):
    """Oracle for the conditioned CPR: quadrature beyond d/c plus the spike."""
    t_rev = reverberation_time(p.room, p.material)
    t_mix = mixing_time(p.room, p.material)
    t0 = cond.distance / SPEED_OF_LIGHT
    step = min(t_rev, t_mix) / 200.0
    tau = t0 + np.arange(0.0, 30.0 * t_rev, step)
    gate = pds_conditional(tau, p, cond) > 0
    co_all, cross_all = pds_components(tau, p)
    num = trapezoid(co_all * gate, tau)
    spike = direct_path(p, cond)
    if spike is not None:
        num += spike.weight
    return num / trapezoid(cross_all * gate, tau)


class TestTypes:
    def test_room_derives_volume_and_surface(self):
        assert ROOM.volume() == pytest.approx(36.0)
        assert ROOM.surface() == pytest.approx(66.0)

    @pytest.mark.parametrize("dims", [(0, 4, 3), (3, -1, 3), (3, 4, 0)])
    def test_room_rejects_nonpositive_dimensions(self, dims):
        with pytest.raises(ValueError, match="room dimension"):
            RoomGeometry(*dims)

    @pytest.mark.parametrize("g", [0.0, 1.0, -0.1, 1.5])
    def test_material_rejects_gain_outside_open_unit_interval(self, g):
        with pytest.raises(ValueError, match="gain g"):
            WallMaterial(g=g, gamma=0.1)

    @pytest.mark.parametrize("gamma", [-0.01, 1.0, 2.0])
    def test_material_rejects_bad_leakage(self, gamma):
        with pytest.raises(ValueError, match="leakage gamma"):
            WallMaterial(g=0.5, gamma=gamma)

    def test_polgain_lossless_split(self):
        mu = PolGain.from_split(0.1)
        assert mu.mu_theta + mu.mu_phi == pytest.approx(1.0)
        assert mu.swapped() == PolGain(0.1, 0.9)

    def test_polgain_rejects_negative_and_bad_split(self):
        with pytest.raises(ValueError):
            PolGain(-0.1, 0.5)
        with pytest.raises(ValueError):
            PolGain.from_split(1.2)

    def test_params_reject_nonpositive_wavelength(self):
        with pytest.raises(ValueError, match="wavelength"):
            PdsParams(ROOM, MAT, PolGain(1, 0), PolGain(1, 0), wavelength=0.0)

    def test_distance_condition_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError, match="distance"):
            DistanceCondition(distance=0.0, los=True)

    NON_FINITE_BUILDERS = {
        "lx": lambda v: RoomGeometry(v, 4.0, 3.0),
        "ly": lambda v: RoomGeometry(3.0, v, 3.0),
        "lz": lambda v: RoomGeometry(3.0, 4.0, v),
        "mu_theta": lambda v: PolGain(v, 0.5),
        "mu_phi": lambda v: PolGain(0.5, v),
        "wavelength": lambda v: PdsParams(ROOM, MAT, PolGain(1, 0), PolGain(1, 0), v),
        "distance": lambda v: DistanceCondition(v, los=True),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", list(NON_FINITE_BUILDERS))
    def test_non_finite_values_are_rejected_by_name(self, field, bad):
        with pytest.raises(ValueError, match=field):
            self.NON_FINITE_BUILDERS[field](bad)


class TestBounceMatrix:
    def test_no_leakage_gives_scaled_identity(self):
        npt.assert_allclose(
            bounce_matrix(WallMaterial(g=0.5, gamma=0.0)), 0.5 * np.eye(2), rtol=1e-15
        )

    def test_hand_evaluated_entries(self):
        a = bounce_matrix(MAT)
        npt.assert_allclose(
            a, [[0.3846154, 0.0153846], [0.0153846, 0.3846154]], rtol=0, atol=1e-7
        )

    def test_full_depolarization_limit(self):
        a = bounce_matrix(WallMaterial(g=0.4, gamma=1.0 - 1e-12))
        npt.assert_allclose(a, 0.2 * np.ones((2, 2)), rtol=1e-9)

    @pytest.mark.parametrize("g", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("gamma", [0.0, 0.04, 0.7])
    def test_symmetric_with_row_sums_g(self, g, gamma):
        a = bounce_matrix(WallMaterial(g=g, gamma=gamma))
        npt.assert_allclose(a, a.T, rtol=1e-15)
        npt.assert_allclose(a.sum(axis=1), [g, g], rtol=1e-14)

    def test_closed_form_power_matches_repeated_multiplication(self):
        a = bounce_matrix(MAT)
        ratio = (1.0 - MAT.gamma) / (1.0 + MAT.gamma)
        q = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        for n in range(51):
            by_mult = np.linalg.matrix_power(a, n)
            by_eig = MAT.g**n * (q @ np.diag([1.0, ratio**n]) @ np.linalg.inv(q))
            closed = bounce_matrix_power(MAT, n)
            npt.assert_allclose(closed, by_mult, rtol=1e-10, atol=1e-13)
            npt.assert_allclose(closed, by_eig, rtol=1e-10, atol=1e-13)

    def test_power_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            bounce_matrix_power(MAT, -1)


class TestTimeConstants:
    def test_reverberation_time_reference_room(self):
        t = reverberation_time(ROOM, MAT)
        expected = -4.0 * 36.0 / (SPEED_OF_LIGHT * 66.0 * math.log(0.4))
        assert t == pytest.approx(expected, rel=1e-14)
        assert t == pytest.approx(7.943e-9, rel=1e-3)

    def test_reverberation_time_increases_with_gain(self):
        times = [reverberation_time(ROOM, WallMaterial(g, 0.0))
                 for g in (0.2, 0.4, 0.6, 0.9, 0.999999)]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] > 1e-5  # near-lossless walls reverberate almost forever

    def test_doubling_dimensions_doubles_reverberation_time(self):
        double = RoomGeometry(6.0, 8.0, 6.0)
        assert reverberation_time(double, MAT) == pytest.approx(
            2.0 * reverberation_time(ROOM, MAT), rel=1e-14
        )

    def test_mixing_time_reference_room(self):
        assert mixing_time(ROOM, MAT) == pytest.approx(90.92e-9, rel=1e-3)

    def test_mixing_time_limits(self):
        assert mixing_time(ROOM, WallMaterial(0.4, 0.0)) == math.inf
        # T_p shrinks only logarithmically in (1 - gamma): ~0.34 ns here
        assert mixing_time(ROOM, WallMaterial(0.4, 1.0 - 1e-9)) < 1e-9

    def test_leakage_below_rounding_keeps_finite_times(self):
        # (1 - gamma)/(1 + gamma) rounds to one here; ln of it is -2 gamma
        material = WallMaterial(0.4, 1e-300)
        expected = 4.0 * 36.0 / (SPEED_OF_LIGHT * 66.0 * 2e-300)
        assert mixing_time(ROOM, material) == pytest.approx(expected, rel=1e-14)
        assert mixing_constant(material) == pytest.approx(-math.log(0.4) / 2e-300, rel=1e-14)

    def test_mixing_constant_value_and_limits(self):
        assert mixing_constant(MAT) == pytest.approx(11.448, rel=1e-3)
        assert mixing_constant(WallMaterial(0.4, 0.0)) == math.inf

    @pytest.mark.parametrize(
        "room", [ROOM, RoomGeometry(6.0, 10.0, 3.0), RoomGeometry(2.0, 2.0, 2.0)]
    )
    def test_mixing_constant_is_room_independent(self, room):
        by_ratio = mixing_time(room, MAT) / reverberation_time(room, MAT)
        assert mixing_constant(MAT) == pytest.approx(by_ratio, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(
        sides=st.tuples(*[st.floats(1.0, 20.0)] * 3),
        g=st.floats(0.05, 0.95),
        gamma=st.one_of(st.just(0.0), st.floats(1e-6, 0.9)),
    )
    @example(sides=(3.0, 4.0, 3.0), g=0.4, gamma=0.04)
    @example(sides=(3.0, 4.0, 3.0), g=0.4, gamma=0.0)
    @example(sides=(20.0, 20.0, 20.0), g=0.95, gamma=1e-6)
    def test_material_from_times_round_trip(self, sides, g, gamma):
        """(T, T_p) -> (g, gamma) inverts the forward maps to rel 1e-12;
        gamma = 0 gives T_p = inf and comes back as exactly 0."""
        room = RoomGeometry(*sides)
        material = WallMaterial(g, gamma)
        back = wall_material_from_times(
            room, reverberation_time(room, material), mixing_time(room, material)
        )
        assert math.isclose(back.g, g, rel_tol=1e-12)
        assert math.isclose(back.gamma, gamma, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "t_rev, t_mix, message",
        [
            (0.0, 1e-8, "reverberation time"),
            (-1e-8, 1e-8, "reverberation time"),
            (math.nan, 1e-8, "reverberation time"),
            (math.inf, 1e-8, "reverberation time"),
            (1e-8, 0.0, "mixing time"),
            (1e-8, -math.inf, "mixing time"),
            (1e-8, math.nan, "mixing time"),
        ],
    )
    def test_material_from_times_rejects_nonpositive_times(self, t_rev, t_mix, message):
        with pytest.raises(ValueError, match=f"{message} must be > 0"):
            wall_material_from_times(ROOM, t_rev, t_mix)


class TestPds:
    def test_zero_delay_value_for_vertical_antennas(self):
        p = make_params(PolGain(1, 0), PolGain(1, 0))
        assert pds(0.0, p) == pytest.approx(SPEED_OF_LIGHT * LAM**2 / 36.0, rel=1e-14)
        assert pds(0.0, p) == pytest.approx(208.189, rel=1e-4)

    def test_negative_delay_is_zero(self):
        p = split_params(0.1)
        assert pds(-1e-9, p) == 0.0
        out = pds(np.array([-2e-9, -1e-12, 0.0, 1e-9]), p)
        npt.assert_array_equal(out[:2], [0.0, 0.0])
        assert np.all(out[2:] > 0)

    def test_no_leakage_recovers_classical_exponential(self):
        p = make_params(PolGain(1, 0), PolGain(1, 0), material=WallMaterial(0.4, 0.0))
        tau = np.linspace(0.0, 60e-9, 500)
        t_rev = reverberation_time(ROOM, p.material)
        expected = SPEED_OF_LIGHT * LAM**2 / 36.0 * np.exp(-tau / t_rev)
        npt.assert_allclose(pds(tau, p), expected, rtol=1e-12)

    def test_decomposition_is_exact(self):
        p = split_params(0.07)
        tau = np.linspace(0.0, 80e-9, 801)
        co, cross = pds_components(tau, p)
        npt.assert_allclose(co + cross, pds(tau, p), rtol=1e-15)

    def test_reciprocity_under_gain_swap(self):
        mu_a, mu_b = PolGain(0.7, 0.2), PolGain(0.1, 0.8)
        tau = np.linspace(1e-10, 50e-9, 97)
        fwd = make_params(mu_a, mu_b)
        rev = make_params(mu_b, mu_a)
        npt.assert_array_equal(pds(tau, fwd), pds(tau, rev))
        npt.assert_array_equal(pds_components(tau, fwd), pds_components(tau, rev))
        npt.assert_array_equal(co_cross_ratio(tau, fwd), co_cross_ratio(tau, rev))
        assert cpr(fwd) == cpr(rev)


# The model functions that take delays, each called as f(tau, p).
DELAY_FUNCTIONS = {
    "pds": pds,
    "pds_conditional": lambda tau, p: pds_conditional(tau, p, DistanceCondition(1.8)),
    "pds_components": pds_components,
    "pds_asymptote": pds_asymptote,
    "co_cross_ratio": co_cross_ratio,
    "pds_components_exact": pds_components_exact,
}


class TestDelays:
    @pytest.mark.parametrize("tau", [math.nan, [1e-9, math.nan]], ids=["scalar", "array"])
    @pytest.mark.parametrize("name", DELAY_FUNCTIONS)
    def test_nan_delay_is_rejected_by_name(self, name, tau):
        with pytest.raises(ValueError, match="delays must be finite or infinite, not NaN"):
            DELAY_FUNCTIONS[name](tau, split_params(0.1))

    @pytest.mark.parametrize("gamma", [0.04, 0.0])
    def test_infinite_delay_keeps_the_closed_form_limits(self, gamma):
        p = split_params(0.1, material=WallMaterial(0.4, gamma))
        assert pds(math.inf, p) == 0.0
        assert pds_components(math.inf, p) == (0.0, 0.0)
        assert pds_conditional(math.inf, p, DistanceCondition(1.8)) == 0.0
        assert pds_asymptote(math.inf, p) == 0.0
        assert co_cross_ratio(math.inf, p) == (0.82 / 0.18 if gamma else math.inf)
        with pytest.raises(ValueError, match="delays must be finite"):
            pds_components_exact(math.inf, p)


class TestChannelPair:
    def test_swaps_only_the_receive_gains(self):
        p = make_params(PolGain(0.7, 0.2), PolGain(0.1, 0.8))
        co, cross = channel_pair(p)
        assert co == p
        assert cross.mu_r == p.mu_r.swapped() == PolGain(0.8, 0.1)
        assert dataclasses.replace(cross, mu_r=p.mu_r) == p

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        gamma=st.floats(0.0, 1.0, exclude_max=True),
        xi=st.floats(0.0, 1.0),
        tau=st.floats(0.0, 200e-9),
    )
    def test_split_mirror_invariance_and_decomposition(self, g, gamma, xi, tau):
        """Both channels are invariant under xi <-> 1 - xi, the symmetry the
        fitter's canonical xi folding relies on, and each channel's parts sum
        to its spectrum. The mirror split [xi, 1 - xi] is built by swapping
        the gain entries, so rounding in 1 - xi does not enter."""
        material = WallMaterial(g, gamma)
        mu = PolGain.from_split(xi)
        pair = channel_pair(make_params(mu, mu, material=material))
        mirror = channel_pair(make_params(mu.swapped(), mu.swapped(), material=material))
        for p, q in zip(pair, mirror):
            assert pds(tau, q) == pytest.approx(pds(tau, p), rel=1e-12, abs=0.0)
            co, cross = pds_components(tau, p)
            assert co + cross == pytest.approx(pds(tau, p), rel=1e-12, abs=0.0)


class TestComponents:
    @pytest.mark.parametrize("xi", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("gamma", [0.0, 0.04, 0.9])
    def test_cross_part_starts_at_zero(self, xi, gamma):
        p = split_params(xi, material=WallMaterial(0.4, gamma))
        _, cross = pds_components(0.0, p)
        assert cross == 0.0

    def test_crossed_antennas_have_no_co_part(self):
        p = make_params(PolGain(1, 0), PolGain(0, 1))
        tau = np.linspace(0.0, 60e-9, 300)
        co, cross = pds_components(tau, p)
        npt.assert_array_equal(co, np.zeros_like(tau))
        t_rev = reverberation_time(ROOM, MAT)
        t_mix = mixing_time(ROOM, MAT)
        expected = (
            SPEED_OF_LIGHT * LAM**2 * np.exp(-tau / t_rev) / (2 * 36.0)
            * (1.0 - np.exp(-tau / t_mix))
        )
        npt.assert_allclose(cross, expected, rtol=1e-12)

    def test_instant_mixing_fixes_component_ratio(self):
        material = WallMaterial(0.4, 1.0 - 1e-12)
        p = split_params(0.1, material=material)
        # the residual mixing factor decays as e^(-tau/T_p); with T_p ~ 0.26 ns
        # it is below 1e-9 beyond ~22 mixing times
        tau = np.linspace(8e-9, 40e-9, 50)
        co, cross = pds_components(tau, p)
        npt.assert_allclose(co / cross, np.full_like(tau, 0.82 / 0.18), rtol=1e-9)


class TestComponentsExact:
    @pytest.mark.parametrize("gamma", [0.0, 0.04])
    def test_reduces_to_closed_form_as_gain_tends_to_one(self, gamma):
        # With g -> 1 the spread of the bounce count no longer matters for
        # g^B. The cross part is pinned only through the sum: at fixed gamma
        # its onset keeps the discrete first-bounce factor 1 - rho in place
        # of -ln(rho), about 0.19 dB at gamma = 0.04, whatever g.
        p = make_params(
            PolGain(0.7, 0.2), PolGain(0.1, 0.8), material=WallMaterial(0.99, gamma)
        )
        tau = np.linspace(2e-9, 200e-9, 199)
        co_exact, cross_exact = pds_components_exact(tau, p)
        co, cross = pds_components(tau, p)
        assert np.max(np.abs(10 * np.log10(co_exact / co))) <= 0.05
        total = (co_exact + cross_exact) / (co + cross)
        assert np.max(np.abs(10 * np.log10(total))) <= 0.05
        if gamma == 0.0:
            npt.assert_array_equal(cross_exact, np.zeros_like(tau))

    def test_mean_bounce_count_is_c_s_tau_over_4v(self):
        # Both models share E[B] = c S tau / 4V, so at g = 0.999 they differ
        # only by (ln g)^2 Var(B) / 2, about 5e-6 out to 200 ns. A 1% error
        # in the direction average would show as ~1e-4.
        p = make_params(PolGain(1, 0), PolGain(1, 0), material=WallMaterial(0.999, 0.0))
        tau = np.linspace(2e-9, 200e-9, 199)
        npt.assert_allclose(
            pds_components_exact(tau, p)[0], pds_components(tau, p)[0], rtol=2e-5
        )

    def test_exceeds_mean_count_decay(self):
        # E[g^B] > g^E[B] (Jensen) at every positive delay
        p = make_params(PolGain(1, 0), PolGain(1, 0), material=WallMaterial(0.4, 0.0))
        tau = np.linspace(1e-9, 60e-9, 60)
        co_exact, _ = pds_components_exact(tau, p)
        co, _ = pds_components(tau, p)
        assert np.all(co_exact > co)

    def test_zero_and_negative_delays(self):
        p = split_params(0.1)
        assert pds_components_exact(-1e-9, p) == (0.0, 0.0)
        co, cross = pds_components_exact(np.array([-2e-9, -1e-12, 0.0]), p)
        npt.assert_array_equal(co[:2], [0.0, 0.0])
        npt.assert_array_equal(cross, [0.0, 0.0, 0.0])
        # no image has bounced yet at zero delay, so B = 0 exactly
        assert co[2] == pytest.approx(pds_components(0.0, p)[0], rel=1e-12)

    def test_reciprocity_under_gain_swap(self):
        mu_a, mu_b = PolGain(0.7, 0.2), PolGain(0.1, 0.8)
        tau = np.linspace(1e-10, 50e-9, 97)
        npt.assert_array_equal(
            pds_components_exact(tau, make_params(mu_a, mu_b)),
            pds_components_exact(tau, make_params(mu_b, mu_a)),
        )


def bounce_expectation(tau, room, x):
    """Reference E[x^B | tau]: prod_i x^floor(s_i) (1 - f_i + f_i x) per direction.

    The form the exact model used before the count table, averaged with
    the same octant rule.
    """
    u, weights = _octant_directions()
    dims = np.array([room.lx, room.ly, room.lz])
    s = np.asarray(tau)[:, None, None] * (SPEED_OF_LIGHT * u / dims[:, None])[None]
    whole = np.floor(s)
    frac = s - whole
    return (x ** whole.sum(axis=1) * np.prod(1.0 - frac * (1.0 - x), axis=1)) @ weights


class TestBounceCountTable:
    @settings(max_examples=60, deadline=None)
    @given(
        sides=st.tuples(*[st.floats(1.0, 10.0)] * 3),
        tau=st.lists(st.floats(0.0, 100e-9), min_size=1, max_size=20),
        x=st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(sides=(1.0, 1.0, 1.0), tau=[100e-9, 0.0], x=1e-300)
    def test_rows_are_count_distributions(self, sides, tau, x):
        room = RoomGeometry(*sides)
        table = bounce_count_table(np.array(tau), room)
        assert table.shape[0] == len(tau)
        assert np.all(table >= 0.0)
        npt.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        # atol only absorbs the subnormal range, where x^k keeps few bits
        moments = table @ x ** np.arange(table.shape[1])
        npt.assert_allclose(moments, bounce_expectation(tau, room, x), rtol=1e-12, atol=1e-300)

    def test_zero_delay_row_is_the_unit_vector(self):
        table = bounce_count_table(np.array([0.0, 20e-9, 0.0]), ROOM)
        for row in table[[0, 2]]:
            assert row[0] == pytest.approx(1.0, abs=1e-14)
            npt.assert_array_equal(row[1:], 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_delays_are_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bounce_count_table(np.array([0.0, bad]), ROOM)

    def test_oversized_table_is_refused_before_it_is_built(self):
        # one 1 ms delay needs about 160k bounce counts; 70 such rows pass 1e7 cells
        with pytest.raises(ValueError, match=r"largest delay 0\.001 s: 70 delays need more"):
            bounce_count_table(np.full(70, 1e-3), ROOM)
        assert bounce_count_table(np.array([1e-3]), ROOM).shape[1] > 150_000


class TestCoCrossRatio:
    def test_large_delay_limit_is_antenna_prefactor(self):
        p = split_params(0.1)
        t_mix = mixing_time(ROOM, MAT)
        assert co_cross_ratio(100.0 * t_mix, p) == pytest.approx(0.82 / 0.18, rel=1e-9)
        assert co_cross_ratio(100.0 * t_mix, p) == pytest.approx(4.5556, rel=1e-4)

    def test_small_delay_divergence(self):
        p = split_params(0.1)
        assert co_cross_ratio(1e-15, p) > 1e6

    def test_strictly_decreasing(self):
        p = split_params(0.1)
        t_rev = reverberation_time(ROOM, MAT)
        tau = np.geomspace(0.01 * t_rev, 20.0 * t_rev, 200)
        ratios = co_cross_ratio(tau, p)
        assert np.all(np.diff(ratios) < 0)

    def test_product_with_tanh_is_constant(self):
        p = split_params(0.1)
        t_mix = mixing_time(ROOM, MAT)
        tau = np.geomspace(1e-10, 200e-9, 40)
        product = co_cross_ratio(tau, p) * np.tanh(tau / (2.0 * t_mix))
        npt.assert_allclose(product, np.full_like(tau, 0.82 / 0.18), rtol=1e-12)

    def test_degenerate_cases(self):
        assert co_cross_ratio(1e-9, split_params(0.0)) == math.inf
        p_no_mix = split_params(0.1, material=WallMaterial(0.4, 0.0))
        assert co_cross_ratio(1e-9, p_no_mix) == math.inf
        with pytest.raises(ValueError):
            co_cross_ratio(0.0, split_params(0.1))


class TestCpr:
    def test_no_leakage_is_infinite(self):
        assert cpr(split_params(0.1, material=WallMaterial(0.4, 0.0))) == math.inf

    def test_perfect_isolation_is_infinite(self):
        assert cpr(split_params(0.0)) == math.inf

    def test_reference_value(self):
        assert cpr(split_params(0.1)) == pytest.approx(108.9, rel=1e-3)

    def test_full_mixing_approaches_prefactor(self):
        # the mixing constant decays like 1/|ln(1 - gamma)|, so the limit is
        # approached slowly; check monotone approach and a 10% endpoint
        gammas = (0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12)
        values = [cpr(split_params(0.1, material=WallMaterial(0.4, g))) for g in gammas]
        prefactor = 0.82 / 0.18
        assert all(a > b > prefactor for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(prefactor, rel=0.1)

    @pytest.mark.parametrize("g", [0.2, 0.4, 0.6])
    @pytest.mark.parametrize("gamma", [0.01, 0.04, 0.2])
    @pytest.mark.parametrize("xi", [0.0, 0.05, 0.25])
    def test_matches_quadrature_within_a_tenth_percent(self, g, gamma, xi):
        p = split_params(xi, material=WallMaterial(g, gamma))
        closed = cpr(p)
        oracle = integrate_cpr(p)
        if math.isinf(closed):
            assert math.isinf(oracle)
        else:
            assert closed == pytest.approx(oracle, rel=1e-3)


    def test_exact_uniform_cpr_exceeds_the_closed_form(self):
        # One material-free table, integrated to m_k = int P(B = k | tau) dtau,
        # serves every g: co/cross = (k_co/k_cross) sum m_k g^k (1 + rho^k) /
        # sum m_k g^k (1 - rho^k). 40 T(0.7) leaves e^-40 of the power out.
        gamma, gs = 0.04, (0.3, 0.4, 0.5, 0.7)
        tau = np.linspace(0.0, 40.0 * reverberation_time(ROOM, WallMaterial(0.7, gamma)), 4001)
        m = trapezoid(bounce_count_table(tau, ROOM), tau, axis=0)
        k = np.arange(m.size)
        rho_k = ((1.0 - gamma) / (1.0 + gamma)) ** k
        gaps = []
        for g in gs:
            p = split_params(0.1, material=WallMaterial(g, gamma))
            weights = m * g**k
            exact = (0.82 / 0.18) * (weights @ (1.0 + rho_k)) / (weights @ (1.0 - rho_k))
            gaps.append(10.0 * math.log10(exact / cpr(p)))
        print("exact uniform CPR minus model.cpr, dB:",
              ", ".join(f"g={g}: {gap:.2f}" for g, gap in zip(gs, gaps)))
        assert all(gap > 0.0 for gap in gaps)
        # the count variance matters less as g -> 1
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestAsymptote:
    def test_vertical_antennas_asymptote(self):
        p = make_params(PolGain(1, 0), PolGain(1, 0))
        tau = np.linspace(0.0, 60e-9, 61)
        t_rev = reverberation_time(ROOM, MAT)
        expected = SPEED_OF_LIGHT * LAM**2 * np.exp(-tau / t_rev) / (2 * 36.0)
        npt.assert_allclose(pds_asymptote(tau, p), expected, rtol=1e-14)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            pds_asymptote(-1e-9, split_params(0.1))

    def test_convergence_by_five_mixing_times(self):
        p = make_params(PolGain(1, 0), PolGain(1, 0))
        t_mix = mixing_time(ROOM, MAT)
        tau = np.linspace(5.0 * t_mix, 12.0 * t_mix, 50)
        gap_db = 10.0 * np.log10(pds(tau, p) / pds_asymptote(tau, p))
        assert np.all(np.abs(gap_db) <= 0.05)

    def test_instant_mixing_collapses_onto_asymptote(self):
        p = split_params(0.1, material=WallMaterial(0.4, 1.0 - 1e-12))
        tau = np.linspace(8e-9, 40e-9, 400)  # beyond ~22 mixing times
        npt.assert_allclose(pds(tau, p), pds_asymptote(tau, p), rtol=1e-9)


class TestConditional:
    COND = DistanceCondition(distance=1.8, los=True)

    def test_nlos_is_zero_before_direct_delay(self):
        p = make_params(PolGain(1, 0), PolGain(1, 0))
        cond = DistanceCondition(distance=1.8, los=False)
        direct = 1.8 / SPEED_OF_LIGHT
        tau = np.array([0.0, 0.5 * direct, direct])
        npt.assert_array_equal(pds_conditional(tau, p, cond), np.zeros(3))
        assert direct_path(p, cond) is None

    def test_nlos_matches_unconditioned_beyond_direct_delay(self):
        p = split_params(0.1)
        cond = DistanceCondition(distance=1.8, los=False)
        tau = np.linspace(10e-9, 60e-9, 100)
        npt.assert_array_equal(pds_conditional(tau, p, cond), pds(tau, p))

    def test_los_spike_descriptor(self):
        p = make_params(PolGain(1, 0), PolGain(1, 0))
        spike = direct_path(p, self.COND)
        assert spike.delay == pytest.approx(1.8 / 2.99792458e8, rel=1e-12)
        assert spike.delay == pytest.approx(6.005e-9, rel=1e-3)
        assert spike.weight == pytest.approx(LAM**2 / (4 * math.pi * 1.8**2), rel=1e-12)
        assert spike.weight == pytest.approx(6.140e-7, rel=1e-3)

    def test_without_condition_is_the_unconditioned_spectrum(self):
        p = split_params(0.1)
        tau = np.linspace(-5e-9, 60e-9, 131)
        npt.assert_array_equal(pds_conditional(tau, p, None), pds(tau, p))
        assert pds_conditional(3e-9, p, None) == pds(3e-9, p)
        assert direct_path(p, None) is None

    def test_spike_scales_with_co_product(self):
        p = split_params(0.1)
        spike = direct_path(p, self.COND)
        assert spike.weight == pytest.approx(
            0.82 * LAM**2 / (4 * math.pi * 1.8**2), rel=1e-12
        )


class TestCprDistance:
    def test_small_distance_recovers_unconditioned_cpr(self):
        p = split_params(0.1)
        cond = DistanceCondition(distance=1e-9, los=False)
        assert cpr_distance(p, cond) == pytest.approx(cpr(p), rel=1e-9)

    def test_large_distance_tends_to_prefactor(self):
        p = split_params(0.1)
        cond = DistanceCondition(distance=500.0, los=False)
        assert cpr_distance(p, cond) == pytest.approx(0.82 / 0.18, rel=1e-6)

    @pytest.mark.parametrize("d", [0.5, 1.35, 1.8, 3.3])
    @pytest.mark.parametrize("los", [False, True])
    def test_matches_quadrature_within_half_percent(self, d, los):
        p = split_params(0.1)
        cond = DistanceCondition(distance=d, los=los)
        assert cpr_distance(p, cond) == pytest.approx(
            integrate_cpr_distance(p, cond), rel=5e-3
        )

    @settings(max_examples=300, deadline=None)
    @given(
        g=st.floats(0.2, 0.7),
        gamma=st.floats(0.01, 0.3),
        xi=st.floats(0.01, 0.3),
        d=st.floats(0.2, 5.0),
        los=st.booleans(),
    )
    def test_matches_quadrature_over_random_parameters(self, g, gamma, xi, d, los):
        p = split_params(xi, material=WallMaterial(g, gamma))
        cond = DistanceCondition(distance=d, los=los)
        assert cpr_distance(p, cond) == pytest.approx(
            integrate_cpr_distance(p, cond), rel=5e-3
        )

    def test_line_of_sight_beyond_the_exponent_range_is_infinite(self):
        # e^(d/(cT)) overflows beyond d ~ 709 c T (about 1.7 km at g = 0.4)
        p = split_params(0.1)
        c_t = SPEED_OF_LIGHT * reverberation_time(p.room, p.material)
        assert math.isfinite(cpr_distance(p, DistanceCondition(700.0 * c_t, los=True)))
        assert cpr_distance(p, DistanceCondition(2000.0, los=True)) == math.inf
        nlos = cpr_distance(p, DistanceCondition(2000.0, los=False))
        assert nlos == pytest.approx(0.82 / 0.18, rel=1e-9)

    def test_infinite_without_leakage_or_cross_gain(self):
        cond = DistanceCondition(distance=1.8, los=True)
        assert cpr_distance(split_params(0.0), cond) == math.inf
        p = split_params(0.1, material=WallMaterial(0.4, 0.0))
        assert cpr_distance(p, cond) == math.inf
