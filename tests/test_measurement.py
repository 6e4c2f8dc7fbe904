import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import trapezoid

from roompol import (
    SPEED_OF_LIGHT,
    DistanceCondition,
    ObservationParams,
    PdpTrace,
    PolGain,
    PulseShape,
    db_linear_convert,
    direct_path,
    observed_pds,
    pds_conditional,
    reverberation_time,
)
from roompol import measurement
from roompol.measurement import from_db, observed_values, sounding, to_db

from _support import COND, MAT, ROOM, make_params, split_params


class TestPulse:
    @pytest.mark.parametrize("kind", ["boxcar", "gaussian"])
    @pytest.mark.parametrize("bandwidth", [0.5e9, 1e9, 4e9])
    @pytest.mark.parametrize("divisor", [4.0, 7.3, 16.0])
    def test_discrete_taps_have_unit_energy(self, kind, bandwidth, divisor):
        pulse = PulseShape(kind=kind, bandwidth=bandwidth)
        spacing = 1.0 / (divisor * bandwidth)
        taps = sounding(np.arange(8) * spacing, pulse).taps
        assert taps.sum() * spacing == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind", ["boxcar", "gaussian"])
    def test_continuous_profile_has_unit_energy(self, kind):
        pulse = PulseShape(kind=kind, bandwidth=2e9)
        t = np.linspace(-4.0 * pulse.half_support(), 4.0 * pulse.half_support(), 200_001)
        assert trapezoid(pulse.power_profile(t), t) == pytest.approx(1.0, rel=1e-6)

    def test_rejects_unknown_kind_and_bad_bandwidth(self):
        with pytest.raises(ValueError, match="kind"):
            PulseShape(kind="triangle", bandwidth=1e9)
        with pytest.raises(ValueError, match="bandwidth"):
            PulseShape(kind="boxcar", bandwidth=0.0)

    def test_rejects_negative_noise_power(self):
        with pytest.raises(ValueError, match="noise power"):
            ObservationParams(pulse=PulseShape(), noise_power=-1e-12)

    @pytest.mark.parametrize("bandwidth", [math.inf, math.nan])
    def test_rejects_non_finite_bandwidth(self, bandwidth):
        with pytest.raises(ValueError, match="pulse bandwidth must be"):
            PulseShape(kind="boxcar", bandwidth=bandwidth)

    @pytest.mark.parametrize("noise", [math.inf, math.nan])
    def test_rejects_non_finite_noise_power(self, noise):
        with pytest.raises(ValueError, match="noise power must be finite and >= 0"):
            ObservationParams(pulse=PulseShape(), noise_power=noise)

    @pytest.mark.parametrize("spacing", [0.0, -1e-10, math.nan, math.inf])
    def test_taps_reject_a_nonpositive_spacing(self, spacing):
        # the taps' step is the grid's, so the grid rule refuses it
        message = "strictly increasing" if math.isfinite(spacing) else "delays must be finite"
        with pytest.raises(ValueError, match=message):
            sounding(np.array([0.0, spacing, 2.0 * spacing]), PulseShape())

    def test_pulse_too_wide_for_the_grid_is_rejected_before_tabulation(self):
        with pytest.raises(ValueError, match="pulse bandwidth 1e-300 Hz needs more than 10000000"):
            sounding(np.arange(2) * 0.5e-9, PulseShape(kind="gaussian", bandwidth=1e-300))

    def test_tap_cap_is_exact(self, monkeypatch):
        # a boxcar of bandwidth 1/8 on a unit grid reaches exactly 4 steps each side
        pulse = PulseShape(kind="boxcar", bandwidth=0.125)
        monkeypatch.setattr(measurement, "_MAX_CELLS", 4)
        s = sounding(np.arange(5.0), pulse)
        assert s.taps.size == 11
        # the extended grid holds the 5 samples and the 5 outside each end
        npt.assert_array_equal(s.ext, np.arange(-5.0, 10.0))
        monkeypatch.setattr(measurement, "_MAX_CELLS", 3)
        with pytest.raises(ValueError, match="more than 3 taps"):
            sounding(np.arange(5.0), pulse)


class TestObservedPds:
    def test_rejects_grid_coarser_than_pulse_resolution(self):
        grid = np.arange(0.0, 40e-9, 0.5e-9)
        obs = ObservationParams(pulse=PulseShape("boxcar", 4e9), noise_power=0.0)
        with pytest.raises(ValueError, match="too coarse"):
            observed_pds(grid, split_params(0.0), None, obs)

    @pytest.fixture
    def no_density(self, monkeypatch):
        # a grid is refused by PdpTrace's rule before any density is evaluated
        def refuse(*args):
            raise AssertionError("density evaluated before the grid was checked")

        monkeypatch.setattr(measurement, "pds_conditional", refuse)

    @pytest.mark.parametrize("grid", [np.zeros((2, 4)), np.zeros(1), np.float64(0.0)],
                             ids=["2-d", "one-sample", "scalar"])
    def test_rejects_grid_that_is_not_a_1d_array_of_two_samples(self, no_density, grid):
        obs = ObservationParams(pulse=PulseShape("boxcar", 1e9), noise_power=0.0)
        with pytest.raises(ValueError, match="one-dimensional with at least two samples"):
            observed_pds(grid, split_params(0.0), None, obs)

    @pytest.mark.parametrize(
        "grid, message",
        [
            (np.arange(10.0, 0.0, -0.5) * 1e-9, "delays must be strictly increasing"),
            (np.array([0.0, 0.2, 0.5, 0.7]) * 1e-9, "delay grid must be uniformly spaced"),
            (np.array([0.0, 0.2, math.nan, 0.6]) * 1e-9, "delays must be finite"),
            (np.array([0.0, 0.2, 0.4, math.inf]) * 1e-9, "delays must be finite"),
        ],
        ids=["decreasing", "non-uniform", "nan", "inf"],
    )
    def test_rejects_grid_that_pdp_trace_refuses(self, no_density, grid, message):
        obs = ObservationParams(pulse=PulseShape("boxcar", 1e9), noise_power=0.0)
        with pytest.raises(ValueError, match=message):
            PdpTrace(delays=grid, values=np.zeros_like(grid))
        with pytest.raises(ValueError, match=message):
            observed_pds(grid, split_params(0.0), None, obs)

    def test_high_bandwidth_limit_tracks_the_density(self):
        # widest admissible pulse relative to the grid still spans only
        # ~0.2 ns, far below the decay scale, so the trace follows the
        # density away from the onset step
        grid = np.arange(0.0, 40e-9, 0.05e-9)
        obs = ObservationParams(pulse=PulseShape("boxcar", 5e9), noise_power=0.0)
        p = split_params(0.0)
        trace = observed_pds(grid, p, COND, obs)
        diffuse = pds_conditional(grid, p, COND)
        onset = 1.8 / SPEED_OF_LIGHT
        beyond = grid > onset + 0.5e-9
        npt.assert_allclose(trace.values[beyond], diffuse[beyond], rtol=2e-4)
        before = grid < onset - 0.5e-9
        npt.assert_array_equal(trace.values[before], np.zeros(int(before.sum())))

    def test_flattens_onto_noise_floor(self):
        grid = np.arange(0.0, 350e-9, 0.25e-9)
        obs = ObservationParams(pulse=PulseShape("boxcar", 1e9), noise_power=1e-12)
        trace = observed_pds(grid, split_params(0.0), None, obs)
        tail_db = 10.0 * np.log10(trace.values[-10:])
        npt.assert_allclose(tail_db, -120.0, atol=0.1)

    def test_total_energy_is_preserved(self):
        p = split_params(0.1)
        cond = DistanceCondition(distance=1.8, los=True)
        t_rev = reverberation_time(ROOM, MAT)
        step = 0.05e-9
        grid = np.arange(0.0, cond.distance / SPEED_OF_LIGHT + 20.0 * t_rev, step)
        noise = 1e-9
        obs = ObservationParams(pulse=PulseShape("boxcar", 4e9), noise_power=noise)
        trace = observed_pds(grid, p, cond, obs)
        diffuse = pds_conditional(grid, p, cond)
        lhs = np.sum(trace.values - noise) * step
        rhs = np.sum(diffuse) * step + direct_path(p, cond).weight
        assert lhs == pytest.approx(rhs, rel=1e-2)

    @pytest.mark.parametrize("kind", ["boxcar", "gaussian"])
    def test_convolution_is_linear(self, kind):
        # doubling both mean gains scales the density, the spike and so the
        # smeared values by 4, a power of two, so exactly
        s = sounding(np.arange(0.0, 30e-9, 0.1e-9), PulseShape(kind, 2e9))
        p = split_params(0.1)
        mu = PolGain(2.0 * p.mu_t.mu_theta, 2.0 * p.mu_t.mu_phi)
        doubled = make_params(mu, mu)
        for cond in (None, DistanceCondition(distance=1.8, los=True)):
            npt.assert_array_equal(observed_values(s, doubled, cond, 0.0),
                                   4.0 * observed_values(s, p, cond, 0.0))

    @pytest.mark.parametrize("kind", ["boxcar", "gaussian"])
    def test_direct_bump_shifts_with_the_grid(self, kind):
        p = split_params(0.1)
        step = 0.05e-9
        grid = np.arange(0.0, 40e-9, step)
        obs = ObservationParams(pulse=PulseShape(kind, 4e9), noise_power=0.0)
        shift = 7
        d1 = 1.8
        c = SPEED_OF_LIGHT
        d2 = d1 + shift * step * c
        bump = []
        for d in (d1, d2):
            cond = DistanceCondition(distance=d, los=True)
            with_spike = observed_pds(grid, p, cond, obs).values
            # NLOS at the same distance: the same gate, and no spike
            diffuse_only = observed_pds(grid, p, DistanceCondition(d, los=False), obs).values
            bump.append((with_spike - diffuse_only) / direct_path(p, cond).weight)
        # compare within the pulse support; outside it the bump is buried in
        # the float cancellation noise of the much larger diffuse term
        support = np.abs(grid - d1 / c) <= obs.pulse.half_support()
        npt.assert_allclose(
            bump[1][shift:][support[:-shift]],
            bump[0][:-shift][support[:-shift]],
            rtol=1e-9,
        )


class TestDbConversion:
    def test_reference_points(self):
        tr = PdpTrace(np.arange(2) * 1e-9, np.array([1.0, 1e-3]), "linear")
        out = db_linear_convert(tr, "db")
        npt.assert_allclose(out.values, [0.0, -30.0], atol=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-12, 3, 200)
        tr = PdpTrace(np.arange(200) * 1e-9, values, "linear")
        back = db_linear_convert(db_linear_convert(tr, "db"), "linear")
        npt.assert_allclose(back.values, values, rtol=1e-12)

    def test_zero_power_is_minus_inf_without_a_warning(self):
        # the suite turns RuntimeWarnings into errors, so a divide warning fails here
        npt.assert_array_equal(to_db(np.array([0.0, 1.0])), [-math.inf, 0.0])
        assert to_db(0.0) == -math.inf

    def test_helpers_round_trip(self):
        # the log's absolute rounding error is amplified by |level|, so the
        # 1e-15 bound holds within +-30 dB (about 4e-15 at -150 dB)
        values = 10.0 ** np.random.default_rng(11).uniform(-3, 3, 1000)
        npt.assert_allclose(from_db(to_db(values)), values, rtol=1e-15, atol=0)

    def test_trace_conversion_is_the_helpers(self):
        values = 10.0 ** np.random.default_rng(12).uniform(-12, 3, 200)
        tr = PdpTrace(np.arange(200) * 1e-9, values, "linear")
        db = db_linear_convert(tr, "db")
        npt.assert_array_equal(db.values, to_db(values))
        npt.assert_array_equal(db_linear_convert(db, "linear").values, from_db(db.values))

    def test_rejects_nonpositive_linear_to_db(self):
        # zero power is -inf dB, as `to_db` defines it, and converts back to 0;
        # a negative value (reassigned after construction) gives NaN, which
        # PdpTrace rejects
        tr = PdpTrace(np.arange(2) * 1e-9, np.array([0.0, 1.0]), "linear")
        db = db_linear_convert(tr, "db")
        npt.assert_array_equal(db.values, [-math.inf, 0.0])
        npt.assert_array_equal(db_linear_convert(db, "linear").values, [0.0, 1.0])
        tr.values[0] = -1.0
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            db_linear_convert(tr, "db")

    def test_rejects_unknown_target(self):
        tr = PdpTrace(np.arange(2) * 1e-9, np.array([1.0, 1.0]), "linear")
        with pytest.raises(ValueError, match="target scale"):
            db_linear_convert(tr, "bels")

    @pytest.mark.parametrize("scale", ["linear", "db"])
    def test_conversion_to_its_own_scale_is_a_copy(self, scale):
        tr = PdpTrace(np.arange(2) * 1e-9, np.array([1.0, 2.0]), scale)
        out = db_linear_convert(tr, scale)
        assert out.scale == scale
        npt.assert_array_equal(out.values, tr.values)
        out.values[0] = 5.0
        assert tr.values[0] == 1.0


class TestPdpTrace:
    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ValueError, match="uniform"):
            PdpTrace(np.array([0.0, 1e-9, 3e-9]), np.zeros(3), "linear")

    @pytest.mark.parametrize("delays", [[0.0, math.inf], [0.0, math.nan], [-math.inf, 0.0]])
    def test_rejects_non_finite_delays(self, delays):
        with pytest.raises(ValueError, match="delays must be finite"):
            PdpTrace(np.array(delays), np.zeros(2), "linear")

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            PdpTrace(np.array([0.0, 2e-9, 1e-9]), np.zeros(3), "linear")

    def test_rejects_negative_linear_values(self):
        with pytest.raises(ValueError, match="nonnegative"):
            PdpTrace(np.arange(3) * 1e-9, np.array([0.0, -1.0, 1.0]), "linear")

    def test_rejects_shape_mismatch_and_short_grid(self):
        with pytest.raises(ValueError, match="shape"):
            PdpTrace(np.arange(3) * 1e-9, np.zeros(4), "linear")
        with pytest.raises(ValueError, match="two samples"):
            PdpTrace(np.array([0.0]), np.zeros(1), "linear")

    @pytest.mark.parametrize("scale", ["linear", "db"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nan_and_positive_infinite_values(self, scale, bad):
        with pytest.raises(ValueError, match=r"trace values must not be NaN or \+inf"):
            PdpTrace(np.arange(3) * 1e-9, np.array([1.0, bad, 1.0]), scale)

    def test_db_values_may_be_negative_infinite(self):
        tr = PdpTrace(np.arange(2) * 1e-9, np.array([-math.inf, -30.0]), "db")
        assert tr.scale == "db"

    @pytest.mark.parametrize("scale", ["dB", "log", ""])
    def test_rejects_unknown_scale(self, scale):
        with pytest.raises(ValueError, match=rf"^scale must be one of \('linear', 'db'\), "
                                             rf"got {scale!r}$"):
            PdpTrace(np.arange(2) * 1e-9, np.zeros(2), scale)
