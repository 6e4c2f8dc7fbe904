import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roompol import (
    PolGain,
    RoomGeometry,
    SimConfig,
    WallMaterial,
    enumerate_images,
    simulate_pdp,
)
from roompol.mirror import _CHUNK, _axis_images, _sample_fixed, _sample_uniform
from roompol.model import SPEED_OF_LIGHT

ROOM = RoomGeometry(3.0, 4.0, 3.0)
MAT = WallMaterial(g=0.4, gamma=0.04)
LAM = 5e-3
V_MU = PolGain(1.0, 0.0)


def count_plane_crossings(image_pos, rx, dims):
    """Independent bounce oracle: wall-plane crossings of the straight segment."""
    total = 0
    for axis, length in enumerate(dims):
        a, b = sorted((image_pos[axis], rx[axis]))
        m_lo = math.floor(a / length) + 1
        m_hi = math.ceil(b / length) - 1
        total += max(0, m_hi - m_lo + 1)
    return total


def full_cube_pdp(room, material, mu_t, mu_r, wavelength, cfg):
    """Reference: simulate_pdp over every cell of the unpruned image cube.

    Same placements, chunking and arithmetic as the simulator, but the
    distance, delay and mask are formed densely over the whole cube; returns
    the co and cross bin values.
    """
    c = SPEED_OF_LIGHT
    dims = np.array([room.lx, room.ly, room.lz])
    n_bins = int(round(cfg.max_delay / cfg.bin_width))
    per_axis = [_axis_images(l, c * cfg.max_delay) for l in dims]
    bx, by, bz = np.meshgrid(*(a[2] for a in per_axis), indexing="ij")
    bounces = (bx + by + bz).ravel()
    dx, dy, dz = np.meshgrid(*(a[3] for a in per_axis), indexing="ij")
    is_direct = (dx & dy & dz).ravel()

    g, gamma = material.g, material.gamma
    lam2_pow = ((1.0 - gamma) / (1.0 + gamma)) ** bounces
    g_pow = g**bounces.astype(float)
    k_co = mu_r.mu_theta * mu_t.mu_theta + mu_r.mu_phi * mu_t.mu_phi
    k_cross = mu_r.mu_theta * mu_t.mu_phi + mu_r.mu_phi * mu_t.mu_theta
    mix_co = 0.5 * (k_co * (1.0 + lam2_pow) + k_cross * (1.0 - lam2_pow))
    mix_cross = 0.5 * (k_cross * (1.0 + lam2_pow) + k_co * (1.0 - lam2_pow))
    keep_img = np.ones(bounces.size, dtype=bool)
    if cfg.placement == "fixed" and not cfg.los:
        keep_img &= ~is_direct

    acc_co = np.zeros(n_bins)
    acc_cross = np.zeros(n_bins)
    n_chunks = (cfg.n_realizations + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(n_chunks)
    remaining = cfg.n_realizations
    for seed_seq in seeds:
        n = min(_CHUNK, remaining)
        remaining -= n
        rng = np.random.default_rng(seed_seq)
        if cfg.placement == "uniform":
            tx, rx = _sample_uniform(rng, n, dims)
        else:
            tx, rx = _sample_fixed(rng, n, dims, cfg.distance)
        d2 = None
        for i, (off, sign, _, _) in enumerate(per_axis):
            coord = off[None, :] + sign[None, :] * tx[:, i : i + 1]
            sq = (coord - rx[:, i : i + 1]) ** 2
            if i == 0:
                d2 = sq[:, :, None, None]
            elif i == 1:
                d2 = d2 + sq[:, None, :, None]
            else:
                d2 = d2 + sq[:, None, None, :]
        d2 = d2.reshape(n, -1)
        tau = np.sqrt(d2) / c
        mask = (tau < cfg.max_delay) & (d2 > 0.0) & keep_img[None, :]
        w = wavelength * wavelength / (4.0 * np.pi * d2[mask])
        attn = np.broadcast_to(g_pow, d2.shape)[mask] * w
        idx = (tau[mask] / cfg.bin_width).astype(np.int64)
        acc_co += np.bincount(
            idx, weights=attn * np.broadcast_to(mix_co, d2.shape)[mask], minlength=n_bins
        )
        acc_cross += np.bincount(
            idx, weights=attn * np.broadcast_to(mix_cross, d2.shape)[mask], minlength=n_bins
        )
    norm = cfg.n_realizations * cfg.bin_width
    return acc_co / norm, acc_cross / norm


class TestEnumerateImages:
    def test_contains_the_transmitter_with_zero_bounces(self):
        tx = np.array([1.0, 2.0, 1.5])
        lattice = enumerate_images(ROOM, reach=6.0)
        zero = lattice.positions(tx)[lattice.bounces == 0]
        assert len(zero) == 1
        npt.assert_array_equal(zero[0], tx)

    def test_single_mirror_in_nearest_wall(self):
        tx = np.array([1.0, 2.0, 1.5])
        lattice = enumerate_images(ROOM, reach=6.0)
        match = np.all(np.isclose(lattice.positions(tx), [-1.0, 2.0, 1.5], atol=1e-12), axis=1)
        assert match.sum() == 1 and lattice.bounces[match][0] == 1

    def test_image_density_matches_reciprocal_room_volume(self):
        radius = 10.0 * ROOM.volume() ** (1.0 / 3.0)
        tx = np.array([1.0, 2.0, 1.5])
        center = np.array([1.5, 2.0, 1.5])
        lattice = enumerate_images(ROOM, reach=radius + ROOM.diagonal())
        inside = np.count_nonzero(
            np.linalg.norm(lattice.positions(tx) - center, axis=1) <= radius
        )
        expected = 4.0 / 3.0 * math.pi * radius**3 / ROOM.volume()
        assert inside == pytest.approx(expected, rel=0.05)

    def test_bounce_counts_match_plane_crossing_oracle(self):
        rng = np.random.default_rng(11)
        dims = (ROOM.lx, ROOM.ly, ROOM.lz)
        lattice = enumerate_images(ROOM, reach=9.0)
        checked = 0
        for _ in range(10):
            tx = rng.uniform(0.05, 0.95, 3) * dims
            rx = rng.uniform(0.05, 0.95, 3) * dims
            positions = lattice.positions(tx)
            pick = rng.choice(len(positions), size=10, replace=False)
            for idx in pick:
                assert lattice.bounces[idx] == count_plane_crossings(positions[idx], rx, dims)
                checked += 1
        assert checked == 100

    def test_rejects_transmitter_outside_or_on_a_wall(self):
        lattice = enumerate_images(ROOM, reach=5.0)
        with pytest.raises(ValueError, match="strictly inside"):
            lattice.positions(np.array([3.0, 2.0, 1.5]))
        with pytest.raises(ValueError, match="strictly inside"):
            lattice.positions(np.array([-0.1, 2.0, 1.5]))
        with pytest.raises(ValueError, match="reach"):
            enumerate_images(ROOM, reach=0.0)


@st.composite
def _room_reach_and_placement(draw):
    dims = np.array([draw(st.floats(0.5, 8.0)) for _ in range(3)])
    reach = draw(st.floats(0.05, 4.0)) * dims.min()
    unit = st.floats(1e-6, 1.0 - 1e-6)
    tx = np.array([draw(unit) for _ in range(3)]) * dims
    rx = np.array([draw(unit) for _ in range(3)]) * dims
    return dims, reach, tx, rx


class TestReachPruning:
    @settings(max_examples=200, deadline=None)
    @given(_room_reach_and_placement())
    def test_keeps_every_image_closer_than_reach(self, case):
        dims, reach, tx, rx = case
        lattice = enumerate_images(RoomGeometry(*dims), reach)
        per_axis = [_axis_images(l, reach) for l in dims]
        dist = [(off + sign * tx[i] - rx[i]) ** 2 for i, (off, sign, _, _) in enumerate(per_axis)]
        near = dist[0][:, None, None] + dist[1][None, :, None] + dist[2][None, None, :] < reach**2
        kept = np.zeros(near.shape, dtype=bool)
        kept[lattice.cells] = True
        assert not np.any(near & ~kept)

    @pytest.mark.parametrize(
        "delay_ns, full, kept", [(31, 1859, 323), (40, 1859, 483), (53, 3757, 1041)]
    )
    def test_kept_cell_counts(self, delay_ns, full, kept):
        reach = SPEED_OF_LIGHT * delay_ns * 1e-9
        dims = (ROOM.lx, ROOM.ly, ROOM.lz)
        assert math.prod(_axis_images(l, reach)[0].size for l in dims) == full
        assert enumerate_images(ROOM, reach).bounces.size == kept

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(placement="fixed", distance=1.8, los=True),
            dict(placement="fixed", distance=1.8, los=False),
        ],
        ids=["uniform", "fixed_los", "fixed_nlos"],
    )
    def test_bins_are_bit_identical_to_the_full_cube(self, kw):
        cfg = SimConfig(
            n_realizations=3000, bin_width=1e-9, max_delay=31e-9, rng_seed=5, **kw
        )
        mu_r = PolGain.from_split(0.3)
        co, cross = simulate_pdp(ROOM, MAT, V_MU, mu_r, LAM, cfg)
        ref_co, ref_cross = full_cube_pdp(ROOM, MAT, V_MU, mu_r, LAM, cfg)
        assert np.array_equal(co.values, ref_co)
        assert np.array_equal(cross.values, ref_cross)


class TestSimConfig:
    def test_rejects_inconsistent_delay_settings(self):
        with pytest.raises(ValueError, match="max_delay"):
            SimConfig(n_realizations=10, bin_width=2e-9, max_delay=1e-9)
        with pytest.raises(ValueError, match="bin_width"):
            SimConfig(n_realizations=10, bin_width=0.0, max_delay=1e-9)
        with pytest.raises(ValueError, match="integer multiple"):
            SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10.5e-9)
        with pytest.raises(ValueError, match="n_realizations"):
            SimConfig(n_realizations=0, bin_width=1e-9, max_delay=10e-9)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="max_delay.*finite"):
                SimConfig(n_realizations=1, bin_width=1e-9, max_delay=bad)
            with pytest.raises(ValueError, match="bin_width.*finite"):
                SimConfig(n_realizations=1, bin_width=bad, max_delay=10e-9)

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="placement"):
            SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10e-9, placement="grid")
        with pytest.raises(ValueError, match="positive distance"):
            SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10e-9, placement="fixed")
        with pytest.raises(ValueError, match="only meaningful"):
            SimConfig(
                n_realizations=10, bin_width=1e-9, max_delay=10e-9,
                placement="uniform", distance=1.0,
            )

    def test_unreachable_fixed_distance_is_rejected(self):
        cfg = SimConfig(
            n_realizations=10, bin_width=1e-9, max_delay=10e-9,
            placement="fixed", distance=ROOM.diagonal() + 0.1,
        )
        with pytest.raises(ValueError, match="admits no placement"):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)

    @pytest.mark.parametrize("wavelength", [0.0, -5e-3])
    def test_rejects_nonpositive_wavelength(self, wavelength):
        cfg = SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10e-9)
        with pytest.raises(ValueError, match=r"wavelength must be > 0, got"):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, wavelength, cfg)


class TestSimulate:
    def small_cfg(self, **kw):
        base = dict(n_realizations=4000, bin_width=1e-9, max_delay=20e-9, rng_seed=3)
        base.update(kw)
        return SimConfig(**base)

    def test_trace_layout(self):
        co, cross = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, self.small_cfg())
        assert co.scale == "linear" and cross.scale == "linear"
        npt.assert_allclose(co.delays, (np.arange(20) + 0.5) * 1e-9, rtol=1e-12)

    def test_deterministic_for_fixed_seed(self):
        a = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, self.small_cfg())
        b = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, self.small_cfg())
        npt.assert_array_equal(a[0].values, b[0].values)
        npt.assert_array_equal(a[1].values, b[1].values)

    # Two chunks for uniform placement; three for NLOS, where the sum over
    # partials also depends on the order in which they are added.
    @pytest.mark.parametrize(
        "kw",
        [dict(), dict(n_realizations=5000, placement="fixed", distance=1.8, los=False)],
        ids=["uniform", "fixed_nlos"],
    )
    def test_worker_count_does_not_change_results(self, kw):
        cfg = self.small_cfg(**kw)
        assert cfg.n_realizations > _CHUNK
        serial = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        parallel = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg, workers=2)
        npt.assert_array_equal(serial[0].values, parallel[0].values)
        npt.assert_array_equal(serial[1].values, parallel[1].values)

    def test_no_leakage_gives_zero_cross_channel(self):
        mat = WallMaterial(g=0.4, gamma=0.0)
        co, cross = simulate_pdp(ROOM, mat, V_MU, V_MU, LAM, self.small_cfg())
        assert np.all(cross.values == 0.0)
        assert np.any(co.values > 0.0)

    def test_nlos_bins_before_direct_delay_are_empty(self):
        cfg = self.small_cfg(
            n_realizations=20000, placement="fixed", distance=1.8, los=False,
        )
        co, cross = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        direct_delay = 1.8 / SPEED_OF_LIGHT
        early = co.delays < direct_delay
        assert np.all(co.values[early] == 0.0)
        assert np.all(cross.values[early] == 0.0)
        assert np.any(co.values[~early] > 0.0)

    def test_los_minus_nlos_is_exactly_the_direct_arrival(self):
        kw = dict(n_realizations=3000, placement="fixed", distance=1.8)
        los_co, los_cross = simulate_pdp(
            ROOM, MAT, V_MU, V_MU, LAM, self.small_cfg(los=True, **kw)
        )
        nlos_co, nlos_cross = simulate_pdp(
            ROOM, MAT, V_MU, V_MU, LAM, self.small_cfg(los=False, **kw)
        )
        diff = los_co.values - nlos_co.values
        direct_bin = int(1.8 / SPEED_OF_LIGHT / 1e-9)
        expected = LAM**2 / (4 * math.pi * 1.8**2) / 1e-9
        assert diff[direct_bin] == pytest.approx(expected, rel=1e-12)
        others = np.delete(diff, direct_bin)
        npt.assert_array_equal(others, np.zeros(others.size))
        # vertical antennas leave the direct arrival co-polarized only
        npt.assert_array_equal(los_cross.values, nlos_cross.values)

    def test_standard_error_shrinks_as_root_n(self):
        def spread(n, seed0):
            runs = [
                simulate_pdp(
                    ROOM, MAT, V_MU, V_MU, LAM,
                    self.small_cfg(n_realizations=n, rng_seed=seed0 + i),
                )[0].values
                for i in range(8)
            ]
            per_bin = np.std(np.stack(runs), axis=0, ddof=1)
            window = slice(5, 18)
            return np.median(per_bin[window] / np.mean(np.stack(runs), axis=0)[window])

        ratio = spread(5000, 100) / spread(2500, 0)
        assert 0.5 < ratio < 0.95

    def test_smoothed_trace_decays_beyond_the_peak(self):
        cfg = self.small_cfg(n_realizations=30000, max_delay=30e-9)
        co, _ = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        kernel = np.ones(5) / 5.0
        smooth = np.convolve(co.values, kernel, mode="valid")
        peak = int(np.argmax(smooth))
        after = smooth[peak:]
        assert np.all(np.diff(after) <= 0.02 * after[:-1])

    def test_levels_agree_with_the_model_to_first_order(self):
        # coarse scale sanity (catches wrong spreading/normalization); the
        # tight bound lives in the acceptance suite
        cfg = SimConfig(n_realizations=60000, bin_width=1e-9, max_delay=40e-9, rng_seed=9)
        mu = PolGain.from_split(0.0)
        co, cross = simulate_pdp(ROOM, MAT, mu, mu, LAM, cfg)
        from roompol import PdsParams, pds

        p_co = PdsParams(room=ROOM, material=MAT, mu_t=mu, mu_r=mu, wavelength=LAM)
        p_cross = PdsParams(
            room=ROOM, material=MAT, mu_t=mu, mu_r=mu.swapped(), wavelength=LAM
        )
        window = (co.delays >= 2e-9) & (co.delays <= 40e-9)
        err_co = 10 * np.log10(co.values[window] / pds(co.delays[window], p_co))
        err_cross = 10 * np.log10(cross.values[window] / pds(co.delays[window], p_cross))
        assert np.max(np.abs(err_co)) < 2.5
        assert np.max(np.abs(err_cross)) < 4.0
