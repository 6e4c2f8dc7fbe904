import itertools
import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roompol import (
    DistanceCondition,
    PdpTrace,
    PolGain,
    RoomGeometry,
    SimConfig,
    WallMaterial,
    bounce_count_table,
    direct_path,
    enumerate_images,
    simulate_pdp,
)
from roompol import mirror
from roompol.mirror import _CHUNK, _axis_images, _sample_fixed, _sample_uniform
from roompol.model import SPEED_OF_LIGHT, _count_powers

from _support import LAM, MAT, ROOM, make_params, split_params

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


def lattice_cells(lattice):
    """Each cell's (x, y, z) mirror entries, rebuilt from the lattice's column layout."""
    col_x, col_y, col_size = lattice.columns
    return np.repeat(col_x, col_size), np.repeat(col_y, col_size), lattice.iz


def image_positions(lattice, tx):
    """Image positions, shape (..., n_cells, 3), of transmitters tx of shape (..., 3)."""
    tx = np.asarray(tx, dtype=float)[..., None, :]
    axes = zip(lattice.offsets, lattice.signs, lattice_cells(lattice))
    return np.stack([off[j] + sign[j] * tx[..., i] for i, (off, sign, j) in enumerate(axes)], -1)


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
    # the transmitter's own entry on each axis: offset 0, sign +1
    direct = [(off == 0) & (sign > 0) for off, sign, _ in per_axis]
    dx, dy, dz = np.meshgrid(*direct, indexing="ij")
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
        for i, (off, sign, _) in enumerate(per_axis):
            coord = off[None, :] + sign[None, :] * tx[:, i : i + 1]
            sq = (coord - rx[:, i : i + 1]) ** 2
            if i == 0:
                d2 = sq[:, :, None, None]
            elif i == 1:
                d2 = d2 + sq[:, None, :, None]
            else:
                d2 = d2 + sq[:, None, None, :]
        d2 = d2.reshape(n, -1)
        mask = (np.sqrt(d2) / c < cfg.max_delay) & (d2 > 0.0) & keep_img[None, :]
        w = wavelength * wavelength / (4.0 * np.pi * d2[mask])
        attn = np.broadcast_to(g_pow, d2.shape)[mask] * w
        idx = mirror._delay_bin(d2[mask], cfg.bin_width)
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
        zero = image_positions(lattice, tx)[lattice.bounces == 0]
        assert len(zero) == 1
        npt.assert_array_equal(zero[0], tx)

    def test_single_mirror_in_nearest_wall(self):
        tx = np.array([1.0, 2.0, 1.5])
        lattice = enumerate_images(ROOM, reach=6.0)
        images = image_positions(lattice, tx)
        match = np.all(np.isclose(images, [-1.0, 2.0, 1.5], atol=1e-12), axis=1)
        assert match.sum() == 1 and lattice.bounces[match][0] == 1

    def test_image_density_matches_reciprocal_room_volume(self):
        radius = 10.0 * ROOM.volume() ** (1.0 / 3.0)
        tx = np.array([1.0, 2.0, 1.5])
        center = np.array([1.5, 2.0, 1.5])
        lattice = enumerate_images(ROOM, reach=radius + ROOM.diagonal())
        inside = np.count_nonzero(
            np.linalg.norm(image_positions(lattice, tx) - center, axis=1) <= radius
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
            positions = image_positions(lattice, tx)
            pick = rng.choice(len(positions), size=10, replace=False)
            for idx in pick:
                assert lattice.bounces[idx] == count_plane_crossings(positions[idx], rx, dims)
                checked += 1
        assert checked == 100

    def test_rejects_a_nonpositive_or_infinite_reach(self):
        with pytest.raises(ValueError, match="reach must be > 0, got 0.0"):
            enumerate_images(ROOM, reach=0.0)
        with pytest.raises(ValueError, match="reach must be > 0 and finite, got inf"):
            enumerate_images(ROOM, reach=math.inf)

    def test_cube_cap_is_exact(self, monkeypatch):
        # 1859 cells at 31 ns (TestReachPruning.test_kept_cell_counts)
        reach = SPEED_OF_LIGHT * 31e-9
        monkeypatch.setattr(mirror, "_MAX_CELLS", 1859)
        assert enumerate_images(ROOM, reach).bounces.size == 323
        monkeypatch.setattr(mirror, "_MAX_CELLS", 1858)
        with pytest.raises(ValueError, match="lower max_delay"):
            enumerate_images(ROOM, reach)

    def test_long_reach_is_rejected_before_the_cube_is_built(self):
        # 100 us: a cube of about 6e12 cells, 44 TiB as float64
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"reach 2\.998e\+04 m .*lower max_delay"):
                enumerate_images(ROOM, SPEED_OF_LIGHT * 1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


@st.composite
def _room_reach_and_placement(draw):
    dims = np.array([draw(st.floats(0.5, 8.0)) for _ in range(3)])
    reach = draw(st.floats(0.05, 4.0)) * dims.min()
    unit = st.floats(1e-6, 1.0 - 1e-6)
    tx = np.array([draw(unit) for _ in range(3)]) * dims
    rx = np.array([draw(unit) for _ in range(3)]) * dims
    return dims, reach, tx, rx


@st.composite
def _room_and_sim_config(draw):
    dims = [draw(st.floats(1.0, 8.0)) for _ in range(3)]
    max_delay = draw(st.floats(5.0, 60.0)) * 1e-9
    n_bins = draw(st.integers(5, 60))
    kind = draw(st.sampled_from(["uniform", "fixed_los", "fixed_nlos"]))
    kw = {}
    if kind != "uniform":
        distance = draw(st.floats(0.05, 0.9)) * min(dims)
        kw = dict(placement="fixed", distance=distance, los=kind == "fixed_los")
    # full_cube_pdp holds several n x cube float64 arrays; each stays under 4 MB
    reach = SPEED_OF_LIGHT * max_delay
    cube = math.prod(_axis_images(l, reach)[0].size for l in dims)
    n = min(draw(st.integers(1, 300)), max(1, 500_000 // cube))
    cfg = SimConfig(
        n_realizations=n, bin_width=max_delay / n_bins, max_delay=max_delay,
        rng_seed=draw(st.integers(0, 2**32 - 1)), **kw,
    )
    material = WallMaterial(g=draw(st.floats(0.1, 0.9)), gamma=draw(st.floats(0.0, 0.3)))
    return RoomGeometry(*dims), material, PolGain.from_split(draw(st.floats(0.0, 1.0))), cfg


class TestReachPruning:
    @settings(max_examples=200, deadline=None)
    @given(_room_reach_and_placement())
    def test_keeps_every_image_closer_than_reach(self, case):
        dims, reach, tx, rx = case
        lattice = enumerate_images(RoomGeometry(*dims), reach)
        per_axis = [_axis_images(l, reach) for l in dims]
        dist = [(off + sign * tx[i] - rx[i]) ** 2 for i, (off, sign, _) in enumerate(per_axis)]
        near = dist[0][:, None, None] + dist[1][None, :, None] + dist[2][None, None, :] < reach**2
        kept = np.zeros(near.shape, dtype=bool)
        kept[lattice_cells(lattice)] = True
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

    @settings(max_examples=40, deadline=None)
    @given(_room_and_sim_config())
    def test_bins_are_bit_identical_in_random_rooms(self, case):
        # The kept cells, and so the (x, y) columns a tile sums once, depend
        # on the room's proportions and on reach.
        room, material, mu_r, cfg = case
        co, cross = simulate_pdp(room, material, V_MU, mu_r, LAM, cfg)
        ref_co, ref_cross = full_cube_pdp(room, material, V_MU, mu_r, LAM, cfg)
        assert np.array_equal(co.values, ref_co)
        assert np.array_equal(cross.values, ref_cross)

    def test_coincident_placement_is_dropped_silently(self, monkeypatch):
        # Random placements never put the transmitter exactly on the
        # receiver; this sampler does so in every 97th realization, the first
        # of each chunk included. Its direct image arrives at d2 == 0.
        sample = _sample_uniform

        def coincident(rng, n, dims):
            tx, rx = sample(rng, n, dims)
            rx[::97] = tx[::97]
            return tx, rx

        monkeypatch.setattr(mirror, "_sample_uniform", coincident)
        monkeypatch.setitem(globals(), "_sample_uniform", coincident)
        cfg = SimConfig(n_realizations=3000, bin_width=1e-9, max_delay=31e-9, rng_seed=5)
        mu_r = PolGain.from_split(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            co, cross = simulate_pdp(ROOM, MAT, V_MU, mu_r, LAM, cfg)
        ref_co, ref_cross = full_cube_pdp(ROOM, MAT, V_MU, mu_r, LAM, cfg)
        assert np.all(np.isfinite(co.values)) and np.all(np.isfinite(cross.values))
        assert np.array_equal(co.values, ref_co)
        assert np.array_equal(cross.values, ref_cross)

    def test_count_tables_give_each_cells_powers_bit_for_bit(self):
        # The chunk gathers g^k and rho^k, formed once per bounce count, at each
        # cell's count; full_cube_pdp raises g and rho to each cell's count. The
        # full-cube tests above run at small reach only; these lattices reach
        # 150 ns and 41 bounces. The fixed-NLOS chunk zeroes count 0's mix,
        # which must weigh the transmitter's own cell alone.
        rooms = [(3.0, 4.0, 3.0), (2.0, 2.0, 2.0), (10.0, 10.0, 3.0), (20.0, 3.0, 3.0)]
        for dims, delay_ns in itertools.product(rooms, (31, 40, 53, 150)):
            reach = SPEED_OF_LIGHT * delay_ns * 1e-9
            bounces = enumerate_images(RoomGeometry(*dims), reach).bounces
            assert np.count_nonzero(bounces == 0) == 1, (dims, delay_ns)
            for g, gamma in zip((0.05, 0.4, 0.7, 0.9, 0.999), (0.0, 1e-6, 0.04, 0.3, 0.9)):
                g_k, rho_k = _count_powers(WallMaterial(g=g, gamma=gamma), bounces.max())
                rho = (1.0 - gamma) / (1.0 + gamma)
                assert np.array_equal(g_k[bounces], g**bounces), (dims, delay_ns, g)
                assert np.array_equal(rho_k[bounces], rho**bounces), (dims, delay_ns, gamma)


class TestTiling:
    @pytest.mark.parametrize(
        "tile", [lambda n_cells: 1, lambda n_cells: 3 * n_cells + 1], ids=["one_row", "ragged"]
    )
    @pytest.mark.parametrize(
        "kw",
        [dict(), dict(placement="fixed", distance=1.8, los=False)],
        ids=["uniform", "fixed_nlos"],
    )
    def test_tile_size_leaves_every_bin_bit_identical(self, monkeypatch, tile, kw):
        # 3000 realizations are chunks of 2048 and 952; neither is a multiple
        # of three rows, so the "ragged" tiling ends each chunk on a short tile.
        cfg = SimConfig(
            n_realizations=3000, bin_width=1e-9, max_delay=31e-9, rng_seed=5, **kw
        )
        n_cells = enumerate_images(ROOM, SPEED_OF_LIGHT * cfg.max_delay).bounces.size
        monkeypatch.setattr(mirror, "_TILE", tile(n_cells))
        mu_r = PolGain.from_split(0.3)
        co, cross = simulate_pdp(ROOM, MAT, V_MU, mu_r, LAM, cfg)
        ref_co, ref_cross = full_cube_pdp(ROOM, MAT, V_MU, mu_r, LAM, cfg)
        assert np.array_equal(co.values, ref_co)
        assert np.array_equal(cross.values, ref_cross)

    @pytest.mark.parametrize(
        "kw",
        [dict(), dict(placement="fixed", distance=1.8, los=False)],
        ids=["uniform", "fixed_nlos"],
    )
    def test_every_tile_is_binned_by_the_one_rule(self, monkeypatch, kw):
        # _max_kept_d2 asks the rule about single distances; each tile passes
        # its kept array, whose bins must all lie below the config's count
        cfg = SimConfig(n_realizations=3000, bin_width=1e-9, max_delay=31e-9, rng_seed=5, **kw)
        delay_bin, tiles = mirror._delay_bin, []

        def recording_delay_bin(d2, bin_width):
            idx = delay_bin(d2, bin_width)
            if np.ndim(idx):
                tiles.append(idx)
            return idx

        monkeypatch.setattr(mirror, "_delay_bin", recording_delay_bin)
        co, _ = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        rows = mirror._TILE // enumerate_images(ROOM, SPEED_OF_LIGHT * cfg.max_delay).iz.size
        assert len(tiles) == sum(math.ceil(size / rows) for size in (_CHUNK, 3000 - _CHUNK))
        idx = np.concatenate(tiles)
        assert idx.min() >= 0 and idx.max() < cfg.n_bins
        assert set(np.flatnonzero(co.values)) == set(idx)

    @pytest.mark.parametrize("delay_ns", [53, 80])
    def test_chunk_memory_is_bounded_as_max_delay_grows(self, delay_ns):
        # The kept lattice grows as max_delay**3 (1041 cells at 53 ns, 2685 at
        # 80 ns); an untiled chunk of 2048 realizations holds several float64
        # arrays of 2048 x n_cells, 68 MB at 53 ns. A tiled chunk that forms
        # its per-axis tables one block of tiles at a time peaks at 1.1 MB at
        # 53 ns and 1.4 MB at 80 ns, 1.8 MB in a process's first call at
        # 53 ns. Chunk-wide per-axis tables peak at 1.8 and 2.2 MB; forming
        # x + y for the whole chunk at once at 4.8 and 8.1 MB.
        cfg = SimConfig(
            n_realizations=_CHUNK, bin_width=1e-9, max_delay=delay_ns * 1e-9, rng_seed=1
        )
        tracemalloc.start()
        try:
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_each_task_carries_the_lattice_and_the_model(self, monkeypatch):
        # The chunk forms g^k and the mix per bounce count from the model's
        # parameters (count 0's mix zeroed for fixed NLOS) and gathers them at
        # lattice.bounces, so the runner a pool task pickles binds the run's inputs
        # only: 21 KiB at 53 ns. Per-cell weights and every cell's x and y
        # entry would add about 40 KiB more.
        runners = []

        def recording_map(fn, *args):
            runners.append(fn)
            return map(fn, *args)

        monkeypatch.setattr(mirror, "map", recording_map, raising=False)
        cfg = SimConfig(n_realizations=10, bin_width=1e-9, max_delay=53e-9)
        simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        (run,) = runners
        assert set(run.keywords) == {"cfg", "lattice", "params", "d2_max"}
        assert len(pickle.dumps(run)) < 24 * 1024


class TestKeepBound:
    BIN_WIDTHS_NS = (0.1, 0.2, 0.25, 0.5, 1.0, 2.0)

    @staticmethod
    def kept(d2, max_delay, bin_width, n_bins):
        # before max_delay, and binned below n_bins by the chunk's own rule
        before = np.sqrt(d2) / SPEED_OF_LIGHT < max_delay
        return before and mirror._delay_bin(d2, bin_width) < n_bins

    def check(self, max_delay, bin_width):
        n_bins = int(round(max_delay / bin_width))
        d2_max = np.float64(mirror._max_kept_d2(max_delay, bin_width, n_bins))
        assert self.kept(d2_max, max_delay, bin_width, n_bins)
        # the next double up is dropped by the delay test or the index test
        assert not self.kept(np.nextafter(d2_max, np.inf), max_delay, bin_width, n_bins)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-10, 1e-5), st.integers(1, 10**4))
    @example(10e-9, 10)
    @example(12e-9, 12)
    @example(31e-9, 31)
    @example(40e-9, 40)
    @example(53e-9, 53)
    def test_is_the_last_squared_distance_before_max_delay(self, max_delay, n_bins):
        self.check(max_delay, max_delay / n_bins)

    def test_every_grid_pair_bins_below_n_bins(self):
        # 45 of these pairs (3, 6, 12, 24, ... ns at 0.25-2 ns bins) once got a
        # bound that binned at n_bins, where np.add.at would raise IndexError
        for k in range(2, 200):
            for b in self.BIN_WIDTHS_NS:
                ratio = k / b
                if abs(ratio - round(ratio)) <= 1e-6 and b < k:
                    self.check(k * 1e-9, b * 1e-9)

    def test_delay_bin_truncates_the_delay_in_bin_widths(self):
        # 0, 1.8 and 3 m take 0, 6.004 and 10.007 ns
        npt.assert_array_equal(mirror._delay_bin(np.array([0.0, 1.8**2, 9.0]), 1e-9), [0, 6, 10])
        assert mirror._delay_bin(9.0, 2e-9) == 5 and mirror._delay_bin(9.0, 0.5e-9) == 20

    @pytest.mark.parametrize("max_delay_ns", [31, 40, 53])
    def test_gated_bounds_keep_the_delay_only_bound(self, max_delay_ns):
        max_delay = max_delay_ns * 1e-9
        d2_max = mirror._max_kept_d2(max_delay, 1e-9, max_delay_ns)
        assert mirror._delay_bin(d2_max, 1e-9) == max_delay_ns - 1
        assert not np.sqrt(np.nextafter(d2_max, np.inf)) / SPEED_OF_LIGHT < max_delay


class TestCountTableAgainstLattice:
    """The material-free check of P(B = k | tau) against the image lattice.

    Arrivals of every kept image over uniform placements, weighted 1/d^2,
    are binned by (1 ns delay bin, exact bounce count). The image density
    is 1/V, so the weight makes arrivals uniform in delay, and each row
    divided by its sum estimates the table averaged over the bin.
    """

    BIN = 1e-9
    N_BATCHES, PER_BATCH = 32, 300
    SUB = 8  # midpoints per bin for the table average

    def histogram(self, room, max_delay, rng):
        """(batch, bin, count) sums of 1/d^2 over the arrivals before max_delay."""
        lattice = enumerate_images(room, SPEED_OF_LIGHT * max_delay)
        n_bins, n_k = int(round(max_delay / self.BIN)), int(lattice.bounces.max()) + 1
        dims = np.array([room.lx, room.ly, room.lz])
        out = np.zeros((self.N_BATCHES, n_bins, n_k))
        for batch in out:
            tx, rx = _sample_uniform(rng, self.PER_BATCH, dims)
            d2 = ((image_positions(lattice, tx) - rx[:, None, :]) ** 2).sum(axis=-1)
            keep = np.sqrt(d2) / SPEED_OF_LIGHT < max_delay
            bins = mirror._delay_bin(d2[keep], self.BIN)
            counts = np.broadcast_to(lattice.bounces, d2.shape)[keep]
            flat = np.bincount(bins * n_k + counts, 1.0 / d2[keep], minlength=n_bins * n_k)
            batch[:] = flat.reshape(n_bins, n_k)
        return out

    def test_rows_match_the_table_in_standard_errors(self):
        rng = np.random.default_rng(2026)
        for _ in range(3):
            room = RoomGeometry(*rng.uniform(1.0, 10.0, 3))
            # a window out to a mean count of six bounces, c S tau / 4V = 6
            six = 24.0 * room.volume() / (room.surface() * SPEED_OF_LIGHT)
            max_delay = math.ceil(six / self.BIN) * self.BIN
            hist = self.histogram(room, max_delay, rng)
            n_bins = hist.shape[1]
            mid = (np.arange(n_bins * self.SUB) + 0.5) * (self.BIN / self.SUB)
            table = bounce_count_table(mid, room).reshape(n_bins, self.SUB, -1).mean(axis=1)
            n_k = max(table.shape[1], hist.shape[2])
            table = np.pad(table, ((0, 0), (0, n_k - table.shape[1])))
            hist = np.pad(hist, ((0, 0), (0, 0), (0, n_k - hist.shape[2])))

            # Compare only cells where each batch expects 20 or more arrivals,
            # so the batch ratios are near normal; the choice uses the table,
            # not the draws.
            edges = np.arange(n_bins + 1) * self.BIN
            per_bin = 4.0 * math.pi * SPEED_OF_LIGHT**3 * np.diff(edges**3) / (3.0 * room.volume())
            use = self.PER_BATCH * per_bin[:, None] * table >= 20.0
            rows = use.any(axis=1)
            pooled = hist.sum(axis=0)[rows]
            pooled /= pooled.sum(axis=1, keepdims=True)
            per_batch = hist[:, rows] / hist[:, rows].sum(axis=2, keepdims=True)
            se = per_batch.std(axis=0, ddof=1) / math.sqrt(self.N_BATCHES)
            z = np.abs(pooled - table[rows])[use[rows]] / se[use[rows]]
            assert z.size > 100
            # with 32 batches a |z| of 5 has odds of a few in 1e5 per cell
            assert z.max() < 5.0, (room, z.max())


class TestSimConfig:
    def test_rejects_inconsistent_delay_settings(self):
        with pytest.raises(ValueError, match="max_delay"):
            SimConfig(n_realizations=10, bin_width=2e-9, max_delay=1e-9)
        with pytest.raises(ValueError, match="bin_width"):
            SimConfig(n_realizations=10, bin_width=0.0, max_delay=1e-9)
        with pytest.raises(ValueError, match=r"into a whole number of steps .*, got 10\.5$"):
            SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10.5e-9)
        # 2e10 bins, 298 GiB of complex partial sums: rejected before any array exists
        with pytest.raises(ValueError, match=r"^bin_width must divide max_delay into a whole "
                                             r"number of steps from 2 to 10000000, "
                                             r"got 20000000000$"):
            SimConfig(n_realizations=10, bin_width=1e-18, max_delay=20e-9)
        SimConfig(n_realizations=10, bin_width=1e-15, max_delay=10e-9)  # exactly 10**7 bins
        # a bin count that overflows to inf is refused by the same rule
        with pytest.raises(ValueError, match="bin_width"):
            SimConfig(n_realizations=10, bin_width=1e-309, max_delay=1e291)
        with pytest.raises(ValueError, match="n_realizations"):
            SimConfig(n_realizations=0, bin_width=1e-9, max_delay=10e-9)
        # 10**12 realizations would need about 5e8 chunk seeds before any chunk runs
        SimConfig(n_realizations=10**9, bin_width=1e-9, max_delay=10e-9)
        with pytest.raises(ValueError, match="must be <= 1000000000, got 1000000001$"):
            SimConfig(n_realizations=10**9 + 1, bin_width=1e-9, max_delay=10e-9)
        with pytest.raises(ValueError, match="n_realizations must be <= 1000000000"):
            SimConfig(n_realizations=10**12, bin_width=1e-9, max_delay=10e-9)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"max_delay into .*, got {bad}$"):
                SimConfig(n_realizations=1, bin_width=1e-9, max_delay=bad)
            with pytest.raises(ValueError, match="bin_width.*finite"):
                SimConfig(n_realizations=1, bin_width=bad, max_delay=10e-9)

    @pytest.mark.parametrize("key", ["n_realizations", "rng_seed"])
    @pytest.mark.parametrize("value", [2.5, True])
    def test_counts_must_be_integers(self, key, value):
        kw = {"n_realizations": 10, "bin_width": 1e-9, "max_delay": 10e-9, key: value}
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {value}"):
            SimConfig(**kw)

    def test_placement_validation(self):
        with pytest.raises(ValueError, match="placement"):
            SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10e-9, placement="grid")
        with pytest.raises(ValueError, match="positive distance"):
            SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10e-9, placement="fixed")
        for extra in (dict(distance=1.0), dict(los=False)):
            with pytest.raises(ValueError, match="only meaningful"):
                SimConfig(
                    n_realizations=10, bin_width=1e-9, max_delay=10e-9,
                    placement="uniform", **extra,
                )

    @pytest.mark.parametrize("distance", [1e-200, 1e200])
    def test_fixed_distance_needs_a_representable_square(self, distance):
        with pytest.raises(ValueError, match=re.escape(f"distance {distance} squared must be > 0")):
            SimConfig(
                n_realizations=10, bin_width=1e-9, max_delay=10e-9,
                placement="fixed", distance=distance,
            )

    def test_unreachable_fixed_distance_is_rejected(self):
        cfg = SimConfig(
            n_realizations=10, bin_width=1e-9, max_delay=10e-9,
            placement="fixed", distance=ROOM.diagonal() + 0.1,
        )
        with pytest.raises(ValueError, match="admits no placement"):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)

    @pytest.mark.parametrize("distance", [1e-17, 1e-150])
    def test_fixed_distance_below_the_rounding_floor_is_rejected(self, distance):
        # rx + d * u rounds to the coordinate grid (about 4e-16 m here): the
        # direct bin of 2048 LOS realizations held 0.21 of the direct weight
        # at 1e-17 m and none of it at 1e-150 m
        cfg = SimConfig(
            n_realizations=10, bin_width=1e-9, max_delay=10e-9,
            placement="fixed", distance=distance,
        )
        with pytest.raises(ValueError, match=re.escape(f"fixed distance {distance} m is below")):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)

    def test_fixed_distance_above_the_floor_keeps_the_direct_weight(self):
        distance = 1e-7
        cfg = SimConfig(
            n_realizations=2048, bin_width=1e-9, max_delay=10e-9,
            placement="fixed", distance=distance,
        )
        co, _ = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        p = make_params(V_MU, V_MU)
        spike = direct_path(p, DistanceCondition(distance, los=True))
        assert co.values[0] * cfg.bin_width == pytest.approx(spike.weight, rel=1e-6)

    def test_unplaceable_fixed_distance_is_a_value_error(self):
        # below the 5.831 m diagonal, so only the rejection sampler can tell
        cfg = SimConfig(
            n_realizations=10, bin_width=1e-9, max_delay=10e-9,
            placement="fixed", distance=5.82,
        )
        with pytest.raises(ValueError, match="could not place"):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)

    def test_placement_below_the_acceptance_floor_fails_fast(self):
        # 5.5 m fits about 6.6e-7 of the draws in this room, far below the
        # floor; a full chunk must give up within a few million draws, not
        # keep going because the odd placement succeeds
        rng = np.random.default_rng(0)
        drawn = 0

        class CountingRng:
            def uniform(self, low, high, size):
                nonlocal drawn
                drawn += size[0]
                return rng.uniform(low, high, size)

            def normal(self, size):
                return rng.normal(size=size)

        dims = np.array([ROOM.lx, ROOM.ly, ROOM.lz])
        with pytest.raises(ValueError, match="could not place.*fewer than 2e-05"):
            _sample_fixed(CountingRng(), _CHUNK, dims, 5.5)
        assert drawn < 5e6

    @pytest.mark.parametrize("wavelength", [0.0, -5e-3])
    def test_rejects_nonpositive_wavelength(self, wavelength):
        cfg = SimConfig(n_realizations=10, bin_width=1e-9, max_delay=10e-9)
        with pytest.raises(ValueError, match=r"wavelength must be > 0, got"):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, wavelength, cfg)


class TestPlacementStreams:
    # Both samplers' streams, pinned for seed 0 in the 3x4x3 m room. A change
    # to either moves every oracle bin, so one made on purpose updates these
    # values together with bench/reference.
    DIMS = np.array([3.0, 4.0, 3.0])

    def test_uniform_stream(self):
        # uniform draws times the room are exact, so the values are too
        tx, rx = _sample_uniform(np.random.default_rng(0), 4, self.DIMS)
        assert tx.tolist() == [
            [1.910885061964363, 1.0791468550554812, 0.12292057180858407],
            [0.04958290658558728, 3.2530809568010897, 2.738266731833165],
            [1.8199073273015396, 2.9179862439359936, 1.6308749743962685],
            [2.8052172713633046, 3.2634142164861286, 0.008215500510444285],
        ]
        assert rx.tolist() == [
            [2.572212829762708, 0.13434230122185742, 2.1889663392898324],
            [0.526966861807677, 3.4527156893995463, 1.624383660747275],
            [0.8991356716121544, 1.6907488847906338, 0.0849590134363889],
            [0.37284982949869183, 2.6824976587745213, 1.9415685347227503],
        ]

    # (distance, draw rounds, tx, rx); 4.2 m fits few enough draws that four
    # placements take nine rounds of 128
    FIXED = [
        (1.8, 1,
         [[1.0123347009429786, 2.351791642683625, 1.5132007929060831],
          [0.5015236137077086, 3.104436062734444, 0.41963558897298925],
          [1.4674185063756473, 1.7860127009626598, 1.79023888050851],
          [1.4390489316455635, 2.193794577305406, 1.3668614599210862]],
         [[0.04958290658558728, 3.2530809568010897, 2.738266731833165],
          [1.8199073273015396, 2.9179862439359936, 1.6308749743962685],
          [0.8991356716121544, 1.6907488847906338, 0.0849590134363889],
          [1.8461553344437616, 1.5347102170475337, 2.991629807367633]]),
        (4.2, 9,
         [[0.7160829933774089, 3.0121267120597435, 0.9783559876363472],
          [0.13546478465758338, 3.8446893255628987, 0.6550078899619627],
          [2.0173413294044957, 0.18347844848715855, 1.8481007280585184],
          [2.515671083457553, 0.3106333327404873, 0.13129812731313395]],
         [[2.9752346788438038, 0.08672989489567051, 2.9729203822299786],
          [1.9359823780371412, 0.058009771609999206, 0.4117089964055778],
          [0.967470902460694, 3.9101448138606143, 0.22030163485842802],
          [2.1952183639301883, 3.679014801094052, 2.619533714672137]]),
    ]

    @pytest.mark.parametrize("distance, rounds, tx_ref, rx_ref", FIXED, ids=["1.8m", "4.2m"])
    def test_fixed_stream(self, distance, rounds, tx_ref, rx_ref):
        # normal draws go through libm in their tail, so they are pinned to
        # rtol 1e-12 rather than to the bit
        rng = np.random.default_rng(0)
        drawn = 0

        class CountingRng:
            def uniform(self, low, high, size):
                return rng.uniform(low, high, size)

            def normal(self, size):
                nonlocal drawn
                drawn += 1
                return rng.normal(size=size)

        tx, rx = _sample_fixed(CountingRng(), 4, self.DIMS, distance)
        assert drawn == rounds
        npt.assert_allclose(tx, tx_ref, rtol=1e-12, atol=0)
        npt.assert_allclose(rx, rx_ref, rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize(
        "workers, message",
        [(0, "must be >= 1, got 0"), (-3, "must be >= 1, got -3"),
         (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True")],
        ids=["zero", "negative", "fractional", "bool"],
    )
    def test_worker_count_must_be_a_positive_integer(self, workers, message):
        with pytest.raises(ValueError, match=f"workers {message}"):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, self.small_cfg(), workers=workers)

    def test_pickled_run_constants_keep_add_at_on_its_fast_path(self, monkeypatch):
        # A pool worker unpickles the run constants, whose dtype objects are
        # then not numpy's own. Values that inherit one send np.add.at off
        # its fast path (three times slower per chunk).
        canonical = []

        class Add:
            @staticmethod
            def at(acc, idx, values):
                canonical.append(values.dtype is np.dtype(complex))
                np.add.at(acc, idx, values)

        class Numpy:
            add = Add

            def __getattr__(self, name):
                return getattr(np, name)

        def pickled_map(fn, *args):
            return map(pickle.loads(pickle.dumps(fn)), *args)

        monkeypatch.setattr(mirror, "np", Numpy())
        monkeypatch.setattr(mirror, "map", pickled_map, raising=False)
        kw = dict(placement="fixed", distance=1.8, los=False)
        for cfg in (self.small_cfg(), self.small_cfg(**kw)):
            simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg)
        assert canonical and all(canonical)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "kw", [dict(), dict(placement="fixed", distance=1.8, los=False)],
        ids=["uniform", "fixed_nlos"],
    )
    def test_traces_receive_contiguous_float_values(self, monkeypatch, kw, workers):
        # The chunks sum co + 1j * cross. Neither that complex sum nor a
        # strided .real view of it may reach PdpTrace, whose values
        # io.write_trace_csv checks with math.isfinite one at a time.
        received = []

        def trace(**fields):
            received.append(fields["values"])
            return PdpTrace(**fields)

        monkeypatch.setattr(mirror, "PdpTrace", trace)
        cfg = self.small_cfg(**kw)
        assert cfg.n_realizations > _CHUNK
        traces = simulate_pdp(ROOM, MAT, V_MU, V_MU, LAM, cfg, workers=workers)
        assert len(received) == len(traces) == 2
        for values, out in zip(received, traces):
            assert values.dtype == np.float64
            assert values.flags.c_contiguous
            assert out.values is values

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

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["inside", "outside"])
    def test_direct_arrival_at_max_delay_is_kept_only_before_it(self, side):
        # The d2 mask must not drop an arrival just before max_delay; random
        # placements almost never come within 1e-9 of it.
        room = RoomGeometry(10.0, 10.0, 10.0)
        max_delay = 10e-9
        distance = SPEED_OF_LIGHT * max_delay * (1.0 + side * 1e-11)
        base = dict(
            n_realizations=200, bin_width=1e-9, max_delay=max_delay, rng_seed=4,
            placement="fixed", distance=distance,
        )
        los, _ = simulate_pdp(room, MAT, V_MU, V_MU, LAM, SimConfig(los=True, **base))
        nlos, _ = simulate_pdp(room, MAT, V_MU, V_MU, LAM, SimConfig(los=False, **base))
        diff = los.values - nlos.values
        if side < 0:
            expected = LAM**2 / (4 * math.pi * distance**2) / 1e-9
            assert diff[-1] == pytest.approx(expected, rel=1e-12)
            npt.assert_array_equal(diff[:-1], np.zeros(diff.size - 1))
        else:
            npt.assert_array_equal(diff, np.zeros(diff.size))

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
        from roompol import pds

        p_co = split_params(0.0)
        p_cross = make_params(mu, mu.swapped())
        window = (co.delays >= 2e-9) & (co.delays <= 40e-9)
        err_co = 10 * np.log10(co.values[window] / pds(co.delays[window], p_co))
        err_cross = 10 * np.log10(cross.values[window] / pds(co.delays[window], p_cross))
        assert np.max(np.abs(err_co)) < 2.5
        assert np.max(np.abs(err_cross)) < 4.0
