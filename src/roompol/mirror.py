"""Brute-force mirror-source simulator for the box-shaped room.

Reflecting the transmitter iteratively in the six walls yields a lattice of
image sources; the signal of an image that took B wall interactions arrives
attenuated by the B-th power of the bounce matrix on top of free-space
spreading. Binning those arrivals over many random transmitter/receiver
placements estimates the power delay profile without using any closed-form
expression or the delay-based bounce-count approximation: every image
carries its exact interaction count. This makes the simulator an
independent validation oracle for `model.pds_components_exact`, the exact
bounce-count expectation it estimates under uniform placement.

The lattice is built once per run, as arrays, by `enumerate_images`. Each
cell pairs one mirror entry per axis; wherever the transmitter sits in the
room, the cell's image lies in a box of the room's size. Only cells whose
box lies within reach = c * max_delay of the room are kept (Allen & Berkley,
JASA 65(4), 1979). The distance from that box to the room is a lower bound
on every image-to-receiver distance, so a dropped cell could only produce
arrivals at or beyond max_delay, which the simulator discards anyway.
Each chunk forms its arrivals in C-ordered tiles of a few realizations by
all cells, of bounded size, and bins them in the untiled order, so memory
stays flat in max_delay and the bins unchanged. Cells sharing an (x, y)
column of the lattice share their x + y term, so a tile sums it once per
column and adds z per cell. Pairs at or beyond max_delay are dropped on
their squared distance in one compare, and the one arrival at distance
zero (a transmitter exactly on the receiver) among the survivors; the square
root, the delay and the power are computed for the survivors only. Both
channels go into one complex sum, co + 1j * cross: complex addition is part
by part, and a complex mix times the real power d2 + 0j adds an exact zero
cross term, so each bin holds the bits of a float sum per channel. The traces
divide the real and the imaginary part by the norm separately.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .measurement import PdpTrace
from .model import (
    _MAX_CELLS,
    SPEED_OF_LIGHT,
    DistanceCondition,
    PdsParams,
    PolGain,
    RoomGeometry,
    WallMaterial,
    _count_powers,
    _mu_products,
    _require_choice,
    _require_int,
    _require_positive,
    _whole_steps,
    bounce_split,
    channel_pair,
)

_CHUNK = 2048  # realizations per work unit; fixed so results never depend on worker count
_TILE = 2**14  # (realization, cell) pairs formed at once inside a chunk; bounds its memory
_BLOCK = 256  # realizations, rounded to whole tiles, whose per-axis tables are formed at once

_PLACEMENTS = ("uniform", "fixed")

_REACH_SLACK = 1e-9  # relative; see enumerate_images
_MAX_REALIZATIONS = 10**9  # about 490k chunks, whose seeds and sizes take about 190 MB
# Placement acceptance floor of a fixed-distance chunk; see _sample_fixed.
_MIN_ACCEPTANCE = 2e-5
_PLACEMENT_SLACK = 64  # placements' worth of draws granted up front


@dataclass(frozen=True)
class SimConfig:
    """Monte-Carlo settings for `simulate_pdp`.

    placement "uniform" draws transmitter and receiver independently and
    uniformly inside the room; "fixed" draws the receiver uniformly and the
    transmitter uniformly on the sphere of radius `distance` around it
    (rejection-sampled into the room), excluding the direct image when
    `los` is False.
    """

    n_realizations: int
    bin_width: float
    max_delay: float
    rng_seed: int = 0
    placement: str = "uniform"
    distance: float | None = None
    los: bool = True

    def __post_init__(self) -> None:
        _require_int("n_realizations", self.n_realizations, 1)
        if self.n_realizations > _MAX_REALIZATIONS:
            raise ValueError(
                f"n_realizations must be <= {_MAX_REALIZATIONS}, got {self.n_realizations}"
            )
        _require_int("rng_seed", self.rng_seed, 0)
        self.n_bins  # the one check of the bin grid
        _require_choice("placement", self.placement, _PLACEMENTS)
        if self.placement == "fixed":
            if self.distance is None:
                raise ValueError("fixed placement requires a positive distance")
            DistanceCondition(self.distance)  # the one check of a usable distance
        elif self.distance is not None:
            raise ValueError("distance is only meaningful for fixed placement")
        elif not self.los:
            raise ValueError("los=False is only meaningful for fixed placement")

    @property
    def n_bins(self) -> int:
        """Delay bins of width bin_width up to max_delay: at least 2, as `PdpTrace` needs."""
        return _whole_steps("max_delay", "bin_width", self.max_delay, self.bin_width, 2)


def _axis_p_ranges(length: float, span: float):
    """Inclusive ranges of p for the even- and odd-type entries of `_axis_images`."""
    two_l = 2.0 * length
    return (
        (math.floor(-(span + length) / two_l), math.ceil((length + span) / two_l)),
        (math.floor(-span / two_l), math.ceil((2.0 * length + span) / two_l)),
    )


def _axis_images(length: float, span: float):
    """Mirror coordinates along one axis as offset + sign * tx.

    Covers every image coordinate in [-span, length + span]. Even-type
    images sit at 2p*length + tx with |2p| axis bounces, odd-type at
    2p*length - tx with |2p - 1| >= 1; the even p = 0 entry, the only one
    with zero bounces, is the transmitter's own coordinate.
    """
    (even_lo, even_hi), (odd_lo, odd_hi) = _axis_p_ranges(length, span)
    p_even = np.arange(even_lo, even_hi + 1)
    p_odd = np.arange(odd_lo, odd_hi + 1)
    offsets = np.concatenate([2.0 * p_even * length, 2.0 * p_odd * length])
    signs = np.concatenate([np.ones(p_even.size), -np.ones(p_odd.size)])
    bounces = np.concatenate([np.abs(2 * p_even), np.abs(2 * p_odd - 1)]).astype(np.int64)
    return offsets, signs, bounces


@dataclass(frozen=True)
class ImageLattice:
    """Mirror-image cells within reach of the room, as flat arrays.

    `offsets[i]` and `signs[i]` are the mirror tables of axis i (see
    `_axis_images`); a cell's image coordinate along axis i is
    `offsets[i][j] + signs[i][j] * tx[i]` for its entry j of that axis.
    Cells are in lexicographic (x, y, z) order, so the cells sharing an
    (x, y) entry pair form one run: `columns` = (col_x, col_y, col_size)
    lists those pairs and their run lengths, and `iz` holds each cell's z
    entry. `bounces` holds each cell's exact wall-interaction count; the one
    cell with zero bounces is the transmitter itself.
    """

    offsets: tuple[np.ndarray, np.ndarray, np.ndarray]
    signs: tuple[np.ndarray, np.ndarray, np.ndarray]
    columns: tuple[np.ndarray, np.ndarray, np.ndarray]
    iz: np.ndarray
    bounces: np.ndarray


def enumerate_images(room: RoomGeometry, reach: float) -> ImageLattice:
    """The lattice cells whose image box lies within distance `reach` of the room.

    As the transmitter moves through the room, an even-type image on one
    axis sweeps [offset, offset + L] and an odd-type one [offset - L, offset];
    a cell's box is the product of its three intervals. The box-to-room
    distance is a lower bound on every image-to-receiver distance, so the
    kept cells hold every arrival with delay below reach / c, for every
    transmitter and receiver inside the room. The relative slack on `reach`
    keeps that guarantee when rounding shifts a squared distance by an ulp.
    The full cube is built before pruning, so its cell count, which grows as
    reach**3, is checked against `_MAX_CELLS` before any array exists.
    """
    _require_positive("reach", reach)
    dims = (room.lx, room.ly, room.lz)
    n_cube = math.prod(sum(hi - lo + 1 for lo, hi in _axis_p_ranges(l, reach)) for l in dims)
    if n_cube > _MAX_CELLS:
        raise ValueError(
            f"reach {reach:.4g} m needs more than {_MAX_CELLS} mirror-image cells; "
            "lower max_delay"
        )
    per_axis = [_axis_images(l, reach) for l in dims]
    gap2 = []
    for l, (off, sign, _) in zip(dims, per_axis):
        lo = off - l * (sign < 0)
        gap = np.maximum(0.0, np.maximum(lo - l, -(lo + l)))
        gap2.append(gap * gap)
    near = gap2[0][:, None, None] + gap2[1][None, :, None] + gap2[2][None, None, :]
    keep = near <= (reach * (1.0 + _REACH_SLACK)) ** 2
    per_column = keep.sum(axis=2)
    col_x, col_y = np.nonzero(per_column)
    col_size = per_column[col_x, col_y]
    iz = np.nonzero(keep)[2]
    bx, by, bz = (a[2] for a in per_axis)
    return ImageLattice(
        offsets=tuple(a[0] for a in per_axis),
        signs=tuple(a[1] for a in per_axis),
        columns=(col_x, col_y, col_size),
        iz=iz,
        bounces=np.repeat(bx[col_x] + by[col_y], col_size) + bz[iz],
    )


def _sample_uniform(rng: np.random.Generator, n: int, dims: np.ndarray):
    tx = rng.uniform(0.0, 1.0, (n, 3)) * dims
    rx = rng.uniform(0.0, 1.0, (n, 3)) * dims
    return tx, rx


def _sample_fixed(rng: np.random.Generator, n: int, dims: np.ndarray, distance: float):
    """Receiver uniform in the box, transmitter uniform on the sphere of
    radius `distance` around it, rejected until inside the box.

    The sampler raises once it has drawn min(n, placed + _PLACEMENT_SLACK) /
    _MIN_ACCEPTANCE transmitters: each placement earns 1 / _MIN_ACCEPTANCE
    more draws, so a distance whose acceptance lies well below the floor
    fails within a few million draws, whatever n is.
    """
    tx_out = np.empty((n, 3))
    rx_out = np.empty((n, 3))
    filled = 0
    drawn = 0
    while filled < n:
        if drawn * _MIN_ACCEPTANCE >= min(n, filled + _PLACEMENT_SLACK):
            raise ValueError(
                f"could not place transmitter at distance {distance} m inside the room: "
                f"fewer than {_MIN_ACCEPTANCE:g} of the placements drawn fit"
            )
        m = max(4 * (n - filled), 128)
        drawn += m
        rx = rng.uniform(0.0, 1.0, (m, 3)) * dims
        vec = rng.normal(size=(m, 3))
        norm = np.linalg.norm(vec, axis=1)
        good = norm > 1e-12
        tx = rx + distance * vec / np.maximum(norm, 1e-300)[:, None]
        inside = good & np.all((tx > 0.0) & (tx < dims), axis=1)
        take = min(int(inside.sum()), n - filled)
        idx = np.flatnonzero(inside)[:take]
        tx_out[filled : filled + take] = tx[idx]
        rx_out[filled : filled + take] = rx[idx]
        filled += take
    return tx_out, rx_out


def _delay_bin(d2, bin_width: float):
    """The oracle's one delay-bin rule: sqrt(d2) / c / bin_width, truncated; d2 is kept."""
    tau = np.sqrt(d2)
    tau /= SPEED_OF_LIGHT
    tau /= bin_width
    return tau.astype(np.int64)


def _axis_sq(offset, sign, tx_i, rx_i, out) -> np.ndarray:
    """(offset + sign * tx_i - rx_i)**2, one row per realization, formed in `out`."""
    np.multiply.outer(tx_i, sign, out=out)
    out += offset
    out -= rx_i[:, None]
    return np.square(out, out=out)


def _max_kept_d2(max_delay: float, bin_width: float, n_bins: int) -> float:
    """Largest double d2 whose delay sqrt(d2) / c lies before `max_delay` and
    whose bin index, `_delay_bin(d2, bin_width)`, lies below `n_bins`.

    Correctly rounded sqrt and division are monotone in d2, and so is the
    truncated index, so the pairs with 0 < d2 <= this bound are exactly those
    kept by both tests. The index test drops only arrivals within a few ulp of
    max_delay that round up into bin n_bins. The bound lies a few ulp from
    (c * max_delay)**2, and nextafter steps from there find it.
    """

    def kept(d2: float) -> bool:
        return math.sqrt(d2) / SPEED_OF_LIGHT < max_delay and _delay_bin(d2, bin_width) < n_bins

    reach = SPEED_OF_LIGHT * max_delay
    d2 = reach * reach
    while not kept(d2):
        d2 = math.nextafter(d2, 0.0)
    while kept(math.nextafter(d2, math.inf)):
        d2 = math.nextafter(d2, math.inf)
    return d2


def _run_chunk(seed_seq, n, *, cfg, lattice, params, d2_max) -> np.ndarray:
    """Accumulate binned co + 1j * cross powers for one chunk of n realizations.

    The (realization, cell) pairs are formed in C-ordered tiles of `rows`
    realizations by all cells, about `_TILE` pairs, so their arrays take
    O(max(_TILE, n_cells)) memory, whatever `_CHUNK` is. The per-axis tables
    of squared image offsets (`_axis_sq`) are formed for one block of whole
    tiles, about `_BLOCK` realizations, at a time, in buffers the chunk
    reuses, so only the placements grow with the chunk: one 2048-realization
    chunk peaks at 1.1 MB traced at 53 ns and 2.2 MB at 150 ns (1.8 and
    3.6 MB with chunk-wide tables), and every d2 keeps its bits. A tile sums
    x + y once per column of `lattice.columns`, repeats it over the column's
    cells and adds z, so every d2 is still (x + y) + z. Only arrivals before
    max_delay are gathered, in row-major order, and `np.add.at` adds each
    into its bin in that order, as one `np.bincount` over the chunk would:
    every bin sum is bit-identical to the untiled one.

    One compare keeps the pairs with d2 <= d2_max (`_max_kept_d2`); of those,
    only a transmitter exactly on the receiver has d2 == 0, and it is dropped
    among the kept arrivals before any division. Only the survivors are
    binned, by `_delay_bin` into `cfg.n_bins` bins, and their power is formed
    in place. `g_pow` (g^B) and `mix` (co + 1j * cross) are formed here per
    bounce count from `params`, count 0's mix zeroed for fixed NLOS, gathered
    at `lattice.bounces` and tiled to `rows` rows; each is one gather by flat
    index, and one complex sum per bin holds both.
    """
    rng = np.random.default_rng(seed_seq)
    dims = np.array([params.room.lx, params.room.ly, params.room.lz])
    if cfg.placement == "uniform":
        tx, rx = _sample_uniform(rng, n, dims)
    else:
        tx, rx = _sample_fixed(rng, n, dims, cfg.distance)
    rows = max(1, _TILE // lattice.iz.size)
    g_pow, rho_pow = _count_powers(params.material, lattice.bounces.max())
    # A channel's weight is half its two split parts; g^B stays in g_pow.
    splits = (bounce_split(*_mu_products(q), 1.0, rho_pow) for q in channel_pair(params))
    mix_co, mix_cross = (0.5 * (co + cross) for co, cross in splits)
    mix = mix_co + 1j * mix_cross
    if not cfg.los:
        # Only the transmitter's own cell has zero bounces: it weighs nothing.
        # Its arrival adds +0.0 to a bin that holds a sum of terms >= +0.0,
        # so every bin keeps its bits.
        mix[0] = 0.0
    g_pow, mix = (np.tile(w[lattice.bounces], rows) for w in (g_pow, mix))

    col_x, col_y, col_size = lattice.columns
    block = rows * max(1, _BLOCK // rows)
    acc = np.zeros(cfg.n_bins, dtype=complex)
    tables = [np.empty((min(block, n), off.size)) for off in lattice.offsets]
    for b in range(0, n, block):
        m = min(block, n - b)
        sq_x, sq_y, sq_z = (
            _axis_sq(off, sign, tx[b : b + m, i], rx[b : b + m, i], out[:m])
            for i, (off, sign, out) in enumerate(zip(lattice.offsets, lattice.signs, tables))
        )
        for r in range(0, m, rows):
            # Summed as (x + y) + z, realization-major over the kept cells: the
            # same terms in the same order as over the full cube.
            xy = sq_x[r : r + rows].take(col_x, axis=1)
            xy += sq_y[r : r + rows].take(col_y, axis=1)
            d2 = np.repeat(xy, col_size, axis=1)
            d2 += sq_z[r : r + rows].take(lattice.iz, axis=1)
            flat = np.flatnonzero(d2 <= d2_max)
            d2 = d2.ravel().take(flat)
            if not d2.all():  # a transmitter exactly on the receiver
                keep = d2 > 0.0
                flat, d2 = flat[keep], d2[keep]
            idx = _delay_bin(d2, cfg.bin_width)
            # d2 becomes the arrival power g^B * lambda^2 / (4 pi d2), in place
            d2 *= 4.0 * np.pi
            np.divide(params.wavelength * params.wavelength, d2, out=d2)
            d2 *= g_pow.take(flat)
            power = mix.take(flat)
            power *= d2
            np.add.at(acc, idx, power)
    return acc


def simulate_pdp(
    room: RoomGeometry,
    material: WallMaterial,
    mu_t: PolGain,
    mu_r: PolGain,
    wavelength: float,
    cfg: SimConfig,
    workers: int = 1,
) -> tuple[PdpTrace, PdpTrace]:
    """Estimate co- and cross-channel power delay profiles by Monte Carlo.

    Each realization places transmitter and receiver per cfg.placement,
    evaluates the arrival of every mirror image that `enumerate_images`
    keeps for reach c * max_delay exactly (delay from the true
    image distance, attenuation from the exact bounce count), and adds its
    power to the delay bin containing the arrival; bins are left-closed,
    right-open and an arrival at exactly max_delay is discarded. Bin sums
    divided by (n_realizations * bin_width) estimate power density.

    The co channel uses (mu_t, mu_r) as given; the cross channel swaps the
    receive gain entries (`model.channel_pair`). Both are accumulated in one
    pass and returned as linear traces on the bin-center grid. Results are
    bit-identical for a fixed rng_seed regardless of `workers` because
    realizations are split into fixed-size chunks with per-chunk derived
    seeds, reduced in chunk order. The chunks run in a pool of min(workers,
    chunks, available CPUs) processes, or in this process if that is one.
    """
    _require_int("workers", workers, 1)
    p = PdsParams(room=room, material=material, mu_t=mu_t, mu_r=mu_r, wavelength=wavelength)
    if cfg.placement == "fixed" and cfg.distance >= room.diagonal():
        raise ValueError(
            f"fixed distance {cfg.distance} m admits no placement in a room "
            f"with diagonal {room.diagonal():.3f} m"
        )
    # _sample_fixed's rx + d * u rounds to the room's coordinate grid, which
    # at this floor already puts 1e-6 relative error on d
    floor = 2.0**-52 * max(room.lx, room.ly, room.lz) * 1e6
    if cfg.placement == "fixed" and cfg.distance < floor:
        raise ValueError(
            f"fixed distance {cfg.distance} m is below {floor:.3g} m, the least at which "
            f"the room's coordinate rounding stays within 1e-6 of it"
        )

    lattice = enumerate_images(room, SPEED_OF_LIGHT * cfg.max_delay)
    d2_max = _max_kept_d2(cfg.max_delay, cfg.bin_width, cfg.n_bins)
    run = functools.partial(_run_chunk, cfg=cfg, lattice=lattice, params=p, d2_max=d2_max)
    sizes = [min(_CHUNK, cfg.n_realizations - k) for k in range(0, cfg.n_realizations, _CHUNK)]
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(sizes))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(workers, len(sizes), cpus or 1)

    if n_workers > 1:
        # imported here so single-worker runs skip concurrent.futures.process
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
        acc = sum((pool.map if pool else map)(run, seeds, sizes))  # in chunk order

    centers = (np.arange(cfg.n_bins) + 0.5) * cfg.bin_width
    norm = cfg.n_realizations * cfg.bin_width
    # Split before dividing: complex-by-real division rounds both parts otherwise.
    co = PdpTrace(delays=centers, values=acc.real / norm, scale="linear")
    cross = PdpTrace(delays=centers, values=acc.imag / norm, scale="linear")
    return co, cross
