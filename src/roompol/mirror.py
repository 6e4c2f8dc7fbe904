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
    SPEED_OF_LIGHT,
    PdsParams,
    PolGain,
    RoomGeometry,
    WallMaterial,
    _mu_products,
    _require_int,
    _require_positive,
    _rho_power,
    bounce_split,
    channel_pair,
)

_CHUNK = 2048  # realizations per work unit; fixed so results never depend on worker count
_TILE = 2**14  # (realization, cell) pairs formed at once inside a chunk; bounds its memory

_PLACEMENTS = ("uniform", "fixed")

_REACH_SLACK = 1e-9  # relative; see enumerate_images
_MAX_CUBE_CELLS = 10**7  # image cube cells enumerate_images may build (80 MB of float64)
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
        _require_int("rng_seed", self.rng_seed, 0)
        _require_positive("bin_width", self.bin_width)
        if not self.bin_width < self.max_delay < math.inf:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be finite and exceed "
                f"bin_width ({self.bin_width})"
            )
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        if self.placement == "fixed":
            if self.distance is None:
                raise ValueError("fixed placement requires a positive distance")
            _require_positive("distance", self.distance)
        elif self.distance is not None:
            raise ValueError("distance is only meaningful for fixed placement")
        elif not self.los:
            raise ValueError("los=False is only meaningful for fixed placement")
        n_bins = self.max_delay / self.bin_width
        if abs(n_bins - round(n_bins)) > 1e-6:
            raise ValueError("max_delay must be an integer multiple of bin_width")


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
    `_axis_images`). Cell k takes entry `cells[i][k]` of each table, so its
    image coordinate along axis i is `offsets[i][j] + signs[i][j] * tx[i]`
    with `j = cells[i][k]`. Cells are in lexicographic (x, y, z) order;
    `bounces` holds each cell's exact wall-interaction count; the one cell
    with zero bounces is the transmitter itself.
    """

    dims: tuple[float, float, float]
    offsets: tuple[np.ndarray, np.ndarray, np.ndarray]
    signs: tuple[np.ndarray, np.ndarray, np.ndarray]
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]
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
    reach**3, is checked against `_MAX_CUBE_CELLS` before any array exists.
    """
    _require_positive("reach", reach)
    dims = (room.lx, room.ly, room.lz)
    n_cube = math.prod(sum(hi - lo + 1 for lo, hi in _axis_p_ranges(l, reach)) for l in dims)
    if n_cube > _MAX_CUBE_CELLS:
        raise ValueError(
            f"reach {reach:.4g} m needs more than {_MAX_CUBE_CELLS} mirror-image cells; "
            "lower max_delay"
        )
    per_axis = [_axis_images(l, reach) for l in dims]
    gap2 = []
    for l, (off, sign, _) in zip(dims, per_axis):
        lo = off - l * (sign < 0)
        gap = np.maximum(0.0, np.maximum(lo - l, -(lo + l)))
        gap2.append(gap * gap)
    near = gap2[0][:, None, None] + gap2[1][None, :, None] + gap2[2][None, None, :]
    cells = np.nonzero(near <= (reach * (1.0 + _REACH_SLACK)) ** 2)
    return ImageLattice(
        dims=dims,
        offsets=tuple(a[0] for a in per_axis),
        signs=tuple(a[1] for a in per_axis),
        cells=cells,
        bounces=sum(a[2][idx] for a, idx in zip(per_axis, cells)),
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


def _max_kept_d2(max_delay: float, bin_width: float, n_bins: int) -> float:
    """Largest double d2 whose delay sqrt(d2) / c lies before `max_delay` and
    whose bin index, as `_run_chunk` computes it, lies below `n_bins`.

    Correctly rounded sqrt and division are monotone in d2, and so is the
    truncated index, so the pairs with 0 < d2 <= this bound are exactly those
    kept by both tests. The index test drops only arrivals within a few ulp of
    max_delay that round up into bin n_bins. The bound lies a few ulp from
    (c * max_delay)**2, and nextafter steps from there find it.
    """

    def kept(d2: float) -> bool:
        tau = math.sqrt(d2) / SPEED_OF_LIGHT
        return tau < max_delay and int(tau / bin_width) < n_bins

    reach = SPEED_OF_LIGHT * max_delay
    d2 = reach * reach
    while not kept(d2):
        d2 = math.nextafter(d2, 0.0)
    while kept(math.nextafter(d2, math.inf)):
        d2 = math.nextafter(d2, math.inf)
    return d2


def _run_chunk(
    seed_seq, n, *, cfg, lattice, columns, g_pow, mix, wavelength, d2_max, n_bins
) -> np.ndarray:
    """Accumulate binned co + 1j * cross powers for one chunk of n realizations.

    The (realization, cell) pairs are formed in C-ordered tiles of `rows`
    realizations by all cells, about `_TILE` pairs, so their arrays take
    O(max(_TILE, n_cells)) memory, whatever `_CHUNK` is (only the small
    per-axis terms `sq` grow with it). `columns` = (col_x, col_y, col_size)
    lists the distinct (x, y) entry pairs of the lattice, each a run of
    col_size consecutive cells: a tile sums x + y once per column, repeats
    it over the column's cells and adds z, so every d2 is still (x + y) + z.
    Only arrivals before max_delay are gathered, in row-major order, and
    `np.add.at` adds each into its bin in that order, as one `np.bincount`
    over the chunk would: every bin sum is bit-identical to the untiled one.

    One compare keeps the pairs with d2 <= d2_max (`_max_kept_d2`); of those,
    only a transmitter exactly on the receiver has d2 == 0, and it is dropped
    among the kept arrivals before any division. Sqrt, delay and power are
    then formed in place for the survivors only. `g_pow` (g^B) and `mix`
    (co + 1j * cross) of each cell come tiled to `rows` rows by `simulate_pdp`,
    so each is one gather by flat index; one complex sum per bin holds both.
    """
    rng = np.random.default_rng(seed_seq)
    dims = np.array(lattice.dims)
    if cfg.placement == "uniform":
        tx, rx = _sample_uniform(rng, n, dims)
    else:
        tx, rx = _sample_fixed(rng, n, dims, cfg.distance)
    # An array unpickled in a pool worker has its own dtype object.
    # A result takes the dtype of its first operand, so every array the
    # arrivals are computed from is re-wrapped: `np.add.at` leaves its fast
    # path for such a dtype.
    g_pow, mix = np.asarray(g_pow, dtype=float), np.asarray(mix, dtype=complex)
    offsets, signs = (
        [np.asarray(a, dtype=float) for a in arrays] for arrays in (lattice.offsets, lattice.signs)
    )

    sq_x, sq_y, sq_z = (
        (off[None, :] + sign[None, :] * tx[:, i : i + 1] - rx[:, i : i + 1]) ** 2
        for i, (off, sign) in enumerate(zip(offsets, signs))
    )
    col_x, col_y, col_size = columns
    iz = lattice.cells[2]
    rows = g_pow.size // iz.size
    acc = np.zeros(n_bins, dtype=complex)
    for r in range(0, n, rows):
        # Summed as (x + y) + z, realization-major over the kept cells: the
        # same terms in the same order as over the full cube.
        xy = sq_x[r : r + rows].take(col_x, axis=1)
        xy += sq_y[r : r + rows].take(col_y, axis=1)
        d2 = np.repeat(xy, col_size, axis=1)
        d2 += sq_z[r : r + rows].take(iz, axis=1)
        flat = np.flatnonzero(d2 <= d2_max)
        d2 = d2.ravel().take(flat)
        if not d2.all():  # a transmitter exactly on the receiver
            keep = d2 > 0.0
            flat, d2 = flat[keep], d2[keep]
        tau = np.sqrt(d2)
        tau /= SPEED_OF_LIGHT
        tau /= cfg.bin_width
        idx = tau.astype(np.int64)
        # d2 becomes the arrival power g^B * lambda^2 / (4 pi d2), in place
        d2 *= 4.0 * np.pi
        np.divide(wavelength * wavelength, d2, out=d2)
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
    n_bins = int(round(cfg.max_delay / cfg.bin_width))

    lattice = enumerate_images(room, SPEED_OF_LIGHT * cfg.max_delay)
    g_pow = material.g ** lattice.bounces.astype(float)
    # A channel's weight is half its two split parts; g^B stays in g_pow.
    rho_pow = _rho_power(material.gamma, lattice.bounces)
    splits = (bounce_split(*_mu_products(q), 1.0, rho_pow) for q in channel_pair(p))
    mix_co, mix_cross = (0.5 * (co + cross) for co, cross in splits)
    mix = mix_co + 1j * mix_cross
    if cfg.placement == "fixed" and not cfg.los:
        # The transmitter's cell, the one with zero bounces, weighs nothing.
        # Its arrival adds +0.0 to a bin that holds a sum of terms >= +0.0,
        # so every bin keeps its bits.
        mix[lattice.bounces == 0] = 0.0

    # Cells are in lexicographic (x, y, z) order, so each distinct (x, y)
    # entry pair is one run of consecutive cells.
    ix, iy, _ = lattice.cells
    starts = np.ones(ix.size, dtype=bool)
    starts[1:] = (ix[1:] != ix[:-1]) | (iy[1:] != iy[:-1])
    columns = (ix[starts], iy[starts], np.diff(np.flatnonzero(starts), append=ix.size))
    rows = max(1, _TILE // ix.size)
    run = functools.partial(
        _run_chunk, cfg=cfg, lattice=lattice, columns=columns, wavelength=wavelength,
        g_pow=np.tile(g_pow, rows), mix=np.tile(mix, rows),
        d2_max=_max_kept_d2(cfg.max_delay, cfg.bin_width, n_bins), n_bins=n_bins,
    )
    sizes = [min(_CHUNK, cfg.n_realizations - k) for k in range(0, cfg.n_realizations, _CHUNK)]
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(sizes))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(workers, len(sizes), cpus or 1)

    if n_workers > 1:
        # imported here so single-worker runs skip concurrent.futures.process
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
        acc = sum((pool.map if pool else map)(run, seeds, sizes))  # in chunk order

    centers = (np.arange(n_bins) + 0.5) * cfg.bin_width
    norm = cfg.n_realizations * cfg.bin_width
    # Split before dividing: complex-by-real division rounds both parts otherwise.
    co = PdpTrace(delays=centers, values=acc.real / norm, scale="linear")
    cross = PdpTrace(delays=centers, values=acc.imag / norm, scale="linear")
    return co, cross
