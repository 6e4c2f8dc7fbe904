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
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .measurement import PdpTrace
from .model import (
    SPEED_OF_LIGHT,
    PdsParams,
    PolGain,
    RoomGeometry,
    WallMaterial,
    _mu_products,
    channel_pair,
)

_CHUNK = 2048  # realizations per work unit; fixed so results never depend on worker count

_PLACEMENTS = ("uniform", "fixed")

_REACH_SLACK = 1e-9  # relative; see enumerate_images


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
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if not 0 < self.bin_width < math.inf:
            raise ValueError(f"bin_width must be finite and > 0, got {self.bin_width}")
        if not self.bin_width < self.max_delay < math.inf:
            raise ValueError(
                f"max_delay ({self.max_delay}) must be finite and exceed "
                f"bin_width ({self.bin_width})"
            )
        if self.placement not in _PLACEMENTS:
            raise ValueError(f"placement must be one of {_PLACEMENTS}, got {self.placement!r}")
        if self.placement == "fixed":
            if self.distance is None or not self.distance > 0:
                raise ValueError("fixed placement requires a positive distance")
        elif self.distance is not None:
            raise ValueError("distance is only meaningful for fixed placement")
        n_bins = self.max_delay / self.bin_width
        if abs(n_bins - round(n_bins)) > 1e-6:
            raise ValueError("max_delay must be an integer multiple of bin_width")


def _axis_images(length: float, span: float):
    """Mirror coordinates along one axis as offset + sign * tx.

    Covers every image coordinate in [-span, length + span]. Even-type
    images sit at 2p*length + tx with |2p| axis bounces, odd-type at
    2p*length - tx with |2p - 1|; the even p = 0 entry is the transmitter
    itself and is flagged for direct-path handling.
    """
    p_even = np.arange(
        math.floor(-(span + length) / (2.0 * length)),
        math.ceil((length + span) / (2.0 * length)) + 1,
    )
    p_odd = np.arange(
        math.floor(-span / (2.0 * length)),
        math.ceil((2.0 * length + span) / (2.0 * length)) + 1,
    )
    offsets = np.concatenate([2.0 * p_even * length, 2.0 * p_odd * length])
    signs = np.concatenate([np.ones(p_even.size), -np.ones(p_odd.size)])
    bounces = np.concatenate([np.abs(2 * p_even), np.abs(2 * p_odd - 1)]).astype(np.int64)
    direct = np.concatenate([p_even == 0, np.zeros(p_odd.size, dtype=bool)])
    return offsets, signs, bounces, direct


@dataclass(frozen=True)
class ImageLattice:
    """Mirror-image cells within reach of the room, as flat arrays.

    `offsets[i]` and `signs[i]` are the mirror tables of axis i (see
    `_axis_images`). Cell k takes entry `cells[i][k]` of each table, so its
    image coordinate along axis i is `offsets[i][j] + signs[i][j] * tx[i]`
    with `j = cells[i][k]`. Cells are in lexicographic (x, y, z) order;
    `bounces` holds each cell's exact wall-interaction count and `direct`
    flags the cell of the transmitter itself.
    """

    dims: tuple[float, float, float]
    offsets: tuple[np.ndarray, np.ndarray, np.ndarray]
    signs: tuple[np.ndarray, np.ndarray, np.ndarray]
    cells: tuple[np.ndarray, np.ndarray, np.ndarray]
    bounces: np.ndarray
    direct: np.ndarray

    def positions(self, tx) -> np.ndarray:
        """Image positions, shape (n_cells, 3), of a transmitter inside the room."""
        tx = np.asarray(tx, dtype=float)
        if tx.shape != (3,):
            raise ValueError(f"transmitter position must be a 3-vector, got shape {tx.shape}")
        for i, l in enumerate(self.dims):
            if not 0.0 < tx[i] < l:
                raise ValueError(
                    f"transmitter must lie strictly inside the room; axis {i} "
                    f"coordinate {tx[i]} not in (0, {l})"
                )
        return np.stack(
            [
                off[idx] + sign[idx] * t
                for off, sign, idx, t in zip(self.offsets, self.signs, self.cells, tx)
            ],
            axis=1,
        )


def enumerate_images(room: RoomGeometry, reach: float) -> ImageLattice:
    """The lattice cells whose image box lies within distance `reach` of the room.

    As the transmitter moves through the room, an even-type image on one
    axis sweeps [offset, offset + L] and an odd-type one [offset - L, offset];
    a cell's box is the product of its three intervals. The box-to-room
    distance is a lower bound on every image-to-receiver distance, so the
    kept cells hold every arrival with delay below reach / c, for every
    transmitter and receiver inside the room. The relative slack on `reach`
    keeps that guarantee when rounding shifts a squared distance by an ulp.
    """
    if not reach > 0:
        raise ValueError(f"reach must be > 0, got {reach}")
    dims = (room.lx, room.ly, room.lz)
    per_axis = [_axis_images(l, reach) for l in dims]
    gap2 = []
    for l, (off, sign, _, _) in zip(dims, per_axis):
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
        direct=np.logical_and.reduce([a[3][idx] for a, idx in zip(per_axis, cells)]),
    )


def _sample_uniform(rng: np.random.Generator, n: int, dims: np.ndarray):
    tx = rng.uniform(0.0, 1.0, (n, 3)) * dims
    rx = rng.uniform(0.0, 1.0, (n, 3)) * dims
    return tx, rx


def _sample_fixed(rng: np.random.Generator, n: int, dims: np.ndarray, distance: float):
    """Receiver uniform in the box, transmitter uniform on the sphere of
    radius `distance` around it, rejected until inside the box."""
    tx_out = np.empty((n, 3))
    rx_out = np.empty((n, 3))
    filled = 0
    stalled = 0
    while filled < n:
        m = max(4 * (n - filled), 128)
        rx = rng.uniform(0.0, 1.0, (m, 3)) * dims
        vec = rng.normal(size=(m, 3))
        norm = np.linalg.norm(vec, axis=1)
        good = norm > 1e-12
        tx = rx + distance * vec / np.maximum(norm, 1e-300)[:, None]
        inside = good & np.all((tx > 0.0) & (tx < dims), axis=1)
        take = min(int(inside.sum()), n - filled)
        if take == 0:
            stalled += 1
            if stalled > 1000:
                raise RuntimeError(
                    f"could not place transmitter at distance {distance} m inside the room"
                )
            continue
        stalled = 0
        idx = np.flatnonzero(inside)[:take]
        tx_out[filled : filled + take] = tx[idx]
        rx_out[filled : filled + take] = rx[idx]
        filled += take
    return tx_out, rx_out


def _run_chunk(
    seed_seq, n, *, cfg, lattice, g_pow, mix_co, mix_cross, wavelength, speed_of_light, n_bins
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate binned co/cross powers for one chunk of n realizations."""
    rng = np.random.default_rng(seed_seq)
    dims = np.array(lattice.dims)
    if cfg.placement == "uniform":
        tx, rx = _sample_uniform(rng, n, dims)
    else:
        tx, rx = _sample_fixed(rng, n, dims, cfg.distance)

    # Summed as (x + y) + z, realization-major over the kept cells: the same
    # terms in the same order as over the full cube, so every bin sum is
    # bit-identical to the unpruned computation.
    sq = [
        (off[None, :] + sign[None, :] * tx[:, i : i + 1] - rx[:, i : i + 1]) ** 2
        for i, (off, sign) in enumerate(zip(lattice.offsets, lattice.signs))
    ]
    ix, iy, iz = lattice.cells
    d2 = sq[0][:, ix]
    d2 += sq[1][:, iy]
    d2 += sq[2][:, iz]

    tau = np.sqrt(d2) / speed_of_light
    mask = (tau < cfg.max_delay) & (d2 > 0.0)
    w = wavelength * wavelength / (4.0 * np.pi * d2[mask])
    attn = np.broadcast_to(g_pow, d2.shape)[mask] * w
    idx = (tau[mask] / cfg.bin_width).astype(np.int64)
    return tuple(
        np.bincount(idx, weights=attn * np.broadcast_to(mix, d2.shape)[mask], minlength=n_bins)
        for mix in (mix_co, mix_cross)
    )


def simulate_pdp(
    room: RoomGeometry,
    material: WallMaterial,
    mu_t: PolGain,
    mu_r: PolGain,
    wavelength: float,
    cfg: SimConfig,
    speed_of_light: float = SPEED_OF_LIGHT,
    workers: int | None = None,
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
    p = PdsParams(
        room=room, material=material, mu_t=mu_t, mu_r=mu_r,
        wavelength=wavelength, speed_of_light=speed_of_light,
    )
    if cfg.placement == "fixed" and cfg.distance >= room.diagonal():
        raise ValueError(
            f"fixed distance {cfg.distance} m admits no placement in a room "
            f"with diagonal {room.diagonal():.3f} m"
        )
    n_bins = int(round(cfg.max_delay / cfg.bin_width))

    lattice = enumerate_images(room, speed_of_light * cfg.max_delay)
    if cfg.placement == "fixed" and not cfg.los:
        # Dropping a cell keeps the other arrivals in order, so bin sums are unchanged.
        keep = ~lattice.direct
        lattice = replace(
            lattice, cells=tuple(i[keep] for i in lattice.cells),
            bounces=lattice.bounces[keep], direct=lattice.direct[keep],
        )

    g, gamma = material.g, material.gamma
    lam2_pow = ((1.0 - gamma) / (1.0 + gamma)) ** lattice.bounces
    g_pow = g**lattice.bounces.astype(float)
    # Each channel pairs its (k_co, k_cross) with (1 +/- lam2^B).
    mix_co, mix_cross = (
        0.5 * (k_co * (1.0 + lam2_pow) + k_cross * (1.0 - lam2_pow))
        for k_co, k_cross in map(_mu_products, channel_pair(p))
    )

    run = functools.partial(
        _run_chunk, cfg=cfg, lattice=lattice, g_pow=g_pow, mix_co=mix_co, mix_cross=mix_cross,
        wavelength=wavelength, speed_of_light=speed_of_light, n_bins=n_bins,
    )
    sizes = [min(_CHUNK, cfg.n_realizations - k) for k in range(0, cfg.n_realizations, _CHUNK)]
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(len(sizes))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n_workers = min(max(1, workers or 1), len(sizes), cpus or 1)

    acc_co, acc_cross = np.zeros(n_bins), np.zeros(n_bins)
    with ProcessPoolExecutor(n_workers) if n_workers > 1 else nullcontext() as pool:
        for part_co, part_cross in (pool.map if pool else map)(run, seeds, sizes):
            acc_co += part_co
            acc_cross += part_cross

    centers = (np.arange(n_bins) + 0.5) * cfg.bin_width
    norm = cfg.n_realizations * cfg.bin_width
    co = PdpTrace(delays=centers, values=acc_co / norm, scale="linear")
    cross = PdpTrace(delays=centers, values=acc_cross / norm, scale="linear")
    return co, cross
