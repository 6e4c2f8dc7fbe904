"""Observation model: band-limiting pulse, noise floor, and PDP utilities.

A measured average power delay profile differs from the underlying power
delay spectrum by convolution with the squared magnitude of the sounding
pulse and by an additive white noise floor:

    P_y(tau) = integral P(tau - t) |s(t)|^2 dt + P_noise.

This module tabulates unit-energy pulses on the delay grid, applies the
convolution, places the discrete direct-path spike as a pulse-shaped bump,
and holds the one dB rule (`to_db`, `from_db`) for sampled traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DistanceCondition, PdsParams, _require_positive, direct_path, pds_conditional

_PULSE_KINDS = ("boxcar", "gaussian")
# -3 dB matched width factor for the gaussian pulse: std = 1 / (2 pi B * 0.3)
_GAUSSIAN_WIDTH_FACTOR = 0.3
_MAX_PULSE_TAPS = 10**7  # taps on each side of the pulse centre that pulse_taps may tabulate


@dataclass(frozen=True)
class PulseShape:
    """Transmitted pulse; `bandwidth` in Hz. |s(t)|^2 integrates to one.

    boxcar: |s|^2 constant over a duration 1/bandwidth.
    gaussian: |s|^2 gaussian with std 1/(2 pi bandwidth 0.3).
    """

    kind: str = "boxcar"
    bandwidth: float = 1e9

    def __post_init__(self) -> None:
        if self.kind not in _PULSE_KINDS:
            raise ValueError(f"pulse kind must be one of {_PULSE_KINDS}, got {self.kind!r}")
        _require_positive("pulse bandwidth", self.bandwidth)

    def power_profile(self, t) -> np.ndarray:
        """Continuous |s(t)|^2 with unit analytic energy, centered at t = 0."""
        t = np.asarray(t, dtype=float)
        if self.kind == "boxcar":
            half = 0.5 / self.bandwidth
            return np.where(np.abs(t) <= half, self.bandwidth, 0.0)
        sigma = 1.0 / (2.0 * math.pi * self.bandwidth * _GAUSSIAN_WIDTH_FACTOR)
        return np.exp(-0.5 * (t / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))

    def half_support(self) -> float:
        """Delay beyond which |s|^2 is (numerically) zero."""
        if self.kind == "boxcar":
            return 0.5 / self.bandwidth
        return 6.0 / (2.0 * math.pi * self.bandwidth * _GAUSSIAN_WIDTH_FACTOR)


@dataclass(frozen=True)
class ObservationParams:
    """Sounding pulse plus additive noise power density (linear, 1/s)."""

    pulse: PulseShape
    noise_power: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_power < math.inf:
            raise ValueError(f"noise power must be finite and >= 0, got {self.noise_power}")


@dataclass
class PdpTrace:
    """Sampled power-versus-delay curve on a uniform delay grid.

    delays are seconds; values are linear power density (1/s) or dB re 1/s
    depending on `scale`. Values may not be NaN or +inf; -inf dB is zero power.
    """

    delays: np.ndarray
    values: np.ndarray
    scale: str = "linear"

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.scale not in ("linear", "db"):
            raise ValueError(f"scale must be 'linear' or 'db', got {self.scale!r}")
        if self.delays.ndim != 1 or self.delays.size < 2:
            raise ValueError("delay grid must be one-dimensional with at least two samples")
        if self.values.shape != self.delays.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match delays {self.delays.shape}"
            )
        if not np.all(np.isfinite(self.delays)):
            raise ValueError("delays must be finite")
        steps = np.diff(self.delays)
        if np.any(steps <= 0):
            raise ValueError("delays must be strictly increasing")
        # np.allclose(steps, steps[0], rtol=1e-6, atol=0) on finite steps, without its overhead
        if np.any(np.abs(steps - steps[0]) > 1e-6 * steps[0]):
            raise ValueError("delay grid must be uniformly spaced")
        if np.isnan(self.values).any() or np.any(self.values == math.inf):
            raise ValueError("trace values must not be NaN or +inf")
        if self.scale == "linear" and np.any(self.values < 0):
            raise ValueError("linear trace values must be nonnegative")

    @property
    def spacing(self) -> float:
        return float(self.delays[1] - self.delays[0])


def pulse_taps(pulse: PulseShape, spacing: float) -> np.ndarray:
    """Tabulate |s|^2 symmetrically on a grid of step `spacing`.

    Taps are renormalized so that sum(taps) * spacing = 1 exactly, making the
    discrete convolution energy preserving.
    """
    _require_positive("grid spacing", spacing)
    half = pulse.half_support() / spacing
    if not half <= _MAX_PULSE_TAPS:
        raise ValueError(
            f"pulse bandwidth {pulse.bandwidth:.4g} Hz needs more than {_MAX_PULSE_TAPS} taps "
            f"each side of its centre on a {spacing:.4g} s grid"
        )
    k = int(math.ceil(half)) + 1
    raw = pulse.power_profile(np.arange(-k, k + 1) * spacing)
    return raw / (raw.sum() * spacing)


def convolve_density(grid: np.ndarray, density, pulse: PulseShape) -> np.ndarray:
    """Convolve a continuous density with the pulse power profile on `grid`.

    `density` is a callable evaluated on an extension of the grid so the
    filter never sees zero padding where the density is nonzero.
    """
    grid = np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    taps = pulse_taps(pulse, step)
    k = len(taps) // 2
    ext = np.concatenate(
        [grid[0] + np.arange(-k, 0) * step, grid, grid[-1] + np.arange(1, k + 1) * step]
    )
    samples = np.asarray(density(ext), dtype=float)
    return np.convolve(samples, taps, mode="valid") * step


def _spike_bump(grid: np.ndarray, step: float, delay: float, weight: float, pulse) -> np.ndarray:
    """Pulse-shaped density bump of discrete energy `weight` centered at `delay`."""
    # Normalize on a virtual unbounded grid sharing the fractional offset of
    # `delay`, so integer-step shifts reproduce the bump shape exactly and
    # the deposited energy equals `weight` whenever the support is in range.
    frac = (delay - grid[0]) % step
    k = int(math.ceil(pulse.half_support() / step)) + 2
    norm = pulse.power_profile(np.arange(-k, k + 1) * step - frac).sum() * step
    raw = pulse.power_profile(grid - delay)
    return weight * raw / norm


def observed_pds(
    grid: np.ndarray,
    p: PdsParams,
    cond: DistanceCondition | None,
    obs: ObservationParams,
) -> PdpTrace:
    """Model trace as a sounder would record it: pulse smearing plus noise.

    The diffuse density (distance-conditioned when `cond` is given) is
    convolved with the pulse power profile; under line of sight the direct
    spike is added as a pulse-shaped bump of matching energy; the noise
    floor is added to every sample. Grid spacing must resolve the pulse:
    spacing <= 1/(4 bandwidth).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("delay grid must be one-dimensional with at least two samples")
    step = float(grid[1] - grid[0])
    if step > 1.0 / (4.0 * obs.pulse.bandwidth) * (1.0 + 1e-12):
        raise ValueError(
            f"grid spacing {step:.3e} s too coarse for bandwidth "
            f"{obs.pulse.bandwidth:.3e} Hz; need spacing <= 1/(4 bandwidth)"
        )
    values = convolve_density(grid, lambda t: pds_conditional(t, p, cond), obs.pulse)
    spike = direct_path(p, cond)
    if spike is not None:
        values = values + _spike_bump(grid, step, spike.delay, spike.weight, obs.pulse)
    values = values + obs.noise_power
    return PdpTrace(delays=grid.copy(), values=values, scale="linear")


def to_db(power):
    """10 log10(power) in dB; zero power gives -inf without a warning."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)


def from_db(level):
    """Linear power 10^(level / 10), the inverse of `to_db`."""
    return np.power(10.0, level / 10.0)


def db_linear_convert(trace: PdpTrace, target: str) -> PdpTrace:
    """Convert a trace between linear power density and dB re 1/s."""
    if target not in ("linear", "db"):
        raise ValueError(f"target scale must be 'linear' or 'db', got {target!r}")
    if trace.scale == target:
        return PdpTrace(delays=trace.delays.copy(), values=trace.values.copy(), scale=target)
    if target == "db":
        if np.any(trace.values <= 0):
            raise ValueError("cannot convert nonpositive linear values to dB")
        return PdpTrace(delays=trace.delays.copy(), values=to_db(trace.values), scale="db")
    return PdpTrace(delays=trace.delays.copy(), values=from_db(trace.values), scale="linear")
