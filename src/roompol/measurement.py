"""Observation model: band-limiting pulse, noise floor, and PDP utilities.

A measured average power delay profile differs from the underlying power
delay spectrum by convolution with the squared magnitude of the sounding
pulse and by an additive white noise floor:

    P_y(tau) = integral P(tau - t) |s(t)|^2 dt + P_noise.

A `sounding` checks a delay grid once and tabulates the unit-energy pulse
on it; `observed_values` then applies the convolution, places the discrete
direct-path spike as a pulse-shaped bump and adds the noise, as often as the
parameters change. The module also holds the one dB rule (`to_db`,
`from_db`) for sampled traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _MAX_CELLS, DistanceCondition, PdsParams, _require_choice, _require_nonnegative,
    _require_positive, direct_path, pds_conditional,
)

_PULSE_KINDS = ("boxcar", "gaussian")
_SCALES = ("linear", "db")
# -3 dB matched width factor for the gaussian pulse: std = 1 / (2 pi B * 0.3)
_GAUSSIAN_WIDTH_FACTOR = 0.3


@dataclass(frozen=True)
class PulseShape:
    """Transmitted pulse; `bandwidth` in Hz. |s(t)|^2 integrates to one.

    boxcar: |s|^2 constant over a duration 1/bandwidth.
    gaussian: |s|^2 gaussian with std 1/(2 pi bandwidth 0.3).
    """

    kind: str = "boxcar"
    bandwidth: float = 1e9

    def __post_init__(self) -> None:
        _require_choice("pulse kind", self.kind, _PULSE_KINDS)
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
        _require_nonnegative("noise power", self.noise_power)


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
        _require_choice("scale", self.scale, _SCALES)
        self.grid_step(self.delays)
        if self.values.shape != self.delays.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match delays {self.delays.shape}"
            )
        if np.isnan(self.values).any() or (self.values == math.inf).any():
            raise ValueError("trace values must not be NaN or +inf")
        if self.scale == "linear" and (self.values < 0).any():
            raise ValueError("linear trace values must be nonnegative")

    @staticmethod
    def grid_step(delays: np.ndarray) -> float:
        """Step of `delays`, checked to be 1-D, of 2+ samples, finite, increasing and uniform."""
        if delays.ndim != 1 or delays.size < 2:
            raise ValueError("delay grid must be one-dimensional with at least two samples")
        if not np.isfinite(delays).all():
            raise ValueError("delays must be finite")
        steps = np.diff(delays)
        if (steps <= 0).any():
            raise ValueError("delays must be strictly increasing")
        # np.allclose(steps, steps[0], rtol=1e-6, atol=0) on finite steps, without its overhead
        if (np.abs(steps - steps[0]) > 1e-6 * steps[0]).any():
            raise ValueError("delay grid must be uniformly spaced")
        return float(delays[1] - delays[0])


@dataclass(frozen=True)
class Sounding:
    """A delay grid and its step, checked to resolve `pulse`; |s|^2 `taps` on that step with
    sum(taps) * step = 1 exactly (the convolution preserves energy); `ext`, the grid extended
    by half the taps each side, so the filter never pads a nonzero density with zeros."""

    grid: np.ndarray
    step: float
    pulse: PulseShape
    taps: np.ndarray
    ext: np.ndarray


def sounding(grid, pulse: PulseShape) -> Sounding:
    """Check `grid` by `PdpTrace`'s rule and its step against `pulse`
    (step <= 1/(4 bandwidth)), then tabulate the pulse on it."""
    grid = np.array(grid, dtype=float)  # the sounding's own copy
    step = PdpTrace.grid_step(grid)
    if step > 1.0 / (4.0 * pulse.bandwidth) * (1.0 + 1e-12):
        raise ValueError(
            f"grid spacing {step:.3e} s too coarse for bandwidth "
            f"{pulse.bandwidth:.3e} Hz; need spacing <= 1/(4 bandwidth)"
        )
    half = pulse.half_support() / step
    if not half <= _MAX_CELLS:  # taps on each side of the pulse centre
        raise ValueError(
            f"pulse bandwidth {pulse.bandwidth:.4g} Hz needs more than {_MAX_CELLS} taps "
            f"each side of its centre on a {step:.4g} s grid"
        )
    k = int(math.ceil(half)) + 1
    raw = pulse.power_profile(np.arange(-k, k + 1) * step)
    ext = np.concatenate(
        [grid[0] + np.arange(-k, 0) * step, grid, grid[-1] + np.arange(1, k + 1) * step]
    )
    return Sounding(grid, step, pulse, raw / (raw.sum() * step), ext)


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


def observed_values(s: Sounding, p: PdsParams, cond: DistanceCondition | None,
                    noise_power: float) -> np.ndarray:
    """Model values on the sounding's grid: the diffuse density (distance-conditioned
    when `cond` is given) convolved with the pulse, the direct spike of line of sight
    as a pulse-shaped bump of matching energy, and `noise_power` on every sample."""
    values = np.convolve(pds_conditional(s.ext, p, cond), s.taps, mode="valid") * s.step
    spike = direct_path(p, cond)
    if spike is not None:
        values = values + _spike_bump(s.grid, s.step, spike.delay, spike.weight, s.pulse)
    return values + noise_power


def observed_pds(grid: np.ndarray, p: PdsParams, cond: DistanceCondition | None,
                 obs: ObservationParams) -> PdpTrace:
    """Model trace as a sounder would record it on `grid`: `observed_values` on
    `sounding(grid, obs.pulse)`. Grid spacing must resolve the pulse:
    spacing <= 1/(4 bandwidth).
    """
    s = sounding(grid, obs.pulse)
    return PdpTrace(delays=s.grid, values=observed_values(s, p, cond, obs.noise_power))


def to_db(power):
    """10 log10(power) in dB; zero power gives -inf without a warning."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(power)


def from_db(level):
    """Linear power 10^(level / 10), the inverse of `to_db`."""
    return np.power(10.0, level / 10.0)


def db_linear_convert(trace: PdpTrace, target: str) -> PdpTrace:
    """Convert a trace between linear power density and dB re 1/s; zero power is -inf dB."""
    _require_choice("target scale", target, _SCALES)
    if trace.scale == target:
        return PdpTrace(delays=trace.delays.copy(), values=trace.values.copy(), scale=target)
    if target == "db":
        return PdpTrace(delays=trace.delays.copy(), values=to_db(trace.values), scale="db")
    return PdpTrace(delays=trace.delays.copy(), values=from_db(trace.values), scale="linear")
