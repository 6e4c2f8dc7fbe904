"""Closed-form polarimetric power delay spectrum for box-shaped rooms.

The diffuse in-room channel decays exponentially with the Eyring
reverberation time T, while wall bounces gradually leak power between the
two polarization states. Leakage per bounce is controlled by a single
material parameter, which sets a second time constant, the polarimetric
mixing time T_p, governing how fast the co- and cross-polarized spectra
converge to a common asymptote. All delays are in seconds and all power
densities are normalized to unit transmit power, i.e. have units 1/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8  # m/s
# Entries any one array sized by an input may hold: 80 MB of float64, 160 MB of complex.
_MAX_CELLS = 10**7


def _require_positive(name: str, value: float) -> None:
    """Raise a `ValueError` naming `name` unless 0 < value < inf."""
    if not 0 < value < math.inf:
        finite = "" if value <= 0 else " and finite"  # +inf or NaN
        raise ValueError(f"{name} must be > 0{finite}, got {value}")


def _require_length(name: str, value: float) -> None:
    """`_require_positive` on `value` and on its square: about 2e-162 < value < 1.3e154."""
    _require_positive(name, value)
    _require_positive(f"{name} {value} squared", value * value)


def _require_nonnegative(name: str, value: float) -> None:
    """Raise a `ValueError` naming `name` unless 0 <= value < inf."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _require_int(name: str, value: int, minimum: int) -> None:
    """Raise a `ValueError` naming `name` unless `value` is a non-bool integer >= `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _require_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    """Raise a `ValueError` naming `name` unless `value` is one of `choices`."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _whole_steps(span_name: str, step_name: str, span: float, step: float, least: int) -> int:
    """round(span / step), which must lie within 1e-6 of span / step and in [least, _MAX_CELLS]."""
    _require_positive(step_name, step)
    ratio = span / step
    if not (least - 1e-6 <= ratio <= _MAX_CELLS + 1e-6 and abs(ratio - round(ratio)) <= 1e-6):
        raise ValueError(f"{step_name} must divide {span_name} into a whole number of steps "
                         f"from {least} to {_MAX_CELLS}, got {ratio:.15g}")
    return round(ratio)


@dataclass(frozen=True)
class RoomGeometry:
    """Box-shaped room, dimensions in meters."""

    lx: float
    ly: float
    lz: float

    def __post_init__(self) -> None:
        for name in ("lx", "ly", "lz"):
            _require_length(f"room dimension {name}", getattr(self, name))
        # the time constants are V / S times a factor: neither may under- or overflow
        _require_positive("room volume", self.volume())
        _require_positive("room surface", self.surface())

    def volume(self) -> float:
        return self.lx * self.ly * self.lz

    def surface(self) -> float:
        """Total wall area including floor and ceiling."""
        return 2.0 * (self.lx * self.ly + self.lx * self.lz + self.ly * self.lz)

    def diagonal(self) -> float:
        return math.sqrt(self.lx**2 + self.ly**2 + self.lz**2)


@dataclass(frozen=True)
class WallMaterial:
    """Average per-bounce power gain g and cross-polar leakage gamma.

    g must lie strictly inside (0, 1): a perfectly absorbing or lossless
    wall gives no meaningful reverberation decay. gamma in [0, 1); gamma=0
    means no polarization mixing, gamma -> 1 full depolarization in a
    single bounce.
    """

    g: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.g < 1.0:
            raise ValueError(f"per-bounce gain g must be in (0, 1), got {self.g}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"cross-polar leakage gamma must be in [0, 1), got {self.gamma}")


@dataclass(frozen=True)
class PolGain:
    """Sphere-averaged antenna power gain per polarization (theta, phi)."""

    mu_theta: float
    mu_phi: float

    def __post_init__(self) -> None:
        for name in ("mu_theta", "mu_phi"):
            _require_nonnegative(f"mean gain {name}", getattr(self, name))

    @classmethod
    def from_split(cls, xi: float) -> "PolGain":
        """Lossless parameterization [1 - xi, xi] with 0 <= xi <= 1."""
        if not 0.0 <= xi <= 1.0:
            raise ValueError(f"polarization split xi must be in [0, 1], got {xi}")
        return cls(1.0 - xi, xi)

    def swapped(self) -> "PolGain":
        """Gain vector with the two polarization entries exchanged."""
        return PolGain(self.mu_phi, self.mu_theta)


@dataclass(frozen=True)
class PdsParams:
    """Full parameter set of the polarimetric power delay spectrum."""

    room: RoomGeometry
    material: WallMaterial
    mu_t: PolGain
    mu_r: PolGain
    wavelength: float

    def __post_init__(self) -> None:
        _require_length("wavelength", self.wavelength)
        _require_positive("power scale c lam^2 / 2V", _amplitude(self))
        _require_nonnegative("peak power c lam^2 / V (k_co + k_cross)",
                             2.0 * _amplitude(self) * sum(_mu_products(self)))


@dataclass(frozen=True)
class DistanceCondition:
    """Fixed transmitter-receiver distance in meters, with or without line of sight."""

    distance: float
    los: bool = False

    def __post_init__(self) -> None:
        # direct_path and cpr_distance divide by d**2, in Python floats: their
        # overflow is a silent inf, where a numpy scalar's warns
        _require_length("distance", self.distance)
        object.__setattr__(self, "distance", float(self.distance))


@dataclass(frozen=True)
class DirectPath:
    """Discrete direct-path arrival: a Dirac spike at `delay` carrying `weight`.

    The weight is dimensionless power (normalized to transmit power); it is
    never folded into sampled density values.
    """

    delay: float
    weight: float

    def __post_init__(self) -> None:
        _require_nonnegative("direct path weight", self.weight)


def bounce_matrix(material: WallMaterial) -> np.ndarray:
    """Per-bounce 2x2 polarimetric power transfer g/(1+gamma) * [[1, gamma], [gamma, 1]]."""
    g, gamma = material.g, material.gamma
    return (g / (1.0 + gamma)) * np.array([[1.0, gamma], [gamma, 1.0]])


def _count_powers(material: WallMaterial, top: int):
    """g^k and rho^k, rho = (1-gamma)/(1+gamma), for bounce counts k = 0..top."""
    k = np.arange(top + 1)
    return material.g**k, ((1.0 - material.gamma) / (1.0 + material.gamma)) ** k


def bounce_split(k_co, k_cross, decay, mix):
    """Co- and cross-polar weights decay * k_co * (1 + mix) and decay * k_cross * (1 - mix).

    The bounce matrix to the power B splits so, with decay = g^B, mix = rho^B.
    `pds_components` takes it at the mean count, `pds_components_exact` under
    P(B = k | tau) and `mirror.simulate_pdp` at each image's exact count.
    """
    return decay * k_co * (1.0 + mix), decay * k_cross * (1.0 - mix)


def reverberation_time(room: RoomGeometry, material: WallMaterial) -> float:
    """Eyring reverberation time T = -4V / (c S ln g), in seconds."""
    return -4.0 * room.volume() / (SPEED_OF_LIGHT * room.surface() * math.log(material.g))


def _log_rho(gamma: float) -> float:
    """ln((1-gamma)/(1+gamma)) for gamma > 0.

    Taken as log1p(-gamma) - log1p(gamma): forming the ratio first rounds
    it near one and loses relative precision as gamma shrinks (up to 7e-11
    at gamma = 1e-6, 5e-7 at gamma = 1e-10).
    """
    return math.log1p(-gamma) - math.log1p(gamma)


def mixing_time(room: RoomGeometry, material: WallMaterial) -> float:
    """Polarimetric mixing time T_p = -4V / (c S ln((1-gamma)/(1+gamma))), in seconds.

    Returns +inf for gamma = 0 (no mixing ever happens); tends to 0 as
    gamma -> 1 (instantaneous depolarization).
    """
    gamma = material.gamma
    if gamma == 0.0:
        return math.inf
    return -4.0 * room.volume() / (SPEED_OF_LIGHT * room.surface() * _log_rho(gamma))


def mixing_constant(material: WallMaterial) -> float:
    """Ratio T_p / T = ln(g) / ln((1-gamma)/(1+gamma)); room-independent.

    Returns +inf for gamma = 0.
    """
    if material.gamma == 0.0:
        return math.inf
    return math.log(material.g) / _log_rho(material.gamma)


def wall_material_from_times(room: RoomGeometry, t_rev: float, t_mix: float) -> WallMaterial:
    """Invert (T, T_p) back to the wall material for a known room.

    `t_mix` may be +inf, which maps to gamma = 0.
    """
    _require_positive("reverberation time", t_rev)
    if not t_mix > 0:
        raise ValueError(f"mixing time must be > 0, got {t_mix}")
    scale = 4.0 * room.volume() / (SPEED_OF_LIGHT * room.surface())
    g = math.exp(-scale / t_rev)
    # (1 - r) / (1 + r) with r = exp(-x) is tanh(x / 2), which keeps full
    # relative precision where r is near one (small gamma); t_mix = inf gives 0
    gamma = math.tanh(0.5 * scale / t_mix)
    return WallMaterial(g=g, gamma=gamma)


def channel_pair(p: PdsParams) -> tuple[PdsParams, PdsParams]:
    """Co- and cross-channel parameters: the cross channel swaps the receive gains."""
    return p, replace(p, mu_r=p.mu_r.swapped())


def _mu_products(p: PdsParams) -> tuple[float, float]:
    """Co- and cross-products of the transmit/receive mean gain vectors."""
    k_co = p.mu_r.mu_theta * p.mu_t.mu_theta + p.mu_r.mu_phi * p.mu_t.mu_phi
    k_cross = p.mu_r.mu_theta * p.mu_t.mu_phi + p.mu_r.mu_phi * p.mu_t.mu_theta
    return k_co, k_cross


def _amplitude(p: PdsParams) -> float:
    return SPEED_OF_LIGHT * p.wavelength**2 / (2.0 * p.room.volume())


def _delays(tau) -> np.ndarray:
    """`tau` as a float array; a NaN delay raises a `ValueError`, +-inf passes."""
    tau_arr = np.asarray(tau, dtype=float)
    if np.isnan(tau_arr).any():
        raise ValueError("delays must be finite or infinite, not NaN")
    return tau_arr


def _like(tau_arr: np.ndarray, x):
    """`x` as a float for a scalar tau, as it is for an array tau."""
    return float(x) if tau_arr.ndim == 0 else x


def _gated(tau_arr: np.ndarray, *curves):
    """The curves as a tuple, each zero for tau < 0 and a float for a scalar tau."""
    return tuple(_like(tau_arr, np.where(tau_arr >= 0, curve, 0.0)) for curve in curves)


def pds_components(tau, p: PdsParams):
    """Co- and cross-polar parts of the power delay spectrum at delay tau.

    co(tau)    = c lam^2 e^(-tau/T) / 2V * k_co    * (1 + e^(-tau/T_p))
    cross(tau) = c lam^2 e^(-tau/T) / 2V * k_cross * (1 - e^(-tau/T_p))

    for tau >= 0 and zero otherwise: `bounce_split` at the mean bounce count
    c S tau / 4V. The co part switches on abruptly while the cross part
    builds up with the mixing time. Accepts scalar or array tau; returns a
    (co, cross) pair of matching shape.
    """
    tau_arr = _delays(tau)
    tt = np.maximum(tau_arr, 0.0)
    t_rev = reverberation_time(p.room, p.material)
    t_mix = mixing_time(p.room, p.material)
    decay = _amplitude(p) * np.exp(-tt / t_rev)
    # gamma = 0 never mixes (rho = 1); e^(-tau/T_p) would be e^(-inf/inf) at tau = +inf
    mix = np.exp(-tt / t_mix) if t_mix < math.inf else 1.0
    return _gated(tau_arr, *bounce_split(*_mu_products(p), decay, mix))


_OCTANT_NODES = 64  # Gauss-Legendre nodes in cos(theta) and midpoints in phi
_TAU_BLOCK = 8  # delays per block of bounce_count_table: (3 x delays x directions) arrays


def _octant_directions() -> tuple[np.ndarray, np.ndarray]:
    """|u| components, shape (3, n), and weights summing to one on the octant."""
    x, w = np.polynomial.legendre.leggauss(_OCTANT_NODES)
    cos_t = 0.5 * (x + 1.0)
    sin_t = np.sqrt(1.0 - cos_t**2)
    phi = (np.arange(_OCTANT_NODES) + 0.5) * (0.5 * math.pi / _OCTANT_NODES)
    u = np.stack([
        np.outer(sin_t, np.cos(phi)).ravel(),
        np.outer(sin_t, np.sin(phi)).ravel(),
        np.repeat(cos_t, _OCTANT_NODES),
    ])
    return u, np.repeat(0.5 * w / _OCTANT_NODES, _OCTANT_NODES)


def bounce_count_table(tau, room: RoomGeometry) -> np.ndarray:
    """P(B = k | tau), shape (n_tau, K), for delays tau >= 0 under uniform placement.

    - The image boxes tile space, so with the transmitter uniform in the
      room the images are uniform with density 1/V around the receiver.
    - An image at delay tau in direction u lies s_i = c tau |u_i| / L_i
      room lengths away along axis i. A uniform receiver crosses
      floor(s_i) walls with probability 1 - f_i and floor(s_i) + 1 walls
      with probability f_i = frac(s_i), independently per axis, so
      P(B = sum_i floor(s_i) + j | u) is the coefficient of x^j in
      prod_i (1 - f_i + f_i x).
    - By symmetry only the octant of directions is averaged: a 64-node
      Gauss-Legendre rule in cos(theta) times a 64-point midpoint rule in phi.

    The table depends on the room and the delays only; the column count K
    covers the largest count reached. Rows sum to one up to rounding. Delays
    must be finite, and the table may hold at most `_MAX_CELLS` cells.
    """
    tau = _delays(tau).ravel()
    if not np.all(np.isfinite(tau)):
        raise ValueError("delays must be finite")
    u, weights = _octant_directions()
    scale = SPEED_OF_LIGHT * u / np.array([room.lx, room.ly, room.lz])[:, None]
    top = np.floor(tau.max(initial=0.0) * scale).sum(axis=0).max()
    if tau.size * (top + 4.0) > _MAX_CELLS:
        raise ValueError(f"largest delay {tau.max():.4g} s: {tau.size} delays need "
                         f"more than {_MAX_CELLS} table cells; lower it")
    n_k = int(top) + 4
    table = np.zeros((tau.size, n_k))
    for start in range(0, tau.size, _TAU_BLOCK):
        s = scale[:, None, :] * tau[None, start : start + _TAU_BLOCK, None]
        whole = np.floor(s)
        frac = s - whole
        coef = [weights]  # weighted coefficients of prod_i (1 - f_i + f_i x), axis by axis
        for f, q in zip(frac, 1.0 - frac):
            coef = [coef[0] * q, *(a * f + b * q for a, b in zip(coef, coef[1:])), coef[-1] * f]
        rows = s.shape[1] * n_k
        idx = (whole.sum(axis=0).astype(np.intp) + np.arange(0, rows, n_k)[:, None]).ravel()
        flat = table[start : start + _TAU_BLOCK].reshape(-1)
        for j, c in enumerate(coef):  # count sum_i floor(s_i) + j lands j columns right
            flat[j:] += np.bincount(idx, c.ravel(), minlength=rows)[: rows - j]
    return table


def pds_components_exact(tau, p: PdsParams):
    """Co- and cross-polar parts of the PDS under the exact bounce-count expectation.

    This is the curve the mirror-source simulator in `mirror.simulate_pdp`
    estimates under uniform placement. `pds_components` replaces each
    image's integer bounce count B by its mean c S tau / 4V; because B
    varies across directions, E[g^B] > g^E[B] (Jensen), the
    variance-of-reflection-count effect behind Kuttruff's correction to
    Eyring's decay. Here B keeps its distribution P(B = k | tau) from
    `bounce_count_table`, and with lam the wavelength

        (co, cross)(tau) = c lam^2 / 2V * sum_k P(B = k | tau) w(k),
        w(k) = bounce_split(k_co, k_cross, g^k, rho^k).

    The same conventions as `pds_components` hold: zero for tau < 0, scalar
    or array tau, a (co, cross) pair of matching shape. Both functions share
    the mean count, so at a fixed delay the count variance stops mattering as
    g -> 1 and they agree, except that at fixed gamma the cross part's onset
    keeps the discrete first-bounce factor 1 - rho where the closed form has
    -ln(rho). Over [2 ns, 5T], which stretches as g -> 1, the co gap does not
    close: it stays 4.9 dB at g = 0.9 in a 20 x 3 x 3 m room.
    """
    tau_arr = _delays(tau)
    table = bounce_count_table(np.maximum(tau_arr, 0.0), p.room)
    split = bounce_split(*_mu_products(p), *_count_powers(p.material, table.shape[1] - 1))
    return _gated(tau_arr, *(_amplitude(p) * (table @ w).reshape(tau_arr.shape) for w in split))


def pds(tau, p: PdsParams):
    """Polarimetric power delay spectrum, 1/s; zero for tau < 0.

    Equal to the sum of the two components returned by `pds_components`.
    """
    co, cross = pds_components(tau, p)
    return co + cross


def pds_asymptote(tau, p: PdsParams):
    """Large-delay asymptote c lam^2 e^(-tau/T) / 2V * (k_co + k_cross).

    Zero for tau < 0, like `pds_components`. With lossless antennas the
    bracket is one: the classical unpolarized exponential decay times 1/2.
    """
    tau_arr = _delays(tau)
    t_rev = reverberation_time(p.room, p.material)
    k_co, k_cross = _mu_products(p)
    curve = _amplitude(p) * np.exp(-np.maximum(tau_arr, 0.0) / t_rev) * (k_co + k_cross)
    return _gated(tau_arr, curve)[0]


def co_cross_ratio(tau, p: PdsParams):
    """Delay-dependent ratio co(tau)/cross(tau) = (k_co/k_cross) coth(tau / 2 T_p).

    Requires tau > 0. Diverges for small delays and approaches the antenna
    prefactor k_co/k_cross at large delays. Returns +inf whenever the cross
    product of the mean gains is zero or gamma = 0 (no cross-polar power),
    and where the ratio passes the largest double (gamma below about 1e-308).
    """
    tau_arr = _delays(tau)
    if np.any(tau_arr <= 0):
        raise ValueError("co/cross ratio requires tau > 0")
    k_co, k_cross = _mu_products(p)
    t_mix = mixing_time(p.room, p.material)
    if k_cross == 0.0 or not math.isfinite(t_mix):
        out = np.full_like(tau_arr, math.inf)
    else:
        with np.errstate(over="ignore", divide="ignore"):
            out = (k_co / k_cross) / np.tanh(tau_arr / (2.0 * t_mix))
    return _like(tau_arr, out)


def cpr(p: PdsParams) -> float:
    """Cross-polarization ratio: delay-integrated co power over cross power.

    Closed form (k_co/k_cross) * (1 + 2 T_p/T). Returns +inf when gamma = 0
    or when the cross product of the mean gains vanishes.
    """
    k_co, k_cross = _mu_products(p)
    if k_cross == 0.0 or p.material.gamma == 0.0:
        return math.inf
    return (k_co / k_cross) * (1.0 + 2.0 * mixing_constant(p.material))


def direct_path(p: PdsParams, cond: DistanceCondition | None) -> DirectPath | None:
    """Line-of-sight spike at d/c with weight k_co * lam^2 / (4 pi d^2); None without it."""
    if cond is None or not cond.los:
        return None
    k_co, _ = _mu_products(p)
    weight = k_co * p.wavelength**2 / (4.0 * math.pi * cond.distance**2)
    return DirectPath(delay=cond.distance / SPEED_OF_LIGHT, weight=weight)


def pds_conditional(tau, p: PdsParams, cond: DistanceCondition | None):
    """Diffuse power delay spectrum conditioned on the transmitter-receiver distance.

    The density is `pds` gated to delays strictly beyond the direct delay
    d/c. Under line of sight the direct path also carries the Dirac spike
    of `direct_path`, which is never part of the sampled density. With
    `cond` None the distance is unknown and the density is `pds` itself.
    """
    if cond is None:
        return pds(tau, p)
    tau_arr = _delays(tau)
    return _like(tau_arr, np.where(tau_arr > cond.distance / SPEED_OF_LIGHT, pds(tau_arr, p), 0.0))


def cpr_distance(p: PdsParams, cond: DistanceCondition) -> float:
    """Cross-polarization ratio of the distance-conditioned spectrum.

    Integrating the conditioned co and cross densities over delays beyond
    d/c (the line-of-sight spike counts toward the co numerator) gives

        (k_co/k_cross) * (Q(d) + (1 + r) / (1 - r)),
        r = T_p/(T+T_p) * e^(-d/(c T_p)),

    with Q(d) = 0 without line of sight and

        Q(d) = V / (2 pi c T d^2) * e^(d/(c T)) / (1 - r)

    with it. Returns +inf when T_p is infinite (gamma = 0 or overflow), when the cross
    product of the mean gains vanishes, and where e^(d/(c T)) overflows (LOS, d > ~709 c T).
    """
    k_co, k_cross = _mu_products(p)
    t_mix = mixing_time(p.room, p.material)
    if k_cross == 0.0 or not math.isfinite(t_mix):
        return math.inf
    t_rev = reverberation_time(p.room, p.material)
    d = cond.distance
    c = SPEED_OF_LIGHT
    share = t_mix / (t_rev + t_mix)
    r = share * math.exp(-d / (c * t_mix))
    # 1 - r as T/(T+T_p) - share * expm1(-d/(c T_p)): r rounds toward one as T/T_p -> 0
    one_minus_r = t_rev / (t_rev + t_mix) - share * math.expm1(-d / (c * t_mix))
    bracket = (1.0 + r) / one_minus_r
    q = 0.0
    if cond.los:
        try:
            growth = math.exp(d / (c * t_rev))
        except OverflowError:
            return math.inf
        q = p.room.volume() / (2.0 * math.pi * c * t_rev * d**2) * growth / one_minus_r
    return (k_co / k_cross) * (q + bracket)
