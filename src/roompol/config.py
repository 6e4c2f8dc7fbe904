"""Run configuration: a single YAML document with strictly validated sections.

Unknown sections or keys are rejected, and every value is funneled through
the corresponding domain type so that invariant violations surface as
named-field errors rather than crashes deeper in a run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

from .measurement import PulseShape
from .mirror import SimConfig
from .model import (
    SPEED_OF_LIGHT,
    DistanceCondition,
    PolGain,
    RoomGeometry,
    WallMaterial,
)


class ConfigError(ValueError):
    """Configuration document failed validation; message names the field."""


@dataclass
class FitSettings:
    initial_guess: tuple[float, float, float, float | None] = (0.5, 0.05, 0.05, None)
    bounds: tuple[tuple[float, float], ...] = ((1e-6, 1.0 - 1e-6),) * 3
    window: tuple[float, float] | None = None
    method: str = "least_squares"
    max_iterations: int = 2000


@dataclass
class RunConfig:
    room: RoomGeometry
    wavelength: float
    material: WallMaterial | None = None
    mu_t: PolGain | None = None
    mu_r: PolGain | None = None
    cond: DistanceCondition | None = None
    pulse: PulseShape | None = None
    grid: np.ndarray | None = None
    sim: SimConfig | None = None
    fit: FitSettings | None = None
    cpr_distances: tuple[float, ...] | None = None

    def require(self, attr: str, section: str) -> None:
        if getattr(self, attr) is None:
            raise ConfigError(f"this command requires the [{section}] config section")


_SECTIONS = {
    "room", "carrier", "material", "antennas", "link",
    "pulse", "grid", "simulation", "fit", "cpr",
}


def _section(doc: dict, name: str, required: bool = False) -> dict | None:
    data = doc.get(name)
    if data is None:
        if required:
            raise ConfigError(f"missing required config section [{name}]")
        return None
    if not isinstance(data, dict):
        raise ConfigError(f"config section [{name}] must be a mapping")
    return data


def _check_keys(name: str, data: dict, allowed: set[str]) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{name}.{key}'")


def _coerce_number(v):
    """YAML 1.1 reads exponents like 0.5e9 as strings; accept those too."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v)
        except ValueError:
            return None
    return None


def _number(name: str, data: dict, key: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ConfigError(f"missing config key '{name}.{key}'")
        return default
    value = _coerce_number(data[key])
    if value is None:
        raise ConfigError(f"config key '{name}.{key}' must be a number, got {data[key]!r}")
    return value


def _integer(name: str, data: dict, key: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ConfigError(f"missing config key '{name}.{key}'")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"config key '{name}.{key}' must be an integer, got {v!r}")
    return int(v)


def _boolean(name: str, data: dict, key: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ConfigError(f"missing config key '{name}.{key}'")
        return default
    v = data[key]
    if not isinstance(v, bool):
        raise ConfigError(f"config key '{name}.{key}' must be a boolean, got {v!r}")
    return v


def _string(name: str, data: dict, key: str, default=None, required: bool = False):
    if key not in data:
        if required:
            raise ConfigError(f"missing config key '{name}.{key}'")
        return default
    v = data[key]
    if not isinstance(v, str):
        raise ConfigError(f"config key '{name}.{key}' must be a string, got {v!r}")
    return v


def _number_pair(name: str, data: dict, key: str):
    if key not in data:
        return None
    v = data[key]
    if isinstance(v, (list, tuple)) and len(v) == 2:
        pair = [_coerce_number(x) for x in v]
        if None not in pair:
            return pair[0], pair[1]
    raise ConfigError(f"config key '{name}.{key}' must be a pair of numbers")


def _build(name: str, factory, /, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _parse_antennas(data: dict) -> tuple[PolGain, PolGain]:
    _check_keys("antennas", data, {"xi", "mu_t", "mu_r"})
    has_xi = "xi" in data
    has_mu = "mu_t" in data or "mu_r" in data
    if has_xi and has_mu:
        raise ConfigError("give either 'antennas.xi' or explicit 'antennas.mu_t'/'antennas.mu_r', not both")
    if has_xi:
        xi = _number("antennas", data, "xi", required=True)
        try:
            mu = PolGain.from_split(xi)
        except ValueError as exc:
            raise ConfigError(f"[antennas] {exc}") from exc
        return mu, mu
    if not ("mu_t" in data and "mu_r" in data):
        raise ConfigError("explicit antenna gains need both 'antennas.mu_t' and 'antennas.mu_r'")
    gains = []
    for key in ("mu_t", "mu_r"):
        pair = _number_pair("antennas", data, key)
        gains.append(_build("antennas", PolGain, mu_theta=pair[0], mu_phi=pair[1]))
    return gains[0], gains[1]


def _parse_grid(data: dict) -> np.ndarray:
    _check_keys("grid", data, {"start_ns", "stop_ns", "step_ns"})
    start = _number("grid", data, "start_ns", required=True)
    stop = _number("grid", data, "stop_ns", required=True)
    step = _number("grid", data, "step_ns", required=True)
    if step <= 0:
        raise ConfigError("'grid.step_ns' must be > 0")
    if stop <= start:
        raise ConfigError("'grid.stop_ns' must exceed 'grid.start_ns'")
    n = int(round((stop - start) / step)) + 1
    if n < 2:
        raise ConfigError("grid must contain at least two samples")
    return (start + step * np.arange(n)) * 1e-9


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping of sections")
    for key in doc:
        if key not in _SECTIONS:
            raise ConfigError(f"unknown config section [{key}]")

    room_data = _section(doc, "room", required=True)
    _check_keys("room", room_data, {"lx", "ly", "lz"})
    room = _build(
        "room",
        RoomGeometry,
        lx=_number("room", room_data, "lx", required=True),
        ly=_number("room", room_data, "ly", required=True),
        lz=_number("room", room_data, "lz", required=True),
    )

    carrier = _section(doc, "carrier", required=True)
    _check_keys("carrier", carrier, {"frequency_hz", "wavelength_m"})
    has_f = "frequency_hz" in carrier
    has_l = "wavelength_m" in carrier
    if has_f == has_l:
        raise ConfigError("give exactly one of 'carrier.frequency_hz' or 'carrier.wavelength_m'")
    if has_f:
        freq = _number("carrier", carrier, "frequency_hz", required=True)
        if freq <= 0:
            raise ConfigError("'carrier.frequency_hz' must be > 0")
        wavelength = SPEED_OF_LIGHT / freq
    else:
        wavelength = _number("carrier", carrier, "wavelength_m", required=True)
        if wavelength <= 0:
            raise ConfigError("'carrier.wavelength_m' must be > 0")

    material = None
    material_data = _section(doc, "material")
    if material_data is not None:
        _check_keys("material", material_data, {"g", "gamma"})
        material = _build(
            "material",
            WallMaterial,
            g=_number("material", material_data, "g", required=True),
            gamma=_number("material", material_data, "gamma", default=0.0),
        )

    mu_t = mu_r = None
    antenna_data = _section(doc, "antennas")
    if antenna_data is not None:
        mu_t, mu_r = _parse_antennas(antenna_data)

    cond = None
    link = _section(doc, "link")
    if link is not None:
        _check_keys("link", link, {"distance_m", "los"})
        cond = _build(
            "link",
            DistanceCondition,
            distance=_number("link", link, "distance_m", required=True),
            los=_boolean("link", link, "los", default=False),
        )

    pulse = None
    pulse_data = _section(doc, "pulse")
    if pulse_data is not None:
        _check_keys("pulse", pulse_data, {"kind", "bandwidth_hz"})
        pulse = _build(
            "pulse",
            PulseShape,
            kind=_string("pulse", pulse_data, "kind", default="boxcar"),
            bandwidth=_number("pulse", pulse_data, "bandwidth_hz", required=True),
        )

    grid = None
    grid_data = _section(doc, "grid")
    if grid_data is not None:
        grid = _parse_grid(grid_data)

    sim = None
    sim_data = _section(doc, "simulation")
    if sim_data is not None:
        _check_keys(
            "simulation", sim_data,
            {"realizations", "seed", "bin_width_ns", "max_delay_ns", "placement"},
        )
        placement = _string("simulation", sim_data, "placement", default="uniform")
        distance = None
        los = True
        if placement == "fixed":
            if cond is None:
                raise ConfigError("fixed placement requires the [link] section")
            distance = cond.distance
            los = cond.los
        sim = _build(
            "simulation",
            SimConfig,
            n_realizations=_integer("simulation", sim_data, "realizations", required=True),
            bin_width=_number("simulation", sim_data, "bin_width_ns", required=True) * 1e-9,
            max_delay=_number("simulation", sim_data, "max_delay_ns", required=True) * 1e-9,
            rng_seed=_integer("simulation", sim_data, "seed", default=0),
            placement=placement,
            distance=distance,
            los=los,
        )

    fit = None
    fit_data = _section(doc, "fit")
    if fit_data is not None:
        _check_keys(
            "fit", fit_data,
            {"g0", "gamma0", "xi0", "noise0", "bounds_g", "bounds_gamma", "bounds_xi",
             "window_ns", "method", "max_iterations"},
        )
        defaults = FitSettings()
        bounds = []
        for key, default in zip(
            ("bounds_g", "bounds_gamma", "bounds_xi"), defaults.bounds
        ):
            pair = _number_pair("fit", fit_data, key)
            bounds.append(default if pair is None else pair)
        window = _number_pair("fit", fit_data, "window_ns")
        if window is not None:
            window = (window[0] * 1e-9, window[1] * 1e-9)
        method = _string("fit", fit_data, "method", default=defaults.method)
        if method not in ("least_squares", "simplex"):
            raise ConfigError("'fit.method' must be 'least_squares' or 'simplex'")
        fit = FitSettings(
            initial_guess=(
                _number("fit", fit_data, "g0", default=defaults.initial_guess[0]),
                _number("fit", fit_data, "gamma0", default=defaults.initial_guess[1]),
                _number("fit", fit_data, "xi0", default=defaults.initial_guess[2]),
                _number("fit", fit_data, "noise0", default=None),
            ),
            bounds=tuple(bounds),
            window=window,
            method=method,
            max_iterations=_integer(
                "fit", fit_data, "max_iterations", default=defaults.max_iterations
            ),
        )

    cpr_distances = None
    cpr_data = _section(doc, "cpr")
    if cpr_data is not None:
        _check_keys("cpr", cpr_data, {"distances_m"})
        raw = cpr_data.get("distances_m")
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ConfigError("'cpr.distances_m' must be a non-empty list of numbers")
        coerced = [_coerce_number(x) for x in raw]
        if None in coerced:
            raise ConfigError("'cpr.distances_m' must be a non-empty list of numbers")
        if any(x <= 0 for x in coerced):
            raise ConfigError("'cpr.distances_m' entries must be > 0")
        cpr_distances = tuple(coerced)

    return RunConfig(
        room=room,
        wavelength=wavelength,
        material=material,
        mu_t=mu_t,
        mu_r=mu_r,
        cond=cond,
        pulse=pulse,
        grid=grid,
        sim=sim,
        fit=fit,
        cpr_distances=cpr_distances,
    )
