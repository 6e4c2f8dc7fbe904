"""Run configuration: a single YAML document with strictly validated sections.

The allowed sections and keys are listed once, in `_SCHEMA`, and checked
before any value is read; a section or key written twice is rejected. Every
value is then read by one typed reader, `_get`, which rejects non-finite
numbers, and funneled through the corresponding domain type so that
invariant violations surface as named-field errors rather than crashes
deeper in a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from .fitting import DEFAULT_BOUNDS, DEFAULT_GUESS
from .measurement import PulseShape
from .mirror import SimConfig
from .model import DistanceCondition, PolGain, RoomGeometry, WallMaterial, _require_length, _whole_steps


class ConfigError(ValueError):
    """Configuration document failed validation; message names the field."""


class _UniqueKeyLoader(yaml.SafeLoader):
    """`yaml.SafeLoader` that rejects a key written twice in one mapping.

    Only literal repeats count: a key a `<<` merge brings in may be overridden.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    line = key_node.start_mark.line + 1
                    raise ConfigError(f"config key {key!r} is repeated on line {line}")
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


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
    fit: dict | None = None  # `fitting.FitProblem` keyword arguments
    cpr_distances: tuple[float, ...] | None = None

    def require(self, attr: str, section: str) -> None:
        if getattr(self, attr) is None:
            raise ConfigError(f"this command requires the [{section}] config section")


_SCHEMA = {
    "room": {"lx", "ly", "lz"},
    "carrier": {"wavelength_m"},
    "material": {"g", "gamma"},
    "antennas": {"xi", "mu_t", "mu_r"},
    "link": {"distance_m", "los"},
    "pulse": {"kind", "bandwidth_hz"},
    "grid": {"start_ns", "stop_ns", "step_ns"},
    "simulation": {"realizations", "seed", "bin_width_ns", "max_delay_ns", "placement"},
    "fit": {"g0", "gamma0", "xi0", "noise0", "bounds_g", "bounds_gamma", "bounds_xi",
            "window_ns", "method", "max_iterations"},
    "cpr": {"distances_m"},
}
_REQUIRED_SECTIONS = ("room", "carrier")


def _check_schema(doc) -> dict:
    """The document's present sections, after checking them against `_SCHEMA`.

    A section whose value is empty (YAML null) counts as absent.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping of sections")
    sections = {}
    for name, data in doc.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown config section [{name}]")
        if data is None:
            continue
        if not isinstance(data, dict):
            raise ConfigError(f"config section [{name}] must be a mapping")
        for key in data:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown config key '{name}.{key}'")
        sections[name] = data
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required config section [{name}]")
    return sections


def _finite(v) -> float | None:
    # YAML 1.1 reads exponents like 0.5e9 as strings; accept those too.
    # float() turns overflowing literals such as 1e999 into inf.
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        return None
    try:
        x = float(v)
    except (ValueError, OverflowError):
        return None
    return x if math.isfinite(x) else None


def _finite_list(v, length: int | None = None) -> tuple[float, ...] | None:
    if not isinstance(v, (list, tuple)) or not v or (length and len(v) != length):
        return None
    xs = tuple(_finite(x) for x in v)
    return None if None in xs else xs


# kind -> (parse returning the value or None, what the value must be)
_KINDS = {
    "number": (_finite, "a finite number"),
    "integer": (lambda v: v if type(v) is int else None, "an integer"),
    "boolean": (lambda v: v if isinstance(v, bool) else None, "a boolean"),
    "string": (lambda v: v if isinstance(v, str) else None, "a string"),
    "pair": (lambda v: _finite_list(v, 2), "a pair of finite numbers"),
    "list": (_finite_list, "a non-empty list of finite numbers"),
}
_REQUIRED = object()


def _get(doc: dict, section: str, key: str, kind: str, default=_REQUIRED):
    """Value of `section.key` read as `kind`; `default` if absent, unless required."""
    data = doc[section]
    if key not in data:
        if default is _REQUIRED:
            raise ConfigError(f"missing config key '{section}.{key}'")
        return default
    parse, what = _KINDS[kind]
    value = parse(data[key])
    if value is None:
        raise ConfigError(f"config key '{section}.{key}' must be {what}, got {data[key]!r}")
    return value


def _build(name: str, factory, /, **kwargs):
    """`factory(**kwargs)`; a None value leaves the factory's own default."""
    try:
        return factory(**{key: value for key, value in kwargs.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _parse_antennas(doc: dict) -> tuple[PolGain, PolGain]:
    data = doc["antennas"]
    has_xi = "xi" in data
    if has_xi and ("mu_t" in data or "mu_r" in data):
        raise ConfigError("give either 'antennas.xi' or explicit 'antennas.mu_t'/'antennas.mu_r', not both")
    if has_xi:
        mu = _build("antennas", PolGain.from_split, xi=_get(doc, "antennas", "xi", "number"))
        return mu, mu
    if not ("mu_t" in data and "mu_r" in data):
        raise ConfigError("explicit antenna gains need both 'antennas.mu_t' and 'antennas.mu_r'")
    pairs = (_get(doc, "antennas", key, "pair") for key in ("mu_t", "mu_r"))
    return tuple(_build("antennas", PolGain, mu_theta=a, mu_phi=b) for a, b in pairs)


def _parse_grid(doc: dict) -> np.ndarray:
    start, stop, step = (
        _get(doc, "grid", key, "number") for key in ("start_ns", "stop_ns", "step_ns")
    )
    n = _build("grid", _whole_steps, span_name="'grid.stop_ns' - 'grid.start_ns'",
               step_name="'grid.step_ns'", span=stop - start, step=step, least=1)
    return (start + step * np.arange(n + 1)) * 1e-9


def _parse_simulation(doc: dict, cond: DistanceCondition | None) -> SimConfig:
    placement = _get(doc, "simulation", "placement", "string", None)
    fixed = placement == "fixed"
    if fixed and cond is None:
        raise ConfigError("fixed placement requires the [link] section")
    return _build(
        "simulation",
        SimConfig,
        n_realizations=_get(doc, "simulation", "realizations", "integer"),
        bin_width=_get(doc, "simulation", "bin_width_ns", "number") * 1e-9,
        max_delay=_get(doc, "simulation", "max_delay_ns", "number") * 1e-9,
        rng_seed=_get(doc, "simulation", "seed", "integer", None),
        placement=placement,
        distance=cond.distance if fixed else None,
        los=cond.los if fixed else None,
    )


def _parse_fit(doc: dict) -> dict:
    """The [fit] section as `fitting.FitProblem` keyword arguments; an absent key keeps its default."""
    window = _get(doc, "fit", "window_ns", "pair", None)
    kwargs = dict(
        initial_guess=tuple(
            _get(doc, "fit", key, "number", default)
            for key, default in zip(("g0", "gamma0", "xi0", "noise0"), DEFAULT_GUESS)
        ),
        bounds=tuple(
            _get(doc, "fit", key, "pair", default)
            for key, default in zip(("bounds_g", "bounds_gamma", "bounds_xi"), DEFAULT_BOUNDS)
        ),
        fit_window=None if window is None else (window[0] * 1e-9, window[1] * 1e-9),
        method=_get(doc, "fit", "method", "string", None),
        max_iterations=_get(doc, "fit", "max_iterations", "integer", None),
    )
    return {key: value for key, value in kwargs.items() if value is not None}


def load_run_config(path: str) -> RunConfig:
    """Parse and validate a YAML run configuration."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    doc = _check_schema(raw)
    cfg = RunConfig(
        room=_build("room", RoomGeometry, **{
            key: _get(doc, "room", key, "number") for key in ("lx", "ly", "lz")
        }),
        wavelength=_get(doc, "carrier", "wavelength_m", "number"),
    )
    _build("carrier", _require_length, name="wavelength", value=cfg.wavelength)
    if "material" in doc:
        cfg.material = _build(
            "material", WallMaterial, g=_get(doc, "material", "g", "number"),
            gamma=_get(doc, "material", "gamma", "number", None),
        )
    if "antennas" in doc:
        cfg.mu_t, cfg.mu_r = _parse_antennas(doc)
    if "link" in doc:
        cfg.cond = _build(
            "link", DistanceCondition, distance=_get(doc, "link", "distance_m", "number"),
            los=_get(doc, "link", "los", "boolean", None),
        )
    if "pulse" in doc:
        cfg.pulse = _build(
            "pulse", PulseShape, kind=_get(doc, "pulse", "kind", "string", None),
            bandwidth=_get(doc, "pulse", "bandwidth_hz", "number"),
        )
    if "grid" in doc:
        cfg.grid = _parse_grid(doc)
    if "simulation" in doc:
        cfg.sim = _parse_simulation(doc, cfg.cond)
    if "fit" in doc:
        cfg.fit = _parse_fit(doc)
    if "cpr" in doc:
        cfg.cpr_distances = _get(doc, "cpr", "distances_m", "list")
        for d in cfg.cpr_distances:
            _build("cpr.distances_m", DistanceCondition, distance=d)
    return cfg
