"""Run configuration: a single YAML document with strictly validated sections.

Each section's keys, each key's kind and whether it is required are listed
once, in `_SCHEMA`; a section or key written twice is rejected. The schema
pass parses every present value by its kind, rejecting non-finite numbers,
before any value is built. Each value is then funneled through the
corresponding domain type so that invariant violations surface as
named-field errors rather than crashes deeper in a run.
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
# section -> {key: kind}; a kind ending in "!" marks a key its section requires
_SCHEMA = {
    "room": {"lx": "number!", "ly": "number!", "lz": "number!"},
    "carrier": {"wavelength_m": "number!"},
    "material": {"g": "number!", "gamma": "number"},
    "antennas": {"xi": "number", "mu_t": "pair", "mu_r": "pair"},
    "link": {"distance_m": "number!", "los": "boolean"},
    "pulse": {"kind": "string", "bandwidth_hz": "number!"},
    "grid": {"start_ns": "number!", "stop_ns": "number!", "step_ns": "number!"},
    "simulation": {"realizations": "integer!", "seed": "integer", "bin_width_ns": "number!",
                   "max_delay_ns": "number!", "placement": "string"},
    "fit": {"g0": "number", "gamma0": "number", "xi0": "number", "noise0": "number",
            "bounds_g": "pair", "bounds_gamma": "pair", "bounds_xi": "pair",
            "window_ns": "pair", "max_iterations": "integer"},
    "cpr": {"distances_m": "list!"},
}
_REQUIRED_SECTIONS = ("room", "carrier")


def _check_schema(doc) -> dict:
    """The document's present sections, each a dict of its values parsed by their `_SCHEMA` kinds.

    Sections are checked in the document's order and their keys in the
    schema's. A section whose value is empty (YAML null) counts as absent.
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
        values = sections[name] = {}
        for key, kind in _SCHEMA[name].items():
            if key not in data:
                if kind.endswith("!"):
                    raise ConfigError(f"missing config key '{name}.{key}'")
                continue
            parse, what = _KINDS[kind.rstrip("!")]
            values[key] = parse(data[key])
            if values[key] is None:
                raise ConfigError(f"config key '{name}.{key}' must be {what}, got {data[key]!r}")
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required config section [{name}]")
    return sections


def _build(name: str, factory, /, **kwargs):
    """`factory(**kwargs)`; a None value leaves the factory's own default."""
    try:
        return factory(**{key: value for key, value in kwargs.items() if value is not None})
    except ValueError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _parse_antennas(data: dict) -> tuple[PolGain, PolGain]:
    has_xi = "xi" in data
    if has_xi and ("mu_t" in data or "mu_r" in data):
        raise ConfigError("give either 'antennas.xi' or explicit 'antennas.mu_t'/'antennas.mu_r', not both")
    if has_xi:
        mu = _build("antennas", PolGain.from_split, xi=data["xi"])
        return mu, mu
    if not ("mu_t" in data and "mu_r" in data):
        raise ConfigError("explicit antenna gains need both 'antennas.mu_t' and 'antennas.mu_r'")
    pairs = (data["mu_t"], data["mu_r"])
    return tuple(_build("antennas", PolGain, mu_theta=a, mu_phi=b) for a, b in pairs)


def _parse_grid(data: dict) -> np.ndarray:
    start, stop, step = data["start_ns"], data["stop_ns"], data["step_ns"]
    n = _build("grid", _whole_steps, span_name="'grid.stop_ns' - 'grid.start_ns'",
               step_name="'grid.step_ns'", span=stop - start, step=step, least=1)
    return (start + step * np.arange(n + 1)) * 1e-9


def _parse_simulation(data: dict, cond: DistanceCondition | None) -> SimConfig:
    fixed = data.get("placement") == "fixed"
    if fixed and cond is None:
        raise ConfigError("fixed placement requires the [link] section")
    return _build(
        "simulation",
        SimConfig,
        n_realizations=data["realizations"],
        bin_width=data["bin_width_ns"] * 1e-9,
        max_delay=data["max_delay_ns"] * 1e-9,
        rng_seed=data.get("seed"),
        placement=data.get("placement"),
        distance=cond.distance if fixed else None,
        los=cond.los if fixed else None,
    )


def _parse_fit(data: dict) -> dict:
    """The [fit] section as `fitting.FitProblem` keyword arguments; an absent key keeps its default."""
    window = data.get("window_ns")
    kwargs = dict(
        initial_guess=tuple(
            data.get(key, default)
            for key, default in zip(("g0", "gamma0", "xi0", "noise0"), DEFAULT_GUESS)
        ),
        bounds=tuple(
            data.get(key, default)
            for key, default in zip(("bounds_g", "bounds_gamma", "bounds_xi"), DEFAULT_BOUNDS)
        ),
        fit_window=None if window is None else (window[0] * 1e-9, window[1] * 1e-9),
        max_iterations=data.get("max_iterations"),
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
    # [room] and [material] keys are the `RoomGeometry` and `WallMaterial` field names
    cfg = RunConfig(room=_build("room", RoomGeometry, **doc["room"]),
                    wavelength=doc["carrier"]["wavelength_m"])
    _build("carrier", _require_length, name="wavelength", value=cfg.wavelength)
    if "material" in doc:
        cfg.material = _build("material", WallMaterial, **doc["material"])
    if "antennas" in doc:
        cfg.mu_t, cfg.mu_r = _parse_antennas(doc["antennas"])
    if "link" in doc:
        link = doc["link"]
        cfg.cond = _build("link", DistanceCondition, distance=link["distance_m"],
                          los=link.get("los"))
    if "pulse" in doc:
        pulse = doc["pulse"]
        cfg.pulse = _build("pulse", PulseShape, kind=pulse.get("kind"),
                           bandwidth=pulse["bandwidth_hz"])
    if "grid" in doc:
        cfg.grid = _parse_grid(doc["grid"])
    if "simulation" in doc:
        cfg.sim = _parse_simulation(doc["simulation"], cfg.cond)
    if "fit" in doc:
        cfg.fit = _parse_fit(doc["fit"])
    if "cpr" in doc:
        cfg.cpr_distances = doc["cpr"]["distances_m"]
        for d in cfg.cpr_distances:
            _build("cpr.distances_m", DistanceCondition, distance=d)
    return cfg
