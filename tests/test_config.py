import copy
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from roompol import DistanceCondition, FitProblem, PdpTrace, PulseShape, SimConfig, WallMaterial
from roompol.config import _SCHEMA, ConfigError, load_run_config

from _support import BASE, write_config


def test_loads_minimal_document(tmp_path):
    cfg = load_run_config(write_config(tmp_path, BASE))
    assert cfg.room.volume() == pytest.approx(36.0)
    assert cfg.wavelength == pytest.approx(0.005)
    assert cfg.material.g == 0.4
    assert cfg.mu_t.mu_theta == 1.0
    assert cfg.grid.size == 601
    assert np.allclose(np.diff(cfg.grid), 0.1e-9)
    assert cfg.cond is None and cfg.sim is None and cfg.fit is None


def test_frequency_is_an_unknown_carrier_key(tmp_path):
    # the carrier has one spelling, its wavelength
    text = BASE.replace("carrier: {wavelength_m: 0.005}", "carrier: {frequency_hz: 60.0e9}")
    with pytest.raises(ConfigError, match=r"unknown config key 'carrier\.frequency_hz'"):
        load_run_config(write_config(tmp_path, text))


def test_rejects_both_carrier_keys(tmp_path):
    text = BASE.replace(
        "carrier: {wavelength_m: 0.005}",
        "carrier: {wavelength_m: 0.005, frequency_hz: 60.0e9}",
    )
    with pytest.raises(ConfigError, match=r"unknown config key 'carrier\.frequency_hz'"):
        load_run_config(write_config(tmp_path, text))


def test_rejects_unknown_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown config section \[walls\]"):
        load_run_config(write_config(tmp_path, BASE + "walls: {g: 0.4}\n"))
    with pytest.raises(ConfigError, match=r"unknown config section \[noise\]"):
        load_run_config(write_config(tmp_path, BASE + "noise: {power: 1.0e-12}\n"))
    text = BASE.replace("room: {lx: 3.0, ly: 4.0, lz: 3.0}",
                        "room: {lx: 3.0, ly: 4.0, lz: 3.0, height: 2.0}")
    with pytest.raises(ConfigError, match="room.height"):
        load_run_config(write_config(tmp_path, text))


def test_invariant_violations_name_the_section(tmp_path):
    text = BASE.replace("material: {g: 0.4, gamma: 0.04}", "material: {g: 1.2, gamma: 0.04}")
    with pytest.raises(ConfigError, match=r"\[material\].*gain g"):
        load_run_config(write_config(tmp_path, text))
    text = BASE.replace("room: {lx: 3.0, ly: 4.0, lz: 3.0}", "room: {lx: -3.0, ly: 4.0, lz: 3.0}")
    with pytest.raises(ConfigError, match=r"\[room\].*dimension"):
        load_run_config(write_config(tmp_path, text))


def test_explicit_antenna_gains(tmp_path):
    text = BASE.replace("antennas: {xi: 0.0}",
                        "antennas: {mu_t: [0.9, 0.1], mu_r: [0.8, 0.2]}")
    cfg = load_run_config(write_config(tmp_path, text))
    assert cfg.mu_t.mu_phi == pytest.approx(0.1)
    assert cfg.mu_r.mu_theta == pytest.approx(0.8)


def test_rejects_mixed_antenna_styles(tmp_path):
    text = BASE.replace("antennas: {xi: 0.0}",
                        "antennas: {xi: 0.1, mu_t: [1.0, 0.0], mu_r: [1.0, 0.0]}")
    with pytest.raises(ConfigError, match="not both"):
        load_run_config(write_config(tmp_path, text))


def test_link_and_simulation_sections(tmp_path):
    text = BASE + (
        "link: {distance_m: 1.8, los: true}\n"
        "simulation: {realizations: 1000, seed: 7, bin_width_ns: 1.0,"
        " max_delay_ns: 20.0, placement: fixed}\n"
    )
    cfg = load_run_config(write_config(tmp_path, text))
    assert cfg.cond.los and cfg.cond.distance == pytest.approx(1.8)
    assert cfg.sim.placement == "fixed"
    assert cfg.sim.distance == pytest.approx(1.8)
    assert cfg.sim.bin_width == pytest.approx(1e-9)


def test_absent_optional_keys_keep_the_types_defaults(tmp_path):
    text = BASE.replace("material: {g: 0.4, gamma: 0.04}", "material: {g: 0.4}") + (
        "link: {distance_m: 1.8}\n"
        "pulse: {bandwidth_hz: 1.0e9}\n"
        "simulation: {realizations: 1000, bin_width_ns: 1.0, max_delay_ns: 20.0}\n"
    )
    cfg = load_run_config(write_config(tmp_path, text))
    assert cfg.material == WallMaterial(g=0.4)
    assert cfg.cond == DistanceCondition(distance=1.8)
    assert cfg.pulse == PulseShape(bandwidth=1e9)
    assert cfg.sim == SimConfig(n_realizations=1000, bin_width=1e-9, max_delay=20e-9)


@pytest.mark.parametrize("section, key", [
    ("material", "gamma"), ("link", "los"), ("pulse", "kind"),
    ("simulation", "seed"), ("simulation", "placement"),
])
def test_explicit_null_for_an_optional_key_is_rejected(tmp_path, section, key):
    doc = copy.deepcopy(FULL)
    doc[section][key] = None
    with pytest.raises(ConfigError, match=rf"'{section}\.{key}' must be .*, got None"):
        load_run_config(write_config(tmp_path, yaml.safe_dump(doc)))


def test_fixed_placement_requires_link(tmp_path):
    text = BASE + (
        "simulation: {realizations: 1000, seed: 7, bin_width_ns: 1.0,"
        " max_delay_ns: 20.0, placement: fixed}\n"
    )
    with pytest.raises(ConfigError, match=r"\[link\]"):
        load_run_config(write_config(tmp_path, text))


def test_negative_seed_names_the_field(tmp_path):
    text = BASE + (
        "simulation: {realizations: 1000, seed: -1, bin_width_ns: 1.0, max_delay_ns: 20.0}\n"
    )
    with pytest.raises(ConfigError, match=r"\[simulation\] rng_seed must be >= 0, got -1"):
        load_run_config(write_config(tmp_path, text))


def test_fit_section_defaults_and_window(tmp_path):
    text = BASE + (
        "pulse: {kind: boxcar, bandwidth_hz: 1.0e9}\n"
        "fit: {g0: 0.45, window_ns: [5.0, 120.0], max_iterations: 500}\n"
    )
    cfg = load_run_config(write_config(tmp_path, text))
    assert cfg.pulse.bandwidth == pytest.approx(1e9)
    assert cfg.fit["initial_guess"][0] == pytest.approx(0.45)
    assert cfg.fit["initial_guess"][3] is None
    assert cfg.fit["fit_window"] == (pytest.approx(5e-9), pytest.approx(120e-9))
    assert cfg.fit["max_iterations"] == 500
    # [fit] has no method key: a configured fit is least squares, `FitProblem`'s default
    assert sorted(cfg.fit) == ["bounds", "fit_window", "initial_guess", "max_iterations"]
    # a 0.25 ns grid resolves the 1 GHz pulse, which `FitProblem` checks when it is built
    trace = PdpTrace(np.arange(0.0, 200e-9, 0.25e-9), np.full(800, -50.0), "db")
    problem = FitProblem(cfg.room, cfg.wavelength, cfg.cond, cfg.pulse, trace, trace, **cfg.fit)
    assert problem.method == "least_squares"


def test_carrier_holds_a_wavelength_whose_power_scale_overflows(tmp_path):
    # 1e150 m passes the length rule; c lam^2 / 2V depends on the room and is
    # checked by `PdsParams`, which every command builds
    text = BASE.replace("wavelength_m: 0.005", "wavelength_m: 1.0e+150")
    assert load_run_config(write_config(tmp_path, text)).wavelength == 1e150


def test_cpr_section_validation(tmp_path):
    cfg = load_run_config(write_config(tmp_path, BASE + "cpr: {distances_m: [0.5, 1.8]}\n"))
    assert cfg.cpr_distances == (0.5, 1.8)
    with pytest.raises(ConfigError, match="distances_m"):
        load_run_config(write_config(tmp_path, BASE + "cpr: {distances_m: [0.5, -1.0]}\n"))


def test_merge_key_may_be_overridden(tmp_path):
    # only a key written twice is rejected; one a `<<` merge brings in is not
    text = BASE.replace("{lx: 3.0, ly: 4.0, lz: 3.0}", "{<<: {lx: 3.0, ly: 4.0, lz: 3.0}, lx: 5.0}")
    assert load_run_config(write_config(tmp_path, text)).room.lx == 5.0


def test_type_errors_name_the_key(tmp_path):
    text = BASE.replace("material: {g: 0.4, gamma: 0.04}",
                        "material: {g: wood, gamma: 0.04}")
    with pytest.raises(ConfigError, match="material.g"):
        load_run_config(write_config(tmp_path, text))
    text = BASE + "simulation: {realizations: 10.5, bin_width_ns: 1.0, max_delay_ns: 20.0}\n"
    with pytest.raises(ConfigError, match="simulation.realizations"):
        load_run_config(write_config(tmp_path, text))


def test_missing_required_section(tmp_path):
    text = BASE.replace("carrier: {wavelength_m: 0.005}\n", "")
    with pytest.raises(ConfigError, match=r"\[carrier\]"):
        load_run_config(write_config(tmp_path, text))


# Every key the config accepts, with a valid value. The antenna keys that
# exclude the ones in FULL are in ALTERNATIVES.
FULL = {
    "room": {"lx": 3.0, "ly": 4.0, "lz": 3.0},
    "carrier": {"wavelength_m": 0.005},
    "material": {"g": 0.4, "gamma": 0.04},
    "antennas": {"xi": 0.1},
    "link": {"distance_m": 1.8, "los": True},
    "pulse": {"kind": "gaussian", "bandwidth_hz": 1.0e9},
    "grid": {"start_ns": 0.0, "stop_ns": 60.0, "step_ns": 0.1},
    "simulation": {"realizations": 1000, "seed": 7, "bin_width_ns": 1.0,
                   "max_delay_ns": 20.0, "placement": "fixed"},
    "fit": {"g0": 0.45, "gamma0": 0.05, "xi0": 0.1, "noise0": 1.0e-10,
            "bounds_g": [0.1, 0.9], "bounds_gamma": [0.01, 0.5], "bounds_xi": [0.01, 0.5],
            "window_ns": [5.0, 50.0], "max_iterations": 500},
    "cpr": {"distances_m": [0.5, 1.8]},
}
ALTERNATIVES = {
    "antennas": {"mu_t": [0.9, 0.1], "mu_r": [0.8, 0.2]},
}
EVERY_KEY = [(section, key) for section, data in FULL.items() for key in data] + [
    (section, key) for section, data in ALTERNATIVES.items() for key in data
]


def test_every_key_lists_the_whole_schema():
    assert sorted(EVERY_KEY) == sorted((s, k) for s, keys in _SCHEMA.items() for k in keys)
    assert len(EVERY_KEY) == 31


def full_document(section=None):
    """FULL, with `section` taken from ALTERNATIVES when it has one there."""
    doc = copy.deepcopy(FULL)
    if section in ALTERNATIVES:
        doc[section] = copy.deepcopy(ALTERNATIVES[section])
    return doc


@pytest.mark.parametrize("section", [None, *ALTERNATIVES])
def test_every_key_is_accepted(tmp_path, section):
    cfg = load_run_config(write_config(tmp_path, yaml.safe_dump(full_document(section))))
    assert all(getattr(cfg, f.name) is not None for f in dataclasses.fields(cfg))
    assert cfg.fit["bounds"] == ((0.1, 0.9), (0.01, 0.5), (0.01, 0.5))
    assert cfg.fit["initial_guess"] == (0.45, 0.05, 0.1, 1e-10)


# the keys `_SCHEMA` marks required, its kind ending in "!", and the others
REQUIRED = [(s, k) for s, keys in _SCHEMA.items() for k, kind in keys.items() if kind.endswith("!")]
OPTIONAL = [(s, k) for s in _SCHEMA for k in _SCHEMA[s] if (s, k) not in REQUIRED]


def test_required_keys():
    assert sorted(f"{s}.{k}" for s, k in REQUIRED) == [
        "carrier.wavelength_m", "cpr.distances_m", "grid.start_ns", "grid.step_ns",
        "grid.stop_ns", "link.distance_m", "material.g", "pulse.bandwidth_hz", "room.lx",
        "room.ly", "room.lz", "simulation.bin_width_ns", "simulation.max_delay_ns",
        "simulation.realizations",
    ]
    assert len(OPTIONAL) == 17


@pytest.mark.parametrize("section, key", REQUIRED, ids=[f"{s}.{k}" for s, k in REQUIRED])
def test_missing_required_key_is_named(tmp_path, section, key):
    doc = full_document()
    del doc[section][key]
    with pytest.raises(ConfigError, match=rf"^missing config key '{section}\.{key}'$"):
        load_run_config(write_config(tmp_path, yaml.safe_dump(doc)))


@pytest.mark.parametrize("section, key", OPTIONAL, ids=[f"{s}.{k}" for s, k in OPTIONAL])
def test_absent_optional_key_still_loads(tmp_path, section, key):
    # an antenna key is absent from whichever of FULL and ALTERNATIVES lacks it
    doc = full_document(section if key in FULL[section] else None)
    doc[section].pop(key, None)
    cfg = load_run_config(write_config(tmp_path, yaml.safe_dump(doc)))
    assert all(getattr(cfg, f.name) is not None for f in dataclasses.fields(cfg))


def test_every_kind_is_checked_before_any_value_is_built(tmp_path):
    # [material] comes first and its g is out of range, but fit.g0 is mistyped
    text = BASE.replace("{g: 0.4, gamma: 0.04}", "{g: 1.2}") + "fit: {g0: wood}\n"
    message = r"^config key 'fit\.g0' must be a finite number, got 'wood'$"
    with pytest.raises(ConfigError, match=message):
        load_run_config(write_config(tmp_path, text))


@pytest.mark.parametrize("section, key", EVERY_KEY, ids=[f"{s}.{k}" for s, k in EVERY_KEY])
def test_mapping_value_names_the_key(tmp_path, section, key):
    doc = full_document(section if key in ALTERNATIVES.get(section, {}) else None)
    doc[section][key] = {}
    with pytest.raises(ConfigError, match=rf"'{section}\.{key}' must be"):
        load_run_config(write_config(tmp_path, yaml.safe_dump(doc)))


NON_FINITE = [
    ("stop_ns: 60.0", "stop_ns: .inf", "grid.stop_ns"),
    ("step_ns: 0.1", "step_ns: .nan", "grid.step_ns"),
    ("lx: 3.0", "lx: .inf", "room.lx"),
    ("ly: 4.0", "ly: 1e999", "room.ly"),
    ("lz: 3.0", "lz: 1" + "0" * 400, "room.lz"),
    ("wavelength_m: 0.005", "wavelength_m: .inf", "carrier.wavelength_m"),
    ("gamma: 0.04", "gamma: -.inf", "material.gamma"),
    ("", "simulation: {realizations: 10, bin_width_ns: 1.0, max_delay_ns: .inf}",
     "simulation.max_delay_ns"),
    ("", "cpr: {distances_m: [.inf]}", "cpr.distances_m"),
    ("", "fit: {window_ns: [5.0, .inf]}", "fit.window_ns"),
]


@pytest.mark.parametrize("old, new, key", NON_FINITE, ids=[key for _, _, key in NON_FINITE])
def test_non_finite_numbers_name_the_key(tmp_path, old, new, key):
    text = BASE.replace(old, new) if old else BASE + new + "\n"
    with pytest.raises(ConfigError, match=rf"{key}.*finite"):
        load_run_config(write_config(tmp_path, text))


def test_readme_quickstart_config_populates_every_section(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = readme.split("## CLI quickstart", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", quickstart, re.S).group(1)
    cfg = load_run_config(write_config(tmp_path, block))
    assert all(getattr(cfg, f.name) is not None for f in dataclasses.fields(cfg))


# Documents that fail one validation rule each: (id, document, the field the
# error names).
INVALID = [
    ("not-a-mapping", "- room\n- carrier\n", "mapping of sections"),
    ("null-section", BASE.replace("carrier: {wavelength_m: 0.005}", "carrier:"), r"\[carrier\]"),
    ("section-not-a-mapping", BASE.replace("{g: 0.4, gamma: 0.04}", "0.4"),
     r"\[material\] must be a mapping"),
    ("missing-key", BASE.replace("lx: 3.0, ", ""), "room.lx"),
    ("mu_t-without-mu_r", BASE.replace("{xi: 0.0}", "{mu_t: [0.9, 0.1]}"), "antennas.mu_r"),
    ("wavelength-zero", BASE.replace("wavelength_m: 0.005", "wavelength_m: 0.0"),
     r"\[carrier\] wavelength must be > 0"),
    ("wavelength-square-underflows", BASE.replace("wavelength_m: 0.005", "wavelength_m: 1.0e-200"),
     r"\[carrier\] wavelength 1e-200 squared must be > 0"),
    ("wavelength-square-overflows", BASE.replace("wavelength_m: 0.005", "wavelength_m: 1.0e+200"),
     r"\[carrier\] wavelength 1e\+200 squared must be > 0 and finite"),
    ("frequency-negative", BASE.replace("wavelength_m: 0.005", "frequency_hz: -6.0e10"),
     r"unknown config key 'carrier\.frequency_hz'"),
    # the CLI fits by least squares only; `FitProblem.method` is the library's
    ("fit-method", BASE + "fit: {method: simplex}\n", r"^unknown config key 'fit\.method'$"),
    ("step-zero", BASE.replace("step_ns: 0.1", "step_ns: 0.0"), r"grid\.step_ns' must be > 0"),
    ("step-negative", BASE.replace("step_ns: 0.1", "step_ns: -0.1"),
     r"grid\.step_ns' must be > 0"),
    ("stop-at-start", BASE.replace("stop_ns: 60.0", "stop_ns: 0.0"),
     r"\[grid\] 'grid\.step_ns' must divide 'grid\.stop_ns' - 'grid\.start_ns' into a whole "
     r"number of steps from 1 to 10000000, got 0$"),
    ("stop-before-start", BASE.replace("start_ns: 0.0, stop_ns: 60.0",
                                       "start_ns: 5.0, stop_ns: 1.0"),
     r"grid\.step_ns' must divide .* steps from 1 to 10000000, got -40$"),
    ("one-sample-grid", BASE.replace("stop_ns: 60.0", "stop_ns: 0.04"),
     r"grid\.step_ns' must divide .* steps from 1 to 10000000, got 0\.4$"),
    ("grid-past-stop", BASE.replace("stop_ns: 60.0, step_ns: 0.1", "stop_ns: 2.2, step_ns: 0.4"),
     r"grid\.step_ns' must divide .* steps from 1 to 10000000, got 5\.5$"),
    ("invalid-yaml", BASE + "link: {distance_m: 1.8\n", "not valid YAML"),
    ("repeated-key", BASE.replace("lx: 3.0,", "lx: 3.0, lx: 5.0,"),
     "config key 'lx' is repeated on line 1"),
    ("repeated-section", BASE + "room: {lx: 1.0, ly: 1.0, lz: 1.0}\n",
     "config key 'room' is repeated on line 6"),
    ("cpr-distance-square-underflows", BASE + "cpr: {distances_m: [0.5, 1.0e-200]}\n",
     r"\[cpr\.distances_m\] distance 1e-200 squared must be > 0"),
    ("link-distance-square-overflows", BASE + "link: {distance_m: 1.0e+200}\n",
     r"\[link\] distance 1e\+200 squared must be > 0 and finite"),
]


def test_grid_cap_is_exact(tmp_path, monkeypatch):
    # BASE's grid holds 600 steps of 0.1 ns, 601 samples from 0 to 60 ns
    monkeypatch.setattr("roompol.model._MAX_CELLS", 600)
    assert load_run_config(write_config(tmp_path, BASE)).grid.size == 601
    monkeypatch.setattr("roompol.model._MAX_CELLS", 599)
    with pytest.raises(ConfigError, match=r"grid\.step_ns' must divide .* from 1 to 599, got 600"):
        load_run_config(write_config(tmp_path, BASE))


@pytest.mark.parametrize("text, field", [c[1:] for c in INVALID], ids=[c[0] for c in INVALID])
def test_invalid_documents_name_the_field(tmp_path, text, field):
    with pytest.raises(ConfigError, match=field):
        load_run_config(write_config(tmp_path, text))
