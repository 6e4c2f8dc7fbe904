"""Polarimetric reverberation modeling of in-room radio channels.

Each exported name loads its home submodule on first use (PEP 562), so
`import roompol` loads no numpy, and `roompol --help` none of the model.
"""

import importlib

# home submodule -> the names `roompol` exports from it
_EXPORTS = {
    "fitting": ("FitProblem", "FitResult", "fit", "predict", "residual"),
    "measurement": (
        "ObservationParams",
        "PdpTrace",
        "PulseShape",
        "db_linear_convert",
        "observed_pds",
    ),
    "mirror": ("ImageLattice", "SimConfig", "enumerate_images", "simulate_pdp"),
    "model": (
        "SPEED_OF_LIGHT",
        "DirectPath",
        "DistanceCondition",
        "PdsParams",
        "PolGain",
        "RoomGeometry",
        "WallMaterial",
        "bounce_count_table",
        "bounce_matrix",
        "channel_pair",
        "co_cross_ratio",
        "cpr",
        "cpr_distance",
        "direct_path",
        "mixing_constant",
        "mixing_time",
        "pds",
        "pds_asymptote",
        "pds_components",
        "pds_components_exact",
        "pds_conditional",
        "reverberation_time",
        "wall_material_from_times",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "commands", "config", "io")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
