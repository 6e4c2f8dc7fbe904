"""Polarimetric reverberation modeling of in-room radio channels."""

from .fitting import FitProblem, FitResult, fit, predict, residual
from .measurement import (
    ObservationParams,
    PdpTrace,
    PulseShape,
    average_pdp,
    db_linear_convert,
    observed_pds,
)
from .mirror import ImageLattice, SimConfig, enumerate_images, simulate_pdp
from .model import (
    SPEED_OF_LIGHT,
    DirectPath,
    DistanceCondition,
    PdsParams,
    PolGain,
    RoomGeometry,
    WallMaterial,
    bounce_count_table,
    bounce_matrix,
    bounce_matrix_power,
    channel_pair,
    co_cross_ratio,
    cpr,
    cpr_distance,
    direct_path,
    mixing_constant,
    mixing_time,
    pds,
    pds_asymptote,
    pds_components,
    pds_components_exact,
    pds_conditional,
    reverberation_time,
    wall_material_from_times,
)

__version__ = "0.1.0"
