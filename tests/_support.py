"""Test inputs and reference oracles that several test modules share.

Test modules import it as `from _support import ...`: `tests/` has no
`__init__.py`, so pytest puts this directory on `sys.path`. It holds the
3x4x3 m room, the split-antenna channels, the synthetic co/cross dB traces
and their sounding, the base run config and its writer, and the trapezoid
quadrature oracles of the CPR.
"""

import math

import numpy as np
from scipy.integrate import trapezoid

from roompol import (
    SPEED_OF_LIGHT,
    DistanceCondition,
    FitProblem,
    ObservationParams,
    PdpTrace,
    PdsParams,
    PolGain,
    PulseShape,
    RoomGeometry,
    WallMaterial,
    channel_pair,
    db_linear_convert,
    direct_path,
    mixing_time,
    observed_pds,
    pds_components,
    pds_conditional,
    reverberation_time,
)

ROOM = RoomGeometry(3.0, 4.0, 3.0)
LAM = 5e-3
MAT = WallMaterial(g=0.4, gamma=0.04)

# the sounding of the synthetic traces: a 0.5 GHz boxcar on a 0.5 ns grid,
# over a 1.8 m link without line of sight
PULSE = PulseShape(kind="boxcar", bandwidth=0.5e9)
COND = DistanceCondition(distance=1.8, los=False)
GRID = np.arange(0.0, 300e-9, 0.5e-9)

BASE = """\
room: {lx: 3.0, ly: 4.0, lz: 3.0}
carrier: {wavelength_m: 0.005}
material: {g: 0.4, gamma: 0.04}
antennas: {xi: 0.0}
grid: {start_ns: 0.0, stop_ns: 60.0, step_ns: 0.1}
"""


def write_config(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def make_params(mu_t, mu_r, material=MAT, room=ROOM):
    return PdsParams(room=room, material=material, mu_t=mu_t, mu_r=mu_r, wavelength=LAM)


def split_params(xi, material=MAT, room=ROOM):
    """The co channel of antennas that split their gain (1 - xi, xi) at both ends."""
    mu = PolGain.from_split(xi)
    return make_params(mu, mu, material=material, room=room)


def synth_traces(g, gamma, xi, noise, cond=COND, grid=GRID, db_noise_std=0.0, seed=0,
                 pulse=PULSE):
    """Generate observed co/cross channel traces in dB at the given truth."""
    obs = ObservationParams(pulse=pulse, noise_power=noise)
    traces = []
    rng = np.random.default_rng(seed)
    for p in channel_pair(split_params(xi, material=WallMaterial(g=g, gamma=gamma))):
        trace = db_linear_convert(observed_pds(grid, p, cond, obs), "db")
        if db_noise_std > 0:
            trace = PdpTrace(
                trace.delays, trace.values + rng.normal(0.0, db_noise_std, grid.size), "db"
            )
        traces.append(trace)
    return traces


def synth_problem(g=0.4, gamma=0.04, xi=0.02, noise=1e-11, cond=COND,
                  db_noise_std=0.0, seed=0, pulse=PULSE, **problem_kw):
    co, cross = synth_traces(g, gamma, xi, noise, cond=cond,
                             db_noise_std=db_noise_std, seed=seed, pulse=pulse)
    problem_kw.setdefault("initial_guess", (0.5, 0.1, 0.05, 1e-10))
    return FitProblem(
        room=ROOM, wavelength=LAM, cond=cond, pulse=pulse,
        co_trace=co, cross_trace=cross, **problem_kw,
    )


def integrate_cpr(p):
    """Independent oracle: trapezoid quadrature of the co/cross densities."""
    t_rev = reverberation_time(p.room, p.material)
    t_mix = mixing_time(p.room, p.material)
    step = min(t_rev, t_mix) / 100.0
    tau = np.arange(0.0, 60.0 * t_rev, step)
    co, cross = pds_components(tau, p)
    denom = trapezoid(cross, tau)
    if denom == 0.0:
        return math.inf
    return trapezoid(co, tau) / denom


def integrate_cpr_distance(p, cond):
    """Oracle for the conditioned CPR: quadrature beyond d/c plus the spike."""
    t_rev = reverberation_time(p.room, p.material)
    t_mix = mixing_time(p.room, p.material)
    t0 = cond.distance / SPEED_OF_LIGHT
    step = min(t_rev, t_mix) / 200.0
    tau = t0 + np.arange(0.0, 30.0 * t_rev, step)
    gate = pds_conditional(tau, p, cond) > 0
    co_all, cross_all = pds_components(tau, p)
    num = trapezoid(co_all * gate, tau)
    spike = direct_path(p, cond)
    if spike is not None:
        num += spike.weight
    return num / trapezoid(cross_all * gate, tau)
