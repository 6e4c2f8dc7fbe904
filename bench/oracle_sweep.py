"""oracle_sweep: the exact-bounce mirror-source simulator at three lattice sizes.

`simulate_pdp` runs in a 3x4x3 m room with gamma = 0.04 at g = 0.3, 0.4 and
0.5, each with max_delay = ceil(5 T) (31, 40 and 53 ns, uniform placement),
plus one fixed-distance NLOS case (d = 1.8 m, 40 ns). The image lattice
grows as max_delay^3, so the three delays are three working-set sizes; the
fixed case adds the rejection sampler and the direct-image exclusion.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from roompol import PolGain, RoomGeometry, SimConfig, WallMaterial, simulate_pdp

from harness import Op, Tracer, load_reference, median, variant

NAME = "oracle_sweep"
ROOM = RoomGeometry(3.0, 4.0, 3.0)
WAVELENGTH = 5e-3
GAMMA = 0.04
MU = PolGain.from_split(0.1)
REALIZATIONS = 4096  # two simulator chunks per call
BIN_WIDTH = 1e-9
# (label, g, max_delay_ns, fixed distance or None)
CASES = (
    ("31ns", 0.3, 31, None),
    ("40ns", 0.4, 40, None),
    ("53ns", 0.5, 53, None),
    ("fixed_nlos", 0.4, 40, 1.8),
)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Case:
    label: str
    material: WallMaterial
    sim: SimConfig


def make_cases(var: int, n: int = REALIZATIONS) -> list[Case]:
    cases = []
    for j, (label, g, delay_ns, distance) in enumerate(CASES):
        sim = SimConfig(
            n_realizations=n,
            bin_width=BIN_WIDTH,
            max_delay=delay_ns * 1e-9,
            rng_seed=1000 * var + j,
            placement="uniform" if distance is None else "fixed",
            distance=distance,
            los=distance is None,
        )
        cases.append(Case(label, WallMaterial(g=g, gamma=GAMMA), sim))
    return cases


def simulate(case: Case, workers: int = 1):
    co, cross = simulate_pdp(ROOM, case.material, MU, MU, WAVELENGTH, case.sim, workers=workers)
    return co.values, cross.values


@dataclass
class State:
    cases: list[Case]
    reference: dict


def setup(seed: int, workdir) -> State:
    var = variant(seed)
    # warm-up: one chunk per case at seeds outside the measured set
    for case in make_cases(var + 100, n=2048):
        simulate(case)
    return State(make_cases(var), load_reference("oracle_bins.json")[str(var)])


def check_bins(label: str, co, cross, ref: dict) -> str | None:
    for channel, got in (("co", co), ("cross", cross)):
        want = np.asarray(ref[channel])
        if got.shape != want.shape or not np.allclose(got, want, rtol=REL_TOL, atol=0.0):
            return f"{label}: {channel} bins differ from the seed-commit reference"
    return None


def run_pass(state: State, tracer: Tracer, index: int) -> list[Op]:
    ops = []
    for case in state.cases:
        t0 = time.perf_counter()
        with tracer.span("mirror.simulate_pdp", op=index):
            co, cross = simulate(case)
        seconds = time.perf_counter() - t0
        with tracer.span("bench.check", op=index):
            error = check_bins(case.label, co, cross, state.reference[case.label])
        ops.append(Op(case.label, seconds, case.sim.n_realizations, error))
    return ops


def run_checks(state: State, ops: list[Op]) -> list:
    return []


def named_metrics(ops: list[Op], timed_wall: float) -> list[tuple[str, float, str]]:
    return [("sim_realizations_per_s", sum(op.units for op in ops) / timed_wall, "1/s")]


# VmHWM, not ru_maxrss: a child spawned by vfork inherits the parent's
# high-water mark into ru_maxrss at exec.
_RSS_SCRIPT = """
from oracle_sweep import make_cases, simulate
case = [c for c in make_cases({var}, n=2048) if c.label == {label!r}][0]
simulate(case)
with open("/proc/self/status") as fh:
    print([line.split()[1] for line in fh if line.startswith("VmHWM:")][0])
"""


def _fresh_process_rss(var: int, label: str) -> float:
    """Peak RSS (MiB) of a new interpreter running one chunk of one case."""
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT.format(var=var, label=label)],
        cwd=Path(__file__).resolve().parent, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1]) / 1024.0


def probe(tracer: Tracer, seed: int, smoke: bool, workdir) -> tuple[dict, list]:
    """Per-layer numbers of the mirror layer, each call inside a span."""
    var = variant(seed)
    metrics: dict = {}
    repeats = 1 if smoke else 3
    for case in make_cases(var):
        name = f"mirror.simulate_pdp.{case.label}"
        for _ in range(repeats):
            with tracer.span(name):
                simulate(case)
        per_call = median(tracer.durations(name))
        metrics[f"mirror.us_per_realization.{case.label}"] = (
            per_call / case.sim.n_realizations * 1e6, "us")
    for label in ("31ns", "53ns"):
        with tracer.span(f"mirror.fresh_process.{label}"):
            rss = _fresh_process_rss(var, label)
        metrics[f"mirror.peak_rss_mb.{label}"] = (rss, "MB")

    # eight chunks, so two workers each get work; results must not change
    case = make_cases(var, n=8 * 2048)[1]
    results = {}
    for workers in (1, 2):
        with tracer.span(f"mirror.simulate_pdp.workers{workers}"):
            results[workers] = simulate(case, workers=workers)
    identical = all(np.array_equal(a, b) for a, b in zip(results[1], results[2]))
    checks = [("workers2_bit_identical",
               None if identical else "workers=2 results differ from workers=1")]
    speedup = (tracer.durations("mirror.simulate_pdp.workers1")[-1]
               / tracer.durations("mirror.simulate_pdp.workers2")[-1])
    metrics["mirror.speedup_workers2"] = (speedup, "x")
    return metrics, checks
