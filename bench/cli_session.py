"""cli_session: the four CLI commands, each a fresh `python -m roompol.cli`.

`eval` (LOS config), `cpr`, a one-chunk `simulate --trace-prefix` and `fit`
on a synthetic trace pair the fitter accepts. Each command takes about a
second, most of it interpreter start and `import roompol`, so this is the
workload where import, config and io changes show, and the one that checks
the CLI outputs byte for byte against digests taken at the seed commit.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from roompol import (
    DistanceCondition,
    ObservationParams,
    PdpTrace,
    PdsParams,
    PulseShape,
    WallMaterial,
    db_linear_convert,
    observed_pds,
    pds_asymptote,
    pds_components,
)
from roompol import cli, io
from roompol.config import load_run_config

from fit_campaign import channel_params
from harness import Op, Tracer, load_reference, median, per_call, sha256_bytes, variant

NAME = "cli_session"
CONFIG = "session.yaml"
TRACE_GRID = np.arange(301) * 0.5e-9  # 0.5 ns over 150 ns, fine enough for 0.5 GHz
# (command, argv after `roompol`, files it writes)
COMMANDS = (
    ("eval", ["eval", "--config", CONFIG, "--out", "eval.csv"], ["eval.csv"]),
    ("cpr", ["cpr", "--config", CONFIG, "--out", "cpr.csv"], ["cpr.csv"]),
    ("simulate",
     ["simulate", "--config", CONFIG, "--out", "sim.csv", "--workers", "1",
      "--trace-prefix", "simtrace"],
     ["sim.csv", "simtrace_co.csv", "simtrace_cross.csv"]),
    ("fit",
     ["fit", "--config", CONFIG, "--co", "meas_co.csv", "--cross", "meas_cross.csv",
      "--out", "fit.csv"],
     ["fit.csv"]),
)

_CONFIG_TEMPLATE = """\
room: {{lx: 3.0, ly: 4.0, lz: 3.0}}
carrier: {{wavelength_m: 0.005}}
material: {{g: {g}, gamma: {gamma}}}
antennas: {{xi: {xi}}}
grid: {{start_ns: 0.0, stop_ns: 60.0, step_ns: 0.1}}
link: {{distance_m: {distance}, los: true}}
pulse: {{kind: boxcar, bandwidth_hz: 0.5e+9}}
simulation: {{realizations: 2048, seed: {sim_seed}, bin_width_ns: 1.0, max_delay_ns: 40.0}}
cpr: {{distances_m: [0.5, 1.35, 1.8, 3.3]}}
fit: {{g0: 0.5, gamma0: 0.1, xi0: 0.05, noise0: 1.0e-10}}
"""


def session_inputs(var: int) -> dict:
    """Rounded link parameters of one input variant."""
    rng = np.random.default_rng([7, var])
    return dict(
        g=round(rng.uniform(0.3, 0.5), 3),
        gamma=round(rng.uniform(0.03, 0.06), 3),
        xi=round(rng.uniform(0.05, 0.25), 3),
        distance=round(rng.uniform(1.0, 3.0), 2),
        sim_seed=int(rng.integers(1, 10_000)),
    )


def write_inputs(var: int, workdir: Path) -> None:
    """Config plus a measured-trace pair: observed_pds with 0.3 dB noise.

    Values are rounded to 4 decimals, so last-bit changes in the model code
    cannot change the fit inputs.
    """
    spec = session_inputs(var)
    (workdir / CONFIG).write_text(_CONFIG_TEMPLATE.format(**spec), encoding="utf-8")
    material = WallMaterial(g=spec["g"], gamma=spec["gamma"])
    cond = DistanceCondition(distance=spec["distance"], los=True)
    obs = ObservationParams(PulseShape("boxcar", 0.5e9), noise_power=1e-11)
    rng = np.random.default_rng([11, var])
    for tag, p in zip(("co", "cross"), channel_params(material, spec["xi"])):
        trace = db_linear_convert(observed_pds(TRACE_GRID, p, cond, obs), "db")
        values = np.round(trace.values + rng.normal(0.0, 0.3, TRACE_GRID.size), 4)
        io.write_trace_csv(str(workdir / f"meas_{tag}.csv"),
                           PdpTrace(TRACE_GRID, values, scale="db"))


def output_digests(stdout: bytes, workdir: Path, files: list[str]) -> dict:
    digests = {"stdout": sha256_bytes(stdout)}
    for name in files:
        path = workdir / name
        digests[name] = sha256_bytes(path.read_bytes()) if path.exists() else None
    return digests


def compare(kind: str, got: dict, want: dict) -> str | None:
    differ = sorted(k for k in want if got.get(k) != want[k])
    return f"{kind}: differs from the seed-commit reference in {differ}" if differ else None


def run_cli(workdir: Path, argv: list[str], files: list[str]):
    """Run one command as a subprocess; returns (seconds, returncode, digests)."""
    for name in files:
        (workdir / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "roompol.cli", *argv],
        cwd=workdir, capture_output=True, timeout=120,
    )
    seconds = time.perf_counter() - t0
    return seconds, proc.returncode, output_digests(proc.stdout, workdir, files)


@dataclass
class State:
    workdir: Path
    reference: dict


def setup(seed: int, workdir: Path) -> State:
    var = variant(seed)
    write_inputs(var, workdir)
    # warm-up: one full import of the CLI module, as every command does
    subprocess.run([sys.executable, "-m", "roompol.cli", "--help"], cwd=workdir,
                   capture_output=True, timeout=120, check=True)
    return State(workdir, load_reference("cli_digests.json")[str(var)])


def run_pass(state: State, tracer: Tracer, index: int) -> list[Op]:
    ops = []
    for kind, argv, files in COMMANDS:
        with tracer.span(f"cli.subprocess.{kind}", op=index):
            seconds, code, digests = run_cli(state.workdir, argv, files)
        error = f"{kind}: exit code {code}" if code else compare(
            kind, digests, state.reference[kind])
        ops.append(Op(kind, seconds, 1, error))
    return ops


def run_checks(state: State, ops: list[Op]) -> list:
    return []


def named_metrics(ops: list[Op], timed_wall: float) -> list[tuple[str, float, str]]:
    return [
        (f"cli_{kind}_s", median([op.seconds for op in ops if op.kind == kind]), "s")
        for kind, _, _ in COMMANDS
    ]


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def _import_profile() -> tuple[float, float]:
    """(`import roompol` seconds, scipy.optimize share) from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import roompol"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    cumulative = {m[3]: int(m[2]) for m in _IMPORTTIME.finditer(proc.stderr)}
    total = cumulative["roompol"]
    return total * 1e-6, cumulative.get("scipy.optimize", 0) / total


def probe(tracer: Tracer, seed: int, smoke: bool, workdir: Path) -> tuple[dict, list]:
    """Per-layer numbers of import, config, io and cli, inside spans."""
    repeats = 2 if smoke else 5
    var = variant(seed)
    metrics: dict = {}
    checks = []
    write_inputs(var, workdir)

    for _ in range(repeats):
        with tracer.span("import.python_start"):
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=120)
    metrics["import.python_start_s"] = (median(tracer.durations("import.python_start")), "s")
    profiles = []
    for _ in range(max(1, repeats - 2)):
        with tracer.span("import.importtime"):
            profiles.append(_import_profile())
    metrics["import.roompol_s"] = (median(p[0] for p in profiles), "s")
    metrics["import.scipy_optimize_share"] = (median(p[1] for p in profiles), "ratio")

    config_path = str(workdir / CONFIG)
    metrics["config.load_run_config_ms"] = (
        per_call(tracer, "config.load_run_config", lambda: load_run_config(config_path),
                 10, repeats) * 1e3, "ms")

    # the table `eval` writes: 601 delays, four dB columns
    cfg = load_run_config(config_path)
    p = PdsParams(room=cfg.room, material=cfg.material, mu_t=cfg.mu_t, mu_r=cfg.mu_r,
                  wavelength=cfg.wavelength)
    co, cross = pds_components(cfg.grid, p)
    with np.errstate(divide="ignore"):
        columns = [("delay_ns", cfg.grid * 1e9)] + [
            (name, 10.0 * np.log10(v)) for name, v in (
                ("co_db", co), ("cross_db", cross), ("total_db", co + cross),
                ("asymptote_db", pds_asymptote(cfg.grid, p)))]
    report = str(workdir / "probe_report.csv")
    metrics["io.write_report_csv_ms"] = (
        per_call(tracer, "io.write_report_csv",
                 lambda: io.write_report_csv(report, columns,
                                             [io.format_delay_ns] + [io.format_db] * 4),
                 5, repeats) * 1e3, "ms")
    trace = io.read_trace_csv(str(workdir / "meas_co.csv"))
    trace_path = str(workdir / "probe_trace.csv")
    metrics["io.write_trace_csv_ms"] = (
        per_call(tracer, "io.write_trace_csv", lambda: io.write_trace_csv(trace_path, trace),
                 5, repeats) * 1e3, "ms")
    metrics["io.read_trace_csv_ms"] = (
        per_call(tracer, "io.read_trace_csv", lambda: io.read_trace_csv(trace_path),
                 5, repeats) * 1e3, "ms")
    back = io.read_trace_csv(trace_path)
    # values round-trip exactly; delays pass through a ns scaling (rtol 1e-12)
    same = np.array_equal(back.values, trace.values) and np.allclose(
        back.delays, trace.delays, rtol=1e-12, atol=0.0)
    checks.append(("io.trace_round_trip", None if same else "round trip changed the trace"))

    # cli.main in this process: the commands without interpreter start or import
    reference = load_reference("cli_digests.json")[str(var)]
    sessions = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for _ in range(1 if smoke else 3):
            total = 0.0
            for kind, argv, files in COMMANDS:
                for name in files:
                    (workdir / name).unlink(missing_ok=True)
                out = _stdio.StringIO()
                with tracer.span(f"cli.main.{kind}"), contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                total += tracer.durations(f"cli.main.{kind}")[-1]
                error = f"exit code {code}" if code else compare(
                    kind, output_digests(out.getvalue().encode(), workdir, files), reference[kind])
                checks.append((f"cli.main.{kind}", error))
            sessions.append(total)
    finally:
        os.chdir(cwd)
    metrics["cli.main_inprocess_s"] = (median(sessions), "s")
    for kind, _, _ in COMMANDS:
        metrics[f"cli.main_inprocess_s.{kind}"] = (
            median(tracer.durations(f"cli.main.{kind}")), "s")
    return metrics, checks
