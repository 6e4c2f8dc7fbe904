"""Command-line surface: eval | simulate | fit | cpr.

Every command is a deterministic function of its config file and input
files. Exit codes: 0 success, 2 validation failure, 3 I/O failure,
4 fit did not converge under --strict.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import fitting, io, mirror, model
from .config import RunConfig, load_run_config
from .measurement import PdpTrace, to_db


def _params(cfg: RunConfig) -> model.PdsParams:
    """Model parameters of the configured (co-polarized) channel."""
    cfg.require("material", "material")
    cfg.require("mu_t", "antennas")
    return model.PdsParams(
        room=cfg.room,
        material=cfg.material,
        mu_t=cfg.mu_t,
        mu_r=cfg.mu_r,
        wavelength=cfg.wavelength,
    )


def _print_derived(p: model.PdsParams) -> None:
    t_rev = model.reverberation_time(p.room, p.material)
    t_mix = model.mixing_time(p.room, p.material)
    ratio = model.cpr(p)
    print(f"T = {t_rev * 1e9:.6g} ns")
    print(f"T_p = {t_mix * 1e9:.6g} ns")
    print(f"mixing constant = {model.mixing_constant(p.material):.6g}")
    if math.isinf(ratio):
        print("CPR = inf")
    else:
        print(f"CPR = {ratio:.6g} ({to_db(ratio):.4f} dB)")


def _write_report(path: str, columns: list[tuple[str, np.ndarray]]) -> None:
    """Every report writes its first column `.6g` and every other as dB `.4f`."""
    io.write_report_csv(path, columns, [io.format_delay_ns] + [io.format_db] * (len(columns) - 1))
    print(f"wrote {path}")


def _curve_columns(tau, co, cross, params: model.PdsParams) -> list[tuple[str, np.ndarray]]:
    """Delay, co, cross, total and `params`' asymptote columns of linear curves, in dB."""
    return [
        ("delay_ns", tau * 1e9),
        ("co_db", to_db(co)),
        ("cross_db", to_db(cross)),
        ("total_db", to_db(co + cross)),
        ("asymptote_db", to_db(model.pds_asymptote(tau, params))),
    ]


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg.require("grid", "grid")
    tau = cfg.grid
    params = _params(cfg)
    co, cross = (model.pds_conditional(tau, p, cfg.cond) for p in model.channel_pair(params))
    _print_derived(params)
    if cfg.cond is not None:
        ratio_d = model.cpr_distance(params, cfg.cond)
        state = "LOS" if cfg.cond.los else "NLOS"
        print(f"CPR(d={cfg.cond.distance:.6g} m, {state}) = {ratio_d:.6g}")
        spike = model.direct_path(params, cfg.cond)
        if spike is not None:
            print(f"direct path: delay = {spike.delay * 1e9:.6g} ns, weight = {spike.weight:.6g}")
    _write_report(args.out, _curve_columns(tau, co, cross, params))
    return 0


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg.require("sim", "simulation")
    params = _params(cfg)
    co_sim, cross_sim = mirror.simulate_pdp(
        cfg.room, cfg.material, cfg.mu_t, cfg.mu_r, cfg.wavelength, cfg.sim,
        workers=args.workers,
    )
    co_model, cross_model = (
        model.pds_conditional(co_sim.delays, p, cfg.cond) for p in model.channel_pair(params)
    )
    if args.trace_prefix:
        for tag, trace in (("co", co_sim), ("cross", cross_sim)):
            io.write_trace_csv(
                f"{args.trace_prefix}_{tag}.csv",
                PdpTrace(delays=trace.delays, values=to_db(trace.values), scale="db"),
            )
    print(f"simulated {cfg.sim.n_realizations} realizations (seed {cfg.sim.rng_seed})")
    _write_report(args.out, [
        ("delay_ns", co_sim.delays * 1e9),
        ("co_sim_db", to_db(co_sim.values)),
        ("cross_sim_db", to_db(cross_sim.values)),
        ("co_model_db", to_db(co_model)),
        ("cross_model_db", to_db(cross_model)),
    ])
    return 0


def cmd_fit(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg.require("pulse", "pulse")
    co_trace = io.read_trace_csv(args.co)
    cross_trace = io.read_trace_csv(args.cross)
    problem = fitting.FitProblem(
        room=cfg.room,
        wavelength=cfg.wavelength,
        cond=cfg.cond,
        pulse=cfg.pulse,
        co_trace=co_trace,
        cross_trace=cross_trace,
        **(cfg.fit or {}),
    )
    result = fitting.fit(problem)
    fitted_params = fitting.split_params(problem, result.g, result.gamma, result.xi)

    print(f"g = {result.g:.6g}")
    print(f"gamma = {result.gamma:.6g}")
    print(f"xi = {result.xi:.6g}")
    print(f"P_noise = {result.noise_power:.6g}")
    _print_derived(fitted_params)
    print(f"residual RMS = {result.residual_rms_db:.4f} dB")
    print(f"iterations = {result.iterations}")
    print(f"converged = {'yes' if result.converged else 'no'}")
    print(f"weakly identified (gamma, xi) = {'yes' if result.weakly_identified else 'no'}")

    co_fit, cross_fit = fitting.predict(result, cfg.cond, problem)
    columns = _curve_columns(co_trace.delays, co_fit.values, cross_fit.values, fitted_params)
    columns += [("co_meas_db", co_trace.values), ("cross_meas_db", cross_trace.values)]
    _write_report(args.out, columns)
    if args.strict and not result.converged:
        print("fit did not converge", file=sys.stderr)
        return 4
    return 0


def cmd_cpr(cfg: RunConfig, args: argparse.Namespace) -> int:
    cfg.require("cpr_distances", "cpr")
    params = _params(cfg)
    distances = np.array(cfg.cpr_distances)
    columns = [("d_m", distances)]
    for los in (False, True):
        conds = (model.DistanceCondition(d, los=los) for d in distances)
        cpr_db = [to_db(model.cpr_distance(params, cond)) for cond in conds]
        columns.append((f"cpr_{'los' if los else 'nlos'}_db", np.array(cpr_db)))
    _write_report(args.out, columns)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roompol",
        description="Polarimetric reverberation model for in-room radio channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="run config (YAML)")
    shared.add_argument("--out", required=True, help="report CSV to write")

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate model curves onto a CSV")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", parents=[shared], help="run the mirror-source Monte Carlo")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1), capped by the chunk count and the "
                            "available CPUs; results never depend on it")
    p_sim.add_argument("--trace-prefix", default=None,
                       help="also write per-channel trace CSVs with this prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", parents=[shared],
                           help="fit model parameters to measured PDP traces")
    p_fit.add_argument("--co", required=True, help="co-polarized trace CSV (dB)")
    p_fit.add_argument("--cross", required=True, help="cross-polarized trace CSV (dB)")
    p_fit.add_argument("--strict", action="store_true",
                       help="exit with code 4 when the fit does not converge")
    p_fit.set_defaults(func=cmd_fit)

    p_cpr = sub.add_parser("cpr", parents=[shared], help="tabulate CPR versus distance")
    p_cpr.set_defaults(func=cmd_cpr)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(load_run_config(args.config), args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
