"""Command-line surface: eval | simulate | fit | cpr.

Every command is a deterministic function of its config file and input
files. Exit codes: 0 success, 2 validation failure, 3 I/O failure,
4 fit did not converge under --strict.
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roompol",
        description="Polarimetric reverberation model for in-room radio channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="run config (YAML)")
    shared.add_argument("--out", required=True, help="report CSV to write")

    sub.add_parser("eval", parents=[shared], help="evaluate model curves onto a CSV")

    p_sim = sub.add_parser("simulate", parents=[shared], help="run the mirror-source Monte Carlo")
    p_sim.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1), capped by the chunk count and the "
                            "available CPUs; results never depend on it")
    p_sim.add_argument("--trace-prefix", default=None,
                       help="also write per-channel trace CSVs with this prefix")

    p_fit = sub.add_parser("fit", parents=[shared],
                           help="fit model parameters to measured PDP traces")
    p_fit.add_argument("--co", required=True, help="co-polarized trace CSV (dB)")
    p_fit.add_argument("--cross", required=True, help="cross-polarized trace CSV (dB)")
    p_fit.add_argument("--strict", action="store_true",
                       help="exit with code 4 when the fit does not converge")

    sub.add_parser("cpr", parents=[shared], help="tabulate CPR versus distance")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # numpy, yaml and the model load only now, so --help and usage errors skip them
    from . import commands
    from .config import load_run_config

    try:
        return getattr(commands, f"cmd_{args.command}")(load_run_config(args.config), args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
