"""Regenerate the reference outputs the benchmark checks against.

    python3 bench/make_reference.py

Writes bench/reference/oracle_bins.json (co/cross bins of every oracle_sweep
case, per input variant) and bench/reference/cli_digests.json (SHA-256 of
stdout and of every CSV of each cli_session command, per variant). Run it
only at a commit whose outputs are the accepted reference; later commits
are checked against these files.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import harness


def main() -> None:
    harness.pin_environment()
    import cli_session
    import oracle_sweep

    bins, digests = {}, {}
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=harness.RESULTS))
    try:
        for var in range(harness.N_VARIANTS):
            bins[str(var)] = {}
            for case in oracle_sweep.make_cases(var):
                co, cross = oracle_sweep.simulate(case)
                bins[str(var)][case.label] = {"co": co.tolist(), "cross": cross.tolist()}
            cli_session.write_inputs(var, workdir)
            digests[str(var)] = {}
            for kind, argv, files in cli_session.COMMANDS:
                _, code, got = cli_session.run_cli(workdir, argv, files)
                if code != 0 or None in got.values():
                    raise SystemExit(f"variant {var}: {kind} failed with exit code {code}")
                digests[str(var)][kind] = got
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.REFERENCE.mkdir(exist_ok=True)
    for name, data in (("oracle_bins.json", bins), ("cli_digests.json", digests)):
        (harness.REFERENCE / name).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
