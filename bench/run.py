"""roompol benchmark: one workload per fresh process, end-to-end or traced.

    python3 bench/run.py --workload oracle_sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
alternates untraced and traced passes of the workload for half of
`--seconds` (their wall-time ratio is the tracing overhead), then runs every
layer probe inside spans and reports the per-layer metrics. `--smoke` runs
one short pass and one set-up, for tests. The last stdout line is the JSON
result; a fuller record, with the environment, goes to bench/results/, and
the spans of a traced run next to it.

A workload module provides NAME, setup(seed, workdir) -> state,
run_pass(state, tracer, index) -> [Op], run_checks(state, ops) -> [(name,
error)], named_metrics(ops, timed_wall) and probe(tracer, seed, smoke,
workdir) -> (metrics, checks).
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness

WORKLOADS = ("oracle_sweep", "fit_campaign", "cli_session")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short pass, for tests")
    return parser.parse_args(argv)


def timed_passes(wl, state, seconds: float, smoke: bool, tracers):
    """Run passes until `seconds` have elapsed, cycling through `tracers`.

    Each pass index is run once per tracer, so traced and untraced passes
    see the same inputs. Returns ops, pass walls per tracer, and the wall.
    """
    ops, walls = [], [[] for _ in tracers]
    start = time.perf_counter()
    index = 0
    while True:
        for k, tracer in enumerate(tracers):
            t0 = time.perf_counter()
            with tracer.span("bench.pass", op=index):
                ops += wl.run_pass(state, tracer, index)
            walls[k].append(time.perf_counter() - t0)
        index += 1
        if smoke or time.perf_counter() - start >= seconds:
            return ops, walls, time.perf_counter() - start


def measure_end_to_end(wl, args, workdir):
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    off = harness.Tracer(wl.NAME, enabled=False)
    ops, (walls,), timed_wall = timed_passes(wl, state, args.seconds, args.smoke, [off])
    latencies = [op.seconds for op in ops]
    metrics = {
        "setup_s": (harness.median(setup_times), "s"),
        "wall_s": (harness.median(walls), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "throughput_per_s": (sum(op.units for op in ops) / timed_wall, "1/s"),
        "op_p50_ms": (harness.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (harness.percentile(latencies, 90) * 1e3, "ms"),
    }
    checks = [(f"{op.kind}#{i}", op.error) for i, op in enumerate(ops)]
    checks += wl.run_checks(state, ops)
    named = wl.named_metrics(ops, timed_wall)
    failed = [e for _, e in checks if e]
    named.append(("error_rate", len(failed) / len(checks), "ratio"))
    detail = {
        "passes": len(walls),
        "ops": len(ops),
        "op_latency": harness.timing_summary(latencies),
        "setup_s_samples": setup_times,
        "named_metrics": {n: {"value": v, "unit": u} for n, v, u in named},
    }
    return metrics, checks, detail


def measure_layers(wl, modules, args, workdir):
    tracer = harness.Tracer(wl.NAME)
    state = wl.setup(args.seed, workdir)
    off = harness.Tracer(wl.NAME, enabled=False)
    # half the run for passes, so the probes after them keep the run short
    ops, (untraced, traced), _ = timed_passes(
        wl, state, args.seconds / 2, args.smoke, [off, tracer])
    checks = [(f"{op.kind}#{i}", op.error) for i, op in enumerate(ops)]
    checks += wl.run_checks(state, ops)
    overhead = (harness.median(traced) / harness.median(untraced) - 1.0) * 100.0
    metrics = {"trace.overhead_pct": (overhead, "%")}
    self_times = tracer.self_time_by_layer(wl.NAME)
    for name, module in modules.items():
        probe_metrics, probe_checks = module.probe(
            tracer.for_workload(name), args.seed, args.smoke, workdir)
        metrics.update(probe_metrics)
        checks += [(f"{name}.probe.{c}", e) for c, e in probe_checks]
    spans_path = harness.RESULTS / f"spans-{wl.NAME}-seed{args.seed}.json"
    tracer.dump(spans_path)
    detail = {
        "self_time_s": self_times,
        "spans": str(spans_path.relative_to(harness.ROOT)),
        "span_count": len(tracer.spans),
        "passes_traced": len(traced),
        "passes_untraced": len(untraced),
    }
    return metrics, checks, detail


def run_one(args) -> int:
    modules = {name: importlib.import_module(name) for name in WORKLOADS}
    wl = modules[args.workload]
    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{wl.NAME}-", dir=harness.RESULTS))
    try:
        if args.trace:
            metrics, checks, detail = measure_layers(wl, modules, args, workdir)
        else:
            metrics, checks, detail = measure_end_to_end(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(c, e) for c, e in checks if e]
    print(f"# {wl.NAME} seed={args.seed} trace={args.trace} "
          f"checks={len(checks)} failed={len(failed)}")
    for check, error in failed:
        print(f"FAIL {check}: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>14.6g} {unit}")
    for name, entry in detail.get("named_metrics", {}).items():
        print(f"{wl.NAME}.{name:<33} {entry['value']:>14.6g} {entry['unit']}")
    for layer, seconds in detail.get("self_time_s", {}).items():
        print(f"self_time.{layer:<36} {seconds:>14.6g} s")
    if "op_latency" in detail:
        print(f"op latency: {detail['op_latency']}")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    record = dict(result, workload=wl.NAME, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, failures=failed, detail=detail,
                  environment=harness.environment_info())
    out = harness.RESULTS / f"{wl.NAME}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; prints one table of metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.pin_environment()
    try:
        import roompol
    except ImportError as exc:
        print(f"error: cannot import roompol from {harness.SRC}: {exc}", file=sys.stderr)
        return 2
    if not roompol.__file__.startswith(str(harness.SRC)):
        print(f"error: roompol resolved to {roompol.__file__}, not {harness.SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
