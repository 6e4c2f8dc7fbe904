"""Shared benchmark machinery: pinned environment, spans, statistics, records.

Only the standard library is imported here, so `run.py` can pin the thread
and path environment before numpy or roompol is loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
REFERENCE = Path(__file__).resolve().parent / "reference"

# Input variants with stored seed-commit references; `--seed` picks one, so
# byte-for-byte and 1e-9 output checks hold for every seed.
N_VARIANTS = 8

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Single-threaded BLAS, worker cap at nproc, package importable from src.

    Children inherit os.environ, so CLI subprocesses and fresh-process probes
    run under the same settings as this process.
    """
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ["ROOMPOL_MAX_WORKERS"] = str(nproc())
    # absolute, because CLI children run with their work directory as cwd
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


def variant(seed: int) -> int:
    return seed % N_VARIANTS


@dataclass
class Op:
    """One timed operation of a workload and the outcome of its check."""

    kind: str
    seconds: float
    units: int = 1
    error: str | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    workload: str
    op: int | None


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Span names are `<layer>.<call>`; the layer is a roompol module name, or
    `bench` for the harness's own work. Views made by `for_workload` share
    the span list and the open-span stack, so parents nest across them.
    """

    def __init__(self, workload: str, enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def for_workload(self, workload: str) -> "Tracer":
        view = Tracer(workload, self.enabled)
        view.spans = self.spans
        view._stack = self._stack
        return view

    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, op)

    @contextlib.contextmanager
    def _record(self, name: str, op: int | None):
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.workload, op))

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this exact name."""
        return [(s.end_ns - s.start_ns) * 1e-9 for s in self.spans if s.name == name]

    def self_time_by_layer(self, workload: str) -> dict[str, float]:
        """Seconds per layer of span time not covered by child spans."""
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end_ns - s.start_ns
        out: dict[str, float] = {}
        for s in self.spans:
            if s.workload != workload:
                continue
            layer = s.name.split(".", 1)[0]
            own = s.end_ns - s.start_ns - child_ns.get(s.id, 0)
            out[layer] = out.get(layer, 0.0) + own * 1e-9
        return dict(sorted(out.items()))

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def percentile(values, q: float) -> float:
    """Linearly interpolated q-th percentile (0..100) of the samples."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100.0 >= 10:
            return q
    return None


def timing_summary(values) -> str:
    """Median and the guide's tail percentile, with the sample count."""
    n = len(values)
    text = f"p50={median(values) * 1e3:.2f}ms"
    q = tail_percentile(n)
    if q is not None:
        text += f" p{q}={percentile(values, q) * 1e3:.2f}ms"
    return text + f" n={n}"


def per_call(tracer: Tracer, name: str, call, batch: int, repeats: int) -> float:
    """Median seconds per call over `repeats` spans of `batch` calls each.

    Batching keeps the span's own cost small against calls of a few
    microseconds.
    """
    for _ in range(repeats):
        with tracer.span(name):
            for _ in range(batch):
                call()
    return median(tracer.durations(name)) / batch


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment_info() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "roompol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "pinned_env": {k: os.environ[k] for k in (*_THREAD_VARS, "ROOMPOL_MAX_WORKERS")},
    }


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(name: str) -> dict:
    with open(REFERENCE / name, "r", encoding="utf-8") as fh:
        return json.load(fh)
