"""CSV formats: full-precision dB PDP traces and formatted report tables.

Conventions shared by every file: comma separation, '.' decimal separator,
a header row after '#' comment lines, delays in nanoseconds, and -inf dB
(zero power) written as the empty field. Reports write any non-finite value
that way; traces, which must read back exactly, accept only -inf.
0 dB corresponds to a normalized power density of 1 per second.
"""

from __future__ import annotations

import math

import numpy as np

from .measurement import PdpTrace

_DB_REFERENCE_NOTE = "# power reference: 0 dB = 1 (1/s), transmit-power normalized"


class TraceFormatError(ValueError):
    """A CSV file did not parse as a PDP trace; message names the row."""


def format_delay_ns(value: float) -> str:
    return f"{value:.6g}"


def format_db(value: float) -> str:
    return "" if not math.isfinite(value) else f"{value:.4f}"


def write_trace_csv(path: str, trace: PdpTrace) -> None:
    """Write a dB PDP trace at full precision; values read back exactly, delays to 1 ulp.

    A linear trace raises `ValueError`: trace files hold dB only. -inf is
    written as the empty field. `PdpTrace` checks the values again, as they
    may have been reassigned, so +inf and NaN, which no field spells, raise.
    """
    if trace.scale != "db":
        raise ValueError(f"trace CSVs hold dB only, got scale {trace.scale!r}")
    trace = PdpTrace(trace.delays, trace.values, "db")
    lines = ["# roompol pdp trace", "# scale: db", _DB_REFERENCE_NOTE, "delay_ns,power_db"]
    for delay, value in zip(trace.delays, trace.values):
        v = "" if value == -math.inf else f"{value:.17g}"
        lines.append(f"{delay * 1e9:.17g},{v}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite_field(path: str, row_no: int, what: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise TraceFormatError(
            f"{path}: row {row_no}: bad {what} value {text!r}, expected a finite number"
        )
    return value


def read_trace_csv(path: str) -> PdpTrace:
    """Read a dB trace written by `write_trace_csv`; empty power fields become -inf.

    Any other non-numeric or non-finite field (`nan`, `inf`, `-inf`) is
    rejected with the row named: the empty field is the one spelling of -inf.
    The header must be `delay_ns,power_db`, and a `# scale:` comment other
    than `db` is rejected with its row named. A leading UTF-8 BOM is skipped.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        raw = fh.read().splitlines()
    header = None
    delays: list[float] = []
    values: list[float] = []
    for row_no, line in enumerate(raw, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.lower().startswith("# scale:"):
                note = stripped.split(":", 1)[1].strip()
                if note != "db":
                    raise TraceFormatError(f"{path}: row {row_no}: '# scale: {note}', expected db")
            continue
        if header is None:
            header = [f.strip() for f in stripped.split(",")]
            if header != ["delay_ns", "power_db"]:
                raise TraceFormatError(f"{path}: row {row_no}: unexpected header {stripped!r}")
            continue
        fields = stripped.split(",")
        if len(fields) != 2:
            raise TraceFormatError(
                f"{path}: row {row_no}: expected 2 fields, got {len(fields)}"
            )
        delay = _finite_field(path, row_no, "delay", fields[0])
        if fields[1].strip() == "":
            value = -math.inf
        else:
            value = _finite_field(path, row_no, "power", fields[1])
        delays.append(delay * 1e-9)
        values.append(value)
    if not delays:  # rows are read only after the header
        raise TraceFormatError(f"{path}: no trace rows found")
    try:
        return PdpTrace(delays=np.array(delays), values=np.array(values), scale="db")
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def write_report_csv(path: str, columns: list[tuple[str, np.ndarray]], formatters) -> None:
    """Write a plot-ready table; `formatters` maps one callable per column."""
    names = [name for name, _ in columns]
    # Python floats format like np.float64, and a list indexes faster than an array
    cells = [col.tolist() for _, col in columns]
    lines = ["# roompol report", _DB_REFERENCE_NOTE, ",".join(names)]
    for row in zip(*cells, strict=True):  # a short column or formatter list raises
        lines.append(",".join(fmt(x) for x, fmt in zip(row, formatters, strict=True)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
