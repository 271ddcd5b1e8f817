"""Parse ``top``-style process captures into datasets."""

from __future__ import annotations

import re

from twinforge.errors import EmptyCapture, MalformedLine, MalformedRow, MalformedTime
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset

_TIME_RE = re.compile(r"^(\d+):(\d{2})\.(\d)$", re.ASCII)

# Modeled columns of a process capture. The pid is row metadata, not a column:
# it identifies a process rather than following a distribution worth learning,
# and synthesis regenerates it sequentially.
TOP_SCHEMA = Schema(
    (
        Column("user", DISCRETE),
        Column("cpu_pct", CONTINUOUS),
        Column("mem_pct", CONTINUOUS),
        Column("elapsed_s", CONTINUOUS),
        Column("command", DISCRETE),
    )
)


def parse_time_lapsed(text: str) -> float:
    """Convert elapsed-time text ``MM:SS.t`` into seconds (60*MM + SS.t)."""
    match = _TIME_RE.match(text)
    if match is None:
        raise MalformedTime(f"expected MM:SS.t, got {text!r}")
    minutes, seconds, tenth = (int(g) for g in match.groups())
    # Integer tenths keep the result exactly equal to the decimal the text spells.
    return (600 * minutes + 10 * seconds + tenth) / 10


def parse_top_capture(text: str) -> TabularDataset:
    """Parse capture text into a dataset with pid metadata.

    A data line is ``pid user cpu mem time command``, the command running to
    the end of the line; blank lines and header lines starting with ``PID``
    are skipped. CPU must be at least 0 and memory within [0, 100]; the
    dataset judges the pid and every cell. Each fault raises
    ``MalformedLine`` naming its line.
    """
    rows: list[tuple[str, float, float, float, str]] = []
    pids: list[int] = []
    line_nos: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("PID"):
            continue
        parts = line.split(maxsplit=5)
        if len(parts) < 6:
            raise MalformedLine(line_no, "expected: pid user cpu mem time command")
        pid, user, cpu, mem, elapsed, command = parts
        try:
            # int() and float() also take "_" separators and non-ASCII digits, and int() a sign
            if not (pid.isascii() and pid.isdigit()):
                raise ValueError(f"pid must be ASCII digits, got {pid!r}")
            if not all(text.isascii() and "_" not in text for text in (cpu, mem)):
                raise ValueError(f"cpu and mem must be ASCII numbers without '_', got {cpu!r} and {mem!r}")
            pid, cpu, mem, elapsed = int(pid), float(cpu), float(mem), parse_time_lapsed(elapsed)
        except (MalformedTime, ValueError) as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        if cpu < 0:
            raise MalformedLine(line_no, "cpu_pct must be >= 0")
        if not 0 <= mem <= 100:
            raise MalformedLine(line_no, "mem_pct must be within [0, 100]")
        rows.append((user, cpu, mem, elapsed, command))
        pids.append(pid)
        line_nos.append(line_no)
    if not rows:
        raise EmptyCapture("no data lines in capture")
    try:
        return TabularDataset(TOP_SCHEMA, rows, pids)
    except MalformedRow as exc:
        raise MalformedLine(line_nos[exc.row], exc.reason) from exc
