"""Parse ``top``-style process captures into typed samples and datasets."""

from __future__ import annotations

import re
from dataclasses import dataclass

from twinforge.errors import EmptyCapture, MalformedLine, MalformedTime
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset

_TIME_RE = re.compile(r"^(\d+):(\d{2})\.(\d)$")

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


@dataclass(frozen=True)
class ProcessSample:
    """One parsed process line."""

    pid: int
    user: str
    cpu_pct: float
    mem_pct: float
    elapsed_s: float
    command: str

    def __post_init__(self) -> None:
        if self.pid < 1:
            raise ValueError("pid must be a positive integer")
        if self.cpu_pct < 0:
            raise ValueError("cpu_pct must be >= 0")
        if not 0 <= self.mem_pct <= 100:
            raise ValueError("mem_pct must be within [0, 100]")
        if self.elapsed_s < 0:
            raise ValueError("elapsed_s must be >= 0")
        if not self.command:
            raise ValueError("command must be non-empty")


def parse_time_lapsed(text: str) -> float:
    """Convert elapsed-time text ``MM:SS.t`` into seconds (60*MM + SS.t)."""
    match = _TIME_RE.match(text)
    if match is None:
        raise MalformedTime(f"expected MM:SS.t, got {text!r}")
    minutes, seconds, tenth = (int(g) for g in match.groups())
    # Integer tenths keep the result exactly equal to the decimal the text spells.
    return (600 * minutes + 10 * seconds + tenth) / 10


def parse_top_samples(text: str) -> list[ProcessSample]:
    """Parse capture text into samples; header lines starting with PID are skipped."""
    samples: list[ProcessSample] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("PID"):
            continue
        parts = line.split(maxsplit=5)
        if len(parts) < 6:
            raise MalformedLine(line_no, "expected: pid user cpu mem time command")
        pid_s, user, cpu_s, mem_s, time_s, command = parts
        try:
            pid = int(pid_s)
            cpu = float(cpu_s)
            mem = float(mem_s)
            elapsed = parse_time_lapsed(time_s)
            sample = ProcessSample(pid, user, cpu, mem, elapsed, command.strip())
        except MalformedTime as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        samples.append(sample)
    if not samples:
        raise EmptyCapture("no data lines in capture")
    return samples


def parse_top_capture(text: str) -> TabularDataset:
    """Parse capture text straight into a dataset with pid metadata."""
    samples = parse_top_samples(text)
    rows = tuple((s.user, s.cpu_pct, s.mem_pct, s.elapsed_s, s.command) for s in samples)
    return TabularDataset(TOP_SCHEMA, rows, tuple(s.pid for s in samples))
