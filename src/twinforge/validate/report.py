"""Structured comparison reports with lossless JSON persistence."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from twinforge.errors import MalformedReport
from twinforge.jsonfile import read_record, record_text
from twinforge.validate.comparison import ColumnDistance, StatsComparison, SummaryStats

REPORT_FORMAT_VERSION = 1

# perfbench/workloads.py builds report rows under this name.
ColumnDistanceRecord = ColumnDistance


@dataclass(frozen=True)
class ScriptMetrics:
    name: str
    cosine: float
    bleu: float
    replay_ok: bool


@dataclass(frozen=True)
class ComparisonReport:
    run_id: str
    created_at: str
    seeds: dict[str, int]
    config: dict
    real_stats: SummaryStats
    synth_stats: SummaryStats
    comparison: StatsComparison
    distances: tuple[ColumnDistance, ...]
    scripts: tuple[ScriptMetrics, ...]
    gate_attempts: int | None


def build_report(
    *,
    run_id: str,
    created_at: str,
    seeds: Mapping[str, int],
    config: Mapping,
    real_stats: SummaryStats,
    synth_stats: SummaryStats,
    comparison: StatsComparison,
    distances: Sequence[ColumnDistance] = (),
    scripts: Sequence[ScriptMetrics] = (),
    gate_attempts: int | None = None,
) -> ComparisonReport:
    return ComparisonReport(
        run_id=run_id,
        created_at=created_at,
        seeds=dict(seeds),
        config=dict(config),
        real_stats=real_stats,
        synth_stats=synth_stats,
        comparison=comparison,
        distances=tuple(distances),
        scripts=tuple(scripts),
        gate_attempts=gate_attempts,
    )


def report_to_json(report: ComparisonReport) -> str:
    return record_text(REPORT_FORMAT_VERSION, report)


def save_report(report: ComparisonReport, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")


def load_report(path: str | Path) -> ComparisonReport:
    return read_record(path, {REPORT_FORMAT_VERSION: ComparisonReport}, MalformedReport)
