"""Structured comparison reports with lossless JSON persistence."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from twinforge.errors import MalformedReport
from twinforge.jsonfile import dumps, read_json
from twinforge.tabular.gate import ColumnDistance
from twinforge.validate.stats import FieldDelta, ModalDelta, StatsComparison, SummaryStats

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
    return dumps({"format_version": REPORT_FORMAT_VERSION, **vars(report)})


def save_report(report: ComparisonReport, path: str | Path) -> None:
    Path(path).write_text(report_to_json(report), encoding="utf-8")


def _stats_from(doc: dict) -> SummaryStats:
    # JSON has no tuples: each modal (category, frequency) pair reads back as a list.
    return SummaryStats(**{**doc, "modes": {k: tuple(v) for k, v in doc["modes"].items()}})


def load_report(path: str | Path) -> ComparisonReport:
    doc = read_json(path, MalformedReport)
    try:
        if doc["format_version"] != REPORT_FORMAT_VERSION:
            raise MalformedReport(f"{path}: unsupported format_version {doc['format_version']!r}")
        comparison = doc["comparison"]
        return ComparisonReport(
            run_id=doc["run_id"],
            created_at=doc["created_at"],
            seeds=dict(doc["seeds"]),
            config=dict(doc["config"]),
            real_stats=_stats_from(doc["real_stats"]),
            synth_stats=_stats_from(doc["synth_stats"]),
            comparison=StatsComparison(
                row_counts=tuple(comparison["row_counts"]),
                continuous={k: FieldDelta(**d) for k, d in comparison["continuous"].items()},
                discrete={k: ModalDelta(**d) for k, d in comparison["discrete"].items()},
            ),
            distances=tuple(ColumnDistance(**d) for d in doc["distances"]),
            scripts=tuple(ScriptMetrics(**s) for s in doc["scripts"]),
            gate_attempts=doc["gate_attempts"],
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise MalformedReport(f"{path}: {exc}") from exc
