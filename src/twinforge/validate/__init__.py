"""Validation: summary statistics, script metrics, dry-run replay, reports."""

from twinforge.validate.metrics import bleu, cosine_similarity
from twinforge.validate.replay import (
    MISSING_TARGET,
    MISSING_WINDOW,
    NO_ACTIVE_WINDOW,
    OUT_OF_BOUNDS,
    replay_validate,
)
from twinforge.validate.report import (
    ColumnDistanceRecord,
    ScriptMetrics,
    build_report,
    load_report,
    save_report,
)
from twinforge.validate.stats import compare_stats, summary_stats

__all__ = [
    "MISSING_TARGET",
    "MISSING_WINDOW",
    "NO_ACTIVE_WINDOW",
    "OUT_OF_BOUNDS",
    "ColumnDistanceRecord",
    "ScriptMetrics",
    "bleu",
    "build_report",
    "compare_stats",
    "cosine_similarity",
    "load_report",
    "replay_validate",
    "save_report",
    "summary_stats",
]
