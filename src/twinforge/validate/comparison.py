"""The records a comparison report holds: gate distances, summary stats
and their deltas. Plain dataclasses without numpy, so reading a report
loads neither numpy nor the GAN."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ColumnDistance:
    column: str
    kind: str
    distance: float


@dataclass(frozen=True)
class SummaryStats:
    """Per-column digest: means for continuous, modal category for discrete."""

    row_count: int
    means: dict[str, float]
    modes: dict[str, tuple[str, float]]  # name -> (modal category, frequency fraction)


@dataclass(frozen=True)
class FieldDelta:
    real: float
    synth: float
    abs_delta: float
    rel_delta: float


@dataclass(frozen=True)
class ModalDelta:
    real: str
    synth: str
    match: bool
    freq_abs_delta: float


@dataclass(frozen=True)
class StatsComparison:
    row_counts: tuple[int, int]
    continuous: dict[str, FieldDelta]
    discrete: dict[str, ModalDelta]
