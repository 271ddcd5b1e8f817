"""Summary statistics and real-vs-synthetic comparisons."""

from __future__ import annotations

import numpy as np

from twinforge.errors import EmptyDataset, SchemaMismatch
from twinforge.ingest.tabular import CONTINUOUS, TabularDataset
from twinforge.validate.comparison import FieldDelta, ModalDelta, StatsComparison, SummaryStats

REL_EPS = 1e-9


def summary_stats(dataset: TabularDataset) -> SummaryStats:
    """Arithmetic means and modal categories (ties break lexicographically)."""
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("cannot summarize an empty dataset")
    means: dict[str, float] = {}
    modes: dict[str, tuple[str, float]] = {}
    for column, values in zip(dataset.schema.columns, dataset.columns):
        if column.kind == CONTINUOUS:
            # Left to right, as the built-in sum adds before Python 3.12 (np.sum
            # adds pairwise and changes the bits); + 0.0 gives an all -0.0
            # column the +0.0 sum that the built-in sum's start value 0 gives.
            means[column.name] = float(np.cumsum(values)[-1] + 0.0) / n
        else:
            counts = values.counts()
            top = max(counts.values())
            modal = min(c for c, k in counts.items() if k == top)
            modes[column.name] = (modal, top / n)
    return SummaryStats(row_count=n, means=means, modes=modes)


def compare_stats(real: TabularDataset, synth: TabularDataset) -> StatsComparison:
    """Absolute and relative mean deltas plus modal-category match flags."""
    if real.schema != synth.schema:
        raise SchemaMismatch("datasets under comparison must share a schema")
    rs = summary_stats(real)
    ss = summary_stats(synth)
    continuous = {}
    for name, real_mean in rs.means.items():
        synth_mean = ss.means[name]
        gap = abs(real_mean - synth_mean)
        continuous[name] = FieldDelta(
            real=real_mean,
            synth=synth_mean,
            abs_delta=gap,
            rel_delta=gap / max(abs(real_mean), REL_EPS),
        )
    discrete = {}
    for name, (real_mode, real_freq) in rs.modes.items():
        synth_mode, synth_freq = ss.modes[name]
        discrete[name] = ModalDelta(
            real=real_mode,
            synth=synth_mode,
            match=real_mode == synth_mode,
            freq_abs_delta=abs(real_freq - synth_freq),
        )
    return StatsComparison(
        row_counts=(rs.row_count, ss.row_count), continuous=continuous, discrete=discrete
    )
