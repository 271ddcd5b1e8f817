"""Distribution acceptance gate over synthetic batches.

Sampling repeats until every per-column distance to the real data falls
under its threshold: Wasserstein-1 on continuous columns (both samples
min-max normalized by the real column's range, so the threshold is
scale-free) and total variation on discrete columns.
"""

from __future__ import annotations

import numpy as np

from twinforge.config import GateConfig
from twinforge.errors import GateExhausted, SchemaMismatch
from twinforge.ingest.tabular import CONTINUOUS, TabularDataset
from twinforge.tabular.distance import emd_1d, tv_distance
from twinforge.tabular.gan import GanModel, generate_rows
from twinforge.validate.comparison import ColumnDistance


def column_distances(real: TabularDataset, synth: TabularDataset) -> tuple[ColumnDistance, ...]:
    """Per-column gate distances, one for every column.

    A continuous column is scaled by the real column's range, or by 1.0
    when that range is zero (the fallback scale of the mode normalizer's
    stdev floor), so a constant real column is measured in its own units.
    """
    out: list[ColumnDistance] = []
    for column, real_values in zip(real.schema.columns, real.columns):
        synth_values = synth.column(column.name)
        if column.kind == CONTINUOUS:
            lo = real_values.min()
            span = (real_values.max() - lo) or 1.0
            distance = emd_1d((real_values - lo) / span, (synth_values - lo) / span)
        else:
            distance = tv_distance(real_values.counts(), synth_values.counts())
        out.append(ColumnDistance(column.name, column.kind, distance))
    return tuple(out)


def generate_gated(
    model: GanModel,
    real: TabularDataset,
    n: int,
    gate: GateConfig,
    rng: np.random.Generator,
) -> tuple[TabularDataset, int]:
    """Sample until a batch passes every threshold; returns (batch, attempts)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if real.schema != model.schema:
        raise SchemaMismatch("real dataset schema does not match the model")

    worst: tuple[str, float, float] | None = None
    for attempt in range(1, gate.max_attempts + 1):
        synth = generate_rows(model, n, rng)
        offending: list[tuple[str, float, float]] = []
        for cd in column_distances(real, synth):
            threshold = gate.tau_continuous if cd.kind == CONTINUOUS else gate.tau_discrete
            if cd.distance > threshold:
                offending.append((cd.column, cd.distance, threshold))
        if not offending:
            return synth, attempt
        worst = max(offending, key=lambda item: item[1] - item[2])
    assert worst is not None
    raise GateExhausted(gate.max_attempts, worst[0], worst[1], worst[2])
