"""Row encoding for the tabular GAN.

Continuous cells become ``(alpha, mode one-hot)`` where the mode is drawn
from the mixture posterior and ``alpha = clamp((x - mean) / (4 * stdev), -1, 1)``
for the drawn mode. Discrete cells become one-hot vectors over the training
categories. The conditional vector concatenates the per-discrete-column
masks with exactly one bit set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from twinforge.errors import UnknownCategory
from twinforge.ingest.tabular import CONTINUOUS, Schema, TabularDataset
from twinforge.tabular.mixture import ModeNormalizer, fit_mode_normalizer

ALPHA_SCALE = 4.0


@dataclass(frozen=True)
class _ColumnSpan:
    name: str
    kind: str
    offset: int
    width: int


class TableCodec:
    """Schema-aware encoder/decoder between rows and flat model vectors."""

    def __init__(
        self,
        schema: Schema,
        normalizers: Mapping[str, ModeNormalizer],
        categories: Mapping[str, tuple[str, ...]],
        frequencies: Mapping[str, Mapping[str, int]],
    ) -> None:
        self.schema = schema
        self.normalizers = dict(normalizers)
        self.categories = {k: tuple(v) for k, v in categories.items()}
        self.frequencies = {k: dict(v) for k, v in frequencies.items()}
        for _, column in schema.continuous():
            if column.name not in self.normalizers:
                raise ValueError(f"missing normalizer for {column.name!r}")
        for _, column in schema.discrete():
            if column.name not in self.categories:
                raise ValueError(f"missing categories for {column.name!r}")

        spans: list[_ColumnSpan] = []
        offset = 0
        for column in schema.columns:
            if column.kind == CONTINUOUS:
                width = 1 + self.normalizers[column.name].n_modes
            else:
                width = len(self.categories[column.name])
            spans.append(_ColumnSpan(column.name, column.kind, offset, width))
            offset += width
        self.spans = tuple(spans)
        self.row_width = offset

        cond_spans: list[_ColumnSpan] = []
        offset = 0
        for _, column in schema.discrete():
            width = len(self.categories[column.name])
            cond_spans.append(_ColumnSpan(column.name, column.kind, offset, width))
            offset += width
        self.cond_spans = tuple(cond_spans)
        self.cond_width = offset

    # -- construction ---------------------------------------------------

    @classmethod
    def fit(cls, dataset: TabularDataset, max_modes: int = 5, seed: int = 0) -> "TableCodec":
        """Fit normalizers and category tables from a training dataset.

        Every column gets its own rng stream derived from (seed, column
        index), so per-column fits are order-independent.
        """
        normalizers: dict[str, ModeNormalizer] = {}
        categories: dict[str, tuple[str, ...]] = {}
        frequencies: dict[str, dict[str, int]] = {}
        for idx, column in enumerate(dataset.schema.columns):
            values = dataset.column_values(column.name)
            if column.kind == CONTINUOUS:
                column_seed = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
                normalizers[column.name] = fit_mode_normalizer(
                    [float(v) for v in values], max_modes=max_modes, seed=column_seed
                )
            else:
                table: dict[str, int] = {}
                for v in values:
                    table[str(v)] = table.get(str(v), 0) + 1
                categories[column.name] = tuple(sorted(table))
                frequencies[column.name] = table
        return cls(dataset.schema, normalizers, categories, frequencies)

    # -- encoding ---------------------------------------------------------

    def encode_rows(self, rows: Sequence[Sequence[float | str]], rng: np.random.Generator) -> np.ndarray:
        out = np.zeros((len(rows), self.row_width))
        columns = list(zip(self.schema.columns, self.spans))
        for i, (column, span) in enumerate(columns):
            cells = [row[i] for row in rows]
            if column.kind == CONTINUOUS:
                values = np.asarray(cells, dtype=float)
                norm = self.normalizers[column.name]
                resp = norm.responsibilities(values)
                draws = rng.random((len(rows), 1))
                modes = (draws > resp.cumsum(axis=1)).sum(axis=1)
                modes = np.minimum(modes, norm.n_modes - 1)
                mu = np.asarray(norm.means)[modes]
                sd = np.asarray(norm.stdevs)[modes]
                alpha = np.clip((values - mu) / (ALPHA_SCALE * sd), -1.0, 1.0)
                out[:, span.offset] = alpha
                out[np.arange(len(rows)), span.offset + 1 + modes] = 1.0
            else:
                cats = self.categories[column.name]
                index = {c: j for j, c in enumerate(cats)}
                for r, cell in enumerate(cells):
                    j = index.get(str(cell))
                    if j is None:
                        raise UnknownCategory(column.name, str(cell))
                    out[r, span.offset + j] = 1.0
        return out

    # -- decoding ---------------------------------------------------------

    def decode_rows(self, encoded: np.ndarray) -> list[tuple[float | str, ...]]:
        encoded = np.atleast_2d(encoded)
        rows: list[tuple[float | str, ...]] = []
        for vec in encoded:
            cells: list[float | str] = []
            for span in self.spans:
                block = vec[span.offset : span.offset + span.width]
                if span.kind == CONTINUOUS:
                    norm = self.normalizers[span.name]
                    mode = int(np.argmax(block[1:]))
                    alpha = float(np.clip(block[0], -1.0, 1.0))
                    cells.append(alpha * ALPHA_SCALE * norm.stdevs[mode] + norm.means[mode])
                else:
                    cells.append(self.categories[span.name][int(np.argmax(block))])
            rows.append(tuple(cells))
        return rows

    # -- conditions ---------------------------------------------------------

    def _sample_conditions(
        self, rng: np.random.Generator, size: int, log_weighted: bool
    ) -> tuple[np.ndarray, list[tuple[str, str]]]:
        vecs = np.zeros((size, self.cond_width))
        chosen: list[tuple[str, str]] = []
        if not self.cond_spans:
            return vecs, chosen
        col_picks = rng.integers(len(self.cond_spans), size=size)
        for i in range(size):
            span = self.cond_spans[int(col_picks[i])]
            cats = self.categories[span.name]
            counts = np.array([self.frequencies[span.name][c] for c in cats], dtype=float)
            weights = np.log1p(counts) if log_weighted else counts
            probs = weights / weights.sum()
            j = int(rng.choice(len(cats), p=probs))
            vecs[i, span.offset + j] = 1.0
            chosen.append((span.name, cats[j]))
        return vecs, chosen

    def sample_conditions_logfreq(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Training-by-sampling conditions: category weight log(1 + freq)."""
        return self._sample_conditions(rng, size, log_weighted=True)

    def sample_conditions_empirical(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, list[tuple[str, str]]]:
        """Synthesis-time conditions: categories at their empirical frequency."""
        return self._sample_conditions(rng, size, log_weighted=False)
