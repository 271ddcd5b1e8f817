"""Row encoding for the tabular GAN.

Continuous cells become ``(alpha, mode one-hot)`` where the mode is drawn
from the mixture posterior and ``alpha = clamp((x - mean) / (4 * stdev), -1, 1)``
for the drawn mode. Discrete cells become one-hot vectors over the training
categories. The conditional vector concatenates the per-discrete-column
masks with exactly one bit set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from twinforge.errors import UnknownCategory
from twinforge.ingest.tabular import CONTINUOUS, Categorical, Schema, TabularDataset
from twinforge.tabular.mixture import ModeNormalizer, fit_mode_normalizer

ALPHA_SCALE = 4.0


@dataclass(frozen=True)
class _ColumnSpan:
    name: str
    kind: str
    offset: int
    width: int
    cond_offset: int = -1  # a discrete column's block in the condition vector


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
        offset = cond_offset = 0
        for column in schema.columns:
            if column.kind == CONTINUOUS:
                width = 1 + self.normalizers[column.name].n_modes
                spans.append(_ColumnSpan(column.name, column.kind, offset, width))
            else:
                width = len(self.categories[column.name])
                spans.append(_ColumnSpan(column.name, column.kind, offset, width, cond_offset))
                cond_offset += width
            offset += width
        self.spans = tuple(spans)
        self.row_width = offset
        self.cond_spans = tuple(s for s in spans if s.kind != CONTINUOUS)
        self.cond_width = cond_offset
        # generator heads: a tanh alpha per continuous column, a softmax per flag block
        self.alpha_columns = tuple(s.offset for s in spans if s.kind == CONTINUOUS)
        self.flag_blocks = tuple((s.offset + (s.kind == CONTINUOUS), s.offset + s.width) for s in spans)

        # per condition column and weighting, the table Generator.choice builds from p
        self._cdfs: dict[bool, list[np.ndarray]] = {True: [], False: []}
        for span in self.cond_spans:
            table = self.frequencies[span.name]
            counts = np.array([table[c] for c in self.categories[span.name]], dtype=float)
            if not (counts >= 0).all() or not 0 < counts.sum() < np.inf:
                raise ValueError(f"frequencies of {span.name!r} must be finite, >= 0 and not all 0")
            for log_weighted, weights in ((True, np.log1p(counts)), (False, counts)):
                cdf = (weights / weights.sum()).cumsum()
                self._cdfs[log_weighted].append(cdf / cdf[-1])

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
        for idx, (column, values) in enumerate(zip(dataset.schema.columns, dataset.columns)):
            if column.kind == CONTINUOUS:
                column_seed = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
                normalizers[column.name] = fit_mode_normalizer(values, max_modes=max_modes, seed=column_seed)
            else:
                table = {c: k for c, k in values.counts().items() if k}
                categories[column.name] = tuple(sorted(table))
                frequencies[column.name] = table
        return cls(dataset.schema, normalizers, categories, frequencies)

    # -- encoding ---------------------------------------------------------

    def codes(self, name: str, column: Categorical) -> np.ndarray:
        """A discrete column's codes as indices into this codec's categories."""
        index = {c: j for j, c in enumerate(self.categories[name])}
        table = np.array([index.get(c, -1) for c in column.categories], dtype=np.intp)
        codes = table[column.codes]
        if codes.size and codes.min() < 0:
            raise UnknownCategory(name, column.categories[column.codes[int(codes.argmin())]])
        return codes

    def encode_rows(self, dataset: TabularDataset, rng: np.random.Generator) -> np.ndarray:
        n = len(dataset)
        out = np.zeros((n, self.row_width))
        for span, values in zip(self.spans, dataset.columns):
            if span.kind == CONTINUOUS:
                norm = self.normalizers[span.name]
                resp = norm.responsibilities(values)
                draws = rng.random((n, 1))
                modes = (draws > resp.cumsum(axis=1)).sum(axis=1)
                modes = np.minimum(modes, norm.n_modes - 1)
                mu = np.asarray(norm.means)[modes]
                sd = np.asarray(norm.stdevs)[modes]
                alpha = np.clip((values - mu) / (ALPHA_SCALE * sd), -1.0, 1.0)
                out[:, span.offset] = alpha
                out[np.arange(n), span.offset + 1 + modes] = 1.0
            else:
                out[np.arange(n), span.offset + self.codes(span.name, values)] = 1.0
        return out

    # -- decoding ---------------------------------------------------------

    def decode_rows(self, encoded: np.ndarray) -> tuple[np.ndarray | Categorical, ...]:
        """Columns of the encoded rows: continuous cells from the alpha and
        the arg-max mode, categories by arg-max."""
        encoded = np.atleast_2d(encoded)
        columns: list[np.ndarray | Categorical] = []
        for span in self.spans:
            block = encoded[:, span.offset : span.offset + span.width]
            if span.kind == CONTINUOUS:
                norm = self.normalizers[span.name]
                modes = block[:, 1:].argmax(axis=1)
                alpha = np.clip(block[:, 0], -1.0, 1.0)
                sd, mu = np.asarray(norm.stdevs)[modes], np.asarray(norm.means)[modes]
                columns.append(alpha * ALPHA_SCALE * sd + mu)
            else:
                columns.append(Categorical(self.categories[span.name], block.argmax(axis=1)))
        return tuple(columns)

    # -- conditions ---------------------------------------------------------

    def _sample_conditions(self, rng: np.random.Generator, size: int, log_weighted: bool) -> np.ndarray:
        """One-hot conditions: a uniform column pick per row, then a category
        by that column's weights, drawn from the stream per-row ``rng.choice`` uses."""
        conds = np.zeros((size, self.cond_width))
        if not self.cond_spans:
            return conds
        picks = rng.integers(len(self.cond_spans), size=size)
        uniforms = rng.random(size)
        for c, (span, cdf) in enumerate(zip(self.cond_spans, self._cdfs[log_weighted])):
            rows = np.flatnonzero(picks == c)
            conds[rows, span.cond_offset + cdf.searchsorted(uniforms[rows], side="right")] = 1.0
        return conds

    def sample_conditions_logfreq(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Training-by-sampling conditions: category weight log(1 + freq)."""
        return self._sample_conditions(rng, size, log_weighted=True)

    def sample_conditions_empirical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Synthesis-time conditions: categories at their empirical frequency."""
        return self._sample_conditions(rng, size, log_weighted=False)
