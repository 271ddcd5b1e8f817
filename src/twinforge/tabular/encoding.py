"""Row encoding for the tabular GAN.

Continuous cells become ``(alpha, mode one-hot)`` where the mode is drawn
from the mixture posterior and ``alpha = clamp((x - mean) / (4 * stdev), -1, 1)``
for the drawn mode. Discrete cells become one-hot vectors over the training
categories. The conditional vector concatenates the per-discrete-column
masks with exactly one bit set.

Everything about a row's encoding except the posterior mode draw is fixed by
the row, so :meth:`TableCodec.row_constants` computes it once per table and
:meth:`TableCodec.encode_rows` only draws the modes of the rows it is given.
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


# numpy adds a contiguous run of fewer values than this one after another,
# and a longer run pairwise.
PAIRWISE_FROM = 8


@dataclass(frozen=True)
class FlagGroup:
    """Flag blocks side by side, so a softmax over all of them is a few
    whole-array ops: block ``b`` holds ``columns[b]``, padded (``pad``) by
    repeating its first column. ``targets`` is where each entry is written
    back: its column, or for padding a spare column one past the row, which
    the heads then drop."""

    columns: np.ndarray
    pad: np.ndarray
    targets: np.ndarray


def _flag_groups(blocks: list[range], spare: int) -> tuple[FlagGroup, ...]:
    """Blocks narrower than ``PAIRWISE_FROM`` share one group, padded to the
    widest of them: padding that adds nothing leaves their sums' bits alone.
    Wider blocks are grouped by width, unpadded: numpy would pair the entries
    of a padded block differently."""
    groups: dict[int, list[range]] = {}
    for block in blocks:
        groups.setdefault(len(block) if len(block) >= PAIRWISE_FROM else 0, []).append(block)
    out = []
    for group in groups.values():
        width = max(len(b) for b in group)
        columns = np.array([list(b) + [b[0]] * (width - len(b)) for b in group], dtype=np.intp)
        pad = np.array([[k >= len(b) for k in range(width)] for b in group])
        out.append(FlagGroup(columns, pad, np.where(pad, spare, columns)))
    return tuple(out)


@dataclass(frozen=True)
class RowConstants:
    """The per-row parts of a table's encoding, row-aligned.

    ``onehots`` is the encoded row with its discrete one-hots set and zeros
    elsewhere. For the j-th continuous column, ``cum_posterior[:, j]`` holds
    the cumulative mode posterior and ``alphas[:, j]`` the clipped alpha under
    each mode, padded to the codec's widest mixture with ``inf`` and 0.
    """

    onehots: np.ndarray
    cum_posterior: np.ndarray
    alphas: np.ndarray

    def __len__(self) -> int:
        return len(self.onehots)

    def take(self, rows: np.ndarray) -> "RowConstants":
        """The rows at an index array, in its order."""
        return RowConstants(*(a.take(rows, axis=0) for a in (self.onehots, self.cum_posterior, self.alphas)))


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
            names = self.categories.get(column.name)
            if names is None:
                raise ValueError(f"missing categories for {column.name!r}")
            if not names or len(set(names)) < len(names):
                raise ValueError(f"categories of {column.name!r} must be non-empty and distinct")

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
        continuous = [s for s in spans if s.kind == CONTINUOUS]
        # generator heads: a tanh alpha per continuous column, a softmax per flag block
        self.alpha_columns = np.array([s.offset for s in continuous], dtype=np.intp)
        self._mode_columns = self.alpha_columns + 1  # each column's first mode flag
        self._last_modes = np.array([s.width - 2 for s in continuous], dtype=np.intp)
        self._max_modes = max((s.width - 1 for s in continuous), default=0)
        self.flag_groups = _flag_groups(
            [range(s.offset + (s.kind == CONTINUOUS), s.offset + s.width) for s in spans], spare=offset
        )
        # per condition bit, its flag column and a mask of its column's flag block
        self.cond_columns = np.array(
            [s.offset + k for s in self.cond_spans for k in range(s.width)], dtype=np.intp
        )
        self.cond_blocks = np.zeros((self.cond_width, self.row_width), dtype=bool)
        for s in self.cond_spans:
            self.cond_blocks[s.cond_offset : s.cond_offset + s.width, s.offset : s.offset + s.width] = True

        # Per weighting, each condition column's cumulative weights (the table
        # Generator.choice builds from p), one column each, padded with inf.
        self._cond_offsets = np.array([s.cond_offset for s in self.cond_spans], dtype=np.intp)
        widest = max((s.width for s in self.cond_spans), default=0)
        self._cdfs = {w: np.full((widest, len(self.cond_spans)), np.inf) for w in (True, False)}
        for c, span in enumerate(self.cond_spans):
            table = self.frequencies.get(span.name, {})  # a category it lacks counts as NaN
            counts = np.array([table.get(k, np.nan) for k in self.categories[span.name]], dtype=float)
            if not (counts >= 0).all() or not 0 < counts.sum() < np.inf:
                raise ValueError(f"frequencies of {span.name!r} must be finite, >= 0 and not all 0")
            for log_weighted, weights in ((True, np.log1p(counts)), (False, counts)):
                cdf = (weights / weights.sum()).cumsum()
                self._cdfs[log_weighted][: span.width, c] = cdf / cdf[-1]

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

    def row_constants(self, dataset: TabularDataset) -> RowConstants:
        """The parts of the dataset's encoding that do not depend on the
        mode draws. Every sum in them runs within one row, so they hold the
        same bits whichever rows they are computed over."""
        n = len(dataset)
        onehots = np.zeros((n, self.row_width))
        cum_posterior = np.full((n, len(self.alpha_columns), self._max_modes), np.inf)
        alphas = np.zeros((n, len(self.alpha_columns), self._max_modes))
        j = 0
        for span, values in zip(self.spans, dataset.columns):
            if span.kind == CONTINUOUS:
                norm = self.normalizers[span.name]
                k = norm.n_modes
                cum_posterior[:, j, :k] = norm.responsibilities(values).cumsum(axis=1)
                scaled = (values[:, None] - np.asarray(norm.means)) / (ALPHA_SCALE * np.asarray(norm.stdevs))
                alphas[:, j, :k] = np.clip(scaled, -1.0, 1.0)
                j += 1
            else:
                onehots[np.arange(n), span.offset + self.codes(span.name, values)] = 1.0
        return RowConstants(onehots, cum_posterior, alphas)

    def encode_rows(self, rows: RowConstants, rng: np.random.Generator) -> np.ndarray:
        """Encode the rows, drawing each continuous cell's mode from its
        posterior: one uniform per row for each continuous column in turn."""
        n = len(rows)
        out = rows.onehots.copy()
        draws = rng.random((len(self.alpha_columns), n)).T
        # the posterior entries a draw exceeds; rounding can leave the last below it
        modes = (draws[:, :, None] > rows.cum_posterior).sum(axis=2)
        np.minimum(modes, self._last_modes, out=modes)
        at = np.arange(n)[:, None]
        out[at, self.alpha_columns] = rows.alphas[at, np.arange(len(self.alpha_columns)), modes]
        out[at, self._mode_columns + modes] = 1.0
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
        # the cdf entries <= u: the index searchsorted(side="right") returns
        cats = (self._cdfs[log_weighted].take(picks, axis=1) <= uniforms).sum(axis=0)
        conds[np.arange(size), self._cond_offsets[picks] + cats] = 1.0
        return conds

    def sample_conditions_logfreq(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Training-by-sampling conditions: category weight log(1 + freq)."""
        return self._sample_conditions(rng, size, log_weighted=True)

    def sample_conditions_empirical(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Synthesis-time conditions: categories at their empirical frequency."""
        return self._sample_conditions(rng, size, log_weighted=False)
