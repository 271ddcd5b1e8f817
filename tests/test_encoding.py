"""Row encoding: alpha scaling, one-hot invariants, condition sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from twinforge.errors import UnknownCategory
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset
from twinforge.ingest.top import parse_top_capture
from twinforge.tabular.encoding import ALPHA_SCALE, TableCodec
from twinforge.tabular.mixture import ModeNormalizer

import reference_loops as reference
from conftest import make_codec_with_widths


def _codec_for(norm: ModeNormalizer) -> TableCodec:
    schema = Schema((Column("x", CONTINUOUS), Column("u", DISCRETE)))
    return TableCodec(schema, {"x": norm}, {"u": ("a", "b")}, {"u": {"a": 3, "b": 1}})


def _table(codec: TableCodec, *rows) -> TabularDataset:
    return TabularDataset(codec.schema, rows)


NORM = ModeNormalizer((0.5, 0.5), (0.0, 10.0), (1.0, 2.0), 1e-6)


def test_alpha_zero_at_mode_mean():
    codec = _codec_for(NORM)
    rng = np.random.default_rng(0)
    enc = codec.encode_rows(codec.row_constants(_table(codec, (0.0, "a"))), rng)
    mode = int(np.argmax(enc[0, 1:3]))
    assert enc[0, 0] == pytest.approx(0.0, abs=1e-12) or mode == 1
    # decoding inverts regardless of which mode the posterior picked
    assert codec.decode_rows(enc)[0][0] == pytest.approx(0.0, abs=1e-9)


def test_alpha_one_at_four_stdevs():
    codec = _codec_for(ModeNormalizer((1.0,), (2.0,), (0.5,), 1e-6))
    rng = np.random.default_rng(0)
    enc = codec.encode_rows(codec.row_constants(_table(codec, (2.0 + ALPHA_SCALE * 0.5, "a"))), rng)
    assert enc[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert codec.decode_rows(enc)[0][0] == pytest.approx(4.0, abs=1e-12)


def test_clipped_value_decodes_to_envelope_edge():
    codec = _codec_for(ModeNormalizer((1.0,), (0.0,), (1.0,), 1e-6))
    rng = np.random.default_rng(0)
    enc = codec.encode_rows(codec.row_constants(_table(codec, (100.0, "a"))), rng)
    assert enc[0, 0] == 1.0
    assert codec.decode_rows(enc)[0][0] == pytest.approx(ALPHA_SCALE, abs=1e-12)


def test_one_hot_invariants():
    codec = _codec_for(NORM)
    rng = np.random.default_rng(1)
    enc = codec.encode_rows(codec.row_constants(_table(codec, (5.0, "a"), (-1.0, "b"))), rng)
    for row in enc:
        assert row[1:3].sum() == 1.0  # exactly one mode flag
        assert row[3:5].sum() == 1.0  # exactly one category flag


def test_unknown_category():
    codec = _codec_for(NORM)
    with pytest.raises(UnknownCategory):
        codec.encode_rows(codec.row_constants(_table(codec, (0.0, "zz"))), np.random.default_rng(0))


def test_encode_decode_identity_on_table_cpu(top_capture_text):
    dataset = parse_top_capture(top_capture_text)
    codec = TableCodec.fit(dataset, seed=0)
    decoded = codec.decode_rows(codec.encode_rows(codec.row_constants(dataset), np.random.default_rng(0)))
    cpu = decoded[dataset.schema.names.index("cpu_pct")]
    assert len(cpu) == len(dataset)
    for value, back in zip(dataset.column_values("cpu_pct"), cpu):
        assert back == pytest.approx(value, abs=1e-9)


def _condition_codec(freq: dict[str, float]) -> TableCodec:
    """Codec over a single discrete column ``u`` with the given frequencies."""
    schema = Schema((Column("u", DISCRETE),))
    return TableCodec(schema, {}, {"u": tuple(sorted(freq))}, {"u": freq})


def test_sample_condition_single_category():
    codec = _condition_codec({"only": 7})
    vecs = codec.sample_conditions_logfreq(np.random.default_rng(0), 10)
    assert vecs.tolist() == [[1.0]] * 10


def test_sample_condition_equal_frequencies_are_uniform():
    codec = _condition_codec({"a": 50, "b": 50})
    vecs = codec.sample_conditions_logfreq(np.random.default_rng(123), 10_000)
    counts = vecs.sum(axis=0).tolist()  # columns a, b
    assert chisquare(counts).pvalue > 0.01


def test_sample_condition_log_frequency_formula():
    # freq {a: e-1, b: 1} -> weights {1, log 2} -> P(a) = 1 / (1 + log 2)
    codec = _condition_codec({"a": math.e - 1.0, "b": 1.0})
    n = 40_000
    vecs = codec.sample_conditions_logfreq(np.random.default_rng(7), n)
    draws = vecs[:, 0].sum()
    expected = 1.0 / (1.0 + math.log(2.0))
    assert expected == pytest.approx(0.5906, abs=1e-3)
    assert draws / n == pytest.approx(expected, abs=0.01)


def _per_row_conditions(
    codec: TableCodec, rng: np.random.Generator, size: int, log_weighted: bool
) -> np.ndarray:
    """Reference sampler: a column pick per row, then ``rng.choice`` per row."""
    names = [c.name for _, c in codec.schema.discrete()]
    offsets = np.cumsum([0] + [len(codec.categories[n]) for n in names])
    vecs = np.zeros((size, offsets[-1]))
    if not names:
        return vecs
    col_picks = rng.integers(len(names), size=size)
    for i in range(size):
        name = names[int(col_picks[i])]
        cats = codec.categories[name]
        counts = np.array([codec.frequencies[name][c] for c in cats], dtype=float)
        weights = np.log1p(counts) if log_weighted else counts
        j = int(rng.choice(len(cats), p=weights / weights.sum()))
        vecs[i, offsets[int(col_picks[i])] + j] = 1.0
    return vecs


_FREQUENCY_TABLES = [
    {"u": {"only": 7}},
    {"u": {"a": math.e - 1.0, "b": 1.0}},
    {"u": {"a": 1, "b": 2, "c": 3, "d": 1000}, "v": {"x": 5, "y": 5}},
    {"u": {f"c{k:02d}": k * k + 1 for k in range(30)}, "v": {"p": 1, "q": 0.5}, "w": {"z": 3}},
]


@pytest.mark.parametrize("frequencies", _FREQUENCY_TABLES)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_sample_conditions_match_per_row_choice(frequencies, seed):
    columns = [Column("x", CONTINUOUS)] + [Column(name, DISCRETE) for name in frequencies]
    codec = TableCodec(
        Schema(tuple(columns)),
        {"x": NORM},
        {name: tuple(sorted(table)) for name, table in frequencies.items()},
        frequencies,
    )
    for log_weighted, sample in (
        (True, codec.sample_conditions_logfreq),
        (False, codec.sample_conditions_empirical),
    ):
        for size in (1, 33, 500):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert (sample(ours, size) == _per_row_conditions(codec, theirs, size, log_weighted)).all()
            # the same stream is consumed, so later draws agree too
            assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("size", [2, 32, 560])
def test_encode_rows_matches_the_per_column_loop(fixture_dataset, size):
    codec = TableCodec.fit(fixture_dataset, seed=0)
    table = codec.row_constants(fixture_dataset)
    for seed in range(3):
        rows = np.random.default_rng(seed).integers(len(fixture_dataset), size=size)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        encoded = codec.encode_rows(table.take(rows), ours)
        expected = reference.encode_rows(codec, reference.rows_of(fixture_dataset.columns, rows), theirs)
        assert reference.same_bits(encoded, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("log_weighted", [True, False])
@pytest.mark.parametrize("size", [1, 32, 20000])
def test_sample_conditions_match_the_per_span_loop(size, log_weighted):
    codec = make_codec_with_widths()
    sample = codec.sample_conditions_logfreq if log_weighted else codec.sample_conditions_empirical
    for seed in range(3):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        conds = sample(ours, size)
        assert reference.same_bits(conds, reference.sample_conditions(codec, theirs, size, log_weighted))
        assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_uniform_on_a_cdf_step_picks_the_next_category(seed):
    # The draw the sampler will make, then weights whose cdf steps exactly there.
    probe = np.random.default_rng(seed)
    probe.integers(1, size=1)
    u = float(probe.random(1)[0])
    weights = np.array([u, 1.0 - u])
    cdf = (weights / weights.sum()).cumsum()
    assert (cdf / cdf[-1])[0] == u
    codec = _condition_codec({"a": u, "b": 1.0 - u})
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    conds = codec.sample_conditions_empirical(ours, 1)
    assert conds.tolist() == [[0.0, 1.0]]  # searchsorted(side="right") steps past an equal entry
    assert reference.same_bits(conds, reference.sample_conditions(codec, theirs, 1, log_weighted=False))


def test_decode_rows_matches_per_row_decode(fixture_dataset):
    codec = TableCodec.fit(fixture_dataset, seed=0)
    encoded = np.random.default_rng(3).normal(size=(50, codec.row_width))
    expected = []
    for vec in encoded:
        cells = []
        for span in codec.spans:
            block = vec[span.offset : span.offset + span.width]
            if span.kind == CONTINUOUS:
                norm = codec.normalizers[span.name]
                mode = int(np.argmax(block[1:]))
                alpha = float(np.clip(block[0], -1.0, 1.0))
                cells.append(alpha * ALPHA_SCALE * norm.stdevs[mode] + norm.means[mode])
            else:
                cells.append(codec.categories[span.name][int(np.argmax(block))])
        expected.append(tuple(cells))
    assert list(zip(*(c.tolist() for c in codec.decode_rows(encoded)))) == expected


# rng.choice refused such tables at draw time; the codec refuses them when built
@pytest.mark.parametrize(
    "bad", [{"a": -1, "b": 2}, {"a": 0, "b": 0}, {"a": math.inf, "b": 1}, {"a": math.nan, "b": 1}]
)
def test_unusable_frequencies_are_rejected(bad):
    with pytest.raises(ValueError, match="frequencies"):
        TableCodec(Schema((Column("u", DISCRETE),)), {}, {"u": ("a", "b")}, {"u": bad})


def test_fit_is_deterministic(fixture_dataset):
    a = TableCodec.fit(fixture_dataset, seed=5)
    b = TableCodec.fit(fixture_dataset, seed=5)
    assert a.normalizers == b.normalizers
    assert a.categories == b.categories
    assert a.frequencies == b.frequencies
