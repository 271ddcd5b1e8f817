"""Row encoding: alpha scaling, one-hot invariants, condition sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from twinforge.errors import UnknownCategory
from twinforge.ingest import CONTINUOUS, DISCRETE, Column, Schema
from twinforge.ingest.top import parse_top_capture
from twinforge.tabular.encoding import ALPHA_SCALE, TableCodec
from twinforge.tabular.mixture import ModeNormalizer


def _codec_for(norm: ModeNormalizer) -> TableCodec:
    schema = Schema((Column("x", CONTINUOUS), Column("u", DISCRETE)))
    return TableCodec(schema, {"x": norm}, {"u": ("a", "b")}, {"u": {"a": 3, "b": 1}})


NORM = ModeNormalizer((0.5, 0.5), (0.0, 10.0), (1.0, 2.0), 1e-6)


def test_alpha_zero_at_mode_mean():
    codec = _codec_for(NORM)
    rng = np.random.default_rng(0)
    enc = codec.encode_rows([(0.0, "a")], rng)
    mode = int(np.argmax(enc[0, 1:3]))
    assert enc[0, 0] == pytest.approx(0.0, abs=1e-12) or mode == 1
    # decoding inverts regardless of which mode the posterior picked
    assert codec.decode_rows(enc)[0][0] == pytest.approx(0.0, abs=1e-9)


def test_alpha_one_at_four_stdevs():
    codec = _codec_for(ModeNormalizer((1.0,), (2.0,), (0.5,), 1e-6))
    rng = np.random.default_rng(0)
    enc = codec.encode_rows([(2.0 + ALPHA_SCALE * 0.5, "a")], rng)
    assert enc[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert codec.decode_rows(enc)[0][0] == pytest.approx(4.0, abs=1e-12)


def test_clipped_value_decodes_to_envelope_edge():
    codec = _codec_for(ModeNormalizer((1.0,), (0.0,), (1.0,), 1e-6))
    rng = np.random.default_rng(0)
    enc = codec.encode_rows([(100.0, "a")], rng)
    assert enc[0, 0] == 1.0
    assert codec.decode_rows(enc)[0][0] == pytest.approx(ALPHA_SCALE, abs=1e-12)


def test_one_hot_invariants():
    codec = _codec_for(NORM)
    rng = np.random.default_rng(1)
    enc = codec.encode_rows([(5.0, "a"), (-1.0, "b")], rng)
    for row in enc:
        assert row[1:3].sum() == 1.0  # exactly one mode flag
        assert row[3:5].sum() == 1.0  # exactly one category flag


def test_unknown_category():
    codec = _codec_for(NORM)
    with pytest.raises(UnknownCategory):
        codec.encode_rows([(0.0, "zz")], np.random.default_rng(0))


def test_encode_decode_identity_on_table_cpu(top_capture_text):
    dataset = parse_top_capture(top_capture_text)
    codec = TableCodec.fit(dataset, seed=0)
    decoded = codec.decode_rows(codec.encode_rows(dataset.rows, np.random.default_rng(0)))
    cpu_idx = dataset.schema.names.index("cpu_pct")
    assert len(decoded) == len(dataset.rows)
    for row, back in zip(dataset.rows, decoded):
        assert back[cpu_idx] == pytest.approx(row[cpu_idx], abs=1e-9)


def _condition_codec(freq: dict[str, float]) -> TableCodec:
    """Codec over a single discrete column ``u`` with the given frequencies."""
    schema = Schema((Column("u", DISCRETE),))
    return TableCodec(schema, {}, {"u": tuple(sorted(freq))}, {"u": freq})


def test_sample_condition_single_category():
    codec = _condition_codec({"only": 7})
    vecs, chosen = codec.sample_conditions_logfreq(np.random.default_rng(0), 10)
    assert chosen == [("u", "only")] * 10
    assert vecs.tolist() == [[1.0]] * 10


def test_sample_condition_equal_frequencies_are_uniform():
    codec = _condition_codec({"a": 50, "b": 50})
    _, chosen = codec.sample_conditions_logfreq(np.random.default_rng(123), 10_000)
    counts = [chosen.count(("u", "a")), chosen.count(("u", "b"))]
    assert chisquare(counts).pvalue > 0.01


def test_sample_condition_log_frequency_formula():
    # freq {a: e-1, b: 1} -> weights {1, log 2} -> P(a) = 1 / (1 + log 2)
    codec = _condition_codec({"a": math.e - 1.0, "b": 1.0})
    n = 40_000
    _, chosen = codec.sample_conditions_logfreq(np.random.default_rng(7), n)
    draws = chosen.count(("u", "a"))
    expected = 1.0 / (1.0 + math.log(2.0))
    assert expected == pytest.approx(0.5906, abs=1e-3)
    assert draws / n == pytest.approx(expected, abs=0.01)


def test_fit_is_deterministic(fixture_dataset):
    a = TableCodec.fit(fixture_dataset, seed=5)
    b = TableCodec.fit(fixture_dataset, seed=5)
    assert a.normalizers == b.normalizers
    assert a.categories == b.categories
    assert a.frequencies == b.frequencies
