"""Summary statistics and dataset comparison."""

from __future__ import annotations

import pytest

from twinforge.errors import EmptyDataset, SchemaMismatch
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset
from twinforge.ingest.top import parse_top_capture
from twinforge.validate.stats import compare_stats, summary_stats

SCHEMA = Schema(
    (
        Column("user", DISCRETE),
        Column("cpu_pct", CONTINUOUS),
        Column("mem_pct", CONTINUOUS),
    )
)

# reference digest reused across comparison tests: avg cpu 0.20,
# avg mem 0.99, most frequent user root
RECORDED = TabularDataset(
    SCHEMA,
    (
        ("root", 0.2, 0.99),
        ("root", 0.3, 1.0),
        ("admin", 0.1, 0.98),
        ("root", 0.2, 0.99),
    ),
)


def test_recorded_fixture_digest():
    stats = summary_stats(RECORDED)
    assert stats.means["cpu_pct"] == pytest.approx(0.20, abs=1e-9)
    assert stats.means["mem_pct"] == pytest.approx(0.99, abs=1e-9)
    assert stats.modes["user"] == ("root", 0.75)
    assert stats.row_count == 4


def test_table_average_cpu(top_capture_text):
    dataset = parse_top_capture(top_capture_text)
    stats = summary_stats(dataset)
    assert stats.means["cpu_pct"] == pytest.approx((3.3 + 2 + 2 + 1.7 + 0.7) / 5, abs=1e-12)
    assert stats.means["cpu_pct"] == pytest.approx(1.94, abs=1e-12)


def test_modal_tie_breaks_lexicographically():
    schema = Schema((Column("u", DISCRETE),))
    dataset = TabularDataset(schema, (("b",), ("a",), ("b",), ("a",)))
    assert summary_stats(dataset).modes["u"] == ("a", 0.5)


def test_empty_dataset():
    with pytest.raises(EmptyDataset):
        summary_stats(TabularDataset(SCHEMA, ()))


def test_compare_reference_deltas():
    synth = TabularDataset(
        SCHEMA,
        (
            ("root", 0.14, 1.0),
            ("root", 0.14, 1.0),
            ("root", 0.14, 1.0),
            ("root", 0.14, 1.0),
        ),
    )
    cmp = compare_stats(RECORDED, synth)
    assert cmp.continuous["cpu_pct"].abs_delta == pytest.approx(0.06, abs=1e-9)
    assert cmp.continuous["mem_pct"].abs_delta == pytest.approx(0.01, abs=1e-9)
    assert cmp.discrete["user"].match is True
    assert cmp.row_counts == (4, 4)


def test_identical_datasets_have_zero_deltas():
    cmp = compare_stats(RECORDED, RECORDED)
    for delta in cmp.continuous.values():
        assert delta.abs_delta == 0.0
        assert delta.rel_delta == 0.0
    for modal in cmp.discrete.values():
        assert modal.match and modal.freq_abs_delta == 0.0


def test_schema_mismatch():
    other = TabularDataset(Schema((Column("user", DISCRETE),)), (("root",),))
    with pytest.raises(SchemaMismatch):
        compare_stats(RECORDED, other)
