"""Column-major datasets: the row and column constructors agree, CSV cells
are written as Python floats, and column means add left to right."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from twinforge.config import GanConfig
from twinforge.errors import MalformedRow
from twinforge.ingest.tabular import (
    CONTINUOUS,
    DISCRETE,
    PID_MAX,
    Categorical,
    Column,
    Schema,
    TabularDataset,
    write_dataset_csv,
)
from twinforge.tabular.gan import generate_rows, train_gan
from twinforge.validate.stats import summary_stats

from conftest import make_fixture_dataset

SCHEMA = Schema((Column("u", DISCRETE), Column("x", CONTINUOUS)))
ROWS = (("a", 1.0), ("b", 2.5), ("a", -3.0))


def _by_columns(rows, pids=None):
    """The same cells as whole columns, for the column constructor."""
    users, xs = zip(*rows) if rows else ((), ())
    categories = tuple(sorted(set(users), key=repr))
    codes = np.array([categories.index(u) for u in users], dtype=int)
    return TabularDataset.from_columns(SCHEMA, [Categorical(categories, codes), np.array(xs)], pids)


def test_both_constructors_build_equal_datasets():
    by_rows = TabularDataset(SCHEMA, ROWS, (5, 6, 7))
    # another category order in the table, the same cells
    by_columns = TabularDataset.from_columns(
        SCHEMA, [Categorical(("b", "a"), np.array([1, 0, 1])), np.array([1.0, 2.5, -3.0])], np.array([5, 6, 7])
    )
    assert by_rows == by_columns
    assert by_columns.rows == ROWS
    assert by_columns.pids == (5, 6, 7)
    assert by_columns.column_values("x") == (1.0, 2.5, -3.0)
    assert by_rows != TabularDataset(SCHEMA, ROWS)
    assert len(by_rows) == 3
    users, xs = by_columns.columns
    picked = TabularDataset.from_columns(SCHEMA, [Categorical(users.categories, users.codes[[2, 0, 2]]), xs[[2, 0, 2]]])
    assert picked == TabularDataset(SCHEMA, (ROWS[2], ROWS[0], ROWS[2]))
    assert TabularDataset(SCHEMA, ()) == _by_columns(())


def test_columns_are_copied_and_read_only():
    xs = np.array([1.0, 2.5, -3.0])
    dataset = TabularDataset.from_columns(SCHEMA, [Categorical.from_values(["a", "b", "a"]), xs])
    xs[0] = 99.0
    assert dataset.column_values("x") == (1.0, 2.5, -3.0)
    users, xs = dataset.columns
    picked = TabularDataset.from_columns(SCHEMA, [Categorical(users.categories, users.codes[[1]]), xs[[1]]])
    for subset in (dataset, picked):
        with pytest.raises(ValueError):
            subset.column("x")[0] = 5.0
        with pytest.raises(ValueError):
            subset.column("u").codes[0] = 1


_BAD_CELLS = {
    "bool": (("a", True),),
    "nan": (("a", math.nan),),
    "inf": (("a", 1.0), ("b", -math.inf)),
    "str in a continuous column": (("a", "1.0"),),
    "non-str discrete cell": ((1, 1.0),),
    "int beyond the double range": (("a", 10**400),),
}


@pytest.mark.parametrize("case", sorted(_BAD_CELLS))
def test_both_constructors_reject_bad_cells(case):
    rows = _BAD_CELLS[case]
    with pytest.raises(ValueError):
        TabularDataset(SCHEMA, rows)
    with pytest.raises(ValueError):
        _by_columns(rows)


def test_both_constructors_reject_a_ragged_row():
    with pytest.raises(ValueError):
        TabularDataset(SCHEMA, (("a", 1.0), ("b",)))
    with pytest.raises(ValueError):
        TabularDataset.from_columns(SCHEMA, [Categorical.from_values(["a", "b"]), np.array([1.0])])
    with pytest.raises(ValueError):
        TabularDataset.from_columns(SCHEMA, [Categorical.from_values(["a"])])


@pytest.mark.parametrize("pids", [(0,), (-1,), (True,), (1.5,), (1, 2), (), (1.0,)])
def test_both_constructors_reject_bad_pids(pids):
    with pytest.raises(ValueError):
        TabularDataset(SCHEMA, (("a", 1.0),), pids)
    with pytest.raises(ValueError):
        _by_columns((("a", 1.0),), pids)


# An integer pid array in range skips the per-pid look; any other array
# takes it, and is refused at the same row for the same reason.
@pytest.mark.parametrize(
    "pids, row",
    [
        (np.array([True, True]), 0),
        (np.array([7, 0]), 1),
        (np.array([1, PID_MAX + 1], dtype=np.uint64), 1),
        (np.array([2**64 - 1, 1], dtype=np.uint64), 0),
        (np.array([1.0, 2.0]), 0),
        (np.array([[1], [2]]), 0),
    ],
)
def test_a_bad_pid_array_is_named_by_its_row(pids, row):
    with pytest.raises(MalformedRow, match="pid must be an integer") as err:
        _by_columns(ROWS[:2], pids)
    assert err.value.row == row
    with pytest.raises(MalformedRow, match="pid must be an integer") as err:
        TabularDataset(SCHEMA, ROWS[:2], pids)
    assert err.value.row == row


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint16, np.uint64])
def test_an_integer_pid_array_in_range_gives_python_ints(dtype):
    pids = _by_columns(ROWS, np.array([1, 2, 3], dtype=dtype)).pids
    assert pids == (1, 2, 3) and {type(p) for p in pids} == {int}
    assert _by_columns(ROWS[:1], np.array([PID_MAX], dtype=np.uint64)).pids == (PID_MAX,)
    assert _by_columns((), np.array([], dtype=dtype)).pids == ()


@pytest.mark.parametrize(
    "rows, pids, row, reason",
    [
        ((("a", 1.0), ("b", math.nan)), None, 1, "column 'x': non-finite value"),
        ((("a", 1.0), ("b", 1.0), ("c", -(10**400))), None, 2, "column 'x': non-finite value"),
        ((("a", 1.0), ("b", True)), None, 1, "column 'x': expected a number"),
        ((("a", 1.0), (None, 1.0)), None, 1, "column 'u': expected a string"),
        ((("a", 1.0), ("b", 1.0)), (7, 0), 1, "pid must be an integer"),
    ],
)
def test_a_bad_row_is_named_by_its_index(rows, pids, row, reason):
    with pytest.raises(MalformedRow, match=reason) as err:
        TabularDataset(SCHEMA, rows, pids)
    assert err.value.row == row


@pytest.mark.parametrize(
    "column",
    [
        Categorical(("a",), np.array([1])),
        Categorical(("a",), np.array([-1])),
        Categorical(("a",), np.array([0.0])),
        Categorical(("a",), np.array(["a"])),
        Categorical(("a", "a"), np.array([0])),
        ("a",),
    ],
)
def test_column_constructor_rejects_a_bad_category_column(column):
    with pytest.raises(ValueError):
        TabularDataset.from_columns(SCHEMA, [column, np.array([1.0])])


def test_generated_dataset_writes_what_the_csv_module_writes_for_its_rows(tmp_path):
    model = train_gan(make_fixture_dataset(n_rows=96, seed=5), GanConfig(epochs=2, batch_size=16, pac=4), seed=1)
    synth = generate_rows(model, 300, np.random.default_rng(4))
    ours = tmp_path / "ours.csv"
    write_dataset_csv(synth, ours)

    reference = tmp_path / "reference.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(["pid", *synth.schema.names])
        for pid, row in zip(synth.pids, synth.rows):
            writer.writerow([pid, *(float(c) if isinstance(c, float) else c for c in row)])
    text = ours.read_text(encoding="utf-8")
    assert ours.read_bytes() == reference.read_bytes()
    assert "np." not in text


def test_means_add_left_to_right():
    values = np.random.default_rng(0).normal(0.99, 0.22, 20000)
    total = 0.0
    for v in values.tolist():
        total += v
    assert float(np.sum(values)) != total  # pairwise summation gives other bits here
    dataset = TabularDataset.from_columns(Schema((Column("x", CONTINUOUS),)), [values])
    assert summary_stats(dataset).means["x"] == total / 20000
    # the row code's sum started from 0, so a column of -0.0 had mean +0.0
    zeros = TabularDataset.from_columns(dataset.schema, [np.array([-0.0, -0.0])])
    assert math.copysign(1.0, summary_stats(zeros).means["x"]) == 1.0
