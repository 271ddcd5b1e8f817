"""Dataset CSV persistence: round trips, quoting, malformed files."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinforge.errors import MalformedCsv
from twinforge.ingest import (
    CONTINUOUS,
    DISCRETE,
    Column,
    Schema,
    TabularDataset,
    read_dataset_csv,
    write_dataset_csv,
)

SCHEMA = Schema(
    (
        Column("user", DISCRETE),
        Column("cpu_pct", CONTINUOUS),
        Column("command", DISCRETE),
    )
)


def _dataset(pids=None):
    rows = (
        ("root", 3.3, "gedit"),
        ("root", 2.0, "top"),
        ("admin", 0.5, "sh"),
        ("root", 1.7, "xdg-desktop-por"),
        ("daemon", 0.0, "featherpad"),
    )
    return TabularDataset(SCHEMA, rows, pids)


def test_round_trip_five_rows(tmp_path):
    path = tmp_path / "data.csv"
    dataset = _dataset()
    write_dataset_csv(dataset, path)
    assert read_dataset_csv(path) == dataset


def test_round_trip_with_pids(tmp_path):
    path = tmp_path / "data.csv"
    dataset = _dataset(pids=(392, 1281, 184, 421, 75))
    write_dataset_csv(dataset, path)
    loaded = read_dataset_csv(path)
    assert loaded == dataset
    assert loaded.pids == (392, 1281, 184, 421, 75)


def test_quoted_command_survives(tmp_path):
    path = tmp_path / "data.csv"
    dataset = TabularDataset(SCHEMA, (("root", 1.0, "cool app,v2"),))
    write_dataset_csv(dataset, path)
    assert read_dataset_csv(path).rows[0][2] == "cool app,v2"


def test_missing_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedCsv):
        read_dataset_csv(path)


def test_unquoted_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('1,2\n"a",3.0\n', encoding="utf-8")
    with pytest.raises(MalformedCsv):
        read_dataset_csv(path)


def test_ragged_row_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('"a","b"\n"x",1.0\n"y"\n', encoding="utf-8")
    with pytest.raises(MalformedCsv):
        read_dataset_csv(path)


def test_mixed_kind_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('"a"\n1.5\n"oops"\n', encoding="utf-8")
    with pytest.raises(MalformedCsv):
        read_dataset_csv(path)


_cell_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=12
)
_finite_float = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    st.lists(st.tuples(_cell_text, _finite_float, _finite_float), min_size=1, max_size=30)
)
def test_round_trip_random_datasets(tmp_path_factory, raw_rows):
    schema = Schema(
        (Column("name", DISCRETE), Column("a", CONTINUOUS), Column("b", CONTINUOUS))
    )
    dataset = TabularDataset(schema, tuple(raw_rows))
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_dataset_csv(dataset, path)
    assert read_dataset_csv(path) == dataset



@pytest.mark.parametrize("pid", ["inf", "-inf", "nan", "0", "-4", "1.5", "1e300"])
def test_bad_pid_cell_names_its_line(tmp_path, pid):
    path = tmp_path / "bad.csv"
    path.write_text(f'"pid","a"\n1,1.0\n{pid},2.0\n', encoding="utf-8")
    with pytest.raises(MalformedCsv, match="line 3: pid"):
        read_dataset_csv(path)


def test_bad_pid_cell_is_a_data_error_in_the_cli(tmp_path, monkeypatch, capsys):
    from twinforge.cli import main

    monkeypatch.chdir(tmp_path)  # the default workspace is the working directory
    path = tmp_path / "bad.csv"
    path.write_text('"pid","a","u"\n' + "".join(f'{p},1.0,"x"\n' for p in ("1", "inf")), encoding="utf-8")
    code = main(["train", "tabular", "--data", str(path), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "line 3: pid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ('"a"\n1.0\ninf\n', 3, "non-finite"),
        ('"a","b"\n"x",-nan\n', 2, "non-finite"),
        ('"a","b"\n"x",1.0\n"y"\n', 3, "expected 2 fields"),
        ('"a"\n1.5\n"oops"\n', 3, "mixes quoted and unquoted"),
        ('"a"\n1.5\nabc\n', 3, "could not convert"),
        ('"a","a"\n1.0,2.0\n', 1, "duplicate column names"),
        ('"a","pid"\n1.0,2.0\n', 1, "reserved"),
        # a quoted cell over two lines: the ragged record after it starts on line 4
        ('"a","b"\n"x\ny",1.0\n"z"\n', 4, "expected 2 fields"),
    ],
)
def test_reader_errors_name_the_file_line(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedCsv, match=f"line {line}: .*{message}"):
        read_dataset_csv(path)
