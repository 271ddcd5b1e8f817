"""Dataset CSV persistence: round trips, quoting, malformed files."""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twinforge.errors import MalformedCsv
from twinforge.ingest.tabular import (
    _WRITE_BLOCK_ROWS,
    CONTINUOUS,
    DISCRETE,
    PID_COLUMN,
    PID_MAX,
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



def _csv_module_bytes(dataset: TabularDataset) -> bytes:
    """The file ``csv.writer`` makes of the dataset's ``.tolist()`` rows."""
    header = list(dataset.schema.names)
    columns = [c.tolist() for c in dataset.columns]
    if dataset.pids is not None:
        header.insert(0, PID_COLUMN)
        columns.insert(0, dataset.pids)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, quoting=csv.QUOTE_NONNUMERIC)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buf.getvalue().encode("utf-8")


_category = st.sampled_from(['"', '""x"', ",", "\r", "\n", "\r\n", "", "Grüße, 世界", " "]) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)
_number = st.sampled_from([-0.0, 5e-324, -5e-324, 1e-5, 1e16, -1e16, 0.1]) | _finite_float


@st.composite
def _datasets(draw):
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, DISCRETE]), min_size=1, max_size=4))
    schema = Schema(tuple(Column(f"c{i}", kind) for i, kind in enumerate(kinds)))
    cell = {CONTINUOUS: _number, DISCRETE: _category}
    rows = draw(st.lists(st.tuples(*(cell[k] for k in kinds)), max_size=12))
    pids = draw(st.none() | st.lists(st.integers(1, PID_MAX), min_size=len(rows), max_size=len(rows)))
    return TabularDataset(schema, rows, pids)


def _writer_blocks_dataset() -> TabularDataset:
    """Three writer blocks and a partial fourth, with quotes, CRLF and -0.0
    in the rows on each side of every block edge."""
    n = 3 * _WRITE_BLOCK_ROWS + 5
    rows = [(f"u{r % 7}", r * 0.5, f"c{r % 5}") for r in range(n)]
    for edge in range(_WRITE_BLOCK_ROWS, n, _WRITE_BLOCK_ROWS):
        rows[edge - 1] = ('say "hi"', -0.0, "a\r\nb")
        rows[edge] = ("\r\n", -0.0, '"')
    rows[-1] = ('""', -0.0, "\r\n,")
    return TabularDataset(SCHEMA, rows, range(1, n + 1))


@given(_datasets())
@example(_writer_blocks_dataset())
@example(TabularDataset(Schema((Column("only", DISCRETE),)), (("",), ('a "b"\r\n',))))
@example(TabularDataset(Schema((Column("only", CONTINUOUS),)), ((-0.0,), (5e-324,), (1e16,))))
@example(TabularDataset(SCHEMA, (), ()))
@example(TabularDataset(SCHEMA, ()))
def test_writer_bytes_equal_the_csv_module(tmp_path_factory, dataset):
    path = tmp_path_factory.getbasetemp() / "writer.csv"
    write_dataset_csv(dataset, path)
    assert path.read_bytes() == _csv_module_bytes(dataset)


@pytest.mark.parametrize("pid", ["inf", "-inf", "nan", "0", "-4", "1.5", "1e300"])
def test_bad_pid_cell_names_its_line(tmp_path, pid):
    path = tmp_path / "bad.csv"
    path.write_text(f'"pid","a"\n1,1.0\n{pid},2.0\n', encoding="utf-8")
    with pytest.raises(MalformedCsv, match="line 3: pid"):
        read_dataset_csv(path)


def test_the_largest_pid_round_trips_exactly(tmp_path):
    path = tmp_path / "data.csv"
    dataset = _dataset(pids=(1, 2**22, 2**53 - 2, 2**53 - 1, 2**53 - 1))
    write_dataset_csv(dataset, path)
    assert read_dataset_csv(path).pids == (1, 2**22, 2**53 - 2, 2**53 - 1, 2**53 - 1)


@pytest.mark.parametrize("pid", [2**53, 2**53 + 1, 2**63 - 1, 2**63])
def test_a_pid_past_the_exact_doubles_is_refused_at_every_entry(tmp_path, monkeypatch, capsys, pid):
    """2**53 + 1 reads back from a CSV as 2**53, and 2**63 - 1 as 2**63: a
    pid the reader cannot tell from another is refused wherever it enters."""
    from twinforge.cli import main

    rows = (("root", 3.3, "gedit"), ("root", 2.0, "top"))
    with pytest.raises(ValueError, match="row 1: pid"):
        TabularDataset(SCHEMA, rows, (1, pid))
    with pytest.raises(ValueError, match="row 1: pid"):
        TabularDataset.from_columns(SCHEMA, TabularDataset(SCHEMA, rows).columns, (1, pid))

    path = tmp_path / "bad.csv"
    path.write_text(f'"pid","a"\n1,1.0\n{pid},2.0\n', encoding="utf-8")
    with pytest.raises(MalformedCsv, match="line 3: pid"):
        read_dataset_csv(path)

    monkeypatch.chdir(tmp_path)
    capture = tmp_path / "top.txt"
    capture.write_text(f"PID USER %CPU %MEM TIME+ COMMAND\n1 root 1.0 0.5 00:02.0 sh\n{pid} root 1.0 0.5 00:02.0 sh\n")
    out = tmp_path / "top.csv"
    assert main(["ingest", "top", "--in", str(capture), "--out", str(out)]) == 2
    assert "line 3: pid" in capsys.readouterr().err
    assert not out.exists()


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
        ('"pid"\n1\n', 1, "at least one column"),
        # a quoted cell over two lines: the ragged record after it starts on line 4
        ('"a","b"\n"x\ny",1.0\n"z"\n', 4, "expected 2 fields"),
    ],
)
def test_reader_errors_name_the_file_line(tmp_path, text, line, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedCsv, match=f"line {line}: .*{message}"):
        read_dataset_csv(path)
