"""Mixed-type tabular datasets: schema model, column-major storage and CSV
persistence.

The on-disk format is RFC-4180 CSV where quoting doubles as the type channel:
continuous cells are written unquoted (numeric), discrete cells quoted. That
keeps the header a plain list of column names while still letting a reader
recover every column kind, so ``write -> read`` is an identity.

``pid`` is a reserved header name: process ids ride along as row metadata
(first column when present) and are never part of the modeled schema.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from twinforge.digits import ascii_int
from twinforge.errors import MalformedCsv, MalformedRow
from twinforge.jsonfile import publish

CONTINUOUS = "continuous"
DISCRETE = "discrete"
_KINDS = (CONTINUOUS, DISCRETE)

PID_COLUMN = "pid"
# The largest pid. The CSV reader parses each bare cell as a double; below
# 2**53 each integer has a double of its own, from there on two can share
# one (2**53 + 1 reads back as 2**53). Linux caps pids at 2**22.
PID_MAX = 2**53 - 1
# Rows the CSV writer turns into text at once.
_WRITE_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class Column:
    """One schema column: a unique name plus its kind."""

    name: str
    kind: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column name must be non-empty")
        if self.name == PID_COLUMN:
            raise ValueError(f"{PID_COLUMN!r} is reserved for row metadata")
        if self.kind not in _KINDS:
            raise ValueError(f"column {self.name!r}: kind must be one of {_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class Schema:
    """Ordered column list for a mixed-type table."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("schema needs at least one column")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def continuous(self) -> tuple[tuple[int, Column], ...]:
        return tuple((i, c) for i, c in enumerate(self.columns) if c.kind == CONTINUOUS)

    def discrete(self) -> tuple[tuple[int, Column], ...]:
        return tuple((i, c) for i, c in enumerate(self.columns) if c.kind == DISCRETE)


class Categorical:
    """A discrete column: a table of category strings and one code per row
    indexing into it."""

    def __init__(self, categories: Sequence[str], codes: np.ndarray) -> None:
        self.categories = tuple(categories)
        self.codes = codes

    @classmethod
    def from_values(cls, values: Sequence[str]) -> "Categorical":
        """Codes over the distinct values, in order of first appearance."""
        categories = tuple(dict.fromkeys(values))
        index = {c: i for i, c in enumerate(categories)}
        return cls(categories, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values)))

    def __len__(self) -> int:
        return len(self.codes)

    def counts(self) -> dict[str, int]:
        """Rows per category of the table, zero counts included."""
        return dict(zip(self.categories, np.bincount(self.codes, minlength=len(self.categories)).tolist()))

    def tolist(self) -> list[str]:
        return np.asarray(self.categories, dtype=object)[self.codes].tolist()


def _from_cells(column: Column, cells: Sequence[float | str]) -> np.ndarray | Categorical:
    """One column of row cells: a continuous cell is an int or a float, never
    a bool, and a discrete one a str. An int beyond the double range stands
    as an infinity, which the finite rule then refuses."""
    number = column.kind == CONTINUOUS
    for r, cell in enumerate(cells):
        if isinstance(cell, bool) or not isinstance(cell, (int, float) if number else str):
            raise MalformedRow(r, f"column {column.name!r}: expected {'a number' if number else 'a string'}")
    if not number:
        return Categorical.from_values(cells)
    return np.array([c if abs(c) <= sys.float_info.max else np.inf for c in cells], dtype=np.float64)


def _checked_column(column: Column, values: np.ndarray | Categorical) -> np.ndarray | Categorical:
    """A read-only copy of one column, checked whole: a continuous column is
    a 1-d array of finite real numbers, a discrete one a Categorical of
    distinct str categories whose codes index them."""
    if column.kind == CONTINUOUS:
        array = np.asarray(values)
        if array.ndim != 1 or array.dtype.kind not in "iuf":
            raise ValueError(f"column {column.name!r}: expected a 1-d array of numbers")
        array = np.array(array, dtype=np.float64)
        finite = np.isfinite(array)
        if not finite.all():
            raise MalformedRow(int(finite.argmin()), f"column {column.name!r}: non-finite value")
        array.flags.writeable = False
        return array
    if not (isinstance(values, Categorical) and all(isinstance(c, str) for c in values.categories)):
        raise ValueError(f"column {column.name!r}: expected a Categorical of strings")
    if len(set(values.categories)) != len(values.categories):
        raise ValueError(f"column {column.name!r}: categories repeat")
    codes = np.asarray(values.codes)
    if codes.ndim != 1 or codes.dtype.kind not in "iu" or not ((codes >= 0) & (codes < len(values.categories))).all():
        raise ValueError(f"column {column.name!r}: codes must be integers indexing the categories")
    codes = np.array(codes, dtype=np.intp)
    codes.flags.writeable = False
    return Categorical(values.categories, codes)


def _checked_pids(pids: Sequence[int] | np.ndarray, n_rows: int) -> tuple[int, ...]:
    """The pid rule: one int, never a bool, from 1 to ``PID_MAX`` per row."""
    # a 1-d integer array within the range needs no look at each pid
    in_range = (
        isinstance(pids, np.ndarray) and pids.ndim == 1 and pids.dtype.kind in "iu"
        and (not pids.size or (pids.min() >= 1 and pids.max() <= PID_MAX))
    )
    pids = tuple(pids.tolist() if isinstance(pids, np.ndarray) else pids)
    if len(pids) != n_rows:
        raise ValueError("pids must be parallel to rows")
    if pids and not in_range and (set(map(type, pids)) != {int} or min(pids) < 1 or max(pids) > PID_MAX):
        row = next(r for r, p in enumerate(pids) if type(p) is not int or not 1 <= p <= PID_MAX)
        raise MalformedRow(row, f"pid must be an integer from 1 to {PID_MAX}")
    return pids


class TabularDataset:
    """Schema plus columns, held column-major.

    ``columns[i]`` is a read-only float64 array of finite values for a
    continuous column and a :class:`Categorical` of str categories for a
    discrete one. ``pids`` optionally carries one process id per row; it is
    metadata, not a modeled column.

    ``TabularDataset(schema, rows, pids)`` builds from row tuples and
    :meth:`from_columns` from whole columns; both end in ``__post_init__``.
    Every reader of recorded data builds through them, so each cell and pid
    rule lives here alone. A row that breaks one raises :class:`MalformedRow`
    with its 0-based index, which each reader turns into its input's line.
    """

    def __init__(
        self,
        schema: Schema,
        rows: Sequence[Sequence[float | str]] = (),
        pids: Sequence[int] | None = None,
    ) -> None:
        width = len(schema.columns)
        for r, row in enumerate(rows):
            if len(row) != width:
                raise MalformedRow(r, f"expected {width} cells, got {len(row)}")
        self.schema = schema
        self.columns = tuple(map(_from_cells, schema.columns, list(zip(*rows)) or [()] * width))
        self.pids = pids
        self.__post_init__()

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Sequence[np.ndarray | Categorical],
        pids: Sequence[int] | np.ndarray | None = None,
    ) -> "TabularDataset":
        """Build from a numeric array per continuous column and a
        :class:`Categorical` per discrete one; the arrays are copied."""
        dataset = cls.__new__(cls)
        dataset.schema = schema
        dataset.columns = tuple(columns)
        dataset.pids = pids
        dataset.__post_init__()
        return dataset

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.schema.columns):
            raise ValueError(f"expected {len(self.schema.columns)} columns, got {len(self.columns)}")
        self.columns = tuple(map(_checked_column, self.schema.columns, self.columns))
        n_rows = len(self.columns[0])
        if any(len(c) != n_rows for c in self.columns):
            raise ValueError(f"columns differ in length: {[len(c) for c in self.columns]}")
        if self.pids is not None:
            self.pids = _checked_pids(self.pids, n_rows)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TabularDataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.pids == other.pids
            and all(
                np.array_equal(a, b) if isinstance(a, np.ndarray) else a.tolist() == b.tolist()
                for a, b in zip(self.columns, other.columns)
            )
        )

    def column(self, name: str) -> np.ndarray | Categorical:
        return self.columns[self.schema.names.index(name)]

    def column_values(self, name: str) -> tuple[float | str, ...]:
        """One column's cells as Python floats or strings."""
        return tuple(self.column(name).tolist())

    @cached_property
    def rows(self) -> tuple[tuple[float | str, ...], ...]:
        """Row tuples of Python floats and strings, built on first use."""
        return tuple(zip(*(c.tolist() for c in self.columns)))


def write_dataset_csv(dataset: TabularDataset, path: str | Path) -> None:
    """Write a dataset as UTF-8 RFC-4180 CSV (discrete quoted, continuous bare).

    The bytes are those of ``csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)``
    over the rows: every discrete cell quoted, with ``"`` doubled; every
    number bare, a float as its ``repr`` and a pid as its ``str``; CRLF line
    ends. Each category's text is built once. The text is built and written
    ``_WRITE_BLOCK_ROWS`` rows at a time, a column at a time within a block,
    with no per-cell dispatch.
    """
    quoted = [
        np.array(['"' + c.replace('"', '""') + '"' for c in column.categories], dtype=object)
        if isinstance(column, Categorical) else None
        for column in dataset.columns
    ]
    header = list(dataset.schema.names)
    if dataset.pids is not None:
        header = [PID_COLUMN] + header
    with publish(path) as fh:
        csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC).writerow(header)
        for start in range(0, len(dataset), _WRITE_BLOCK_ROWS):
            rows = slice(start, start + _WRITE_BLOCK_ROWS)
            # .tolist() yields Python floats, whose repr is the number; a
            # numpy scalar's repr is "np.float64(...)".
            cells = [
                list(map(repr, column[rows].tolist())) if texts is None else texts[column.codes[rows]].tolist()
                for column, texts in zip(dataset.columns, quoted)
            ]
            if dataset.pids is not None:
                cells.insert(0, list(map(str, dataset.pids[rows])))
            fh.write("\r\n".join(map(",".join, zip(*cells))))
            fh.write("\r\n")


def read_dataset_csv(path: str | Path) -> TabularDataset:
    """Read a dataset CSV written by :func:`write_dataset_csv`.

    Column kinds come from the quoting discipline: a column whose cells parse
    unquoted (numeric) is continuous, a quoted column is discrete. A leading
    ``pid`` column is consumed as row metadata; a bare pid cell is read from
    its text, which must be ASCII digits, as the writer writes it. A
    header-only file yields an empty dataset whose columns all default to
    discrete. Every error names the file line it found.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not valid UTF-8: {exc}") from exc
    reader = csv.reader(lines, quoting=csv.QUOTE_NONNUMERIC)
    records, ends = [], []  # each record, and the line it ends on
    try:
        for record in reader:
            records.append(record)
            ends.append(reader.line_num)
    except (csv.Error, ValueError) as exc:
        raise MalformedCsv(f"{path}: line {reader.line_num}: {exc}") from exc

    def fail(record: int, message: str) -> MalformedCsv:
        """The error at CSV record ``record`` (0 is the header), naming the line it starts on."""
        return MalformedCsv(f"{path}: line {ends[record - 1] + 1 if record else 1}: {message}")

    if not records:
        raise MalformedCsv(f"{path}: line 1: missing header row")
    header = records[0]
    if not header or not all(isinstance(name, str) for name in header):
        raise fail(0, "header row must be quoted column names")
    has_pids = header[0] == PID_COLUMN
    names = header[1:] if has_pids else header

    data = records[1:]
    width = len(header)
    if set(map(len, data)) - {width}:
        r = next(r for r, record in enumerate(data, start=1) if len(record) != width)
        raise fail(r, f"expected {width} fields, got {len(records[r])}")

    cells = list(zip(*data)) or [()] * width
    pids = None
    if has_pids:

        def pid(r: int, cell: float | str) -> int | str:
            """Record ``r``'s pid, which the dataset judges: a bare cell is
            read from its text, since its double takes "1e0", "+2" or " 7"
            too, and a quoted one stays a str."""
            if type(cell) is not float:
                return cell
            try:
                return ascii_int(lines[ends[r - 1]].partition(",")[0].rstrip("\r\n"), "pid")
            except ValueError as exc:
                raise fail(r, str(exc)) from None

        pids = list(map(pid, range(1, len(records)), cells.pop(0)))
    kinds: list[str] = []
    columns: list[np.ndarray | Categorical] = []
    for name, values in zip(names, cells):
        types = set(map(type, values))
        if len(types) > 1:
            r = next(r for r, c in enumerate(values, start=1) if type(c) is not type(values[0]))
            raise fail(r, f"column {name!r} mixes quoted and unquoted cells")
        kinds.append(CONTINUOUS if types == {float} else DISCRETE)
        columns.append(np.array(values) if types == {float} else Categorical.from_values(values))
    try:
        schema = Schema(tuple(Column(n, k) for n, k in zip(names, kinds)))
        return TabularDataset.from_columns(schema, columns, pids)
    except MalformedRow as exc:
        raise fail(exc.row + 1, exc.reason) from exc
    except ValueError as exc:  # a schema fault: the header's
        raise fail(0, str(exc)) from exc
