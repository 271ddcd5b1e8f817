"""Mixed-type tabular datasets: schema model and CSV persistence.

The on-disk format is RFC-4180 CSV where quoting doubles as the type channel:
continuous cells are written unquoted (numeric), discrete cells quoted. That
keeps the header a plain list of column names while still letting a reader
recover every column kind, so ``write -> read`` is an identity.

``pid`` is a reserved header name: process ids ride along as row metadata
(first column when present) and are never part of the modeled schema.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from twinforge.errors import MalformedCsv

CONTINUOUS = "continuous"
DISCRETE = "discrete"
_KINDS = (CONTINUOUS, DISCRETE)

PID_COLUMN = "pid"


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


@dataclass(frozen=True)
class TabularDataset:
    """Schema plus rows; continuous cells are finite floats, discrete are str.

    ``pids`` optionally carries one positive process id per row. It is
    metadata, not a modeled column.
    """

    schema: Schema
    rows: tuple[tuple[float | str, ...], ...]
    pids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        width = len(self.schema.columns)
        norm_rows = []
        for r, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(f"row {r}: expected {width} cells, got {len(row)}")
            cells = []
            for cell, column in zip(row, self.schema.columns):
                if column.kind == CONTINUOUS:
                    if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                        raise ValueError(f"row {r}, column {column.name!r}: expected a number")
                    value = float(cell)
                    if not math.isfinite(value):
                        raise ValueError(f"row {r}, column {column.name!r}: non-finite value")
                    cells.append(value)
                else:
                    if not isinstance(cell, str):
                        raise ValueError(f"row {r}, column {column.name!r}: expected a string")
                    cells.append(cell)
            norm_rows.append(tuple(cells))
        object.__setattr__(self, "rows", tuple(norm_rows))
        if self.pids is not None:
            if len(self.pids) != len(self.rows):
                raise ValueError("pids must be parallel to rows")
            if any((isinstance(p, bool) or not isinstance(p, int) or p < 1) for p in self.pids):
                raise ValueError("pids must be positive integers")
            object.__setattr__(self, "pids", tuple(int(p) for p in self.pids))

    def __len__(self) -> int:
        return len(self.rows)

    def column_values(self, name: str) -> tuple[float | str, ...]:
        idx = self.schema.names.index(name)
        return tuple(row[idx] for row in self.rows)


def write_dataset_csv(dataset: TabularDataset, path: str | Path) -> None:
    """Write a dataset as UTF-8 RFC-4180 CSV (discrete quoted, continuous bare)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
        header = list(dataset.schema.names)
        if dataset.pids is not None:
            header = [PID_COLUMN] + header
        writer.writerow(header)
        for r, row in enumerate(dataset.rows):
            record: list[object] = list(row)
            if dataset.pids is not None:
                record = [dataset.pids[r]] + record
            writer.writerow(record)


def read_dataset_csv(path: str | Path) -> TabularDataset:
    """Read a dataset CSV written by :func:`write_dataset_csv`.

    Column kinds come from the quoting discipline: a column whose cells parse
    unquoted (numeric) is continuous, a quoted column is discrete. A leading
    ``pid`` column is consumed as row metadata. A header-only file yields an
    empty dataset whose columns all default to discrete.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            records = list(csv.reader(fh, quoting=csv.QUOTE_NONNUMERIC))
        except (csv.Error, ValueError) as exc:
            raise MalformedCsv(f"{path}: {exc}") from exc
    if not records:
        raise MalformedCsv(f"{path}: missing header row")
    header = records[0]
    if not header or not all(isinstance(name, str) for name in header):
        raise MalformedCsv(f"{path}: header row must be quoted column names")
    has_pids = header[0] == PID_COLUMN
    names = header[1:] if has_pids else header
    if not names:
        raise MalformedCsv(f"{path}: no data columns")

    data = records[1:]
    width = len(header)
    for r, record in enumerate(data, start=2):
        if len(record) != width:
            raise MalformedCsv(f"{path}: row {r}: expected {width} fields, got {len(record)}")

    pids: list[int] = []
    rows: list[tuple[float | str, ...]] = []
    kinds: list[str] | None = None
    for r, record in enumerate(data, start=2):
        cells = record[1:] if has_pids else record
        if has_pids:
            pid_cell = record[0]
            if not isinstance(pid_cell, float) or pid_cell != int(pid_cell):
                raise MalformedCsv(f"{path}: row {r}: pid must be an unquoted integer")
            pids.append(int(pid_cell))
        if kinds is None:
            kinds = [CONTINUOUS if isinstance(c, float) else DISCRETE for c in cells]
        for cell, kind, name in zip(cells, kinds, names):
            actual = CONTINUOUS if isinstance(cell, float) else DISCRETE
            if actual != kind:
                raise MalformedCsv(f"{path}: row {r}: column {name!r} mixes quoted and unquoted cells")
        rows.append(tuple(cells))
    if kinds is None:
        kinds = [DISCRETE] * len(names)

    try:
        schema = Schema(tuple(Column(n, k) for n, k in zip(names, kinds)))
        return TabularDataset(schema, tuple(rows), tuple(pids) if has_pids else None)
    except ValueError as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc
