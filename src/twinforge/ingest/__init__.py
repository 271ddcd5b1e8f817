"""Parsers for recorded system data: process tables, macro scripts, CSV datasets."""

from twinforge.ingest.macro import (
    BOS,
    EOS,
    MacroCommand,
    MacroScript,
    emit_macro_script,
    parse_macro_script,
    tokenize_script,
)
from twinforge.ingest.tabular import (
    CONTINUOUS,
    DISCRETE,
    Column,
    Schema,
    TabularDataset,
    read_dataset_csv,
    write_dataset_csv,
)
from twinforge.ingest.top import (
    TOP_SCHEMA,
    parse_time_lapsed,
    parse_top_capture,
)

__all__ = [
    "BOS",
    "CONTINUOUS",
    "DISCRETE",
    "EOS",
    "TOP_SCHEMA",
    "Column",
    "MacroCommand",
    "MacroScript",
    "Schema",
    "TabularDataset",
    "emit_macro_script",
    "parse_macro_script",
    "parse_time_lapsed",
    "parse_top_capture",
    "read_dataset_csv",
    "tokenize_script",
    "write_dataset_csv",
]
