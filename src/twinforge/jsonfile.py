"""The one text form of every JSON artifact, its one reader, the one
reader of UTF-8 text inputs, and the one reader of tagged documents.

Artifacts are UTF-8 JSON with sorted keys, two-space indentation and a
trailing newline, so the same document always gives the same bytes. A
dataclass inside a document is written as ``{field name: value}``, which
makes its field names the on-disk keys.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable, Mapping

from twinforge.errors import UndecodableInput


def _fields(obj: object) -> dict:
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_fields) + "\n"


def write_json(doc: object, path: str | Path) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")


def read_text(path: str | Path) -> str:
    """A UTF-8 text input's contents; undecodable bytes raise
    ``UndecodableInput`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(f"{path}: not valid UTF-8: {exc}") from exc


def read_json(path: str | Path, error: Callable[[str], Exception]) -> object:
    """Parse a UTF-8 JSON file; undecodable bytes or bad JSON raise ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def read_tagged(
    doc: object, tag: str, kinds: Mapping[str, type], error: Callable[[str], Exception], extra: Mapping = {}
) -> list[tuple[type, dict, str]]:
    """Each object of the JSON list ``doc`` as the dataclass its ``tag`` field
    names in ``kinds``, its arguments (each field's text, from a string or,
    for a ``value``, a string or a number; and, as given, any ``extra[cls]``
    key it holds) and ``where`` ("<tag> <i>"), which opens every message. A
    missing field, or any other shape, kind, key or type, raises ``error``."""
    if not isinstance(doc, list):
        raise error(f"the file must hold a JSON list of {tag}s")
    records = []
    for i, item in enumerate(doc):
        where = f"{tag} {i}"
        if not isinstance(item, dict) or tag not in item:
            raise error(f"{where}: each {tag} is an object whose {tag!r} field names its kind")
        cls = kinds.get(item[tag]) if isinstance(item[tag], str) else None
        if cls is None:
            raise error(f"{where}: unknown {tag} {item[tag]!r}")
        names = [f.name for f in fields(cls)]
        args = {key: item[key] for key in extra.get(cls, ()) if key in item}
        for key in item:
            if key != tag and key not in names and key not in args:
                raise error(f"{where}: unknown key {key!r}")
        for name in names:
            if name not in item:
                raise error(f"{where}: missing field {name!r}")
            types, what = ((str, int, float), "a string or a number") if name == "value" else (str, "a string")
            if isinstance(item[name], bool) or not isinstance(item[name], types):
                raise error(f"{where}: {name!r} must be {what}, not {item[name]!r}")
            args[name] = str(item[name])
        records.append((cls, args, where))
    return records
