"""The one text form of every JSON artifact, its one reader, and the one
reader of UTF-8 text inputs.

Artifacts are UTF-8 JSON with sorted keys, two-space indentation and a
trailing newline, so the same document always gives the same bytes. A
dataclass inside a document is written as ``{field name: value}``, which
makes its field names the on-disk keys.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable

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


def text_fields(
    doc: dict, cls: type, where: str, error: Callable[[str], Exception], extra: tuple[str, ...] = ()
) -> dict[str, str]:
    """The text of each of ``cls``'s fields in the JSON object ``doc``: a
    string, or, for a field named ``value``, a string or a number. A missing
    field, a value of another type (booleans included) or a key that is
    neither a field nor in ``extra`` raises ``error`` naming ``where`` and
    the key."""
    names = [f.name for f in fields(cls)]
    for key in doc:
        if key not in names and key not in extra:
            raise error(f"{where}: unknown key {key!r}")
    texts = {}
    for name in names:
        if name not in doc:
            raise error(f"{where}: missing field {name!r}")
        value = doc[name]
        kinds, what = ((str, int, float), "a string or a number") if name == "value" else (str, "a string")
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise error(f"{where}: {name!r} must be {what}, not {value!r}")
        texts[name] = str(value)
    return texts
