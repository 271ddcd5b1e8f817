"""The one writer of every artifact (``publish``), the one text form of
every JSON artifact and its one reader, the one record writer and reader,
the one reader of UTF-8 text inputs and the one rule of UTF-8 text, and the
one reader of tagged documents.

JSON artifacts are UTF-8 with sorted keys, two-space indentation and a
trailing newline, so the same document always gives the same bytes. A
dataclass inside a document is written as ``{field name: value}``, which
makes its field names the on-disk keys; ``from_doc`` reads it back.
"""

from __future__ import annotations

import json
import os
import re
import reprlib
import secrets
import stat
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from pathlib import Path
from types import UnionType
from typing import IO, Callable, Iterator, Mapping, TypeVar, get_args, get_origin, get_type_hints

from twinforge.errors import UndecodableInput

T = TypeVar("T")


def _fields(obj: object) -> dict:
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def dumps(doc: object) -> str:
    """``doc``'s one text form; a string ``parse_json`` would refuse raises UndecodableInput."""
    text = json.dumps(doc, sort_keys=True, indent=2, default=_fields) + "\n"
    if _SURROGATE_ESCAPE.search(text):
        parse_json(text.encode("ascii"), UndecodableInput, "a document to write")
    return text


@contextmanager
def publish(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Write the file at ``path`` whole: the block writes the yielded file
    (UTF-8 text with no newline translation, or bytes), a new ``.<name>.*``
    temporary beside the target that replaces it when the block ends and is
    removed if the block raises. Nothing is ``fsync``ed: this holds against
    a process crash (which may leave the temporary), not power loss. Like a
    plain write, it follows a link at ``path`` and keeps the target's
    permission bits, or gives a new file the umask's default."""
    target = Path(os.path.realpath(path) if os.path.islink(path) else path)
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}")
    fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            if target.exists():
                os.fchmod(fh.fileno(), stat.S_IMODE(target.stat().st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(doc: object, path: str | Path) -> None:
    with publish(path) as fh:
        fh.write(dumps(doc))


def record_text(version: int, doc: object) -> str:
    """The text of a versioned artifact: the dataclass ``doc``'s fields and
    its ``format_version``, as ``read_record`` reads them back."""
    return dumps({"format_version": version, **vars(doc)})


def write_record(path: str | Path, version: int, doc: object) -> None:
    """Publish the versioned artifact ``record_text(version, doc)`` at ``path``."""
    with publish(path) as fh:
        fh.write(record_text(version, doc))


def read_text(path: str | Path) -> str:
    """A UTF-8 text input's contents, line ends as they are; undecodable
    bytes raise ``UndecodableInput`` naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(f"{path}: not valid UTF-8: {exc}") from exc


_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # a ``\uD800``-``\uDFFF`` escape
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')  # a JSON string literal


def is_utf8_text(text: str) -> bool:
    """The one rule of UTF-8 text: ``text`` holds no lone surrogate, which is what
    an unpaired ``\\uD800`` escape or a command-line byte that is not UTF-8 gives."""
    return not _SURROGATE.search(text)


def parse_json(data: bytes, error: Callable[[str], Exception], where: str) -> object:
    """The one JSON decoder: ``data`` as UTF-8 JSON. Bytes that are not UTF-8, text that is not JSON,
    nesting past the parser's depth, an integer past the int-string digit limit or a string that is not
    UTF-8 text (a lone surrogate, from an unpaired ``\\uD800`` escape) raise ``error``."""
    try:
        text = data.decode("utf-8")
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise error(f"{where}: not valid UTF-8 JSON: {exc}") from exc
    if _SURROGATE_ESCAPE.search(text):  # only such a text decodes to a string with a surrogate
        for string in map(json.loads, _STRING.findall(text)):  # each key and value, in document order
            if not is_utf8_text(string):
                raise error(f"{where}: a string that is not UTF-8 text: {reprlib.repr(string)}")
    return doc


def read_json(path: str | Path, error: Callable[[str], Exception]) -> object:
    """Parse a UTF-8 JSON file as ``parse_json`` does."""
    return parse_json(Path(path).read_bytes(), error, str(path))


# The JSON types a scalar field takes, by annotation, and their name: a
# bool is never a number, and a path is a string.
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "a boolean"),
    Path: ((str,), "a string"),
}


class _Fault(Exception):
    """A record value that does not fit its field."""


@cache
def _shape(hint: object) -> tuple:
    """How a value is read as ``hint``, worked out once per annotation: its
    origin and arguments, whether it is a fixed-length tuple, the JSON types
    it takes and their name, and a dataclass's fields (annotation, required,
    and the JSON types a scalar field takes as they are, else none)."""
    origin, args = get_origin(hint), get_args(hint)
    fixed = origin is tuple and args[-1] is not Ellipsis
    if hint in _SCALARS:
        types, what = _SCALARS[hint]
    elif hint is list or origin is tuple:
        types, what = (list,), f"a list of {len(args)}" if fixed else "a list"
    else:
        types, what = (dict,), "an object"
    schema = None
    if is_dataclass(hint):
        hints = get_type_hints(hint)
        schema = {}
        for f in fields(hint):
            annotation = hints[f.name]
            required = f.default is MISSING and f.default_factory is MISSING
            schema[f.name] = (annotation, required, _SCALARS.get(annotation, ((),))[0])
    return origin, args, fixed, types, what, schema


def _read(hint: object, value: object, field: str) -> object:
    """``value`` as the annotation ``hint``; ``field`` is its dotted name."""
    origin, args, fixed, types, what, schema = _shape(hint)
    if origin is UnionType:  # X | None
        return None if value is None else _read(args[0], value, field)
    if type(value) not in types or fixed and len(value) != len(args):
        raise _Fault(f"{field or 'the document'} must be {what}, not {reprlib.repr(value)}")
    if origin is tuple:
        return tuple(_read(args[i] if fixed else args[0], v, f"{field}[{i}]") for i, v in enumerate(value))
    if origin is dict:
        return {key: _read(args[1], v, f"{field}[{key!r}]") for key, v in value.items()}
    if schema is None:
        return value  # a scalar, or a bare dict or list
    prefix = f"{field}." if field else ""
    for key in value:
        if key not in schema:
            raise _Fault(f"unknown key {prefix + key!r}")
    kwargs = {}
    for name, (annotation, required, scalar) in schema.items():  # in field order: the first field's fault is reported
        if name in value:
            v = value[name]
            # a scalar of its field's JSON type is read as it is
            kwargs[name] = v if type(v) in scalar else _read(annotation, v, prefix + name)
        elif required:
            raise _Fault(f"missing field {prefix + name!r}")
    try:
        return hint(**kwargs)
    except ValueError as exc:
        raise _Fault(f"{field}: {exc}" if field else str(exc)) from exc


def from_doc(cls: type[T], doc: object, error: Callable[[str], Exception], where: str) -> T:
    """The JSON value ``doc`` as the dataclass ``cls``: its keys are the
    fields, each value read by its annotation (a scalar of ``_SCALARS``,
    ``X | None``, a tuple, ``dict[str, X]``, a bare ``dict`` or ``list``, or
    a dataclass). An unknown key, or any other fault, raises ``error``,
    naming ``where`` and the dotted field."""
    try:
        return _read(cls, doc, "")
    except _Fault as fault:
        raise error(f"{where}: {fault}") from fault.__cause__


def read_record(path: str | Path, classes: Mapping[int, type[T]], error: Callable[[str], Exception]) -> T:
    """The versioned artifact in ``path``: a JSON object whose
    ``format_version`` is a key of ``classes``, its other keys read by
    ``from_doc`` as that version's dataclass."""
    doc = read_json(path, error)
    if type(doc) is not dict:
        raise error(f"{path}: must be a JSON object")
    version = doc.pop("format_version", None)
    if type(version) is not int or version not in classes:
        raise error(f"{path}: unsupported format_version {version!r}")
    return from_doc(classes[version], doc, error, str(path))


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
