"""Declarative patch deltas, applied in place under an undo journal.

``apply_patch`` holds the sandbox lock and runs the ops in order directly
in the sandbox, in one ``journaled`` block. Before an op writes anything,
its undo record is complete in ``<sandbox>.journal/`` (see
``twin.journal``): a delete, replace or ``set_config`` records the file it
moves out of the sandbox, and an add the highest node it creates, the file
itself or its first missing parent. A replace or ``set_config`` moves the
original file there and writes a new one with its mode, so a hard
link keeps the old bytes. If any op fails, the ops done so far are undone
newest first and the sandbox is left as it was; if the process dies
mid-patch, the next holder of the sandbox lock undoes them. Once every op
has run, the patch commits in one rename of the journal's marker and is
never undone after it. Nothing is ``fsync``ed, so that guarantee covers a
process crash, not power loss. Each op's target and its existing parents
are resolved first, so an op never writes through a symbolic link to
outside the sandbox. The JSON patch file is a list of op objects, e.g.::

    [{"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\\n"},
     {"op": "replace_file", "path": "docs/readme.txt", "content": "v2"},
     {"op": "delete_file", "path": "docs/stale.txt"},
     {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"}]

File content is a UTF-8 string by default; ``"encoding": "base64"`` carries
binary payloads. ``jsonfile.read_tagged`` reads the list and its field types.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from twinforge.errors import (
    AddExisting,
    ConfigKeyMissing,
    DeleteMissing,
    MalformedPatch,
    PatchOpRefused,
    ReplaceMissing,
)
from twinforge.jsonfile import is_utf8_text, read_json, read_tagged, read_text
from twinforge.twin.journal import UndoRecord, journaled, record, record_move
from twinforge.twin.manifest import ManifestEntry, is_safe_rel_path, resolve_inside, scan_tree
from twinforge.twin.sandbox import TwinState, sandbox_lock


def _check_rel_path(path: str) -> None:
    if not is_safe_rel_path(path):
        raise MalformedPatch(f"bad op path {path!r}: must be relative and normalized")


class _FileOp:
    """An op on the file ``path``, which must pass the path rule."""

    def __post_init__(self) -> None:
        _check_rel_path(self.path)


@dataclass(frozen=True)
class AddFile(_FileOp):
    path: str
    content: bytes


@dataclass(frozen=True)
class ReplaceFile(_FileOp):
    path: str
    content: bytes


@dataclass(frozen=True)
class DeleteFile(_FileOp):
    path: str


@dataclass(frozen=True)
class SetConfig:
    """Rewrite ``key=value`` in a line-oriented config file."""

    file: str
    key: str
    value: str

    def __post_init__(self) -> None:
        _check_rel_path(self.file)
        if fault := config_text_fault(self.key, self.value):
            raise MalformedPatch(fault)


PatchOp = Union[AddFile, ReplaceFile, DeleteFile, SetConfig]


@dataclass(frozen=True)
class PatchDelta:
    ops: tuple[PatchOp, ...]


@dataclass(frozen=True)
class PatchReport:
    applied: tuple[str, ...]
    manifest: tuple[ManifestEntry, ...]


def _describe(op: PatchOp) -> str:
    if isinstance(op, AddFile):
        return f"add_file {op.path}"
    if isinstance(op, ReplaceFile):
        return f"replace_file {op.path}"
    if isinstance(op, DeleteFile):
        return f"delete_file {op.path}"
    return f"set_config {op.file} {op.key}={op.value}"


_LINE_END = re.compile(r"(\r\n|\r|\n)")


def config_lines(text: str) -> list[str]:
    """The one line rule of ``key=value`` files: ``text`` split at LF, CRLF
    and lone CR alone, each line's text at an even index and its end after
    it, so the pieces join back into ``text``."""
    return _LINE_END.split(text)


def config_text_fault(key: str, value: str) -> str | None:
    """Why a line setting ``key`` to ``value`` would not read back as that
    setting, or None: an empty key or one holding ``=``, or a line end
    (which splits a line), surrounding whitespace (which the reader strips)
    or a lone surrogate (which no file can hold) in either."""
    if not key or "=" in key:
        return f"bad config key {key!r}"
    for what, text in (("key", key), ("value", value)):
        if text != text.strip() or _LINE_END.search(text):
            return f"bad config {what} {text!r}: a line end or surrounding whitespace does not read back"
        if not is_utf8_text(text):
            return f"bad config {what} {text!r}: not UTF-8 text"
    return None


def config_settings(lines: list[str], key: str) -> list[tuple[int, str, str, str]]:
    """Each line text of a ``key=value`` file that sets ``key``, as its index
    and the text before its value, the value and the text after it: the
    text before the line's first ``=`` is ``key`` and the text after it the
    value, both less surrounding whitespace."""
    settings = []
    for i, line in enumerate(lines):
        head, sep, tail = line.partition("=")
        if sep and head.strip() == key:
            value = tail.strip()
            start = len(line) - len(tail.lstrip())
            settings.append((i, line[:start], value, line[start + len(value) :]))
    return settings


def _set_config(node: Path, op: SetConfig) -> bytes:
    """The config file's new bytes: the value of every ``op.key`` line set
    to ``op.value``, and every other byte, line ends included, kept."""
    pieces = config_lines(read_text(node))
    settings = config_settings(pieces[::2], op.key)
    if not settings:
        raise ConfigKeyMissing(f"no key {op.key!r}")
    for i, before, _, after in settings:
        pieces[2 * i] = before + op.value + after
    return "".join(pieces).encode("utf-8")


def _apply_op(root: Path, journal: Path, index: int, op: PatchOp) -> None:
    """Check ``op``, journal what it will change, then apply it in place."""
    if isinstance(op, AddFile):
        node = resolve_inside(root, op.path, follow=True)
        if node.exists():
            raise AddExisting("already exists")
        top = node  # the highest node the add creates
        while not top.parent.exists():
            top = top.parent
        if not top.parent.is_dir():
            raise AddExisting(f"{top.parent.relative_to(root).as_posix()} is not a directory")
        record(journal, index, UndoRecord(None, (top.relative_to(root).as_posix(),)))
        node.parent.mkdir(parents=True, exist_ok=True)
        node.write_bytes(op.content)
        return
    if isinstance(op, DeleteFile):
        node = resolve_inside(root, op.path, follow=False)
        if not node.is_file():
            raise DeleteMissing("no such file")
        record_move(journal, index, node.relative_to(root).as_posix(), node)
        return
    node = resolve_inside(root, op.path if isinstance(op, ReplaceFile) else op.file, follow=True)
    if not node.is_file():
        if isinstance(op, ReplaceFile):
            raise ReplaceMissing("no such file")
        raise ConfigKeyMissing("config file not present")
    content = op.content if isinstance(op, ReplaceFile) else _set_config(node, op)
    saved = record_move(journal, index, node.relative_to(root).as_posix(), node)
    node.write_bytes(content)
    node.chmod(saved.stat().st_mode & 0o7777)  # the original's permission bits


def apply_patch(twin: TwinState, delta: PatchDelta) -> PatchReport:
    """Apply ops in order, atomically: all succeed or the sandbox is unchanged.

    An op that does not fit the twin raises its ``PatchOpRefused`` type,
    named by its 1-based index, the op count and the op. The report's
    manifest is scanned before the journal is dropped, so a tree that
    cannot be scanned (an escaping link) undoes the patch too. The scan
    hashes only the files whose bytes differ from the twin's
    ``image_files``.
    """
    root = Path(twin.sandbox).resolve()
    with sandbox_lock(twin.sandbox), journaled(root) as journal:
        for index, op in enumerate(delta.ops):
            try:
                _apply_op(root, journal, index, op)
            except PatchOpRefused as exc:
                raise type(exc)(f"op {index + 1} of {len(delta.ops)}, {_describe(op)}: {exc}") from None
        manifest = scan_tree(twin.sandbox, known=twin.image_files)
    return PatchReport(applied=tuple(_describe(op) for op in delta.ops), manifest=manifest)


# -- JSON form -----------------------------------------------------------------


def _content_from_doc(content: str, encoding: object, where: str) -> bytes:
    if encoding not in ("utf-8", "base64"):
        raise MalformedPatch(f"{where}: unsupported encoding {encoding!r}")
    try:
        return content.encode("utf-8") if encoding == "utf-8" else base64.b64decode(content, validate=True)
    except ValueError as exc:  # a lone surrogate (from an unpaired \uD800 escape), or bad base64
        raise MalformedPatch(f"{where}: invalid {encoding} content: {exc}") from exc


_OPS = {"add_file": AddFile, "replace_file": ReplaceFile, "delete_file": DeleteFile, "set_config": SetConfig}
_ENCODED = {AddFile: ("encoding",), ReplaceFile: ("encoding",)}


def delta_from_doc(doc: object) -> PatchDelta:
    ops: list[PatchOp] = []
    for cls, args, where in read_tagged(doc, "op", _OPS, MalformedPatch, _ENCODED):
        if "content" in args:
            args["content"] = _content_from_doc(args["content"], args.pop("encoding", "utf-8"), where)
        ops.append(cls(**args))
    return PatchDelta(tuple(ops))


def load_delta(path: str | Path) -> PatchDelta:
    return delta_from_doc(read_json(path, MalformedPatch))
