"""Declarative patch deltas, applied in place under an undo journal.

``apply_patch`` holds the sandbox's writer lock and runs the ops in order
directly in the sandbox. Before an op writes anything, its undo record (the
target's original node, or the fact that it was absent, and the directories
the op will create) is complete in ``<sandbox>.journal/`` (see
``twin.journal``). A replace or ``set_config`` moves the original file
there and writes a new one with its mode, so a hard link keeps the old
bytes. If any op fails, the ops done so far are undone newest first and the
sandbox is left as it was; if the process dies mid-patch, the next holder
of the writer lock undoes them. Once every op has run, the patch commits in
one rename of the journal's marker and is never undone after it. Nothing is
``fsync``ed, so that guarantee covers a process crash, not power loss. Each
op's target and its existing parents are resolved first, so an op never
writes through a symbolic link to outside the sandbox. The JSON patch file
is a list of op objects, e.g.::

    [{"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\\n"},
     {"op": "replace_file", "path": "docs/readme.txt", "content": "v2"},
     {"op": "delete_file", "path": "docs/stale.txt"},
     {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"}]

File content is a UTF-8 string by default; ``"encoding": "base64"`` carries
binary payloads. ``jsonfile.read_tagged`` reads the list and its field types.
"""

from __future__ import annotations

import base64
import binascii
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from twinforge.errors import (
    AddExisting,
    ConfigKeyMissing,
    DeleteMissing,
    MalformedPatch,
    ReplaceMissing,
)
from twinforge.jsonfile import read_json, read_tagged, read_text
from twinforge.twin.journal import begin, commit, record_add, record_move, roll_back
from twinforge.twin.manifest import ManifestEntry, is_safe_rel_path, resolve_inside, scan_tree
from twinforge.twin.sandbox import TwinState, writer_lock


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
        if not self.key or "=" in self.key:
            raise MalformedPatch(f"bad config key {self.key!r}")


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


def config_settings(lines: list[str], key: str) -> list[tuple[int, str]]:
    """The index and value of each line of a ``key=value`` file that sets
    ``key``: the text before its first ``=`` is ``key`` and the text after
    it the value, both less surrounding whitespace."""
    settings = []
    for i, line in enumerate(lines):
        head, sep, tail = line.partition("=")
        if sep and head.strip() == key:
            settings.append((i, tail.strip()))
    return settings


def _set_config(node: Path, op: SetConfig) -> bytes:
    """The config file's new bytes, with every ``op.key`` line set."""
    lines = read_text(node).splitlines()
    settings = config_settings(lines, op.key)
    if not settings:
        raise ConfigKeyMissing(f"{op.file}: no key {op.key!r}")
    for i, _ in settings:
        lines[i] = f"{op.key}={op.value}"
    return ("\n".join(lines) + "\n").encode("utf-8")


def _apply_op(root: Path, journal: Path, index: int, op: PatchOp) -> None:
    """Check ``op``, journal what it will change, then apply it in place."""
    if isinstance(op, AddFile):
        node = resolve_inside(root, op.path, follow=True)
        if node.exists():
            raise AddExisting(op.path)
        created = []
        parent = node.parent
        while not parent.exists():
            created.append(parent.relative_to(root).as_posix())
            parent = parent.parent
        if not parent.is_dir():
            raise AddExisting(f"{op.path}: {parent.relative_to(root).as_posix()} is not a directory")
        record_add(journal, index, node.relative_to(root).as_posix(), tuple(created))
        node.parent.mkdir(parents=True, exist_ok=True)
        node.write_bytes(op.content)
        return
    if isinstance(op, DeleteFile):
        node = resolve_inside(root, op.path, follow=False)
        if not node.is_file():
            raise DeleteMissing(op.path)
        record_move(journal, index, node.relative_to(root).as_posix(), node)
        return
    node = resolve_inside(root, op.path if isinstance(op, ReplaceFile) else op.file, follow=True)
    if not node.is_file():
        if isinstance(op, ReplaceFile):
            raise ReplaceMissing(op.path)
        raise ConfigKeyMissing(f"{op.file}: config file not present")
    content = op.content if isinstance(op, ReplaceFile) else _set_config(node, op)
    saved = record_move(journal, index, node.relative_to(root).as_posix(), node)
    node.write_bytes(content)
    node.chmod(saved.stat().st_mode & 0o7777)  # the original's permission bits


def apply_patch(twin: TwinState, delta: PatchDelta) -> PatchReport:
    """Apply ops in order, atomically: all succeed or the sandbox is unchanged.

    The report's manifest is scanned before the journal is dropped, so a
    tree that cannot be scanned (an escaping link) undoes the patch too.
    The scan hashes only the files whose bytes differ from the twin's
    ``image_files``.
    """
    root = Path(twin.sandbox).resolve()
    with writer_lock(twin.sandbox):
        journal = begin(root)
        try:
            for index, op in enumerate(delta.ops):
                _apply_op(root, journal, index, op)
            manifest = scan_tree(twin.sandbox, known=twin.image_files)
        except BaseException:
            roll_back(root)
            raise
        commit(journal)
    return PatchReport(applied=tuple(_describe(op) for op in delta.ops), manifest=manifest)


# -- JSON form -----------------------------------------------------------------


def _content_from_doc(content: str, encoding: object, where: str) -> bytes:
    if encoding == "utf-8":
        return content.encode("utf-8")
    if encoding == "base64":
        try:
            return base64.b64decode(content, validate=True)
        except binascii.Error as exc:
            raise MalformedPatch(f"{where}: invalid base64 content") from exc
    raise MalformedPatch(f"{where}: unsupported encoding {encoding!r}")


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
