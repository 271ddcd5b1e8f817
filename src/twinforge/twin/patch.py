"""Declarative patch deltas with atomic application.

Ops run in order against a shadow copy of the sandbox; only if every op
succeeds does the shadow swap in. Any failure leaves the twin byte-for-byte
untouched. The JSON patch file is a list of op objects, e.g.::

    [{"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\\n"},
     {"op": "replace_file", "path": "docs/readme.txt", "content": "v2"},
     {"op": "delete_file", "path": "docs/stale.txt"},
     {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"}]

File content is a UTF-8 string by default; ``"encoding": "base64"`` carries
binary payloads.
"""

from __future__ import annotations

import base64
import binascii
import shutil
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
from twinforge.jsonfile import read_json
from twinforge.twin.manifest import LOCK_FILENAME, ManifestEntry, is_safe_rel_path
from twinforge.twin.sandbox import TwinState, writer_lock


def _check_rel_path(path: str) -> str:
    if not is_safe_rel_path(path) or path.endswith("/"):
        raise MalformedPatch(f"bad op path {path!r}: must be relative and normalized")
    return path


@dataclass(frozen=True)
class AddFile:
    path: str
    content: bytes

    def __post_init__(self) -> None:
        _check_rel_path(self.path)


@dataclass(frozen=True)
class ReplaceFile:
    path: str
    content: bytes

    def __post_init__(self) -> None:
        _check_rel_path(self.path)


@dataclass(frozen=True)
class DeleteFile:
    path: str

    def __post_init__(self) -> None:
        _check_rel_path(self.path)


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


def _apply_op(root: Path, op: PatchOp) -> None:
    if isinstance(op, AddFile):
        target = root / op.path
        if target.exists():
            raise AddExisting(op.path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(op.content)
    elif isinstance(op, ReplaceFile):
        target = root / op.path
        if not target.is_file():
            raise ReplaceMissing(op.path)
        target.write_bytes(op.content)
    elif isinstance(op, DeleteFile):
        target = root / op.path
        if not target.is_file():
            raise DeleteMissing(op.path)
        target.unlink()
    else:
        target = root / op.file
        if not target.is_file():
            raise ConfigKeyMissing(f"{op.file}: config file not present")
        lines = target.read_text(encoding="utf-8").splitlines()
        hits = 0
        for i, line in enumerate(lines):
            head, sep, _ = line.partition("=")
            if sep and head.strip() == op.key:
                lines[i] = f"{op.key}={op.value}"
                hits += 1
        if hits == 0:
            raise ConfigKeyMissing(f"{op.file}: no key {op.key!r}")
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")


def apply_patch(twin: TwinState, delta: PatchDelta) -> PatchReport:
    """Apply ops in order, atomically: all succeed or the sandbox is unchanged."""
    sandbox = twin.sandbox
    shadow = sandbox.parent / (sandbox.name + ".staging")
    backup = sandbox.parent / (sandbox.name + ".previous")
    with writer_lock(sandbox):
        if shadow.exists():
            shutil.rmtree(shadow)  # leftover from an interrupted run
        shutil.copytree(
            sandbox, shadow, symlinks=True, ignore=shutil.ignore_patterns(LOCK_FILENAME)
        )
        try:
            for op in delta.ops:
                _apply_op(shadow, op)
        except Exception:
            shutil.rmtree(shadow)
            raise
        if backup.exists():
            shutil.rmtree(backup)
        sandbox.rename(backup)
        shadow.rename(sandbox)
        shutil.rmtree(backup)
    return PatchReport(
        applied=tuple(_describe(op) for op in delta.ops),
        manifest=twin.manifest(),
    )


# -- JSON form -----------------------------------------------------------------


def _content_from_doc(doc: dict, where: str) -> bytes:
    content = doc.get("content")
    if not isinstance(content, str):
        raise MalformedPatch(f"{where}: missing string 'content'")
    encoding = doc.get("encoding", "utf-8")
    if encoding == "utf-8":
        return content.encode("utf-8")
    if encoding == "base64":
        try:
            return base64.b64decode(content, validate=True)
        except binascii.Error as exc:
            raise MalformedPatch(f"{where}: invalid base64 content") from exc
    raise MalformedPatch(f"{where}: unsupported encoding {encoding!r}")


def delta_from_doc(doc: object) -> PatchDelta:
    if not isinstance(doc, list):
        raise MalformedPatch("patch file must hold a JSON list of ops")
    ops: list[PatchOp] = []
    for i, item in enumerate(doc):
        where = f"op {i}"
        if not isinstance(item, dict) or "op" not in item:
            raise MalformedPatch(f"{where}: each op is an object with an 'op' field")
        kind = item["op"]
        try:
            if kind == "add_file":
                ops.append(AddFile(item["path"], _content_from_doc(item, where)))
            elif kind == "replace_file":
                ops.append(ReplaceFile(item["path"], _content_from_doc(item, where)))
            elif kind == "delete_file":
                ops.append(DeleteFile(item["path"]))
            elif kind == "set_config":
                ops.append(SetConfig(item["file"], item["key"], str(item["value"])))
            else:
                raise MalformedPatch(f"{where}: unknown op {kind!r}")
        except KeyError as exc:
            raise MalformedPatch(f"{where}: missing field {exc}") from exc
    return PatchDelta(tuple(ops))


def load_delta(path: str | Path) -> PatchDelta:
    return delta_from_doc(read_json(path, MalformedPatch))
