"""Filesystem manifests: deterministic scans, exclusion rules, state diffs."""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import Iterable, Sequence

from twinforge.errors import MalformedArchive, SymlinkOutsideRoot

FILE = "file"
DIR = "dir"

LOCK_FILENAME = ".twin.lock"

DEFAULT_EXCLUSIONS = ("tmp/**", "proc/**", "sys/**", "dev/**")

MANIFEST_FORMAT_VERSION = 1


def is_safe_rel_path(path: str) -> bool:
    """True for a non-empty relative path with no ``..`` part, which cannot
    name anything outside the directory it is joined to."""
    pure = PurePosixPath(path)
    return bool(path) and not pure.is_absolute() and ".." not in pure.parts


@dataclass(frozen=True)
class ManifestEntry:
    path: str  # relative, posix separators
    kind: str  # file | dir
    size: int
    mode: int  # permission bits only
    sha256: str | None  # None for directories

    def __post_init__(self) -> None:
        if self.kind not in (FILE, DIR):
            raise ValueError(f"bad entry kind {self.kind!r}")
        if not is_safe_rel_path(self.path):
            raise ValueError(f"manifest paths must be relative and normalized: {self.path!r}")
        if (self.sha256 is None) != (self.kind == DIR):
            raise ValueError("files carry a hash, directories do not")


def is_excluded(rel_path: str, patterns: Sequence[str]) -> bool:
    """Glob match against the path; ``x/**`` also covers the bare directory x."""
    for pattern in patterns:
        if fnmatch.fnmatchcase(rel_path, pattern):
            return True
        if pattern.endswith("/**") and rel_path == pattern[:-3]:
            return True
    return False


def _hash_bytes(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def scan_tree(root: str | Path, exclusions: Sequence[str] = ()) -> tuple[ManifestEntry, ...]:
    """Deterministic manifest of a tree, sorted by path.

    Symlinks resolving inside the root are recorded as the file they point
    to (directory links are recorded but not descended, which keeps cycles
    finite); links escaping the root are refused. The advisory lock file is
    never part of a manifest.
    """
    root = Path(root).resolve()
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory")
    entries: list[ManifestEntry] = []

    def rel_of(path: Path) -> str:
        return path.relative_to(root).as_posix()

    def check_link(path: Path) -> None:
        if path.is_symlink():
            target = path.resolve()
            if not target.is_relative_to(root):
                raise SymlinkOutsideRoot(f"{rel_of(path)} -> {target}")

    for dirpath, dirnames, filenames in os.walk(root, followlinks=False):
        dirnames.sort()
        filenames.sort()
        here = Path(dirpath)
        for name in dirnames:
            sub = here / name
            rel = rel_of(sub)
            if is_excluded(rel, exclusions):
                continue
            check_link(sub)
            mode = sub.stat().st_mode & 0o7777
            entries.append(ManifestEntry(rel, DIR, 0, mode, None))
        for name in filenames:
            sub = here / name
            rel = rel_of(sub)
            if name == LOCK_FILENAME or is_excluded(rel, exclusions):
                continue
            check_link(sub)
            content = sub.read_bytes()
            mode = sub.stat().st_mode & 0o7777
            entries.append(ManifestEntry(rel, FILE, len(content), mode, _hash_bytes(content)))
    entries.sort(key=lambda e: e.path)
    return tuple(entries)


# -- persistence -----------------------------------------------------------


def manifest_to_doc(manifest: Iterable[ManifestEntry]) -> list[dict]:
    return [
        {"path": e.path, "kind": e.kind, "size": e.size, "mode": e.mode, "sha256": e.sha256}
        for e in manifest
    ]


def manifest_from_doc(doc: Iterable[dict]) -> tuple[ManifestEntry, ...]:
    try:
        return tuple(
            ManifestEntry(d["path"], d["kind"], d["size"], d["mode"], d["sha256"]) for d in doc
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedArchive(f"bad manifest document: {exc}") from exc


def save_manifest(manifest: Iterable[ManifestEntry], path: str | Path) -> None:
    doc = {"format_version": MANIFEST_FORMAT_VERSION, "entries": manifest_to_doc(manifest)}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if doc["format_version"] != MANIFEST_FORMAT_VERSION:
            raise MalformedArchive(f"{path}: unsupported format_version")
        return manifest_from_doc(doc["entries"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedArchive(f"{path}: {exc}") from exc


# -- diffing -----------------------------------------------------------------


@dataclass(frozen=True)
class ModifiedEntry:
    path: str
    old_sha256: str | None
    new_sha256: str | None


@dataclass(frozen=True)
class TwinDiff:
    added: tuple[str, ...]
    removed: tuple[str, ...]
    modified: tuple[ModifiedEntry, ...]

    @property
    def empty(self) -> bool:
        return not (self.added or self.removed or self.modified)


def diff_states(
    pre: Sequence[ManifestEntry], post: Sequence[ManifestEntry]
) -> TwinDiff:
    """Set difference by path; same path with a new hash or mode is modified."""
    before = {e.path: e for e in pre}
    after = {e.path: e for e in post}
    added = tuple(sorted(after.keys() - before.keys()))
    removed = tuple(sorted(before.keys() - after.keys()))
    modified = []
    for path in sorted(before.keys() & after.keys()):
        old, new = before[path], after[path]
        if old.sha256 != new.sha256 or old.mode != new.mode or old.kind != new.kind:
            modified.append(ModifiedEntry(path, old.sha256, new.sha256))
    return TwinDiff(added, removed, tuple(modified))
