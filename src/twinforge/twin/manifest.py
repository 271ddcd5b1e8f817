"""Filesystem manifests: deterministic scans, exclusion rules, state diffs."""

from __future__ import annotations

import fnmatch
import hashlib
import os
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from twinforge.errors import DanglingSymlink, SymlinkOutsideRoot, UndecodableInput
from twinforge.jsonfile import is_utf8_text

FILE = "file"
DIR = "dir"

# No library code reads this name: the sandbox lock is on the sandbox
# directory itself and makes no file. It is kept because
# ``perfbench/workloads.py``'s ``hash_tree`` reads it.
LOCK_FILENAME = ".twin.lock"

DEFAULT_EXCLUSIONS = ("tmp/**", "proc/**", "sys/**", "dev/**")

# Path -> (sha256, content) of files whose hash is already verified: the
# files of the image a twin was restored from (``TwinImage.verified_files``).
KnownFiles = Mapping[str, tuple[str, memoryview]]


def is_os_path(path: object) -> bool:
    """A path the OS and the archive accept: UTF-8 text with no NUL. The
    rule of the workspace, and part of ``is_safe_rel_path``."""
    return isinstance(path, str) and "\x00" not in path and is_utf8_text(path)


def is_safe_rel_path(path: object) -> bool:
    """The one path rule of patch ops, checks and image entries: an
    ``is_os_path`` that is relative and normalized (no empty, ``.`` or
    ``..`` part). It names one node under the directory it is joined to,
    in one spelling, that the OS and the archive accept."""
    return is_os_path(path) and not {"", ".", ".."}.intersection(path.split("/"))


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
        if self.size < 0 or (self.kind == DIR and self.size):
            raise ValueError(f"{self.path}: size must be an integer >= 0, and 0 for a directory, got {self.size!r}")
        if not 0 <= self.mode <= 0o7777:
            raise ValueError(f"{self.path}: mode must be an integer from 0 to 0o7777, got {self.mode!r}")


@lru_cache(maxsize=64)  # one regex per exclusion set: one match per path
def _exclusion_match(patterns: tuple[str, ...]):
    globs = (*patterns, *(pattern[:-3] for pattern in patterns if pattern.endswith("/**")))
    return re.compile("|".join(map(fnmatch.translate, globs)) or "(?!)").match


def is_excluded(rel_path: str, patterns: Sequence[str]) -> bool:
    """The one exclusion rule: a glob pattern, or the ``x`` of an ``x/**`` one, matches the path."""
    return _exclusion_match(tuple(patterns))(rel_path) is not None


def sha256_hex(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def resolve_inside(root: Path, rel: str, follow: bool = True) -> Path:
    """The node ``rel`` names under the resolved directory ``root``: its
    parent's links resolved and, when ``follow``, its own. A node that
    lands outside ``root`` raises ``SymlinkOutsideRoot``, and a link on the
    way that leads round to itself ``DanglingSymlink``. This is the one
    rule that keeps every walk, patch op and check inside the sandbox."""
    path = root / rel
    try:
        node = path.resolve() if follow else path.parent.resolve() / path.name
    except RuntimeError:  # "Symlink loop from ...": name the first link on the way that loops
        link = next((p for p in reversed((path, *path.parents)) if p.is_symlink() and not p.exists()), path)
        raise DanglingSymlink(f"{rel}: the link {link.relative_to(root)} loops, so it leads to nothing") from None
    if not node.is_relative_to(root):
        raise SymlinkOutsideRoot(f"{rel} -> {node}")
    return node


def walk_tree(root: str | Path, exclusions: Sequence[str] = ()) -> tuple[tuple[str, str], ...]:
    """``(path, kind)`` of every manifest entry of a tree, sorted by path,
    without reading a file: one ``os.scandir`` per directory, whose errors
    (an unreadable directory, say) are raised, not skipped.

    Symlinks resolving inside the root count as what they point to
    (directory links are listed but not descended, which keeps cycles
    finite); links that lead to nothing, links escaping the root and names
    that are not UTF-8 are refused. An excluded directory is not listed."""
    root = Path(root).resolve()
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory")
    entries: list[tuple[str, str]] = []
    unlisted = [(str(root), "")]  # (directory, its path relative to root plus "/")
    while unlisted:
        directory, prefix = unlisted.pop()
        with os.scandir(directory) as listing:
            for item in listing:
                rel = prefix + item.name
                if is_excluded(rel, exclusions):
                    continue
                if not is_safe_rel_path(rel):  # a walked name fails it only when not UTF-8
                    raise UndecodableInput(f"{root}: file name {os.fsencode(rel)!r} is not valid UTF-8")
                if item.is_symlink():
                    if not Path(item.path).exists():
                        raise DanglingSymlink(f"{rel} -> {os.readlink(item.path)}: the link leads to nothing")
                    resolve_inside(root, rel)
                entries.append((rel, DIR if item.is_dir() else FILE))
                if item.is_dir(follow_symlinks=False):
                    unlisted.append((item.path, rel + "/"))
    entries.sort()
    return tuple(entries)


def manifest_entry(
    root: str | Path, path: str, kind: str, known: KnownFiles | None = None
) -> tuple[ManifestEntry, bytes]:
    """The manifest entry of one walked path, its mode and, for a file, its
    size and hash, with the content it read (empty for a directory). A
    file is read once. This is the one place a twin file is hashed, unless
    its bytes equal ``known``'s content at its path: it then takes
    ``known``'s hash, which equal bytes make the same."""
    full = Path(root) / path
    mode = full.stat().st_mode & 0o7777
    if kind == DIR:
        return ManifestEntry(path, DIR, 0, mode, None), b""
    content = full.read_bytes()
    hit = known.get(path) if known else None
    # Same length, then one memcmp (``content == view`` compares item by item).
    if hit and len(content) == len(hit[1]) and content.startswith(hit[1]):
        sha256 = hit[0]
    else:
        sha256 = sha256_hex(content)
    return ManifestEntry(path, FILE, len(content), mode, sha256), content


def scan_tree(root: str | Path, known: KnownFiles | None = None) -> tuple[ManifestEntry, ...]:
    """Deterministic manifest of a tree, sorted by path: every entry of
    ``walk_tree`` with its mode, and each file read and hashed unless its
    bytes equal ``known``'s (``manifest_entry``)."""
    return tuple(manifest_entry(root, path, kind, known)[0] for path, kind in walk_tree(root))


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
