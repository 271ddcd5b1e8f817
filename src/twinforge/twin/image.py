"""Twin images: deterministic capture archive plus sidecar manifest.

The archive is a custom container rather than OS tar so identical trees
produce identical bytes on any platform: entries are sorted by path,
lengths are fixed-width big-endian, and no timestamps are stored. Reading
refuses any entry path that could land outside the restore directory.
"""

from __future__ import annotations

import io
import posixpath
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Sequence

from twinforge.clock import now_iso
from twinforge.errors import HashMismatch, MalformedArchive
from twinforge.jsonfile import read_record, record_text
from twinforge.twin.manifest import (
    DEFAULT_EXCLUSIONS,
    DIR,
    FILE,
    LOCK_FILENAME,
    MANIFEST_FORMAT_VERSION,
    KnownFiles,
    ManifestEntry,
    Sidecar,
    is_safe_rel_path,
    manifest_entry,
    sha256_hex,
    walk_tree,
)

MAGIC = b"TWIMG1\x00"


@dataclass(frozen=True)
class TwinImage:
    """A captured tree: its manifest and the archive that packs it.

    ``archive`` must be ``bytes`` (a ``bytearray`` is refused), so the
    archive cannot change under ``checked_entries``, the one-time check
    that every restore of this object reuses."""

    manifest: tuple[ManifestEntry, ...]
    archive: bytes
    exclusions: tuple[str, ...]
    created_at: str

    def __post_init__(self) -> None:
        if not isinstance(self.archive, bytes):
            raise TypeError(f"archive must be bytes, not {type(self.archive).__name__}")

    @cached_property
    def checked_entries(self) -> tuple[tuple[ManifestEntry, memoryview], ...]:
        """Each manifest entry with its content, a view into ``archive``,
        once the archive is found to hold exactly the manifest
        (``_match_manifest``), no root entry a restore makes itself (a file
        ``tmp`` or any ``LOCK_FILENAME``, else ``MalformedArchive``) and
        each file its SHA-256 (else ``HashMismatch``). Computed once per
        image object; a failed check is not kept, so it raises again on
        the next access."""
        pairs = _match_manifest(self.manifest, self.archive)
        for entry, _ in pairs:
            if entry.path == LOCK_FILENAME or (entry.path, entry.kind) == ("tmp", FILE):
                raise MalformedArchive(f"{entry.path}: the image holds a {entry.kind} where a restore makes its own")
        for entry, content in pairs:
            if entry.kind == FILE:
                actual = sha256_hex(content)
                if actual != entry.sha256:
                    raise HashMismatch(entry.path, entry.sha256, actual)
        return pairs

    @cached_property
    def verified_files(self) -> KnownFiles:
        """Each file's path mapped to its hash and content from
        ``checked_entries``: built once per image object, read-only, and
        kept by every twin restored from it."""
        return MappingProxyType(
            {entry.path: (entry.sha256, content) for entry, content in self.checked_entries if entry.kind == FILE}
        )


def capture_image(
    root: str | Path, exclusions: Sequence[str] = DEFAULT_EXCLUSIONS
) -> TwinImage:
    """Scan and pack a tree; same tree and exclusions give identical bytes.
    Each file is read once, and the archive packs the bytes its manifest
    entry hashed."""
    walked = walk_tree(root, exclusions)
    manifest = []
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(struct.pack(">I", len(walked)))
    for path, kind in walked:
        entry, content = manifest_entry(root, path, kind)
        manifest.append(entry)
        path_bytes = path.encode("utf-8")
        out.write(struct.pack(">BIH", 0 if kind == DIR else 1, entry.mode, len(path_bytes)))
        out.write(path_bytes)
        out.write(struct.pack(">Q", len(content)))
        out.write(content)
    return TwinImage(tuple(manifest), out.getvalue(), tuple(exclusions), now_iso())


def unpack_archive(archive: bytes) -> Iterator[tuple[str, str, int, memoryview]]:
    """Yield (path, kind, mode, content) tuples, each content a
    ``memoryview`` slice of ``archive`` rather than a copy; raises
    MalformedArchive on structural damage or an unsafe entry path, before
    yielding that entry."""
    view = memoryview(archive)
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise MalformedArchive("bad magic; not a twin image")
    offset = len(MAGIC)
    try:
        (count,) = struct.unpack_from(">I", view, offset)
        offset += 4
        for _ in range(count):
            kind_code, mode, path_len = struct.unpack_from(">BIH", view, offset)
            offset += 7
            path = str(view[offset : offset + path_len], "utf-8")
            if not is_safe_rel_path(path):
                raise MalformedArchive(f"entry path {path!r} is not a safe relative path")
            offset += path_len
            (content_len,) = struct.unpack_from(">Q", view, offset)
            offset += 8
            content = view[offset : offset + content_len]
            if len(content) != content_len:
                raise MalformedArchive(f"{path}: truncated content")
            offset += content_len
            yield path, DIR if kind_code == 0 else FILE, mode, content
    except (struct.error, UnicodeDecodeError) as exc:
        raise MalformedArchive(f"corrupt archive structure: {exc}") from exc
    if offset != len(archive):
        raise MalformedArchive("trailing bytes after final entry")


def _match_manifest(
    manifest: Sequence[ManifestEntry], archive: bytes
) -> tuple[tuple[ManifestEntry, memoryview], ...]:
    """Pair each manifest entry with its archive content. Raises
    MalformedArchive, naming the path, unless the archive holds the
    manifest's paths in its order, each with the entry's kind, mode and
    size, and that order is strictly increasing (as ``walk_tree`` sorts)
    with no entry under a file, so a restore can write every entry. Hashes
    nothing."""
    expected = iter(manifest)
    pairs = []
    files: set[str] = set()
    for path, kind, mode, content in unpack_archive(archive):
        entry = next(expected, None)
        if entry is None or entry.path != path:
            where = f"where the manifest has {entry.path}" if entry else "past the manifest's end"
            raise MalformedArchive(f"{path}: archive entry {where}")
        if (entry.kind, entry.mode, entry.size) != (kind, mode, len(content)):
            raise MalformedArchive(
                f"{path}: manifest has {entry.kind} mode {entry.mode:#o} size {entry.size}, "
                f"archive has {kind} mode {mode:#o} size {len(content)}"
            )
        if pairs and path <= pairs[-1][0].path:
            raise MalformedArchive(f"{path}: archive entry out of order after {pairs[-1][0].path}")
        parent = posixpath.dirname(path)
        while parent and parent not in files:
            parent = posixpath.dirname(parent)
        if parent:
            raise MalformedArchive(f"{path}: archive entry under the file {parent}")
        if kind == FILE:
            files.add(path)
        pairs.append((entry, content))
    missing = next(expected, None)
    if missing is not None:
        raise MalformedArchive(f"{missing.path}: manifest entry missing from the archive")
    return tuple(pairs)


# -- on-disk form: <name>.twimg plus <name>.manifest.json --------------------


def sidecar_path(image_path: str | Path) -> Path:
    image_path = Path(image_path)
    return image_path.with_name(image_path.stem + ".manifest.json")


def save_image(image: TwinImage, path: str | Path) -> None:
    path = Path(path)
    path.write_bytes(image.archive)
    sidecar = Sidecar(image.created_at, image.exclusions, image.manifest)
    sidecar_path(path).write_text(record_text(MANIFEST_FORMAT_VERSION, sidecar), encoding="utf-8")


def load_image(path: str | Path) -> TwinImage:
    path = Path(path)
    archive = path.read_bytes()
    sidecar = read_record(sidecar_path(path), {MANIFEST_FORMAT_VERSION: Sidecar}, MalformedArchive)
    try:
        _match_manifest(sidecar.entries, archive)
    except MalformedArchive as exc:
        raise MalformedArchive(f"{path}: {exc}") from exc
    return TwinImage(sidecar.entries, archive, sidecar.exclusions, sidecar.created_at)
