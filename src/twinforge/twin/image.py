"""Twin images: deterministic capture archive plus sidecar manifest.

The sidecar manifest alone describes the tree: each entry's path, kind,
mode, size and SHA-256, sorted by path. The archive is ``MAGIC`` followed by
each file's bytes in the manifest's order (a directory adds none), so
identical trees produce identical bytes on any platform, and no timestamp
is stored.
"""

from __future__ import annotations

import io
import posixpath
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

from twinforge.clock import now_iso
from twinforge.errors import HashMismatch, MalformedArchive
from twinforge.jsonfile import publish, read_record, write_record
from twinforge.twin.manifest import (
    DEFAULT_EXCLUSIONS,
    DIR,
    FILE,
    MANIFEST_FORMAT_VERSION,
    KnownFiles,
    ManifestEntry,
    Sidecar,
    manifest_entry,
    sha256_hex,
    walk_tree,
)

MAGIC = b"TWIMG2\x00"


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
        once the archive is found to hold exactly the manifest's entries in
        a form a restore can write (``_match_manifest``, else
        ``MalformedArchive``) and each file its SHA-256 (else
        ``HashMismatch``). Computed once per image object; a failed check
        is not kept, so it raises again on the next access."""
        pairs = _match_manifest(self.manifest, self.archive)
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
    manifest = []
    out = io.BytesIO()
    out.write(MAGIC)
    for path, kind in walk_tree(root, exclusions):
        entry, content = manifest_entry(root, path, kind)
        manifest.append(entry)
        out.write(content)
    return TwinImage(tuple(manifest), out.getvalue(), tuple(exclusions), now_iso())


def _match_manifest(
    manifest: Sequence[ManifestEntry], archive: bytes
) -> tuple[tuple[ManifestEntry, memoryview], ...]:
    """Pair each manifest entry with its content: a ``memoryview`` slice of
    ``archive``, the entry's ``size`` bytes from where the entry before it
    ends. Raises MalformedArchive unless the archive is ``MAGIC`` followed
    by exactly the manifest's sizes, and, naming the path, unless the paths
    strictly increase (as ``walk_tree`` sorts) and each entry's parent is a
    directory listed before it, so a restore can write every entry in order
    and makes nothing the manifest does not list. Hashes nothing."""
    if not archive.startswith(MAGIC):
        raise MalformedArchive("not a twin image of this format; capture the tree again")
    held, listed = len(archive) - len(MAGIC), sum(entry.size for entry in manifest)
    if held != listed:
        raise MalformedArchive(f"the archive holds {held} content bytes, the manifest's sizes add up to {listed}")
    view = memoryview(archive)
    offset = len(MAGIC)
    pairs = []
    dirs = {""}  # the sandbox itself
    for entry in manifest:
        path = entry.path
        if pairs and path <= pairs[-1][0].path:
            raise MalformedArchive(f"{path}: manifest entry out of order after {pairs[-1][0].path}")
        parent = posixpath.dirname(path)
        if parent not in dirs:
            raise MalformedArchive(f"{path}: manifest entry whose parent {parent} is not a directory listed before it")
        if entry.kind == DIR:
            dirs.add(path)
        pairs.append((entry, view[offset : offset + entry.size]))
        offset += entry.size
    return tuple(pairs)


# -- on-disk form: <name>.twimg plus <name>.manifest.json --------------------


def sidecar_path(image_path: str | Path) -> Path:
    image_path = Path(image_path)
    return image_path.with_name(image_path.stem + ".manifest.json")


def save_image(image: TwinImage, path: str | Path) -> None:
    with publish(path, binary=True) as fh:
        fh.write(image.archive)
    sidecar = Sidecar(image.created_at, image.exclusions, image.manifest)
    write_record(sidecar_path(path), MANIFEST_FORMAT_VERSION, sidecar)


def load_image(path: str | Path) -> TwinImage:
    path = Path(path)
    archive = path.read_bytes()
    sidecar = read_record(sidecar_path(path), {MANIFEST_FORMAT_VERSION: Sidecar}, MalformedArchive)
    try:
        _match_manifest(sidecar.entries, archive)
    except MalformedArchive as exc:
        raise MalformedArchive(f"{path}: {exc}") from exc
    return TwinImage(sidecar.entries, archive, sidecar.exclusions, sidecar.created_at)
