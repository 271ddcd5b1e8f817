"""Twin images: a deterministic capture, one file per image.

The manifest alone describes the tree: each entry's path, kind, mode, size
and SHA-256, sorted by path. The archive is each file's bytes in its order
(a directory adds none), so identical trees give identical archives on any
platform. An image file is ``MAGIC``, its header's length as 8 big-endian
bytes, the header (an ``ImageHeader``'s JSON text), then the archive.
"""

from __future__ import annotations

import io
import os
import posixpath
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Sequence

from twinforge.clock import now_iso
from twinforge.errors import HashMismatch, MalformedArchive
from twinforge.jsonfile import dumps, from_doc, parse_json, publish
from twinforge.twin.manifest import (
    DEFAULT_EXCLUSIONS,
    DIR,
    FILE,
    KnownFiles,
    ManifestEntry,
    manifest_entry,
    sha256_hex,
    walk_tree,
)

MAGIC = b"TWIMG3\x00"
_PREFIX = len(MAGIC) + 8  # the magic, then the header's length


@dataclass(frozen=True)
class TwinImage:
    """A captured tree: its manifest and the archive that packs it.

    Made, it judges itself without hashing: unless the archive holds exactly
    the manifest's sizes, the paths strictly increase (as ``walk_tree``
    sorts) and each parent is a directory listed before its entries, it
    raises MalformedArchive, so a restore writes every entry in order and
    nothing else. ``archive`` must be ``bytes``, not a ``bytearray`` that
    could change under ``verified_files``."""

    manifest: tuple[ManifestEntry, ...]
    archive: bytes
    exclusions: tuple[str, ...]
    created_at: str

    def __post_init__(self) -> None:
        if not isinstance(self.archive, bytes):
            raise TypeError(f"archive must be bytes, not {type(self.archive).__name__}")
        _check_sizes(len(self.archive), self.manifest)
        before, dirs = "", {""}  # no path is empty; "" is the sandbox itself
        for entry in self.manifest:
            if entry.path <= before:
                raise MalformedArchive(f"{entry.path}: manifest entry out of order after {before}")
            if (parent := posixpath.dirname(entry.path)) not in dirs:
                raise MalformedArchive(
                    f"{entry.path}: manifest entry whose parent {parent} is not a directory listed before it"
                )
            if entry.kind == DIR:
                dirs.add(entry.path)
            before = entry.path

    @cached_property
    def verified_files(self) -> KnownFiles:
        """Each file's path mapped to its hash and content (a ``memoryview``
        of its ``size`` bytes of ``archive``), once each content is found to
        have its SHA-256 (else HashMismatch). Built once per image object,
        read-only, and kept by every twin restored from it; a failed check
        is not kept, so it raises again on the next access."""
        view, offset, files = memoryview(self.archive), 0, {}
        for entry in self.manifest:
            content = view[offset : offset + entry.size]
            offset += entry.size
            if entry.kind == FILE:
                if (actual := sha256_hex(content)) != entry.sha256:
                    raise HashMismatch(entry.path, entry.sha256, actual)
                files[entry.path] = (entry.sha256, content)
        return MappingProxyType(files)


def capture_image(
    root: str | Path, exclusions: Sequence[str] = DEFAULT_EXCLUSIONS
) -> TwinImage:
    """Scan and pack a tree; same tree and exclusions give identical bytes.
    Each file is read once, and the archive packs the bytes its manifest
    entry hashed."""
    manifest = []
    out = io.BytesIO()
    for path, kind in walk_tree(root, exclusions):
        entry, content = manifest_entry(root, path, kind)
        manifest.append(entry)
        out.write(content)
    return TwinImage(tuple(manifest), out.getvalue(), tuple(exclusions), now_iso())


def _check_sizes(held: int, manifest: Sequence[ManifestEntry], at: str = "") -> None:
    listed = sum(entry.size for entry in manifest)
    if held != listed:
        raise MalformedArchive(f"{at}the archive holds {held} content bytes, the manifest's sizes add up to {listed}")


# -- on-disk form: one <name>.twimg ------------------------------------------


@dataclass(frozen=True)
class ImageHeader:
    """An image file's header: the manifest, and when and with which exclusions the tree was captured."""

    created_at: str
    exclusions: tuple[str, ...]
    entries: tuple[ManifestEntry, ...]


def save_image(image: TwinImage, path: str | Path) -> None:
    header = dumps(ImageHeader(image.created_at, image.exclusions, image.manifest)).encode("utf-8")
    with publish(path, binary=True) as fh:
        fh.write(MAGIC + len(header).to_bytes(8, "big") + header)
        fh.write(image.archive)


def _read_header(fh, path: str | Path) -> ImageHeader:
    """The header of the image file open unbuffered in ``fh``, left at the archive's first byte, once
    the file's length (one ``fstat``) is found to fit the header and its manifest's sizes."""
    size = os.fstat(fh.fileno()).st_size
    prefix = fh.read(_PREFIX)
    if not prefix.startswith(MAGIC):
        raise MalformedArchive(f"{path}: not a twin image of this format; capture the tree again")
    length = int.from_bytes(prefix[len(MAGIC) :], "big")
    if length > size - _PREFIX:
        raise MalformedArchive(f"{path}: the header runs past the end of the file")
    doc = parse_json(fh.read(length), MalformedArchive, f"{path}: the header")
    header = from_doc(ImageHeader, doc, MalformedArchive, str(path))
    _check_sizes(size - _PREFIX - length, header.entries, f"{path}: ")
    return header


def load_manifest(path: str | Path) -> tuple[ManifestEntry, ...]:
    """The manifest of the image file at ``path``, read from its header alone."""
    with open(path, "rb", buffering=0) as fh:
        return _read_header(fh, path).entries


def load_image(path: str | Path) -> TwinImage:
    with open(path, "rb", buffering=0) as fh:
        header = _read_header(fh, path)
        archive = fh.read()  # read into the one ``bytes`` the image keeps
    try:
        return TwinImage(header.entries, archive, header.exclusions, header.created_at)
    except MalformedArchive as exc:
        raise MalformedArchive(f"{path}: {exc}") from exc
