"""Twin images: deterministic capture archive plus sidecar manifest.

The archive is a custom container rather than OS tar so identical trees
produce identical bytes on any platform: entries are sorted by path,
lengths are fixed-width big-endian, and no timestamps are stored. Reading
refuses any entry path that could land outside the restore directory.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from twinforge.clock import now_iso
from twinforge.errors import MalformedArchive
from twinforge.jsonfile import read_record, write_json
from twinforge.twin.manifest import (
    DEFAULT_EXCLUSIONS,
    DIR,
    FILE,
    MANIFEST_FORMAT_VERSION,
    ManifestEntry,
    Sidecar,
    is_safe_rel_path,
    manifest_entry,
    walk_tree,
)

MAGIC = b"TWIMG1\x00"


@dataclass(frozen=True)
class TwinImage:
    manifest: tuple[ManifestEntry, ...]
    archive: bytes
    exclusions: tuple[str, ...]
    created_at: str


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


def unpack_archive(archive: bytes) -> Iterator[tuple[str, str, int, bytes]]:
    """Yield (path, kind, mode, content) tuples; raises MalformedArchive on
    structural damage or an unsafe entry path, before yielding that entry."""
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
            path = bytes(view[offset : offset + path_len]).decode("utf-8")
            if not is_safe_rel_path(path):
                raise MalformedArchive(f"entry path {path!r} is not a safe relative path")
            offset += path_len
            (content_len,) = struct.unpack_from(">Q", view, offset)
            offset += 8
            content = bytes(view[offset : offset + content_len])
            if len(content) != content_len:
                raise MalformedArchive(f"{path}: truncated content")
            offset += content_len
            yield path, DIR if kind_code == 0 else FILE, mode, content
    except (struct.error, UnicodeDecodeError) as exc:
        raise MalformedArchive(f"corrupt archive structure: {exc}") from exc
    if offset != len(archive):
        raise MalformedArchive("trailing bytes after final entry")


# -- on-disk form: <name>.twimg plus <name>.manifest.json --------------------


def sidecar_path(image_path: str | Path) -> Path:
    image_path = Path(image_path)
    return image_path.with_name(image_path.stem + ".manifest.json")


def save_image(image: TwinImage, path: str | Path) -> None:
    path = Path(path)
    path.write_bytes(image.archive)
    sidecar = Sidecar(image.created_at, image.exclusions, image.manifest)
    write_json({"format_version": MANIFEST_FORMAT_VERSION, **vars(sidecar)}, sidecar_path(path))


def load_image(path: str | Path) -> TwinImage:
    path = Path(path)
    archive = path.read_bytes()
    sidecar = read_record(sidecar_path(path), {MANIFEST_FORMAT_VERSION: Sidecar}, MalformedArchive)
    archive_paths = [p for p, _, _, _ in unpack_archive(archive)]
    if archive_paths != [e.path for e in sidecar.entries]:
        raise MalformedArchive(f"{path}: archive entries disagree with sidecar manifest")
    return TwinImage(sidecar.entries, archive, sidecar.exclusions, sidecar.created_at)
