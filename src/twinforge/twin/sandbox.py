"""Sandboxed twin instances: restore into an empty directory, advisory locking."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from twinforge.errors import HashMismatch, SandboxNotEmpty, TwinforgeError, TwinLocked
from twinforge.twin.image import TwinImage, unpack_archive
from twinforge.twin.manifest import DIR, LOCK_FILENAME, ManifestEntry, _hash_bytes, scan_tree

DEFAULT_SCREEN = (1920, 1080)


@dataclass
class TwinState:
    """Handle on an instantiated sandbox; the manifest is always a live scan."""

    sandbox: Path
    screen_width: int = DEFAULT_SCREEN[0]
    screen_height: int = DEFAULT_SCREEN[1]

    def manifest(self) -> tuple[ManifestEntry, ...]:
        return scan_tree(self.sandbox)


@contextmanager
def exclusive_lock(lock: Path, locked: TwinforgeError):
    """Hold ``lock``, created with O_EXCL, for the block; raise ``locked`` if
    it already exists. The file is removed on exit, also on error."""
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise locked from None
    os.close(fd)
    try:
        yield
    finally:
        lock.unlink(missing_ok=True)


def writer_lock(sandbox: Path):
    """Advisory exclusive lock for mutating operations (create, patch)."""
    return exclusive_lock(
        Path(sandbox) / LOCK_FILENAME,
        TwinLocked(f"{sandbox}: another writer holds {LOCK_FILENAME}"),
    )


def instantiate_twin(
    image: TwinImage,
    sandbox_dir: str | Path,
    screen: tuple[int, int] = DEFAULT_SCREEN,
) -> TwinState:
    """Restore an image into an empty sandbox and add a fresh ``tmp/``.

    Every file is verified against the manifest hash while restoring; one
    flipped content byte surfaces as HashMismatch. Directory modes are set
    once every entry is written, deepest first, so a read-only directory
    can still be restored with its contents.
    """
    sandbox = Path(sandbox_dir)
    if sandbox.exists() and any(sandbox.iterdir()):
        raise SandboxNotEmpty(f"{sandbox} already has contents")
    sandbox.mkdir(parents=True, exist_ok=True)

    expected = {e.path: e for e in image.manifest}
    dir_modes: list[tuple[str, int]] = []
    with writer_lock(sandbox):
        for path, kind, mode, content in unpack_archive(image.archive):
            target = sandbox / path
            if kind == DIR:
                target.mkdir(parents=True, exist_ok=True)
                dir_modes.append((path, mode))
                continue
            entry = expected.get(path)
            actual = _hash_bytes(content)
            if entry is None or entry.sha256 != actual:
                raise HashMismatch(path, entry.sha256 if entry else "<absent>", actual)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(content)
            target.chmod(mode)
        for path, mode in sorted(dir_modes, key=lambda item: item[0].count("/"), reverse=True):
            (sandbox / path).chmod(mode)
        tmp = sandbox / "tmp"
        tmp.mkdir(exist_ok=True)
        tmp.chmod(0o755)
    return TwinState(sandbox=sandbox, screen_width=screen[0], screen_height=screen[1])
