"""Sandboxed twin instances: restore into an empty directory, advisory locking."""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from twinforge.errors import SandboxNotEmpty, TwinforgeError, TwinLocked
from twinforge.twin.image import TwinImage
from twinforge.twin.journal import roll_back
from twinforge.twin.manifest import DIR, KnownFiles


@dataclass(frozen=True)
class Screen:
    """The virtual screen replayed clicks must land on."""

    width: int = 1920
    height: int = 1080

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("dimensions must be positive")


@dataclass
class TwinState:
    """Handle on an instantiated sandbox. It caches nothing about the tree:
    readers read or walk the live tree themselves. Writers hold
    ``writer_lock``.

    A twin restored in this process keeps its image's verified files
    (``image_files``, path to hash and content). The scans of
    ``apply_patch`` and the hashes of ``run_checks`` still read every
    file they need, but a file whose bytes equal the image's at its path
    takes the image's hash instead of being hashed again. A twin built
    from a path keeps none, so every file it reads is hashed."""

    sandbox: Path
    screen: Screen = field(default_factory=Screen)
    image_files: KnownFiles = field(default_factory=dict, repr=False, compare=False)


@contextmanager
def exclusive_lock(directory: Path, locked: TwinforgeError):
    """Hold an exclusive ``flock`` on ``directory`` itself for the block;
    raise ``locked`` if another holder has it. No file is made: the lock
    is on the directory's inode, so every spelling of it (a symbolic link
    to it, say) is the same lock, and the kernel drops it when the
    descriptor closes, so a holder that dies, even by SIGKILL, leaves
    nothing that blocks the next one."""
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise locked from None
        yield
    finally:
        os.close(fd)


@contextmanager
def writer_lock(sandbox: Path):
    """Advisory exclusive lock on the sandbox directory for mutating
    operations (create, patch).

    On acquisition it rolls back any undo journal a crashed patch left
    behind, so every writer starts from a tree no patch is half-way
    through."""
    with exclusive_lock(sandbox, TwinLocked(f"{sandbox}: another writer holds the sandbox")):
        roll_back(sandbox)
        yield


def _refuse_contents(sandbox: Path) -> None:
    if any(sandbox.iterdir()):
        raise SandboxNotEmpty(f"{sandbox} already has contents")


def instantiate_twin(image: TwinImage, sandbox_dir: str | Path) -> TwinState:
    """Restore exactly an image's entries, plus an empty ``tmp/`` if it has none, into an empty sandbox.

    The image is checked whole (``TwinImage.checked_entries``) before
    anything is created: a flipped content byte raises HashMismatch; an
    entry that disagrees with the manifest, or that a restore cannot
    write, raises MalformedArchive; and no sandbox is made. The image
    keeps the result, so restoring it again hashes and copies nothing; it
    writes the archive's bytes. The twin keeps the image's
    ``verified_files``. Directory modes are set once every entry is
    written, deepest first, so a read-only directory can still be restored
    with its contents. A sandbox with contents is refused before anything
    is written; emptiness is checked again under the writer lock, after it
    has rolled back a crashed patch's journal, so a restore never mixes
    with what that journal puts back.
    """
    entries = image.checked_entries
    sandbox = Path(sandbox_dir)
    if sandbox.exists():
        _refuse_contents(sandbox)
    sandbox.mkdir(parents=True, exist_ok=True)

    dir_modes: list[tuple[str, int]] = []
    with writer_lock(sandbox):
        _refuse_contents(sandbox)
        for entry, content in entries:  # each parent is listed, so made, before its entries
            target = sandbox / entry.path
            if entry.kind == DIR:
                target.mkdir()
                dir_modes.append((entry.path, entry.mode))
                continue
            target.write_bytes(content)
            target.chmod(entry.mode)
        for path, mode in sorted(dir_modes, key=lambda item: item[0].count("/"), reverse=True):
            (sandbox / path).chmod(mode)
        if not any(entry.path == "tmp" for entry, _ in entries):
            (sandbox / "tmp").mkdir()
            (sandbox / "tmp").chmod(0o755)
    return TwinState(sandbox, image_files=image.verified_files)
