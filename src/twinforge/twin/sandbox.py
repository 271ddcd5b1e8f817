"""Sandboxed twin instances: restore into an empty directory, advisory locking."""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from twinforge.errors import SandboxNotEmpty, TwinLocked
from twinforge.twin.image import TwinImage
from twinforge.twin.journal import UndoRecord, journaled, record, roll_back
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
    readers read or walk the live tree themselves, and every command
    holds ``sandbox_lock``.

    A twin restored in this process keeps its image's verified files
    (``image_files``, path to hash and content). The scans of
    ``apply_patch`` and the hashes of ``run_checks`` still read every
    file they need, but a file whose bytes equal the image's at its path
    takes the image's hash instead of being hashed again. A twin built
    from a path keeps none, so every file it reads is hashed."""

    sandbox: Path
    screen: Screen = field(default_factory=Screen)
    image_files: KnownFiles = field(default_factory=dict, repr=False, compare=False)


_held: set[tuple[int, int]] = set()  # the (st_dev, st_ino) of each directory this process holds


@contextmanager
def sandbox_lock(directory: Path):
    """Hold the one exclusive lock on ``directory`` for the block, as every
    command that writes into a workspace or opens a tree does; raise
    ``TwinLocked`` if another process holds it. A process holds a directory
    once: asked again for one it holds, it yields with no second ``flock``,
    which would refuse it, and no roll-back.

    The first hold rolls back any undo journal a crashed write left, so
    every command starts from a tree no restore or patch is half-way
    through. No file is made: the lock is on the directory's inode, so every
    spelling of it (a symbolic link to it, say) is the same lock, and the
    kernel drops it when the descriptor closes, so a holder that dies, even
    by SIGKILL, leaves nothing that blocks the next one."""
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        info = os.fstat(fd)
        key = (info.st_dev, info.st_ino)
        if key in _held:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise TwinLocked(f"{directory}: another command holds its lock") from None
        _held.add(key)
        try:
            roll_back(directory)
            yield
        finally:
            _held.discard(key)
    finally:
        os.close(fd)


def instantiate_twin(image: TwinImage, sandbox_dir: str | Path) -> TwinState:
    """Restore exactly an image's entries, plus an empty ``tmp/`` if it has none, into an empty sandbox.

    Every file is hashed (``TwinImage.verified_files``) before anything is
    created: a flipped content byte raises HashMismatch, and no sandbox is
    made. The image and the twin keep the hashed files, so restoring the
    image again hashes nothing. Directory modes are set once every entry is
    written, deepest first, so a read-only directory can still be restored
    with its contents. A sandbox with contents is refused under the sandbox
    lock, after it has rolled back a crashed write. The restore is then
    journaled like a patch, in one record whose ``added`` lists every
    top-level name, and ``tmp`` when the restore makes it, so a failed or
    killed restore is undone to an empty sandbox.
    """
    files = image.verified_files
    sandbox = Path(sandbox_dir)
    sandbox.mkdir(parents=True, exist_ok=True)
    names = tuple(entry.path for entry in image.manifest if "/" not in entry.path)
    dir_modes: list[tuple[str, int]] = []
    with sandbox_lock(sandbox):
        if any(sandbox.iterdir()):
            raise SandboxNotEmpty(f"{sandbox} already has contents")
        with journaled(sandbox) as journal:
            record(journal, 0, UndoRecord(None, names if "tmp" in names else (*names, "tmp")))
            for entry in image.manifest:  # each parent is listed, so made, before its entries
                target = sandbox / entry.path
                if entry.kind == DIR:
                    target.mkdir()
                    dir_modes.append((entry.path, entry.mode))
                    continue
                target.write_bytes(files[entry.path][1])
                target.chmod(entry.mode)
            for path, mode in sorted(dir_modes, key=lambda item: item[0].count("/"), reverse=True):
                (sandbox / path).chmod(mode)
            if "tmp" not in names:
                (sandbox / "tmp").mkdir()
                (sandbox / "tmp").chmod(0o755)
    return TwinState(sandbox, image_files=files)
