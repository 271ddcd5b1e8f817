"""Undo journal for in-place writes to a sandbox.

A patch or a restore writes the sandbox in place, in one ``journaled``
block, and keeps what it needs to undo each op in ``<sandbox>.journal/``, a
sibling of the sandbox (so renames between the two stay on one filesystem).
``begin`` creates the journal with a marker file; a directory without the
marker is not a journal and is never read or removed. Op ``i`` has one
record, ``{i:06d}.json``, published whole by ``jsonfile.write_json``, that
holds two things, each relative to the resolved sandbox: ``moved``, the
node the op takes out of the sandbox to ``{i:06d}.node``, or null, and
``added``, the nodes the op creates (an add's highest new node, a
restore's top-level names). A replaced or deleted file (or a deleted link)
is renamed to its ``.node`` once the record is written. Undoing a record
removes each added node whole, where one that is absent is fine, then
renames the ``.node``, if it is still there, back over ``moved``. An op
touches the sandbox only once its record is complete.

A write whose ops all ran commits by renaming the marker to the committed
marker, one atomic step; from then on the journal is only dropped, never
undone. ``roll_back`` reads every record, and resolves its paths inside the
sandbox, before it undoes any, so a record of another shape or whose path
leads out undoes nothing. It undoes the records newest first and deletes
each one as soon as its op is undone, so the journal always lists only what
is still to undo and a roll-back cut short can be run again. Either way the
journal is dropped entry by entry with its marker last, so a drop cut short
leaves a journal that still says what it is, or an empty directory. The
sandbox lock calls ``roll_back`` on its first hold in a process, so every
command that opens the sandbox first undoes a write cut short by a crash, or
finishes dropping a committed one. The guarantee covers a process crash, not
power loss: nothing here calls ``fsync``, so after a power cut the journal or
the sandbox may hold data the kernel never wrote.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from twinforge.errors import MalformedJournal, SymlinkOutsideRoot
from twinforge.jsonfile import from_doc, read_json, write_json
from twinforge.twin.manifest import is_safe_rel_path, resolve_inside

MARKER = "twinforge-journal"
COMMITTED = "twinforge-journal.committed"


@dataclass(frozen=True)
class UndoRecord:
    moved: str | None  # the node kept as the record's .node
    added: tuple[str, ...] = ()  # the nodes the op creates, each removed whole

    def __post_init__(self) -> None:
        if not all(map(is_safe_rel_path, self.paths)):
            raise ValueError("paths must be relative and normalized")

    @property
    def paths(self) -> tuple[str, ...]:
        """The added nodes, then the moved node if there is one."""
        return (*self.added, self.moved) if self.moved is not None else self.added


def journal_dir(sandbox: str | Path) -> Path:
    root = Path(sandbox).resolve()
    return root.parent / (root.name + ".journal")


def begin(sandbox: str | Path) -> Path:
    """Create the sandbox's journal; the sandbox lock has already rolled
    back any journal a crashed write left."""
    journal = journal_dir(sandbox)
    try:
        journal.mkdir()
    except FileExistsError:
        raise MalformedJournal(f"{journal} exists and is not a twinforge journal") from None
    (journal / MARKER).touch()
    return journal


def record(journal: Path, index: int, rec: UndoRecord) -> None:
    """Make op ``index``'s undo record complete in the journal."""
    write_json(rec, journal / f"{index:06d}.json")


def record_move(journal: Path, index: int, rel: str, node: Path) -> Path:
    """Take ``node`` out of the sandbox for op ``index``, which deletes or
    replaces it, by moving it, a file or a link itself, into the journal
    once the record says so; returns where it is kept."""
    record(journal, index, UndoRecord(rel))
    return node.rename(journal / f"{index:06d}.node")


def _nodes(root: Path, rec: UndoRecord) -> list[Path]:
    """The record's paths, resolved inside ``root`` without following the
    nodes themselves."""
    return [resolve_inside(root, rel, follow=False) for rel in rec.paths]


def _remove(node: Path) -> None:
    """Remove ``node`` whole, never following a link; a directory its owner
    cannot clear is made so first, since a restore sets directory modes last."""
    mode = node.lstat().st_mode
    if not stat.S_ISDIR(mode):
        node.unlink()
        return
    if mode & 0o700 != 0o700:
        node.chmod(0o700)
    for child in node.iterdir():
        _remove(child)
    node.rmdir()


def _undo(root: Path, saved: Path, rec: UndoRecord) -> None:
    nodes = _nodes(root, rec)
    for node in nodes[: len(rec.added)]:
        try:
            _remove(node)
        except (FileNotFoundError, NotADirectoryError):
            pass  # never created, or already undone
    if rec.moved is not None and os.path.lexists(saved):  # absent: undone already, or a move that never ran
        os.replace(saved, nodes[-1])


@contextmanager
def journaled(sandbox: str | Path):
    """Under the sandbox lock: begin the journal and yield it; undo the
    block's writes if it raises, else commit."""
    journal = begin(sandbox)
    try:
        yield journal
    except BaseException:
        roll_back(sandbox)
        raise
    commit(journal)


def commit(journal: Path) -> None:
    """Commit the write the journal undoes, then drop the journal."""
    (journal / MARKER).rename(journal / COMMITTED)
    _drop(journal, COMMITTED)


def _drop(journal: Path, marker: str) -> None:
    """Remove the journal: its records and saved nodes (files or links),
    then its marker, then the empty directory."""
    for entry in list(journal.iterdir()):
        if entry.name != marker:
            entry.unlink()
    (journal / marker).unlink()
    journal.rmdir()


def roll_back(sandbox: str | Path) -> None:
    """Undo the sandbox's journal newest first, then drop it; a committed
    journal is only dropped. A sandbox with no journal is left alone, and so
    is a directory that is not a journal."""
    journal = journal_dir(sandbox)
    if (journal / COMMITTED).is_file():
        _drop(journal, COMMITTED)
        return
    if not (journal / MARKER).is_file():
        try:
            journal.rmdir()  # empty: cut between mkdir and marker, or marker and rmdir
        except OSError:
            pass  # absent, or not ours
        return
    root = Path(sandbox).resolve()
    records = []
    for path in sorted(journal.glob("*.json"), reverse=True):  # all read and resolved before any is undone
        rec = from_doc(UndoRecord, read_json(path, MalformedJournal), MalformedJournal, f"{path}: bad undo record")
        try:
            _nodes(root, rec)
        except SymlinkOutsideRoot as exc:
            raise MalformedJournal(f"{path}: undo record leads out of the sandbox: {exc}") from exc
        records.append((path, rec))
    for path, rec in records:
        _undo(root, path.with_suffix(".node"), rec)
        path.unlink()
    _drop(journal, MARKER)
