"""Undo journal for in-place writes to a sandbox.

A patch writes the sandbox in place and keeps what it needs to undo each op
in ``<sandbox>.journal/``, a sibling of the sandbox (so renames between the
two stay on one filesystem). ``begin`` creates the journal with a marker
file; a directory without the marker is not a journal and is never read or
removed. Op ``i`` has one record, ``{i:06d}.json``, published whole by
``jsonfile.write_json``: the node it changes (relative to the resolved
sandbox), whether the original node is saved as ``{i:06d}.node``, and the
directories the op creates, deepest first. A replaced or deleted file (or a
deleted link) is renamed to its ``.node`` once the record is written, so
undoing any op is one rename back or one removal. An op touches the sandbox
only once its record is complete.

A patch whose ops all ran commits by renaming the marker to the committed
marker, one atomic step; from then on the journal is only dropped, never
undone. ``roll_back`` reads every record, and resolves its paths inside the
sandbox, before it undoes any, so a record of another shape or whose path
leads out undoes nothing. It undoes the records newest first and deletes
each one as soon as its op is undone, so the journal always lists only what
is still to undo and a roll-back cut short can be run again. Either way the
journal is dropped entry by entry with its marker last, so a drop cut short
leaves a journal that still says what it is, or an empty directory. The
writer lock calls ``roll_back`` on every acquisition, so the next writer
undoes a patch cut short by a crash, or finishes dropping a committed one.
The guarantee covers a process crash, not power loss: nothing here calls
``fsync``, so after a power cut the journal or the sandbox may hold data the
kernel never wrote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from twinforge.errors import MalformedJournal, SymlinkOutsideRoot
from twinforge.jsonfile import from_doc, read_json, write_json
from twinforge.twin.manifest import is_safe_rel_path, resolve_inside

MARKER = "twinforge-journal"
COMMITTED = "twinforge-journal.committed"


@dataclass(frozen=True)
class UndoRecord:
    path: str
    saved: bool  # the original node is kept as the record's .node
    created: tuple[str, ...]

    def __post_init__(self) -> None:
        if not all(map(is_safe_rel_path, (self.path, *self.created))):
            raise ValueError("paths must be relative and normalized")


def journal_dir(sandbox: str | Path) -> Path:
    root = Path(sandbox).resolve()
    return root.parent / (root.name + ".journal")


def begin(sandbox: str | Path) -> Path:
    """Create the sandbox's journal; call it under the writer lock, which has
    already rolled back any journal a crashed patch left."""
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


def record_add(journal: Path, index: int, rel: str, created: tuple[str, ...]) -> None:
    """Op ``index`` will create the absent node ``rel`` and the directories
    ``created``, deepest first."""
    record(journal, index, UndoRecord(rel, False, created))


def record_move(journal: Path, index: int, rel: str, node: Path) -> Path:
    """Take ``node`` out of the sandbox for op ``index``, which deletes or
    replaces it, by moving it, a file or a link itself, into the journal
    once the record says so; returns where it is kept."""
    record(journal, index, UndoRecord(rel, True, ()))
    return node.rename(journal / f"{index:06d}.node")


def _discard(path: Path, remove) -> None:
    try:
        remove(path)
    except (FileNotFoundError, NotADirectoryError):
        pass  # never created, or already undone


def _nodes(root: Path, rec: UndoRecord) -> list[Path]:
    """The record's node and then the directories it created, resolved
    inside ``root`` without following the nodes themselves."""
    return [resolve_inside(root, rel, follow=False) for rel in (rec.path, *rec.created)]


def _undo(root: Path, saved: Path, rec: UndoRecord) -> None:
    node, *created = _nodes(root, rec)
    if not rec.saved:
        _discard(node, Path.unlink)
    elif os.path.lexists(saved):  # absent: undone already, or a move that never ran
        os.replace(saved, node)
    for path in created:
        _discard(path, Path.rmdir)


def commit(journal: Path) -> None:
    """Commit the patch the journal undoes, then drop the journal."""
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
