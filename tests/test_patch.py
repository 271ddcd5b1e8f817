"""Patch application: op semantics, atomicity, checks, locking."""

from __future__ import annotations

import copy
import json
import os
import re
import stat
import tempfile
import threading
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinforge.cli import main
from twinforge.config import WORKSPACE_ENV
from twinforge.errors import (
    AddExisting,
    ConfigKeyMissing,
    DanglingSymlink,
    DeleteMissing,
    MalformedChecks,
    MalformedJournal,
    MalformedPatch,
    ReplaceMissing,
    SandboxNotEmpty,
    SymlinkOutsideRoot,
    TwinLocked,
)
from twinforge.twin import journal, patch
from twinforge.twin.checks import CheckSpec, ConfigEquals, FileExists, HashEquals, checks_from_doc, run_checks
from twinforge.twin.image import capture_image, load_image, save_image
from twinforge.twin.journal import UndoRecord, begin as begin_journal, journal_dir, record
from twinforge.twin.manifest import TwinDiff, diff_states, scan_tree, sha256_hex, walk_tree
from twinforge.twin.patch import (
    AddFile,
    DeleteFile,
    PatchDelta,
    ReplaceFile,
    SetConfig,
    apply_patch,
    delta_from_doc,
    load_delta,
)
from twinforge.twin.sandbox import TwinState, instantiate_twin, sandbox_lock

from conftest import CUT, RAN_THROUGH, UNNORMALIZED_PATHS, build_twin_tree, held_by_child, python_child, run_cut_at


@pytest.fixture()
def twin(twin_tree, tmp_path):
    return instantiate_twin(capture_image(twin_tree), tmp_path / "sandbox")


def test_add_file(twin):
    before = scan_tree(twin.sandbox)
    report = apply_patch(twin, PatchDelta((AddFile("bin/newtool", b"#!/bin/sh\n"),)))
    assert report.applied == ("add_file bin/newtool",)
    diff = diff_states(before, report.manifest)
    assert diff.added == ("bin/newtool",)
    added = {e.path: e for e in report.manifest}["bin/newtool"]
    assert added.size == len(b"#!/bin/sh\n")


def test_replace_and_delete_and_set_config(twin):
    delta = PatchDelta(
        (
            ReplaceFile("docs/readme.txt", b"updated\n"),
            DeleteFile("apps/files"),
            SetConfig("etc/app.conf", "mode", "fast"),
        )
    )
    report = apply_patch(twin, delta)
    assert (twin.sandbox / "docs/readme.txt").read_bytes() == b"updated\n"
    assert not (twin.sandbox / "apps/files").exists()
    conf = (twin.sandbox / "etc/app.conf").read_text(encoding="utf-8")
    assert "mode=fast" in conf and "retries=3" in conf
    assert len(report.applied) == 3


def test_empty_delta_is_identity(twin):
    before = scan_tree(twin.sandbox)
    report = apply_patch(twin, PatchDelta(()))
    assert report.applied == ()
    assert diff_states(before, report.manifest) == TwinDiff((), (), ())


@pytest.mark.parametrize(
    "delta,err",
    [
        (PatchDelta((DeleteFile("no/such/file"),)), DeleteMissing),
        (PatchDelta((ReplaceFile("no/such/file", b"x"),)), ReplaceMissing),
        (PatchDelta((AddFile("docs/readme.txt", b"x"),)), AddExisting),
        (PatchDelta((SetConfig("etc/app.conf", "absent", "v"),)), ConfigKeyMissing),
        (PatchDelta((SetConfig("etc/ghost.conf", "mode", "v"),)), ConfigKeyMissing),
    ],
)
def test_failing_op_leaves_manifest_unchanged(twin, delta, err):
    before = scan_tree(twin.sandbox)
    with pytest.raises(err):
        apply_patch(twin, delta)
    assert scan_tree(twin.sandbox) == before


def test_third_op_failure_rolls_back_first_two(twin):
    before = scan_tree(twin.sandbox)
    delta = PatchDelta(
        (
            AddFile("bin/tool-a", b"a"),
            ReplaceFile("docs/readme.txt", b"poisoned\n"),
            DeleteFile("not/there"),  # fails
        )
    )
    with pytest.raises(DeleteMissing):
        apply_patch(twin, delta)
    assert scan_tree(twin.sandbox) == before
    assert (twin.sandbox / "docs/readme.txt").read_text(encoding="utf-8") == "local system under test\n"
    assert not (twin.sandbox / "bin/tool-a").exists()


def test_patch_path_validation():
    with pytest.raises(MalformedPatch):
        AddFile("/abs/path", b"x")
    with pytest.raises(MalformedPatch):
        DeleteFile("a/../b")
    with pytest.raises(MalformedPatch):
        DeleteFile("a\x00b")
    with pytest.raises(MalformedPatch):
        SetConfig("etc/app.conf", "a=b", "v")


@pytest.mark.parametrize("path", UNNORMALIZED_PATHS)
def test_op_paths_must_be_normalized_utf8(path):
    for make in (
        lambda: AddFile(path, b"x"),
        lambda: ReplaceFile(path, b"x"),
        lambda: DeleteFile(path),
        lambda: SetConfig(path, "k", "v"),
        lambda: delta_from_doc([{"op": "add_file", "path": path, "content": "x"}]),
    ):
        with pytest.raises(MalformedPatch, match="bad op path"):
            make()


def test_delta_json_round_trip(twin, tmp_path):
    doc = [
        {"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\n"},
        {"op": "set_config", "file": "etc/app.conf", "key": "retries", "value": "5"},
    ]
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    delta = load_delta(path)
    assert delta.ops[0] == AddFile("bin/newtool", b"#!/bin/sh\n")
    assert delta.ops[1] == SetConfig("etc/app.conf", "retries", "5")
    apply_patch(twin, delta)
    assert "retries=5" in (twin.sandbox / "etc/app.conf").read_text(encoding="utf-8")


def test_delta_base64_content(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps([{"op": "add_file", "path": "bin/blob", "content": "AAEC", "encoding": "base64"}]))
    assert load_delta(path).ops[0].content == b"\x00\x01\x02"


@pytest.mark.parametrize(
    "doc",
    [
        {"not": "a list"},
        [{"op": "warp", "path": "x"}],
        [{"op": "add_file", "path": "x"}],  # missing content
        [{"op": "add_file", "path": "x", "content": "e", "encoding": "ebcdic"}],
        [{"op": ["add_file"], "path": "x", "content": "e"}],
        [{"op": "delete_file", "path": 5}],
        [{"op": "add_file", "path": ["x"], "content": "e"}],
        [{"op": "add_file", "path": "x", "content": 5}],
        [{"op": "set_config", "file": "f", "key": 5, "value": "v"}],
    ],
)
def test_malformed_delta_docs(tmp_path, doc):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedPatch):
        load_delta(path)


@pytest.mark.parametrize(
    "item, key",
    [
        ({"op": "add_file", "path": "x.bin", "content": "aGk=", "encodng": "base64"}, "encodng"),
        ({"op": "replace_file", "path": "x", "content": "v", "mode": 493}, "mode"),
        ({"op": "delete_file", "path": "x", "content": "v"}, "content"),
        ({"op": "set_config", "file": "f", "key": "k", "value": "v", "encoding": "base64"}, "encoding"),
    ],
)
def test_unknown_op_key_is_refused(item, key):
    with pytest.raises(MalformedPatch, match=f"op 1: unknown key '{key}'"):
        delta_from_doc([{"op": "delete_file", "path": "y"}, item])


@pytest.mark.parametrize(
    "item, key",
    [
        ({"check": "file_exists", "path": "x", "sha256": "0" * 64}, "sha256"),
        ({"check": "hash_equals", "path": "x", "sha256": "0" * 64, "sha": "0"}, "sha"),
        ({"check": "config_equals", "file": "f", "key": "k", "value": "v", "path": "f"}, "path"),
    ],
)
def test_unknown_check_key_is_refused(item, key):
    with pytest.raises(MalformedChecks, match=f"check 1: unknown key '{key}'"):
        checks_from_doc([{"check": "file_exists", "path": "y"}, item])


@pytest.mark.parametrize(
    "item",
    [
        {"check": {"file_exists": 1}, "path": "x"},
        {"check": "hash_equals", "path": "x", "sha256": 5},
        {"check": "config_equals", "file": "f", "key": True, "value": "v"},
        {"check": "file_exists", "path": None},
    ],
)
def test_malformed_check_fields_are_refused(item):
    with pytest.raises(MalformedChecks, match="check 0: "):
        checks_from_doc([item])


@pytest.mark.parametrize("value", [{"a": 1}, [1], None, True, False])
def test_config_value_must_be_a_string_or_a_number(value):
    with pytest.raises(MalformedPatch, match="op 0: 'value'"):
        delta_from_doc([{"op": "set_config", "file": "f", "key": "k", "value": value}])
    with pytest.raises(MalformedChecks, match="check 0: 'value'"):
        checks_from_doc([{"check": "config_equals", "file": "f", "key": "k", "value": value}])


def test_numeric_config_values_are_their_json_text():
    delta = delta_from_doc([{"op": "set_config", "file": "f", "key": "k", "value": 5}])
    assert delta.ops[0].value == "5"
    spec = checks_from_doc([{"check": "config_equals", "file": "f", "key": "k", "value": 0.5}])
    assert spec.assertions[0].value == "0.5"


def test_sandbox_lock_excludes_second_writer(twin):
    with held_by_child(twin.sandbox):
        with pytest.raises(TwinLocked):
            apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"),)))


def test_run_checks(twin):
    apply_patch(twin, PatchDelta((ReplaceFile("docs/readme.txt", b"v2\n"),)))
    manifest = {e.path: e for e in scan_tree(twin.sandbox)}
    spec = CheckSpec(
        (
            FileExists("bin/chrome.exe"),
            FileExists("bin/ghost"),
            HashEquals("docs/readme.txt", manifest["docs/readme.txt"].sha256),
            HashEquals("docs/readme.txt", "0" * 64),
            ConfigEquals("etc/app.conf", "mode", "safe"),
            ConfigEquals("etc/app.conf", "mode", "fast"),
        )
    )
    results = run_checks(twin, spec)
    assert [r.passed for r in results] == [True, False, True, False, True, False]
    assert "expected" in results[3].detail and manifest["docs/readme.txt"].sha256 in results[3].detail


def test_check_spec_requires_assertions():
    with pytest.raises(ValueError):
        CheckSpec(())


def test_run_checks_match_a_full_scan(twin, tmp_path):
    """``run_checks`` hashes only what it names, with the same results as an
    evaluation over a full ``scan_tree`` manifest."""
    (twin.sandbox / "bin" / "alias").symlink_to("../apps/gedit")
    (twin.sandbox / "apps" / "more").symlink_to("../docs")
    (twin.sandbox / "docs" / "nested" / "deep").mkdir(parents=True)
    (twin.sandbox / "docs" / "nested" / "deep" / "notes.txt").write_bytes(b"deep\n")
    manifest = {e.path: e for e in scan_tree(twin.sandbox)}
    paths = sorted(manifest) + ["missing", "bin/missing"]
    assertions = []
    for path in paths:
        sha = manifest[path].sha256 if path in manifest else None
        assertions += [FileExists(path), HashEquals(path, sha or "0" * 64), HashEquals(path, "f" * 64)]

    expected = []
    for a in assertions:
        entry = manifest.get(a.path)
        if entry is None or entry.kind != "file":
            expected.append((False, "no such file"))
        elif isinstance(a, FileExists):
            expected.append((True, "present"))
        elif entry.sha256 == a.sha256:
            expected.append((True, "hash matches"))
        else:
            expected.append((False, f"expected {a.sha256}, got {entry.sha256}"))
    results = run_checks(twin, CheckSpec(tuple(assertions)))
    assert [(r.passed, r.detail) for r in results] == expected
    assert any(passed for passed, _ in expected)

    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"elsewhere\n")
    (twin.sandbox / "docs" / "nested" / "escape").symlink_to(outside)
    with pytest.raises(SymlinkOutsideRoot):
        run_checks(twin, CheckSpec((FileExists("bin/term"),)))


@pytest.mark.parametrize("path", ["/etc/outside.conf", "../outside.conf", "etc/../../outside.conf", *UNNORMALIZED_PATHS])
@pytest.mark.parametrize("kind", ["file_exists", "hash_equals", "config_equals"])
def test_check_paths_must_stay_inside_the_sandbox(kind, path):
    item = {"check": kind, "path": path}
    if kind == "hash_equals":
        item["sha256"] = "0" * 64
    if kind == "config_equals":
        item = {"check": kind, "file": path, "key": "secret", "value": "x"}
    with pytest.raises(MalformedChecks, match="check 1: path"):
        checks_from_doc([{"check": "file_exists", "path": "bin/term"}, item])


def test_config_check_never_reads_outside_the_sandbox(twin, tmp_path):
    outside = tmp_path / "outside.conf"
    outside.write_text("secret=hunter2\n", encoding="utf-8")
    for rel in (str(outside), "../outside.conf"):
        with pytest.raises(SymlinkOutsideRoot):
            run_checks(twin, CheckSpec((ConfigEquals(rel, "secret", "x"),)))
    (twin.sandbox / "etc" / "leak.conf").symlink_to(outside)
    with pytest.raises(SymlinkOutsideRoot):
        run_checks(twin, CheckSpec((ConfigEquals("etc/leak.conf", "secret", "x"),)))


def test_config_checks_read_each_file_once(twin, monkeypatch):
    reads = []
    original = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self.name) or original(self))
    spec = CheckSpec(
        (
            ConfigEquals("etc/app.conf", "mode", "safe"),
            ConfigEquals("etc/app.conf", "retries", "3"),
            ConfigEquals("etc/app.conf", "mode", "fast"),
            ConfigEquals("etc/missing.conf", "mode", "safe"),
        )
    )
    results = run_checks(twin, spec)
    assert [(r.passed, r.detail) for r in results] == [
        (True, "value matches"),
        (True, "value matches"),
        (False, "expected 'fast', got 'safe'"),
        (False, "no such config file"),
    ]
    assert reads == ["app.conf"]


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_set_config_keeps_every_line_end(twin, newline):
    """A set_config once rewrote every CRLF or lone CR of the file as LF."""
    conf = twin.sandbox / "etc" / "app.conf"
    conf.write_bytes(newline.join(["mode=safe", "retries=3", "", "log_level=info", ""]).encode("utf-8"))
    apply_patch(twin, PatchDelta((SetConfig("etc/app.conf", "retries", "5"),)))
    assert conf.read_bytes() == newline.join(["mode=safe", "retries=5", "", "log_level=info", ""]).encode("utf-8")


# -- in-place patch: confinement, the lock, fault injection, crash recovery ------


def test_ops_never_write_outside_the_sandbox(twin, tmp_path):
    outside_file = tmp_path / "outside.txt"
    outside_file.write_bytes(b"keep\n")
    outside_dir = tmp_path / "outside"
    outside_dir.mkdir()
    before = scan_tree(twin.sandbox)
    (twin.sandbox / "leak").symlink_to(outside_file)
    (twin.sandbox / "dirleak").symlink_to(outside_dir)
    for op in (
        ReplaceFile("leak", b"overwritten\n"),
        AddFile("dirleak/new.txt", b"planted\n"),
        SetConfig("leak", "keep", "no"),
        DeleteFile("dirleak/anything"),
    ):
        with pytest.raises(SymlinkOutsideRoot):
            apply_patch(twin, PatchDelta((AddFile("bin/first", b"x"), op)))
        assert outside_file.read_bytes() == b"keep\n"
        assert list(outside_dir.iterdir()) == []
    (twin.sandbox / "leak").unlink()
    (twin.sandbox / "dirleak").unlink()
    assert scan_tree(twin.sandbox) == before
    assert not journal_dir(twin.sandbox).exists()


def test_ops_through_an_inside_link_are_undone_exactly(twin):
    link = twin.sandbox / "docs" / "current"
    link.symlink_to("readme.txt")
    readme = twin.sandbox / "docs" / "readme.txt"
    before = scan_tree(twin.sandbox)
    delta = PatchDelta(
        (ReplaceFile("docs/current", b"v2\n"), DeleteFile("docs/current"), DeleteFile("not/there"))
    )
    with pytest.raises(DeleteMissing):
        apply_patch(twin, delta)
    assert link.is_symlink() and os.readlink(link) == "readme.txt"
    assert readme.read_bytes() == b"local system under test\n"
    assert scan_tree(twin.sandbox) == before

    apply_patch(twin, PatchDelta((ReplaceFile("docs/current", b"v2\n"),)))
    assert link.is_symlink() and readme.read_bytes() == b"v2\n"


def test_a_held_lock_adds_nothing_to_the_sandbox_and_covers_every_spelling(twin, tmp_path):
    listing = sorted(os.listdir(twin.sandbox))
    alias = tmp_path / "alias"
    alias.symlink_to(twin.sandbox)
    with held_by_child(twin.sandbox):
        assert sorted(os.listdir(twin.sandbox)) == listing
        with pytest.raises(TwinLocked):
            apply_patch(TwinState(alias), PatchDelta((AddFile("bin/x", b"x"),)))
    assert sorted(os.listdir(twin.sandbox)) == listing
    apply_patch(TwinState(alias), PatchDelta((AddFile("bin/x", b"x"),)))
    assert (twin.sandbox / "bin" / "x").read_bytes() == b"x"


def test_a_nested_hold_keeps_the_open_journal_and_the_lock(twin, tmp_path):
    """A process holds a directory once: asked for it again, by any
    spelling, the lock takes no second ``flock``, which would refuse it, and
    rolls back nothing, so the write the outer hold guards stays open and
    other processes stay out until the outer hold ends."""
    alias = tmp_path / "alias"
    alias.symlink_to(twin.sandbox)
    added = twin.sandbox / "bin" / "x"
    with sandbox_lock(twin.sandbox), journal.journaled(twin.sandbox) as open_journal:
        record(open_journal, 0, UndoRecord(None, ("bin/x",)))
        added.write_bytes(b"x")
        with sandbox_lock(alias):
            assert added.read_bytes() == b"x"
        assert (open_journal / journal.MARKER).is_file() and added.read_bytes() == b"x"
        with pytest.raises(TwinLocked):
            with held_by_child(twin.sandbox):
                pass
    assert added.read_bytes() == b"x" and not journal_dir(twin.sandbox).exists()
    with held_by_child(twin.sandbox):
        pass


def test_a_second_thread_is_locked_out_of_a_held_sandbox(twin):
    """Each hold is keyed by thread too: a second thread of the holding
    process once took no ``flock`` and read the holder's half-written file,
    so its check failed on 'half' instead of raising ``TwinLocked``."""
    written, release = threading.Event(), threading.Event()

    def holder():
        with sandbox_lock(twin.sandbox):
            (twin.sandbox / "etc" / "app.conf").write_text("mode=half\n", encoding="utf-8")
            written.set()
            release.wait(10)

    spec = CheckSpec((ConfigEquals("etc/app.conf", "mode", "fast"),))
    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert written.wait(10)
        with pytest.raises(TwinLocked):
            run_checks(twin, spec)
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert run_checks(twin, spec)[0].detail == "expected 'fast', got 'half'"


def test_a_dangling_link_is_a_typed_error_that_names_it(twin_tree, tmp_path):
    """The walk refuses a link that leads to nothing, so capture, checks and
    the final scan of a patch, which rolls the patch back, all say which."""
    link = twin_tree / "etc" / "dangling"
    link.symlink_to("missing")
    with pytest.raises(DanglingSymlink, match="etc/dangling -> missing"):
        capture_image(twin_tree)
    link.unlink()
    twin = instantiate_twin(capture_image(twin_tree), tmp_path / "sandbox")
    before = scan_tree(twin.sandbox)
    (twin.sandbox / "etc" / "dangling").symlink_to("missing")
    with pytest.raises(DanglingSymlink, match="etc/dangling -> missing"):
        run_checks(twin, CheckSpec((FileExists("etc/dangling"),)))
    with pytest.raises(DanglingSymlink, match="etc/dangling -> missing"):
        apply_patch(twin, PatchDelta((ReplaceFile("docs/readme.txt", b"v2\n"),)))
    assert (twin.sandbox / "docs" / "readme.txt").read_bytes() == b"local system under test\n"
    assert not journal_dir(twin.sandbox).exists()
    (twin.sandbox / "etc" / "dangling").unlink()
    assert scan_tree(twin.sandbox) == before
    # a link that leads round to itself leads to nothing too
    (twin.sandbox / "loop").symlink_to("loop")
    with pytest.raises(DanglingSymlink, match="loop -> loop"):
        scan_tree(twin.sandbox)


def test_patch_while_a_child_holds_the_lock_changes_nothing(twin):
    before = scan_tree(twin.sandbox)
    with held_by_child(twin.sandbox):
        with pytest.raises(TwinLocked):
            apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"), DeleteFile("apps/files"))))
    assert scan_tree(twin.sandbox) == before
    assert not journal_dir(twin.sandbox).exists()


# Every op kind, on files with executable and restricted modes; the add
# creates three directories.
ALL_KINDS = [
    {"op": "add_file", "path": "opt/vendor/bin/agent", "content": "#!/bin/sh\nexit 0\n"},
    {"op": "replace_file", "path": "bin/term", "content": "terminal v2\n"},
    {"op": "delete_file", "path": "bin/featherpad"},
    {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"},
]


@pytest.fixture()
def mode_twin(twin_tree, tmp_path):
    (twin_tree / "bin" / "term").chmod(0o755)
    (twin_tree / "bin" / "featherpad").chmod(0o750)
    (twin_tree / "etc" / "app.conf").chmod(0o640)
    return instantiate_twin(capture_image(twin_tree), tmp_path / "sandbox")


def _state(twin):
    """Everything a rolled-back patch must restore: the manifest (bytes,
    modes, directories) and the absent journal."""
    return scan_tree(twin.sandbox), journal_dir(twin.sandbox).exists()


@pytest.mark.parametrize("stage", ["recorded", "applied"])
@pytest.mark.parametrize("fail_at", range(len(ALL_KINDS)))
def test_fault_after_any_op_restores_the_tree(mode_twin, monkeypatch, stage, fail_at):
    before = _state(mode_twin)
    assert {e.path: e.mode for e in before[0]}["bin/term"] == 0o755
    real_record, real_apply = journal.record, patch._apply_op

    def record(journal, index, rec):
        real_record(journal, index, rec)
        if stage == "recorded" and index == fail_at:
            raise OSError("injected fault")

    def apply(root, journal, index, op):
        real_apply(root, journal, index, op)
        if stage == "applied" and index == fail_at:
            raise OSError("injected fault")

    monkeypatch.setattr(journal, "record", record)
    monkeypatch.setattr(patch, "record", record)  # an add records through the name patch imports
    monkeypatch.setattr(patch, "_apply_op", apply)
    with pytest.raises(OSError, match="injected fault"):
        apply_patch(mode_twin, delta_from_doc(ALL_KINDS))
    assert _state(mode_twin) == before
    assert not (mode_twin.sandbox / "opt").exists()


@pytest.mark.parametrize("kill_after", [0, len(ALL_KINDS) - 1])
def test_patch_killed_midway_is_undone_by_the_next_writer(mode_twin, tmp_path, kill_after):
    before = _state(mode_twin)
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps(ALL_KINDS), encoding="utf-8")
    code = (
        "import time; from pathlib import Path; from twinforge.twin import patch;"
        "from twinforge.twin.sandbox import TwinState\n"
        "real = patch._apply_op\n"
        "def apply(root, journal, index, op):\n"
        "    real(root, journal, index, op)\n"
        f"    if index == {kill_after}:\n"
        "        print('applied', flush=True); time.sleep(60)\n"
        "patch._apply_op = apply\n"
        f"patch.apply_patch(TwinState(Path({str(mode_twin.sandbox)!r})), patch.load_delta({str(delta)!r}))"
    )
    with python_child(code) as child:
        assert child.stdout.readline() == "applied\n"
    journal = journal_dir(mode_twin.sandbox)
    assert len(list(journal.glob("*.json"))) == kill_after + 1
    assert scan_tree(mode_twin.sandbox) != before[0]

    with sandbox_lock(mode_twin.sandbox):
        pass
    assert _state(mode_twin) == before


def test_add_under_a_file_is_refused_and_undone(twin):
    before = _state(twin)
    delta = PatchDelta((AddFile("bin/x", b"x"), AddFile("etc/app.conf/x", b"x")))
    with pytest.raises(AddExisting, match="etc/app.conf is not a directory"):
        apply_patch(twin, delta)
    assert _state(twin) == before
    apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"),)))
    assert (twin.sandbox / "bin/x").read_bytes() == b"x"


def test_undo_of_an_add_under_a_file_completes(twin):
    """A record whose added node lies under a file (as an add through a file
    would leave) is undone without error."""
    before = _state(twin)
    with sandbox_lock(twin.sandbox):
        jdir = begin_journal(twin.sandbox)
        record(jdir, 0, UndoRecord(None, ("etc/app.conf/x",)))
    with sandbox_lock(twin.sandbox):
        pass
    assert _state(twin) == before


def test_undo_record_file_keys_are_pinned(twin_tree, tmp_path, monkeypatch):
    """Field names become on-disk keys, so renaming a field must fail here.
    An add records the highest node it creates, a delete or rewrite the
    file it moves, and a restore its top-level names and the ``tmp`` it
    makes."""
    docs, real_record = [], journal.record

    def spy(jdir, index, rec):
        real_record(jdir, index, rec)
        docs.append(json.loads((jdir / f"{index:06d}.json").read_text(encoding="utf-8")))

    for name in ("journal", "patch", "sandbox"):  # each name ``record`` is called through
        monkeypatch.setattr(f"twinforge.twin.{name}.record", spy)
    image = capture_image(twin_tree)
    twin = instantiate_twin(image, tmp_path / "sandbox")
    names = [entry.path for entry in image.manifest if "/" not in entry.path]
    assert "tmp" not in names and docs == [{"moved": None, "added": [*names, "tmp"]}]
    docs.clear()
    ops = (AddFile("opt/vendor/agent", b"x"), AddFile("bin/x", b"x"), DeleteFile("bin/term"),
           ReplaceFile("docs/readme.txt", b"v2\n"), SetConfig("etc/app.conf", "mode", "fast"))
    apply_patch(twin, PatchDelta(ops))
    assert docs == [
        {"moved": None, "added": ["opt"]},
        {"moved": None, "added": ["bin/x"]},
        {"moved": "bin/term", "added": []},
        {"moved": "docs/readme.txt", "added": []},
        {"moved": "etc/app.conf", "added": []},
    ]


def test_a_journal_in_the_older_record_shape_is_refused_and_undoes_nothing(twin, tmp_path, capsys):
    """Records of the older shape (``path``, ``saved``, ``created``,
    ``added``), a restore's and an add's, are refused whole: every command
    that opens the sandbox exits 2 and the tree and the journal stay as
    they are."""
    (twin.sandbox / "new").mkdir()
    (twin.sandbox / "new" / "x").write_bytes(b"x")
    jdir = journal_dir(twin.sandbox)
    jdir.mkdir()
    (jdir / journal.MARKER).touch()
    older = [
        {"path": "tmp", "saved": False, "created": [], "added": ["apps", "bin", "docs", "etc"]},
        {"path": "new/x", "saved": False, "created": ["new"]},
    ]
    for index, doc in enumerate(older):
        (jdir / f"{index:06d}.json").write_text(json.dumps(doc), encoding="utf-8")
    listing = sorted(p.name for p in jdir.iterdir())
    before = scan_tree(twin.sandbox)
    with pytest.raises(MalformedJournal, match="bad undo record: unknown key 'path'"):
        journal.roll_back(twin.sandbox)
    checks = tmp_path / "checks.json"
    checks.write_text(json.dumps([{"check": "file_exists", "path": "bin/term"}]), encoding="utf-8")
    assert main(["twin", "check", "--sandbox", str(twin.sandbox), "--checks", str(checks)]) == 2
    assert "bad undo record" in capsys.readouterr().err
    assert scan_tree(twin.sandbox) == before
    assert sorted(p.name for p in jdir.iterdir()) == listing


@pytest.mark.parametrize(
    "doc",
    [
        {"moved": None, "added": "tm"},
        {"moved": None, "added": ["tm", 5]},
        {"moved": False, "added": []},
        {"moved": 5, "added": []},
        {"added": ["tm"]},
        [None, ["tm"]],
    ],
)
def test_a_malformed_undo_record_undoes_nothing(twin, doc):
    """A record whose list of nodes is the string "tm" once made the
    roll-back remove the sandbox's ``t/`` and ``m/``. Every record is read
    before anything is undone, so the valid newer record is not undone
    either."""
    for name in ("t", "m", "new"):
        (twin.sandbox / name).mkdir()
    with sandbox_lock(twin.sandbox):
        jdir = begin_journal(twin.sandbox)
        (jdir / "000000.json").write_text(json.dumps(doc), encoding="utf-8")
        record(jdir, 1, UndoRecord(None, ("new",)))
    before = _state(twin)
    with pytest.raises(MalformedJournal, match="000000.json: bad undo record"):
        journal.roll_back(twin.sandbox)
    assert _state(twin) == before
    assert all((twin.sandbox / name).is_dir() for name in ("t", "m", "new"))


@pytest.mark.parametrize(
    "doc",
    [
        {"moved": None, "added": ["../outside/victim"]},
        {"moved": None, "added": ["new", "../outside/empty"]},
        {"moved": None, "added": ["hop/victim"]},
        {"moved": None, "added": ["new", "hop/empty"]},
        {"moved": "../outside/victim", "added": []},
        {"moved": "hop/victim", "added": []},
    ],
    ids=["dotdot-added", "dotdot-second-added", "link-added", "link-second-added", "dotdot-moved", "link-moved"],
)
def test_an_undo_record_leading_out_of_the_sandbox_undoes_nothing(twin, doc):
    """A record once made the next writer delete the file ``../outside/victim``
    (or remove a directory there), joined to the sandbox as written or
    reached through an inside link that leads out; a moved path would have
    its saved node renamed over that file. Each record is now checked by the
    path rule and resolved before any is undone."""
    outside = twin.sandbox.parent / "outside"
    (outside / "empty").mkdir(parents=True)
    (outside / "victim").write_bytes(b"keep\n")
    (twin.sandbox / "hop").symlink_to(outside)
    (twin.sandbox / "new").mkdir()
    with sandbox_lock(twin.sandbox):
        jdir = begin_journal(twin.sandbox)
        (jdir / "000000.json").write_text(json.dumps(doc), encoding="utf-8")
        (jdir / "000000.node").write_bytes(b"planted\n")
        record(jdir, 1, UndoRecord(None, ("new",)))
    before = capture_image(twin.sandbox, ("hop",)).manifest
    with pytest.raises(MalformedJournal, match="000000.json: "):
        journal.roll_back(twin.sandbox)
    assert capture_image(twin.sandbox, ("hop",)).manifest == before
    assert sorted(p.name for p in jdir.iterdir()) == ["000000.json", "000000.node", "000001.json", journal.MARKER]
    assert (outside / "victim").read_bytes() == b"keep\n"
    assert (outside / "empty").is_dir()


class _Killed(BaseException):
    pass


@pytest.mark.parametrize(
    "ops",
    [
        (AddFile("new/a", b"a"), ReplaceFile("new/a", b"b")),
        (DeleteFile("docs/readme.txt"), AddFile("docs/readme.txt", b"b")),
    ],
)
def test_roll_back_cut_short_resumes(twin, monkeypatch, ops):
    """A roll-back killed right after undoing op 0 is finished by the next
    writer, which must not undo op 1 a second time: that would write into
    the directory op 0's undo removed, or delete the file it put back."""
    before = _state(twin)
    real_undo = journal._undo

    def undo(root, saved, rec):
        real_undo(root, saved, rec)
        if saved.stem == "000000":
            raise _Killed

    monkeypatch.setattr(journal, "_undo", undo)
    with pytest.raises(_Killed):
        apply_patch(twin, PatchDelta(ops + (DeleteFile("not/there"),)))
    assert journal_dir(twin.sandbox).exists()
    monkeypatch.undo()
    with sandbox_lock(twin.sandbox):
        pass
    assert _state(twin) == before


def test_a_directory_that_is_not_a_journal_is_left_alone(twin):
    foreign = journal_dir(twin.sandbox)
    foreign.mkdir()
    (foreign / "000000.json").write_text('{"moved": null, "added": ["bin/term"]}')
    before = _state(twin)
    with pytest.raises(MalformedJournal, match="not a twinforge journal"):
        apply_patch(twin, PatchDelta((DeleteFile("bin/term"),)))
    assert scan_tree(twin.sandbox) == before[0]
    assert [p.name for p in foreign.iterdir()] == ["000000.json"]

    # An empty one is what a patch killed before writing its marker leaves.
    (foreign / "000000.json").unlink()
    apply_patch(twin, PatchDelta((DeleteFile("bin/term"),)))
    assert not (twin.sandbox / "bin/term").exists() and not foreign.exists()


def test_refused_create_touches_nothing(twin_tree, tmp_path):
    sandbox = tmp_path / "busy"
    sandbox.mkdir()
    (sandbox / "keep.txt").write_text("keep\n")
    sibling = tmp_path / "busy.journal"
    sibling.mkdir()
    (sibling / "notes.json").write_text("{}")
    with pytest.raises(SandboxNotEmpty):
        instantiate_twin(capture_image(twin_tree), sandbox)
    assert sorted(p.name for p in sandbox.iterdir()) == ["keep.txt"]
    assert [p.name for p in sibling.iterdir()] == ["notes.json"]


def test_a_rewrite_changes_only_the_path_it_names_and_its_undo_puts_back_the_original(twin):
    """A replace or set_config moves the original file into the journal and
    writes a new one, with the original's mode, in its place: a hard link to
    the original keeps its bytes (a write in place once changed both names),
    and a failed patch puts back the original file itself."""
    readme, conf = twin.sandbox / "docs" / "readme.txt", twin.sandbox / "etc" / "app.conf"
    conf.chmod(0o640)
    os.link(readme, twin.sandbox / "docs" / "hard")
    os.link(conf, twin.sandbox / "etc" / "hard.conf")
    originals = {path: os.stat(path) for path in (readme, conf)}
    rewrites = (ReplaceFile("docs/readme.txt", b"v2\n"), SetConfig("etc/app.conf", "mode", "fast"))
    with pytest.raises(DeleteMissing):
        apply_patch(twin, PatchDelta(rewrites + (DeleteFile("not/there"),)))
    for path, was in originals.items():
        now = os.stat(path)
        assert (now.st_ino, now.st_mode, now.st_nlink) == (was.st_ino, was.st_mode, 2)

    apply_patch(twin, PatchDelta(rewrites))
    assert readme.read_bytes() == b"v2\n"
    assert conf.read_bytes() == b"mode=fast\nretries=3\nlog_level=info\n"
    assert (twin.sandbox / "docs" / "hard").read_bytes() == b"local system under test\n"
    assert (twin.sandbox / "etc" / "hard.conf").read_bytes() == b"mode=safe\nretries=3\nlog_level=info\n"
    for path, was in originals.items():
        now = os.stat(path)
        assert now.st_ino != was.st_ino and stat.S_IMODE(now.st_mode) == stat.S_IMODE(was.st_mode)
        assert now.st_nlink == 1


REWRITES = (ReplaceFile("bin/term", b"term v2\n"), SetConfig("etc/app.conf", "mode", "fast"))


def _tree(twin):
    """What a cut must leave as it was or as the patch makes it: the
    manifest (entries, bytes, modes), and the target of each link."""
    root = twin.sandbox
    links = tuple((rel, os.readlink(root / rel)) for rel, _ in walk_tree(root) if (root / rel).is_symlink())
    return scan_tree(root), links


def _linked_twin(image, sandbox):
    """A twin of ``image`` that also holds the inside link ``bin/editor``."""
    twin = instantiate_twin(image, sandbox)
    (twin.sandbox / "bin" / "editor").symlink_to("featherpad")
    return twin


def _patch(twin, ops) -> None:
    """Apply ``ops``; a patch whose op fails is rolled back."""
    try:
        apply_patch(twin, PatchDelta(ops))
    except DeleteMissing:
        pass


def _cut_at_every_mutation(make_twin, action, states) -> list:
    """Run ``action`` on a fresh ``make_twin(k)``, cut before its ``k``-th
    mutation, for k = 1, 2, ... until it runs through. After each cut the
    next writer must leave the tree in ``states`` with no journal, and the
    next patch must apply. Returns the recovered tree of each cut."""
    recovered = []
    while True:
        twin = make_twin(len(recovered) + 1)
        code = run_cut_at(len(recovered) + 1, lambda: action(twin))
        assert code in (CUT, RAN_THROUGH)
        with sandbox_lock(twin.sandbox):
            pass
        recovered.append(_tree(twin))
        assert recovered[-1] in states, f"cut at mutation {len(recovered)}"
        assert not journal_dir(twin.sandbox).exists()
        apply_patch(twin, PatchDelta((ReplaceFile("bin/term", b"next\n"),)))
        assert (twin.sandbox / "bin/term").read_bytes() == b"next\n"
        if code == RAN_THROUGH:
            return recovered


def test_a_rewrite_cut_at_any_mutation_leaves_the_pre_or_post_state(twin_tree, tmp_path):
    """A patch of a replace and a set_config, killed before each filesystem
    mutation it makes (the journal's marker, each record's create, write
    and rename, each move into the journal, each new file's create, write
    and chmod, and each step of the commit), is turned by the next writer
    into exactly the state before the patch or after it, with no journal
    left and the next patch applying."""
    (twin_tree / "bin" / "term").chmod(0o755)
    (twin_tree / "etc" / "app.conf").chmod(0o640)
    image = capture_image(twin_tree)
    post = instantiate_twin(image, tmp_path / "post")
    apply_patch(post, PatchDelta(REWRITES))
    states = {_tree(instantiate_twin(image, tmp_path / "pre")), _tree(post)}
    recovered = _cut_at_every_mutation(
        lambda k: instantiate_twin(image, tmp_path / f"cut{k}"), lambda twin: _patch(twin, REWRITES), states
    )
    assert len(recovered) > 20  # 24: the journal's three, seven for each op and seven for the commit


# Ops whose cuts land in the add and delete paths (an add that creates two
# directories, the delete of an inside link), and in the roll-back (two good
# ops, then one that fails), so the patch never commits.
CUT_MIXES = {
    "add-and-unlink": (AddFile("opt/vendor/agent", b"#!/bin/sh\n"), DeleteFile("bin/editor")),
    "roll-back": (AddFile("opt/vendor/agent", b"#!/bin/sh\n"), ReplaceFile("bin/term", b"term v2\n"),
                  DeleteFile("not/there")),
}


@pytest.mark.parametrize("mix", sorted(CUT_MIXES))
def test_an_add_delete_or_roll_back_cut_at_any_mutation_leaves_the_pre_or_post_state(twin_tree, tmp_path, mix):
    """As for a rewrite, each cut of an add, a delete of a link or a
    roll-back is recovered into the state before the patch or after it
    (a patch that fails has no after). For the add and unlink, the cut just
    before the commit is recovered again under a cut at each mutation of
    the recovery, which must still leave the state before the patch."""
    ops = CUT_MIXES[mix]
    (twin_tree / "bin" / "term").chmod(0o755)
    image = capture_image(twin_tree)
    pre, post = _linked_twin(image, tmp_path / "pre"), _linked_twin(image, tmp_path / "post")
    _patch(post, ops)
    states = {_tree(pre), _tree(post)}
    assert len(states) == (2 if mix == "add-and-unlink" else 1)
    recovered = _cut_at_every_mutation(
        lambda k: _linked_twin(image, tmp_path / f"cut{k}"), lambda twin: _patch(twin, ops), states
    )
    assert len(recovered) > 20  # one run per mutation (21 and 26), and the run that goes through
    if mix == "roll-back":
        return
    # the last cut the next writer undoes: every op ran, and the commit did not
    last = max(k for k, tree in enumerate(recovered, 1) if tree == _tree(pre))

    def cut_before_commit(m):
        twin = _linked_twin(image, tmp_path / f"recover{m}")
        assert run_cut_at(last, lambda: _patch(twin, ops)) == CUT
        return twin

    def recover(twin):
        with sandbox_lock(twin.sandbox):
            pass

    # 8: the link's move back, each record's removal, the added file's and its
    # two directories' removal, the marker's and the journal's
    assert len(_cut_at_every_mutation(cut_before_commit, recover, {_tree(pre)})) > 8


# A small valid document of each kind that ``main`` reads from the twin's
# command line, and the command that reads it.
VALID_DOCS = {
    "patch": [
        {"op": "add_file", "path": "opt/agent", "content": "#!/bin/sh\n"},
        {"op": "replace_file", "path": "bin/term", "content": "dGVybSB2Mgo=", "encoding": "base64"},
        {"op": "delete_file", "path": "docs/readme.txt"},
        {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"},
    ],
    "check": [
        {"check": "file_exists", "path": "bin/term"},
        {"check": "hash_equals", "path": "docs/readme.txt", "sha256": "0" * 64},
        {"check": "config_equals", "file": "etc/app.conf", "key": "retries", "value": 3},
    ],
}
_TEXT = st.sampled_from(["", "\ud800", "a\x00b", "a\nb", "..", "/etc", "é", "utf-8", "base64"]) | st.text(max_size=6)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=5,
)
_KEYS = st.sampled_from(["op", "check", "path", "file", "key", "value", "content", "encoding", "sha256"]) | _TEXT


def _nodes(doc, at=()):
    """The key path of every value in ``doc``, itself first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, (*at, key))


def _mutated(doc, mutation) -> bytes:
    """``doc``'s JSON bytes after ``mutation``: a JSON-aware edit of the
    value at one key path (replace it, drop it, or add a key or an item to
    it), or a byte edit (truncate, flip a byte, insert a NUL, CR or 0xFF)."""
    kind, pick, value, key = mutation
    if kind in ("replace", "drop", "add"):
        doc = copy.deepcopy(doc)
        paths = list(_nodes(doc))
        at = paths[pick % len(paths)]
        parent = doc
        for step in at[:-1]:
            parent = parent[step]
        node = parent[at[-1]] if at else doc
        if kind == "add" and isinstance(node, dict):
            node[key] = value
        elif kind == "add" and isinstance(node, list):
            node.append(value)
        elif kind == "drop" and at:
            del parent[at[-1]]
        elif at:
            parent[at[-1]] = value
        else:
            doc = value
        return json.dumps(doc).encode("utf-8")
    data = bytearray(json.dumps(doc).encode("utf-8"))
    offset = pick % (len(data) + 1)
    if kind == "truncate":
        del data[offset:]
    elif kind == "flip":
        data[offset % len(data)] ^= 1 + pick % 255
    else:
        data[offset:offset] = kind.encode("latin-1")
    return bytes(data)


@cache
def _mutation_image(basetemp: Path):
    return capture_image(build_twin_tree(basetemp / "mutation-source"))


# (kind, pick, value, key): the edit, the key path or byte offset it picks
# (modulo their number), and the value or key a JSON-aware edit puts in.
@settings(derandomize=True)
@example(command="patch", mutation=("replace", 4, "\ud800", ""))  # content that cannot be written as UTF-8
@example(command="patch", mutation=("replace", 17, "\ud800", ""))  # a set_config value likewise
@example(command="patch", mutation=("replace", 8, "é", ""))  # base64 content with a non-ASCII character
@example(command="patch", mutation=("\r", 1, None, ""))  # whitespace: the patch applies
@example(command="check", mutation=("\x00", 40, None, ""))
@example(command="check", mutation=("\xff", 0, None, ""))
@given(command=st.sampled_from(sorted(VALID_DOCS)), mutation=st.tuples(
    st.sampled_from(["replace", "drop", "add", "truncate", "flip", "\x00", "\r", "\xff"]),
    st.integers(0, 1 << 16), _VALUES, _KEYS,
))
def test_a_mutated_patch_or_check_document_exits_0_2_or_3_and_a_refusal_changes_nothing(
    tmp_path_factory, command, mutation
):
    """In the spirit of QuickCheck: ``twin patch`` or ``twin check`` of a
    valid document mutated JSON-aware or byte-aware raises nothing out of
    ``main`` and exits 0, 2 or 3; a refused command leaves the sandbox as it
    was and no journal."""
    image = _mutation_image(tmp_path_factory.getbasetemp())
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        twin = instantiate_twin(image, Path(work) / "sandbox")
        doc = Path(work) / "doc.json"
        doc.write_bytes(_mutated(VALID_DOCS[command], mutation))
        before = scan_tree(twin.sandbox)
        flag = "--delta" if command == "patch" else "--checks"
        code = main(["--quiet", "twin", command, "--sandbox", str(twin.sandbox), flag, str(doc)])
        assert code in (0, 2, 3)
        if code != 0 or command == "check":
            assert scan_tree(twin.sandbox) == before
        assert not journal_dir(twin.sandbox).exists()


# -- restores and readers under the one lock -------------------------------------


def _restore_image(root: Path):
    """The fixture tree with a nested directory under a read-only ``docs/``,
    captured with its ``tmp/``."""
    tree = build_twin_tree(root)
    (tree / "docs" / "nested" / "deep").mkdir(parents=True)
    (tree / "docs" / "nested" / "deep" / "notes.txt").write_bytes(b"deep\n")
    (tree / "docs").chmod(0o555)
    image = capture_image(tree, ())
    image.verified_files  # checked once here, not in each child
    return image


def _create(image_file: Path, sandbox: Path) -> int:
    return main(["--quiet", "twin", "create", "--image", str(image_file), "--sandbox", str(sandbox)])


def test_a_restore_cut_at_any_mutation_is_recovered_by_the_next_create(tmp_path):
    """A restore killed before any of its filesystem mutations once left a
    partial sandbox that every later ``twin create`` refused as not empty.
    The next create now undoes a restore that had not committed and
    restores again; after the commit, the tree already equals the image,
    and the create only drops the journal and refuses the full sandbox."""
    image = _restore_image(tmp_path / "source")
    image_file = tmp_path / "sys.twimg"
    save_image(image, image_file)
    codes = []
    while True:
        sandbox = tmp_path / f"cut{len(codes) + 1}"
        cut = run_cut_at(len(codes) + 1, lambda: instantiate_twin(image, sandbox))
        assert cut in (CUT, RAN_THROUGH)
        codes.append(_create(image_file, sandbox))
        assert scan_tree(sandbox) == image.manifest, f"cut at mutation {len(codes)}"
        assert not journal_dir(sandbox).exists()
        if cut == RAN_THROUGH:
            break
    committed = codes.index(2)
    assert codes == [0] * committed + [2] * (len(codes) - committed)
    # the drop: the one record, listing every top-level name, then the marker and the directory
    assert len(codes) - committed == 4
    assert len(codes) > 30


def test_a_restore_that_fails_partway_leaves_an_empty_sandbox(tmp_path, monkeypatch):
    """An ``OSError`` at each directory made, file written or mode set of a
    restore undoes it: the sandbox is left empty, with no journal, and the
    next ``twin create`` restores the image."""
    image = _restore_image(tmp_path / "source")
    image_file = tmp_path / "sys.twimg"
    save_image(image, image_file)
    real = {name: getattr(Path, name) for name in ("mkdir", "write_bytes", "chmod")}
    calls, fail_at = 0, 0

    def failing(name):
        def call(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise OSError(f"injected fault at {name} {self.name}")
            return real[name](self, *args, **kwargs)

        return call

    while True:
        fail_at += 1
        calls, sandbox = 0, tmp_path / f"fault{fail_at}"
        with monkeypatch.context() as patched:
            for name in real:
                patched.setattr(Path, name, failing(name))
            try:
                instantiate_twin(image, sandbox)
            except OSError as exc:
                assert "injected fault" in str(exc)
            else:
                break
        assert not sandbox.exists() or list(sandbox.iterdir()) == [], f"fault at call {fail_at}"
        assert not journal_dir(sandbox).exists()
        assert _create(image_file, sandbox) == 0
        assert scan_tree(sandbox) == image.manifest
    assert fail_at > 20


# A patch whose two ops each change what one check reads: the checks fail
# on the tree before it (the old tool) and after it (the new mode), and pass
# only on a tree that holds the new tool beside the old mode.
READ_PATCH = [
    {"op": "replace_file", "path": "bin/term", "content": "term v2\n"},
    {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"},
]
MIXED_STATE_CHECKS = [
    {"check": "hash_equals", "path": "bin/term", "sha256": sha256_hex(b"term v2\n")},
    {"check": "config_equals", "file": "etc/app.conf", "key": "mode", "value": "safe"},
]


@pytest.mark.parametrize("reader", ["check", "diff", "capture", "capture ."])
def test_a_reader_after_any_cut_of_a_patch_sees_the_pre_or_the_committed_post_state(
    twin_tree, tmp_path, capsys, monkeypatch, reader
):
    """``twin check``, ``twin diff --post <sandbox>`` and ``capture --root
    <sandbox>`` once read the tree a killed patch left, new tool and old
    mode together, and passed, reported a diff or imaged a tree that neither
    state gives (dirty reads). Each now takes the sandbox lock, which undoes
    a patch that had not committed first: its output is the state's before
    the patch, or after it once the patch has committed, and no journal is
    left. ``capture --root .`` in the sandbox, under the default workspace
    ``.``, holds that directory once, and its first hold recovers it."""
    image = capture_image(twin_tree)
    image_file, delta, checks = tmp_path / "sys.twimg", tmp_path / "delta.json", tmp_path / "checks.json"
    save_image(image, image_file)
    delta.write_text(json.dumps(READ_PATCH), encoding="utf-8")
    checks.write_text(json.dumps(MIXED_STATE_CHECKS), encoding="utf-8")
    captured = tmp_path / "captured.twimg"
    monkeypatch.delenv(WORKSPACE_ENV, raising=False)

    def read(sandbox):
        capsys.readouterr()
        if reader == "check":
            code = main(["twin", "check", "--sandbox", str(sandbox), "--checks", str(checks)])
        elif reader == "diff":
            code = main(["twin", "diff", "--pre", str(image_file), "--post", str(sandbox)])
        else:
            with monkeypatch.context() as in_dir:
                in_dir.chdir(sandbox if reader == "capture ." else tmp_path)
                code = main(["capture", "--root", "." if reader == "capture ." else str(sandbox), "--out", str(captured)])
            return code, load_image(captured).manifest
        return code, capsys.readouterr().out

    pre, post = instantiate_twin(image, tmp_path / "pre"), instantiate_twin(image, tmp_path / "post")
    apply_patch(post, load_delta(delta))
    expected = {scan_tree(pre.sandbox): read(pre.sandbox), scan_tree(post.sandbox): read(post.sandbox)}
    assert len(expected) == 2
    assert [code for code, _ in expected.values()] == ([3, 3] if reader == "check" else [0, 0])
    cuts = 0
    while True:
        cuts += 1
        twin = instantiate_twin(image, tmp_path / f"cut{cuts}")
        cut = run_cut_at(cuts, lambda: apply_patch(twin, load_delta(delta)))
        assert cut in (CUT, RAN_THROUGH)
        result = read(twin.sandbox)
        assert result in expected.values(), f"cut at mutation {cuts}"
        assert not journal_dir(twin.sandbox).exists()
        assert expected.get(scan_tree(twin.sandbox)) == result  # the post-state's only once committed
        if cut == RAN_THROUGH:
            break
    assert cuts > 20


def test_a_reader_while_a_command_holds_the_sandbox_exits_2(twin, tmp_path, capsys, monkeypatch):
    checks = tmp_path / "checks.json"
    checks.write_text(json.dumps([{"check": "file_exists", "path": "bin/term"}]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # capture's workspace, the default ``.``
    monkeypatch.delenv(WORKSPACE_ENV, raising=False)
    with held_by_child(twin.sandbox):
        assert main(["--quiet", "twin", "check", "--sandbox", str(twin.sandbox), "--checks", str(checks)]) == 2
        assert main(["--quiet", "twin", "diff", "--pre", str(twin.sandbox), "--post", str(tmp_path)]) == 2
        assert main(["--quiet", "capture", "--root", str(twin.sandbox), "--out", str(tmp_path / "c.twimg")]) == 2
        assert not (tmp_path / "c.twimg").exists()
        assert "another command holds its lock" in capsys.readouterr().err
    assert main(["--quiet", "twin", "check", "--sandbox", str(twin.sandbox), "--checks", str(checks)]) == 0


# -- set_config changes only the value it names ------------------------------------

_CONFIG_TEXT = st.text(st.sampled_from(["a", "=", " ", "\t", "\x0c", "\x85", "\u2028", "é"]), max_size=4)
_CONFIG_LINE = _CONFIG_TEXT | st.tuples(
    st.sampled_from(["", " "]), st.sampled_from(["mode", "note"]), st.sampled_from(["", " "]), _CONFIG_TEXT
).map(lambda parts: f"{parts[0]}{parts[1]}{parts[2]}={parts[3]}")
_CONFIG_FILES = st.tuples(
    st.lists(st.tuples(_CONFIG_LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=4), _CONFIG_LINE
).map(lambda parts: "".join(line + end for line, end in parts[0]) + parts[1])


def _reference_set_config(text: str, key: str, value: str) -> str | None:
    """``text`` with the value text of each line setting ``key`` replaced,
    or None when no line sets it: lines end at LF, CRLF or a lone CR, a
    line sets the key before its first ``=``, and its value is the rest,
    both less surrounding whitespace."""
    pieces = re.split(r"(\r\n|\r|\n)", text)
    found = False
    for i in range(0, len(pieces), 2):
        head, sep, tail = pieces[i].partition("=")
        if sep and head.strip() == key:
            lead = len(tail) - len(tail.lstrip())
            pieces[i] = f"{head}={tail[:lead]}{value}{tail[lead + len(tail.strip()):]}"
            found = True
    return "".join(pieces) if found else None


@settings(derandomize=True)
@example(text="mode=slow\n", key="mode", value="fast\nadmin=1")  # injected admin=1
@example(text="mode=slow\r\nretries=3\r\n", key="mode", value="fast")  # lost every CR
@example(text="note=a\x0cb\nmode=slow\n", key="mode", value="fast")  # split the note in two
@example(text="mode=slow", key="mode", value="fast")  # added a final newline
@given(
    text=_CONFIG_FILES,
    key=st.sampled_from(["mode", "note"]),
    value=st.text(st.sampled_from(["a", "=", " ", "\x0c", "\x85", "\u2028", "\r", "\n", "é"]), max_size=4),
)
def test_set_config_changes_only_the_value_text_it_names(tmp_path_factory, text, key, value):
    """In the spirit of QuickCheck: ``twin patch`` of one ``set_config``
    leaves every byte of the file but the value text of the lines that set
    the key, line ends included, keeps the file's mode, and ``twin check``
    reads the value back. A value that holds a line end, or starts or ends
    with whitespace, would not read back, and is refused with the file
    unchanged; so is a key no line sets."""
    data = text.encode("utf-8")
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        sandbox, delta, checks = Path(work) / "box", Path(work) / "delta.json", Path(work) / "checks.json"
        conf = sandbox / "etc" / "app.conf"
        conf.parent.mkdir(parents=True)
        conf.write_bytes(data)
        conf.chmod(0o640)
        delta.write_text(json.dumps([{"op": "set_config", "file": "etc/app.conf", "key": key, "value": value}]))
        code = main(["--quiet", "twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)])
        expected = _reference_set_config(text, key, value)
        if expected is None or value != value.strip() or "\r" in value or "\n" in value:
            assert (code, conf.read_bytes()) == (2, data)
            return
        assert code == 0
        assert conf.read_bytes() == expected.encode("utf-8")
        assert stat.S_IMODE(conf.stat().st_mode) == 0o640
        checks.write_text(json.dumps([{"check": "config_equals", "file": "etc/app.conf", "key": key, "value": value}]))
        assert main(["--quiet", "twin", "check", "--sandbox", str(sandbox), "--checks", str(checks)]) == 0


# A lone surrogate, which no file can hold, once passed in an op or a check
# made in library code, and ``apply_patch`` let ``UnicodeEncodeError`` escape.
@pytest.mark.parametrize(
    "key, value",
    [("mode", "fast\nadmin=1"), ("mode", "a\rb"), ("mode", " fast"), ("mode", "fast\x0c"), ("mo\nde", "x"),
     (" mode", "x"), ("", "x"), ("a=b", "x"), ("mode", "\ud800"), ("mo\udcffde", "x")],
)
def test_a_config_setting_that_would_not_read_back_is_refused(key, value):
    doc = {"key": key, "value": value, "file": "etc/app.conf"}
    with pytest.raises(MalformedPatch, match="bad config"):
        delta_from_doc([{"op": "set_config", **doc}])
    with pytest.raises(MalformedPatch, match="bad config"):
        SetConfig(**doc)
    with pytest.raises(MalformedChecks, match="bad config"):
        checks_from_doc([{"check": "config_equals", **doc}])
    with pytest.raises(MalformedChecks, match="bad config"):
        ConfigEquals(**doc)
