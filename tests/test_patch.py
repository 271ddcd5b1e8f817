"""Patch application: op semantics, atomicity, checks, locking."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from twinforge.errors import (
    AddExisting,
    ConfigKeyMissing,
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
from twinforge.twin.image import capture_image
from twinforge.twin.journal import UndoRecord, begin as begin_journal, journal_dir, record
from twinforge.twin.manifest import LOCK_FILENAME, TwinDiff, diff_states, scan_tree
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
from twinforge.twin.sandbox import instantiate_twin, writer_lock

from conftest import UNNORMALIZED_PATHS

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def test_writer_lock_excludes_second_writer(twin):
    with writer_lock(twin.sandbox):
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
    paths = sorted(manifest) + ["missing", "bin/missing", LOCK_FILENAME]
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
    # the walk never lists the writer lock, so only the read itself can see
    # that this one escapes
    lock = twin.sandbox / LOCK_FILENAME
    lock.unlink()
    lock.symlink_to(outside)
    for rel in (str(outside), "../outside.conf", LOCK_FILENAME):
        with pytest.raises(SymlinkOutsideRoot):
            run_checks(twin, CheckSpec((ConfigEquals(rel, "secret", "x"),)))


def test_config_checks_read_each_file_once(twin, monkeypatch):
    reads = []
    original = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, **kw: reads.append(self.name) or original(self, **kw))
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
def test_set_config_writes_the_same_bytes_whatever_the_line_ends(twin, newline):
    conf = twin.sandbox / "etc" / "app.conf"
    conf.write_bytes(newline.join(["mode=safe", "retries=3", "", "log_level=info", ""]).encode("utf-8"))
    apply_patch(twin, PatchDelta((SetConfig("etc/app.conf", "retries", "5"),)))
    assert conf.read_bytes() == b"mode=safe\nretries=5\n\nlog_level=info\n"


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


def test_patch_naming_the_writer_lock_is_refused(twin):
    with pytest.raises(MalformedPatch):
        apply_patch(twin, PatchDelta((DeleteFile(LOCK_FILENAME),)))
    assert (twin.sandbox / LOCK_FILENAME).exists()


def test_only_the_root_lock_is_the_writer_lock(twin):
    nested = twin.sandbox / "etc" / LOCK_FILENAME
    apply_patch(twin, PatchDelta((AddFile(f"etc/{LOCK_FILENAME}", b"data\n"),)))
    assert nested.read_bytes() == b"data\n"
    apply_patch(twin, PatchDelta((DeleteFile(f"etc/{LOCK_FILENAME}"),)))
    assert not nested.exists()


def test_linked_writer_lock_is_refused(twin, tmp_path):
    outside = tmp_path / "outside" / "planted"
    outside.parent.mkdir()
    lock = twin.sandbox / LOCK_FILENAME
    lock.unlink()
    lock.symlink_to(outside)
    before = scan_tree(twin.sandbox)
    with pytest.raises(OSError):
        apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"),)))
    assert not outside.exists()
    assert list(outside.parent.iterdir()) == []
    assert scan_tree(twin.sandbox) == before


def test_patch_keeps_the_writer_lock_file(twin):
    lock = twin.sandbox / LOCK_FILENAME
    inode = lock.stat().st_ino
    apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"), DeleteFile("apps/files"))))
    assert lock.stat().st_ino == inode


def _spawn(code: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


def _kill(child: subprocess.Popen) -> None:
    child.send_signal(signal.SIGKILL)
    child.wait(timeout=30)
    child.stdout.close()


def test_patch_while_a_child_holds_the_lock_changes_nothing(twin):
    before = scan_tree(twin.sandbox)
    holder = _spawn(
        "import time; from pathlib import Path; from twinforge.twin.sandbox import writer_lock;"
        f"lock = writer_lock(Path({str(twin.sandbox)!r})); lock.__enter__();"
        "print('held', flush=True); time.sleep(60)"
    )
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(TwinLocked):
            apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"), DeleteFile("apps/files"))))
    finally:
        _kill(holder)
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
    modes, directories), the lock file's inode and the absent journal."""
    lock = (twin.sandbox / LOCK_FILENAME).stat().st_ino
    return scan_tree(twin.sandbox), lock, journal_dir(twin.sandbox).exists()


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
    child = _spawn(
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
    try:
        assert child.stdout.readline() == "applied\n"
    finally:
        _kill(child)
    journal = journal_dir(mode_twin.sandbox)
    assert len(list(journal.glob("*.json"))) == kill_after + 1
    assert scan_tree(mode_twin.sandbox) != before[0]

    with writer_lock(mode_twin.sandbox):
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
    """A record whose node and created directory lie under a file (as an
    add through a file would leave) is undone without error."""
    before = _state(twin)
    with writer_lock(twin.sandbox):
        jdir = begin_journal(twin.sandbox)
        record(jdir, 0, UndoRecord("etc/app.conf/x", False, ("etc/app.conf",)))
    with writer_lock(twin.sandbox):
        pass
    assert _state(twin) == before


@pytest.mark.parametrize(
    "doc",
    [
        {"path": "bin/x", "saved": False, "created": "tm"},
        {"path": "bin/x", "saved": False, "created": ["tm", 5]},
        {"path": "bin/x", "saved": "no", "created": []},
        {"path": 5, "saved": False, "created": []},
        ["bin/x", False, []],
    ],
)
def test_a_malformed_undo_record_undoes_nothing(twin, doc):
    """A record whose ``created`` is the string "tm" once made the roll-back
    remove the sandbox's ``t/`` and ``m/``. Every record is read before
    anything is undone, so the valid newer record is not undone either."""
    for name in ("t", "m", "new"):
        (twin.sandbox / name).mkdir()
    with writer_lock(twin.sandbox):
        jdir = begin_journal(twin.sandbox)
        (jdir / "000000.json").write_text(json.dumps(doc), encoding="utf-8")
        record(jdir, 1, UndoRecord("new/x", False, ("new",)))
    before = _state(twin)
    with pytest.raises(MalformedJournal, match="000000.json: bad undo record"):
        journal.roll_back(twin.sandbox)
    assert _state(twin) == before
    assert all((twin.sandbox / name).is_dir() for name in ("t", "m", "new"))


@pytest.mark.parametrize(
    "doc",
    [
        {"path": "../outside/victim", "saved": False, "created": []},
        {"path": "new/x", "saved": False, "created": ["new", "../outside/empty"]},
        {"path": "hop/victim", "saved": False, "created": []},
        {"path": "new/x", "saved": False, "created": ["hop/empty"]},
    ],
    ids=["dotdot-path", "dotdot-created", "link-path", "link-created"],
)
def test_an_undo_record_leading_out_of_the_sandbox_undoes_nothing(twin, doc):
    """A record once made the next writer delete the file ``../outside/victim``
    (or remove a directory there), joined to the sandbox as written or
    reached through an inside link that leads out. Each record is now
    checked by the path rule and resolved before any is undone."""
    outside = twin.sandbox.parent / "outside"
    (outside / "empty").mkdir(parents=True)
    (outside / "victim").write_bytes(b"keep\n")
    (twin.sandbox / "hop").symlink_to(outside)
    (twin.sandbox / "new").mkdir()
    with writer_lock(twin.sandbox):
        jdir = begin_journal(twin.sandbox)
        (jdir / "000000.json").write_text(json.dumps(doc), encoding="utf-8")
        record(jdir, 1, UndoRecord("new/y", False, ("new",)))
    before = scan_tree(twin.sandbox, ("hop",))
    with pytest.raises(MalformedJournal, match="000000.json: "):
        journal.roll_back(twin.sandbox)
    assert scan_tree(twin.sandbox, ("hop",)) == before
    assert sorted(p.name for p in jdir.iterdir()) == ["000000.json", "000001.json", journal.MARKER]
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
    with writer_lock(twin.sandbox):
        pass
    assert _state(twin) == before


def test_a_directory_that_is_not_a_journal_is_left_alone(twin):
    foreign = journal_dir(twin.sandbox)
    foreign.mkdir()
    (foreign / "000000.json").write_text('{"path": "bin/term", "saved": false, "created": []}')
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


# The drop at the end of a patch (commit) or a roll-back (undo): a two-op
# replace patch, and the same patch with a third op that fails.
TWO_REPLACES = (ReplaceFile("bin/term", b"term v2\n"), ReplaceFile("docs/readme.txt", b"readme v2\n"))
CUT_CASES = {"commit": TWO_REPLACES, "undo": TWO_REPLACES + (DeleteFile("not/there"),)}
_CUT, _RAN_THROUGH = 7, 0


def _run_cut_at(twin, ops, k: int) -> int:
    """Run the patch in a forked child that ``os._exit``s at the ``k``-th
    ``os.unlink`` or ``os.rmdir`` after its ops have all run or one has
    failed: a kill, which no ``except`` clause sees. Returns the child's
    exit code, ``_CUT`` or ``_RAN_THROUGH``."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            armed, removals = False, 0
            real_apply = patch._apply_op

            def apply(root, journal, index, op):
                nonlocal armed
                try:
                    real_apply(root, journal, index, op)
                except BaseException:
                    armed = True
                    raise
                armed = index == len(ops) - 1

            def cut(real):
                def removal(*args, **kwargs):
                    nonlocal removals
                    if armed:
                        removals += 1
                        if removals == k:
                            os._exit(_CUT)
                    return real(*args, **kwargs)

                return removal

            patch._apply_op = apply
            os.unlink, os.rmdir = cut(os.unlink), cut(os.rmdir)
            try:
                apply_patch(twin, PatchDelta(ops))
            except DeleteMissing:
                pass
            os._exit(_RAN_THROUGH)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


@pytest.mark.parametrize("case", sorted(CUT_CASES))
def test_a_drop_cut_at_any_removal_leaves_the_pre_or_post_state(twin_tree, tmp_path, case):
    """Each cut leaves a tree that the next writer turns into exactly the
    state before the patch or after it, drops the journal and lets the next
    patch apply."""
    ops = CUT_CASES[case]
    image = capture_image(twin_tree)
    post = instantiate_twin(image, tmp_path / "post")
    if case == "commit":
        apply_patch(post, PatchDelta(ops))
    states = {scan_tree(instantiate_twin(image, tmp_path / "pre").sandbox), scan_tree(post.sandbox)}
    k = 0
    while True:
        k += 1
        box = instantiate_twin(image, tmp_path / f"cut{k}")
        code = _run_cut_at(box, ops, k)
        assert code in (_CUT, _RAN_THROUGH)
        with writer_lock(box.sandbox):
            pass
        assert scan_tree(box.sandbox) in states, f"cut at removal {k}"
        assert not journal_dir(box.sandbox).exists()
        apply_patch(box, PatchDelta((ReplaceFile("bin/term", b"next\n"),)))
        assert (box.sandbox / "bin/term").read_bytes() == b"next\n"
        if code == _RAN_THROUGH:
            break
    assert k > 4  # every record, saved node, the marker and the directory
