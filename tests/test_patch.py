"""Patch application: op semantics, atomicity, checks, locking."""

from __future__ import annotations

import json

import pytest

from twinforge.errors import (
    AddExisting,
    ConfigKeyMissing,
    DeleteMissing,
    MalformedPatch,
    ReplaceMissing,
    TwinLocked,
)
from twinforge.twin import (
    AddFile,
    CheckSpec,
    ConfigEquals,
    DeleteFile,
    FileExists,
    HashEquals,
    PatchDelta,
    ReplaceFile,
    SetConfig,
    apply_patch,
    capture_image,
    diff_states,
    instantiate_twin,
    load_delta,
    run_checks,
    writer_lock,
)


@pytest.fixture()
def twin(twin_tree, tmp_path):
    return instantiate_twin(capture_image(twin_tree), tmp_path / "sandbox")


def test_add_file(twin):
    before = twin.manifest()
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
    before = twin.manifest()
    report = apply_patch(twin, PatchDelta(()))
    assert report.applied == ()
    assert diff_states(before, report.manifest).empty


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
    before = twin.manifest()
    with pytest.raises(err):
        apply_patch(twin, delta)
    assert twin.manifest() == before


def test_third_op_failure_rolls_back_first_two(twin):
    before = twin.manifest()
    delta = PatchDelta(
        (
            AddFile("bin/tool-a", b"a"),
            ReplaceFile("docs/readme.txt", b"poisoned\n"),
            DeleteFile("not/there"),  # fails
        )
    )
    with pytest.raises(DeleteMissing):
        apply_patch(twin, delta)
    assert twin.manifest() == before
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
    ],
)
def test_malformed_delta_docs(tmp_path, doc):
    path = tmp_path / "delta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedPatch):
        load_delta(path)


def test_writer_lock_excludes_second_writer(twin):
    with writer_lock(twin.sandbox):
        with pytest.raises(TwinLocked):
            apply_patch(twin, PatchDelta((AddFile("bin/x", b"x"),)))


def test_run_checks(twin):
    apply_patch(twin, PatchDelta((ReplaceFile("docs/readme.txt", b"v2\n"),)))
    manifest = {e.path: e for e in twin.manifest()}
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
