"""Capture determinism, exclusions, restore verification, diffs."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import pytest

from twinforge.errors import HashMismatch, MalformedArchive, SandboxNotEmpty, SymlinkOutsideRoot
from twinforge.twin import (
    TwinImage,
    capture_image,
    diff_states,
    instantiate_twin,
    load_image,
    load_manifest,
    save_image,
    save_manifest,
    scan_tree,
    sidecar_path,
    unpack_archive,
)
from twinforge.twin.image import MAGIC

from conftest import build_twin_tree


def test_capture_excludes_tmp(twin_tree):
    image = capture_image(twin_tree)
    paths = [e.path for e in image.manifest]
    assert not any(p == "tmp" or p.startswith("tmp/") for p in paths)
    assert "bin/chrome.exe" in paths
    assert "etc/app.conf" in paths


def test_capture_is_byte_deterministic(twin_tree):
    a = capture_image(twin_tree)
    b = capture_image(twin_tree)
    assert a.archive == b.archive
    assert a.manifest == b.manifest


def test_empty_directory_yields_empty_valid_image(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    image = capture_image(empty)
    assert image.manifest == ()
    assert list(unpack_archive(image.archive)) == []


def test_symlink_escaping_root_is_refused(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (tmp_path / "outside.txt").write_text("secret", encoding="utf-8")
    os.symlink(tmp_path / "outside.txt", root / "leak")
    with pytest.raises(SymlinkOutsideRoot):
        capture_image(root)


def test_internal_file_symlink_is_captured_as_file(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (root / "real.txt").write_text("content", encoding="utf-8")
    os.symlink(root / "real.txt", root / "alias.txt")
    image = capture_image(root)
    by_path = {e.path: e for e in image.manifest}
    assert by_path["alias.txt"].sha256 == by_path["real.txt"].sha256


def test_restore_round_trip(twin_tree, tmp_path):
    image = capture_image(twin_tree)
    twin = instantiate_twin(image, tmp_path / "sandbox")
    live = twin.manifest()
    # restored manifest = captured manifest plus the fresh tmp/ directory
    assert [e for e in live if e.path != "tmp"] == list(image.manifest)
    assert any(e.path == "tmp" and e.kind == "dir" for e in live)
    assert (tmp_path / "sandbox" / "tmp").is_dir()
    assert not any((tmp_path / "sandbox" / "tmp").iterdir())


def _dir_archive(path: str, mode: int) -> bytes:
    """A one-entry archive holding directory ``path``, laid out as the reader expects."""
    raw = path.encode("utf-8")
    return MAGIC + struct.pack(">I", 1) + struct.pack(">BIH", 0, mode, len(raw)) + raw + struct.pack(">Q", 0)


def test_restore_refuses_entry_paths_outside_the_sandbox(tmp_path):
    sandbox = tmp_path / "sandbox"
    for path in ("", "../escaped", str(tmp_path / "abs" / "path")):
        crafted = TwinImage((), _dir_archive(path, 0o700), (), "")
        with pytest.raises(MalformedArchive):
            instantiate_twin(crafted, sandbox)
        assert [p.name for p in tmp_path.iterdir()] == ["sandbox"], path


def test_directory_modes_are_set_after_their_contents(tmp_path, monkeypatch):
    root = tmp_path / "source"
    (root / "ro" / "sub").mkdir(parents=True)
    (root / "ro" / "sub" / "leaf.txt").write_text("leaf", encoding="utf-8")
    (root / "ro" / "top.txt").write_text("top", encoding="utf-8")
    image = capture_image(root)
    sandbox = tmp_path / "sandbox"
    calls: list[tuple[str, str]] = []
    chmod, write_bytes = Path.chmod, Path.write_bytes

    def recording_chmod(self, mode, **kwargs):
        calls.append(("chmod", self.relative_to(sandbox).as_posix()))
        return chmod(self, mode, **kwargs)

    def recording_write_bytes(self, data):
        calls.append(("write", self.relative_to(sandbox).as_posix()))
        return write_bytes(self, data)

    # root ignores permission bits, so check the order of the calls instead
    monkeypatch.setattr(Path, "chmod", recording_chmod)
    monkeypatch.setattr(Path, "write_bytes", recording_write_bytes)
    instantiate_twin(image, sandbox)

    dirs = [e.path for e in image.manifest if e.kind == "dir"]
    assert [p for op, p in calls if op == "chmod" and p in dirs] == ["ro/sub", "ro"]
    for i, (op, path) in enumerate(calls):
        if op == "chmod" and path in dirs:
            assert not any(p.startswith(path + "/") for _, p in calls[i + 1 :]), calls


def test_sandbox_not_empty(twin_tree, tmp_path):
    target = tmp_path / "sandbox"
    target.mkdir()
    (target / "junk").write_text("x", encoding="utf-8")
    with pytest.raises(SandboxNotEmpty):
        instantiate_twin(capture_image(twin_tree), target)


def test_corrupt_archive_byte_raises_hash_mismatch(twin_tree, tmp_path):
    image = capture_image(twin_tree)
    # the last archive byte is content of the lexicographically last file
    corrupted = bytearray(image.archive)
    corrupted[-1] ^= 0xFF
    broken = TwinImage(image.manifest, bytes(corrupted), image.exclusions, image.created_at)
    with pytest.raises(HashMismatch):
        instantiate_twin(broken, tmp_path / "sandbox")


def test_truncated_archive_is_malformed(twin_tree):
    image = capture_image(twin_tree)
    with pytest.raises(MalformedArchive):
        list(unpack_archive(image.archive[: len(image.archive) // 2]))
    with pytest.raises(MalformedArchive):
        list(unpack_archive(b"NOTMAGIC" + image.archive))


def test_image_file_round_trip(twin_tree, tmp_path):
    image = capture_image(twin_tree)
    path = tmp_path / "system.twimg"
    save_image(image, path)
    assert sidecar_path(path).name == "system.manifest.json"
    loaded = load_image(path)
    assert loaded == image


def test_manifest_file_round_trip(twin_tree, tmp_path):
    manifest = scan_tree(twin_tree)
    path = tmp_path / "m.json"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest


def test_diff_empty_and_symmetry(twin_tree, tmp_path):
    pre = scan_tree(twin_tree)
    assert diff_states(pre, pre).empty

    other_root = build_twin_tree(tmp_path / "variant")
    (other_root / "bin" / "newtool").write_bytes(b"new")
    (other_root / "docs" / "readme.txt").write_text("changed\n", encoding="utf-8")
    (other_root / "apps" / "files").unlink()
    post = scan_tree(other_root, ("tmp/**",))

    pre = scan_tree(twin_tree, ("tmp/**",))
    forward = diff_states(pre, post)
    backward = diff_states(post, pre)
    assert forward.added == ("bin/newtool",)
    assert forward.removed == ("apps/files",)
    assert [m.path for m in forward.modified] == ["docs/readme.txt"]
    assert forward.added == backward.removed
    assert forward.removed == backward.added
    assert [m.path for m in backward.modified] == ["docs/readme.txt"]
    fwd = forward.modified[0]
    bwd = backward.modified[0]
    assert (fwd.old_sha256, fwd.new_sha256) == (bwd.new_sha256, bwd.old_sha256)
