"""Capture determinism, exclusions, restore verification, diffs."""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections import Counter
from pathlib import Path

import pytest

from twinforge.errors import HashMismatch, MalformedArchive, SandboxNotEmpty, SymlinkOutsideRoot, UndecodableInput
from twinforge.twin.image import (
    MAGIC,
    TwinImage,
    capture_image,
    load_image,
    save_image,
    sidecar_path,
    unpack_archive,
)
from twinforge.twin.manifest import ManifestEntry, TwinDiff, diff_states, load_manifest, scan_tree
from twinforge.twin.sandbox import instantiate_twin

from conftest import UNNORMALIZED_PATHS, build_twin_tree


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


def test_capture_reads_each_file_once(twin_tree, monkeypatch):
    opened = Counter()
    original = Path.open

    def counting_open(self, *args, **kwargs):
        opened[self.relative_to(twin_tree).as_posix()] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    image = capture_image(twin_tree)
    files = [e.path for e in image.manifest if e.kind == "file"]
    assert files and opened == Counter(files)
    for path, kind, _, content in unpack_archive(image.archive):
        if kind == "file":
            assert content == (twin_tree / path).read_bytes()


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


def test_nested_lock_named_file_is_an_ordinary_file(twin_tree, tmp_path):
    (twin_tree / "etc" / ".twin.lock").write_bytes(b"not a lock\n")
    (twin_tree / ".twin.lock").write_bytes(b"")
    paths = [e.path for e in scan_tree(twin_tree)]
    assert "etc/.twin.lock" in paths and ".twin.lock" not in paths
    image = capture_image(twin_tree)
    assert "etc/.twin.lock" in [e.path for e in image.manifest]
    twin = instantiate_twin(image, tmp_path / "sandbox")
    assert (twin.sandbox / "etc" / ".twin.lock").read_bytes() == b"not a lock\n"
    assert "etc/.twin.lock" in [e.path for e in scan_tree(twin.sandbox)]


def test_escaping_link_named_like_the_lock_is_refused(twin_tree, tmp_path):
    (tmp_path / "outside.txt").write_text("secret", encoding="utf-8")
    os.symlink(tmp_path / "outside.txt", twin_tree / "etc" / ".twin.lock")
    with pytest.raises(SymlinkOutsideRoot):
        scan_tree(twin_tree)


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
    live = scan_tree(twin.sandbox)
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
    # the last unnormalized path is not UTF-8, so no archive can hold it
    for path in ("", "../escaped", str(tmp_path / "abs" / "path"), "a\x00b", *UNNORMALIZED_PATHS[:-1]):
        crafted = TwinImage((), _dir_archive(path, 0o700), (), "")
        with pytest.raises(MalformedArchive):
            instantiate_twin(crafted, sandbox)
        assert list(tmp_path.iterdir()) == [], path


def _image(*nodes: tuple[str, bytes | None]) -> TwinImage:
    """A hand-built image of ``nodes`` in the given order: (path, content),
    a directory where the content is None."""
    manifest, archive = [], [MAGIC, struct.pack(">I", len(nodes))]
    for path, content in nodes:
        raw, data = path.encode("utf-8"), content or b""
        archive += [struct.pack(">BIH", content is not None, 0o755, len(raw)), raw, struct.pack(">Q", len(data)), data]
        sha = None if content is None else hashlib.sha256(data).hexdigest()
        manifest.append(ManifestEntry(path, "dir" if content is None else "file", len(data), 0o755, sha))
    return TwinImage(tuple(manifest), b"".join(archive), (), "")


# Each of these once raised an OSError half-way through a restore and left
# ``.twin.lock`` and the entries before it in the sandbox.
@pytest.mark.parametrize(
    "nodes, message",
    [
        ((("a", b"x"), ("a/b", b"y")), "a/b: archive entry under the file a"),
        ((("a", b"x"), ("a-x", b"x"), ("a/b/c", b"y")), "a/b/c: archive entry under the file a"),
        ((("b", b"x"), ("a", b"y")), "a: archive entry out of order after b"),
        ((("a", b"x"), ("a", b"x")), "a: archive entry out of order after a"),
        ((("bin", None), ("tmp", b"x")), "tmp: the image holds a file where a restore makes its own"),
        (((".twin.lock", None),), r"\.twin\.lock: the image holds a dir where a restore makes its own"),
    ],
    ids=["file-then-child", "file-then-grandchild", "out-of-order", "duplicate", "tmp-file", "lock-dir"],
)
def test_an_image_a_restore_cannot_write_creates_nothing(tmp_path, nodes, message):
    with pytest.raises(MalformedArchive, match=message):
        instantiate_twin(_image(*nodes), tmp_path / "sandbox")
    assert list(tmp_path.iterdir()) == []


def test_an_image_file_whose_entries_nest_under_a_file_does_not_load(tmp_path):
    path = tmp_path / "crafted.twimg"
    save_image(_image(("a", b"x"), ("a/b", b"y")), path)
    with pytest.raises(MalformedArchive, match="a/b: archive entry under the file a"):
        load_image(path)


@pytest.mark.parametrize("path", UNNORMALIZED_PATHS)
def test_sidecar_entry_paths_must_be_normalized_utf8(twin_tree, tmp_path, path):
    image = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), image)
    doc = json.loads(sidecar_path(image).read_text(encoding="utf-8"))
    doc["entries"][0]["path"] = path
    sidecar_path(image).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedArchive, match="relative and normalized"):
        load_manifest(sidecar_path(image))


def test_a_file_name_that_is_not_utf8_is_refused(tmp_path):
    root = tmp_path / "root"
    (root / "tmp").mkdir(parents=True)
    (root / "tmp" / os.fsdecode(b"\xfe")).write_bytes(b"excluded, so never read\n")
    (root / "ok.txt").write_bytes(b"x")
    assert [e.path for e in capture_image(root).manifest] == ["ok.txt"]
    (root / os.fsdecode(b"\xff")).write_bytes(b"x")
    for read in (scan_tree, capture_image):
        with pytest.raises(UndecodableInput, match=r"file name b'\\xff'"):
            read(root, ("tmp/**",))


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


def test_a_corrupt_image_creates_nothing(twin_tree, tmp_path):
    # Flipping the first file's first byte once left the entries restored
    # before it in a sandbox that the next ``twin create`` refused as non-empty.
    image = capture_image(twin_tree)
    offset = len(MAGIC) + 4  # the entry count
    for first, kind, _, content in unpack_archive(image.archive):
        offset += 7 + len(first.encode("utf-8")) + 8  # header, path, content length
        if kind == "file" and len(content):
            break
        offset += len(content)
    corrupted = bytearray(image.archive)
    corrupted[offset] ^= 0xFF
    broken = TwinImage(image.manifest, bytes(corrupted), image.exclusions, image.created_at)
    target = tmp_path / "restore"
    target.mkdir()
    for sandbox in (target / "sandbox", target):
        with pytest.raises(HashMismatch, match=first):
            instantiate_twin(broken, sandbox)
        assert list(target.iterdir()) == []
    twin = instantiate_twin(image, target)
    assert [e for e in scan_tree(twin.sandbox) if e.path != "tmp"] == list(image.manifest)


def test_a_second_restore_of_one_image_hashes_nothing(twin_tree, tmp_path, monkeypatch):
    image = capture_image(twin_tree)
    hashed = Counter()
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data=b"": hashed.update([len(data)]) or sha256(data))
    first = instantiate_twin(image, tmp_path / "first")
    files = [e for e in image.manifest if e.kind == "file"]
    assert hashed.total() == len(files)  # one pass over the image, then only writes
    hashed.clear()
    second = instantiate_twin(image, tmp_path / "second")
    assert hashed.total() == 0
    monkeypatch.undo()
    assert scan_tree(second.sandbox) == scan_tree(first.sandbox)


def test_an_archive_must_be_bytes(twin_tree):
    image = capture_image(twin_tree)
    with pytest.raises(TypeError, match="bytearray"):
        TwinImage(image.manifest, bytearray(image.archive), image.exclusions, image.created_at)


def test_unpack_archive_yields_views_of_the_archive(twin_tree):
    image = capture_image(twin_tree)
    for path, kind, _, content in unpack_archive(image.archive):
        assert isinstance(content, memoryview) and content.obj is image.archive, path


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
    # The sidecar is the manifest file ``twin diff --pre x.manifest.json`` reads.
    image = capture_image(twin_tree)
    path = tmp_path / "system.twimg"
    save_image(image, path)
    assert load_manifest(sidecar_path(path)) == image.manifest


def test_sidecar_keys_are_pinned(twin_tree, tmp_path):
    # Field names become on-disk keys, so renaming a field must fail here.
    (twin_tree / "etc" / "app.conf").chmod(0o640)
    path = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), path)
    doc = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
    assert set(doc) == {"format_version", "created_at", "exclusions", "entries"}
    entry = next(e for e in doc["entries"] if e["path"] == "etc/app.conf")
    content = (twin_tree / "etc" / "app.conf").read_bytes()
    assert entry == {
        "path": "etc/app.conf",
        "kind": "file",
        "size": len(content),
        "mode": 0o640,
        "sha256": hashlib.sha256(content).hexdigest(),
    }


def test_sidecar_entry_with_unknown_key_is_malformed(twin_tree, tmp_path):
    path = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), path)
    doc = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
    doc["entries"][0]["owner"] = "root"
    sidecar_path(path).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedArchive):
        load_image(path)
    with pytest.raises(MalformedArchive):
        load_manifest(sidecar_path(path))


# A sidecar entry with an edited mode or size once loaded, and ``twin create``
# restored the archive's mode while the sidecar claimed another.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc, e: e.update(mode=0o600), r"etc/app\.conf: manifest has file mode 0o600 size \d+, archive has file"),
        (lambda doc, e: e.update(size=1), r"etc/app\.conf: manifest has file mode 0o644 size 1, archive has file"),
        (lambda doc, e: doc["entries"].append(dict(e, path="zz/absent")), "zz/absent: manifest entry missing"),
    ],
    ids=["mode", "size", "absent-entry"],
)
def test_a_sidecar_must_agree_with_its_archive(twin_tree, tmp_path, edit, message):
    (twin_tree / "etc" / "app.conf").chmod(0o644)
    path = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), path)
    doc = json.loads(sidecar_path(path).read_text(encoding="utf-8"))
    edit(doc, next(e for e in doc["entries"] if e["path"] == "etc/app.conf"))
    sidecar_path(path).write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedArchive, match=message):
        load_image(path)
    # built in memory, without load_image, the image is refused on restore
    image = TwinImage(load_manifest(sidecar_path(path)), path.read_bytes(), (), "")
    with pytest.raises(MalformedArchive, match=message):
        instantiate_twin(image, tmp_path / "sandbox")
    assert not (tmp_path / "sandbox").exists()


def test_diff_empty_and_symmetry(twin_tree, tmp_path):
    pre = scan_tree(twin_tree)
    assert diff_states(pre, pre) == TwinDiff((), (), ())

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
