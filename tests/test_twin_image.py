"""Capture determinism, exclusions, restore verification, diffs."""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import tempfile
from collections import Counter
from dataclasses import replace
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinforge.cli import main
from twinforge.errors import HashMismatch, MalformedArchive, SandboxNotEmpty, SymlinkOutsideRoot, UndecodableInput
from twinforge.twin.image import (
    MAGIC,
    TwinImage,
    capture_image,
    load_image,
    load_manifest,
    save_image,
)
from twinforge.twin.checks import CheckSpec, FileExists, HashEquals, run_checks
from twinforge.twin.manifest import (
    ManifestEntry,
    ModifiedEntry,
    TwinDiff,
    diff_states,
    is_excluded,
    scan_tree,
    sha256_hex,
)
from twinforge.twin.patch import DeleteFile, PatchDelta, ReplaceFile, apply_patch
from twinforge.twin.sandbox import instantiate_twin

from conftest import UNNORMALIZED_PATHS, build_twin_tree, edit_image_manifest


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


def test_the_archive_is_the_magic_then_each_files_bytes_in_manifest_order(twin_tree, tmp_path):
    """An image file is the magic, the header's length as 8 big-endian
    bytes, the header's JSON text, then the archive: each file's bytes in
    manifest order, with offsets from 0."""
    image = capture_image(twin_tree)
    files = [e.path for e in image.manifest if e.kind == "file"]
    assert image.archive == b"".join((twin_tree / path).read_bytes() for path in files)
    path = tmp_path / "system.twimg"
    save_image(image, path)
    data = path.read_bytes()
    assert data.startswith(b"TWIMG3\x00") and MAGIC == b"TWIMG3\x00"
    length = int.from_bytes(data[7:15], "big")
    header = json.loads(data[15 : 15 + length].decode("utf-8"))
    assert [e["path"] for e in header["entries"]] == [e.path for e in image.manifest]
    assert data[15 + length :] == image.archive
    assert list(image.verified_files) == files
    for path, (_, content) in image.verified_files.items():
        assert content == (twin_tree / path).read_bytes(), path


def test_empty_directory_yields_empty_valid_image(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    image = capture_image(empty)
    assert image.manifest == ()
    assert image.archive == b""
    assert image.verified_files == {}


def test_symlink_escaping_root_is_refused(tmp_path):
    root = tmp_path / "root"
    root.mkdir()
    (tmp_path / "outside.txt").write_text("secret", encoding="utf-8")
    os.symlink(tmp_path / "outside.txt", root / "leak")
    with pytest.raises(SymlinkOutsideRoot):
        capture_image(root)


def test_nested_lock_named_file_is_an_ordinary_file(twin_tree, tmp_path):
    """No name is reserved: a ``.twin.lock`` at the root or deeper is
    captured, restored, patched and checked like any other file."""
    (twin_tree / "etc" / ".twin.lock").write_bytes(b"not a lock\n")
    (twin_tree / ".twin.lock").write_bytes(b"")
    image = capture_image(twin_tree)
    assert {".twin.lock", "etc/.twin.lock"} <= {e.path for e in image.manifest}
    twin = instantiate_twin(image, tmp_path / "sandbox")
    assert (twin.sandbox / "etc" / ".twin.lock").read_bytes() == b"not a lock\n"
    assert (twin.sandbox / ".twin.lock").read_bytes() == b""
    delta = PatchDelta((ReplaceFile(".twin.lock", b"root\n"), DeleteFile("etc/.twin.lock")))
    report = apply_patch(twin, delta)
    root_hash = sha256_hex(b"root\n")
    modified = ModifiedEntry(".twin.lock", sha256_hex(b""), root_hash)
    assert diff_states(image.manifest, report.manifest) == TwinDiff(("tmp",), ("etc/.twin.lock",), (modified,))
    spec = CheckSpec((FileExists(".twin.lock"), HashEquals(".twin.lock", root_hash), FileExists("etc/.twin.lock")))
    assert [r.passed for r in run_checks(twin, spec)] == [True, True, False]


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


_TREE_NAMES = ("a", "b", "cache", "conf.d")
_DIR_MODES = (0o755, 0o700, 0o1777)
_FILE_MODES = (0o644, 0o600, 0o755)
_TREE_EXCLUSIONS = ("tmp/**", "*.d", "b", "*/cache/**", "cache/**", "a/*")


@st.composite
def _mode_trees(draw):
    """File paths of one to three names, the directory modes the tree's
    directories cycle through, a root ``tmp`` (None, ``"file"`` or a
    directory's mode) and an exclusion set."""
    files = draw(st.lists(st.lists(st.sampled_from(_TREE_NAMES), min_size=1, max_size=3).map("/".join), max_size=6))
    modes = draw(st.lists(st.sampled_from(_DIR_MODES), min_size=1, max_size=4))
    tmp = draw(st.sampled_from((None, "file", *_DIR_MODES)))
    exclusions = draw(st.lists(st.sampled_from(_TREE_EXCLUSIONS), unique=True, max_size=3))
    return tuple(files), tuple(modes), tmp, tuple(exclusions)


def _build_mode_tree(root: Path, files, modes, tmp) -> None:
    root.mkdir()
    for path in files:
        node = root / path
        try:
            node.parent.mkdir(parents=True, exist_ok=True)
            node.write_bytes(path.encode())
        except (FileExistsError, NotADirectoryError, IsADirectoryError):
            pass  # a name already taken by a node of the other kind
    if tmp == "file":
        (root / "tmp").write_bytes(b"a file, not a directory\n")
    elif tmp is not None:
        (root / "tmp").mkdir()
        (root / "tmp" / "scratch.txt").write_bytes(b"ephemeral\n")
    for i, node in enumerate(sorted(root.rglob("*"))):
        node.chmod(modes[i % len(modes)] if node.is_dir() else _FILE_MODES[i % len(_FILE_MODES)])
    if tmp not in (None, "file"):
        (root / "tmp").chmod(tmp)


@settings(derandomize=True)
@example(tree=(("conf.d/f",), (0o755,), None, ("*.d",)))  # an excluded directory with a child
@example(tree=((), (0o755,), 0o1777, ()))  # an imaged tmp/ keeps its mode
@example(tree=(("a/f",), (0o700,), "file", ()))  # a root file tmp is restored as a file
@given(tree=_mode_trees())
def test_a_restored_twin_holds_exactly_its_image_plus_a_fresh_tmp(tmp_path_factory, tree):
    files, modes, tmp, exclusions = tree
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        root = Path(work) / "root"
        _build_mode_tree(root, files, modes, tmp)
        image = capture_image(root, exclusions)
        for entry in image.manifest:
            parts = entry.path.split("/")
            assert not any(is_excluded("/".join(parts[:k]), exclusions) for k in range(1, len(parts) + 1))
        expected = list(image.manifest)
        if all(entry.path != "tmp" for entry in expected):
            expected = sorted([*expected, ManifestEntry("tmp", "dir", 0, 0o755, None)], key=lambda e: e.path)
        twin = instantiate_twin(image, Path(work) / "sandbox")
        assert list(scan_tree(twin.sandbox)) == expected


def test_restore_refuses_entry_paths_outside_the_sandbox(twin_tree, tmp_path):
    """An entry's path is written only in the image's header, and loading
    refuses one that leads out of the sandbox; no image holding it can be built."""
    image = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), image)
    for path in ("", "../escaped", "bin/../../escaped", str(tmp_path / "abs" / "path"), "a\x00b"):
        edit_image_manifest(image, lambda doc: next(e for e in doc["entries"] if e["kind"] == "dir").update(path=path))
        with pytest.raises(MalformedArchive, match="relative and normalized"):
            load_image(image)
        with pytest.raises(ValueError, match="relative and normalized"):
            ManifestEntry(path, "dir", 0, 0o700, None)


def _image(*nodes: tuple[str, bytes | None]) -> TwinImage:
    """A hand-built image of ``nodes`` in the given order: (path, content),
    a directory where the content is None."""
    manifest, archive = [], []
    for path, content in nodes:
        data = content or b""
        archive.append(data)
        sha = None if content is None else hashlib.sha256(data).hexdigest()
        manifest.append(ManifestEntry(path, "dir" if content is None else "file", len(data), 0o755, sha))
    return TwinImage(tuple(manifest), b"".join(archive), (), "")


# Each of the first four once raised an OSError half-way through a restore
# and left the entries before it in the sandbox; the unlisted parent was once
# made with the umask's mode, so the twin held a directory its image did not.
# No such image can be made, so no restore is tried.
@pytest.mark.parametrize(
    "nodes, message",
    [
        ((("a", b"x"), ("a/b", b"y")), "a/b: manifest entry whose parent a is not a directory listed before it"),
        (
            (("a", b"x"), ("a-x", b"x"), ("a/b/c", b"y")),
            "a/b/c: manifest entry whose parent a/b is not a directory listed before it",
        ),
        ((("b", b"x"), ("a", b"y")), "a: manifest entry out of order after b"),
        ((("a", b"x"), ("a", b"x")), "a: manifest entry out of order after a"),
        ((("a/b", b"y"),), "a/b: manifest entry whose parent a is not a directory listed before it"),
        ((("a", None), ("a/b/c", b"y")), "a/b/c: manifest entry whose parent a/b is not a directory listed before it"),
    ],
    ids=["file-then-child", "file-then-grandchild", "out-of-order", "duplicate", "unlisted-parent",
         "unlisted-grandparent"],
)
def test_an_image_a_restore_cannot_write_creates_nothing(nodes, message):
    with pytest.raises(MalformedArchive, match=message):
        _image(*nodes)


def test_an_image_file_whose_entries_nest_under_a_file_does_not_load(tmp_path):
    path = tmp_path / "crafted.twimg"
    save_image(_image(("a", b"x"), ("b", b"y")), path)
    edit_image_manifest(path, lambda doc: doc["entries"][1].update(path="a/b"))
    message = f"{path}: a/b: manifest entry whose parent a is not a directory listed before it"
    with pytest.raises(MalformedArchive, match=re.escape(message)):
        load_image(path)


@pytest.mark.parametrize("path", UNNORMALIZED_PATHS)
def test_header_entry_paths_must_be_normalized_utf8(twin_tree, tmp_path, path):
    image = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), image)
    edit_image_manifest(image, lambda doc: doc["entries"][0].update(path=path))
    # the header's reader refuses a lone surrogate before any path rule
    rule = "a string that is not UTF-8 text" if path == "bin/\udcff" else "relative and normalized"
    with pytest.raises(MalformedArchive, match=rule):
        load_manifest(image)


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
    first = next(e.path for e in image.manifest if e.size)  # its bytes come first
    corrupted = bytearray(image.archive)
    corrupted[0] ^= 0xFF
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


def test_content_slices_are_views_of_the_archive(twin_tree):
    image = capture_image(twin_tree)
    sizes = {entry.path: entry.size for entry in image.manifest}
    for path, (_, content) in image.verified_files.items():
        assert isinstance(content, memoryview) and content.obj is image.archive, path
        assert len(content) == sizes[path], path


def _twimg1(image: TwinImage) -> bytes:
    """``image``'s archive in the layout before ``TWIMG2``: an entry count,
    then each entry's kind, mode, path and size ahead of its bytes."""
    out = [b"TWIMG1\x00", struct.pack(">I", len(image.manifest))]
    for entry in image.manifest:
        content = image.verified_files[entry.path][1] if entry.kind == "file" else b""
        raw = entry.path.encode("utf-8")
        out += [struct.pack(">BIH", entry.kind == "file", entry.mode, len(raw)), raw, struct.pack(">Q", len(content)), content]
    return b"".join(out)


def test_truncated_archive_is_malformed(twin_tree, tmp_path):
    """An image whose archive is truncated or extended cannot be made; a
    truncated or extended image file, or one in an older layout, is refused
    by each of its readers."""
    image = capture_image(twin_tree)
    path = tmp_path / "system.twimg"
    save_image(image, path)
    saved = path.read_bytes()
    sizes = r"holds \d+ content bytes, the manifest's sizes add up to \d+"
    for archive in (image.archive[:-1], image.archive + b"\x00"):
        with pytest.raises(MalformedArchive, match=sizes):
            TwinImage(image.manifest, archive, image.exclusions, image.created_at)
    for content, message in [
        (saved[:-1], sizes),
        (saved + b"\x00", sizes),
        (saved[: len(MAGIC) + 4], "the header runs past the end of the file"),
        (saved[: len(saved) - len(image.archive) - 1], "the header runs past the end of the file"),
        (_twimg1(image), "not a twin image of this format; capture the tree again"),
        (b"TWIMG2\x00" + image.archive, "not a twin image of this format; capture the tree again"),
        (b"NOTMAGIC" + saved, "not a twin image of this format"),
    ]:
        path.write_bytes(content)
        for load in (load_image, load_manifest):
            with pytest.raises(MalformedArchive, match=message):
                load(path)


@cache
def _small_image_file(basetemp: Path) -> bytes:
    """The bytes of an image file of the twin tree, captured at a fixed time."""
    image = capture_image(build_twin_tree(basetemp / "mutated-image-source"))
    path = basetemp / "mutated-image-source.twimg"
    save_image(replace(image, created_at="2024-06-01T00:00:00Z"), path)
    return path.read_bytes()


_HEAD = len(MAGIC) + 8  # the magic and the header's length


# (part, offset, xor): cut the file at the offset, or flip the byte at the
# offset, modulo the part's length, of the magic, the length or the header.
@settings(derandomize=True)
@example(mutation=("truncate", 0, 0))  # an empty file
@example(mutation=("truncate", -1, 0))  # the last byte of the archive
@example(mutation=("magic", 6, 1))  # b"TWIMG3\x01"
@example(mutation=("length", 7, 1))  # one header byte more or less
@example(mutation=("header", 20, 1))  # a digit of created_at: the image still restores
@given(mutation=st.tuples(st.sampled_from(("truncate", "magic", "length", "header")), st.integers(0, 1 << 16),
                          st.integers(1, 255)))
def test_a_mutated_image_file_is_refused_or_restored_as_its_header_lists(tmp_path_factory, mutation):
    """``twin create`` of an image file cut short, or with one byte of its
    magic, length or header flipped, exits 0 or 2 and raises nothing: 2
    leaves no sandbox, 0 a sandbox holding exactly the entries the mutated
    header lists (plus a fresh ``tmp/`` if it lists none)."""
    saved = _small_image_file(tmp_path_factory.getbasetemp())
    end = _HEAD + int.from_bytes(saved[len(MAGIC) : _HEAD], "big")
    part, offset, xor = mutation
    mutated = bytearray(saved)
    if part == "truncate":
        del mutated[offset % len(saved) :]
    else:
        start, stop = {"magic": (0, len(MAGIC)), "length": (len(MAGIC), _HEAD), "header": (_HEAD, end)}[part]
        mutated[start + offset % (stop - start)] ^= xor
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        path, sandbox = Path(work) / "mutated.twimg", Path(work) / "sandbox"
        path.write_bytes(mutated)
        code = main(["--quiet", "twin", "create", "--image", str(path), "--sandbox", str(sandbox)])
        assert code in (0, 2)
        if code == 2:
            assert not sandbox.exists()
            return
        length = int.from_bytes(mutated[len(MAGIC) : _HEAD], "big")
        listed = [ManifestEntry(**e) for e in json.loads(mutated[_HEAD : _HEAD + length])["entries"]]
        live = scan_tree(sandbox)
        if all(entry.path != "tmp" for entry in listed):
            live = tuple(entry for entry in live if entry != ManifestEntry("tmp", "dir", 0, 0o755, None))
        assert list(live) == listed


def test_image_file_round_trip(twin_tree, tmp_path):
    image = capture_image(twin_tree)
    path = tmp_path / "system.twimg"
    save_image(image, path)
    assert sorted(os.listdir(tmp_path)) == ["source", "system.twimg"]  # one file, no sidecar
    loaded = load_image(path)
    assert loaded == image


def test_manifest_round_trips_through_the_image_header(twin_tree, tmp_path):
    # ``twin diff --pre x.twimg`` reads the manifest from the image's header alone.
    image = capture_image(twin_tree)
    path = tmp_path / "system.twimg"
    save_image(image, path)
    assert load_manifest(path) == image.manifest


def test_header_keys_are_pinned(twin_tree, tmp_path):
    # Field names become on-disk keys, so renaming a field must fail here.
    (twin_tree / "etc" / "app.conf").chmod(0o640)
    path = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), path)
    docs = []
    edit_image_manifest(path, docs.append)
    (doc,) = docs
    assert set(doc) == {"created_at", "exclusions", "entries"}
    entry = next(e for e in doc["entries"] if e["path"] == "etc/app.conf")
    content = (twin_tree / "etc" / "app.conf").read_bytes()
    assert entry == {
        "path": "etc/app.conf",
        "kind": "file",
        "size": len(content),
        "mode": 0o640,
        "sha256": hashlib.sha256(content).hexdigest(),
    }


def test_header_entry_with_unknown_key_is_malformed(twin_tree, tmp_path):
    path = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), path)
    edit_image_manifest(path, lambda doc: doc["entries"][0].update(owner="root"))
    with pytest.raises(MalformedArchive):
        load_image(path)
    with pytest.raises(MalformedArchive):
        load_manifest(path)


# The header's sizes say where each file's bytes lie in the archive, so a
# size or a file entry that the archive does not hold is refused.
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc, e: e.update(size=1), r"the archive holds \d+ content bytes, the manifest's sizes add up to \d+"),
        (
            lambda doc, e: doc["entries"].append(dict(e, path="zz/absent")),
            r"the archive holds \d+ content bytes, the manifest's sizes add up to \d+",
        ),
    ],
    ids=["size", "absent-entry"],
)
def test_a_header_must_agree_with_its_archive(twin_tree, tmp_path, edit, message):
    (twin_tree / "etc" / "app.conf").chmod(0o644)
    path = tmp_path / "system.twimg"
    captured = capture_image(twin_tree)
    save_image(captured, path)
    entries = []

    def edited(doc):
        edit(doc, next(e for e in doc["entries"] if e["path"] == "etc/app.conf"))
        entries.extend(ManifestEntry(**e) for e in doc["entries"])

    edit_image_manifest(path, edited)
    for load in (load_image, load_manifest):
        with pytest.raises(MalformedArchive, match=message):
            load(path)
    # built in memory, without load_image, the image is refused when it is made
    with pytest.raises(MalformedArchive, match=message):
        TwinImage(tuple(entries), captured.archive, (), "")


def test_a_header_directory_claims_no_archive_bytes(twin_tree, tmp_path):
    path = tmp_path / "system.twimg"
    save_image(capture_image(twin_tree), path)
    edit_image_manifest(path, lambda doc: next(e for e in doc["entries"] if e["kind"] == "dir").update(size=3))
    with pytest.raises(MalformedArchive, match="0 for a directory"):
        load_image(path)


def test_diff_empty_and_symmetry(twin_tree, tmp_path):
    pre = scan_tree(twin_tree)
    assert diff_states(pre, pre) == TwinDiff((), (), ())

    other_root = build_twin_tree(tmp_path / "variant")
    (other_root / "bin" / "newtool").write_bytes(b"new")
    (other_root / "docs" / "readme.txt").write_text("changed\n", encoding="utf-8")
    (other_root / "apps" / "files").unlink()
    post = capture_image(other_root, ("tmp/**",)).manifest

    pre = capture_image(twin_tree, ("tmp/**",)).manifest
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
