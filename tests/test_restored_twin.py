"""A twin restored in process keeps its image's verified files: its patch
scans and hash checks read every file they need but hash only the bytes
that differ from the image, and each manifest and check result equals
the one a full hash gives."""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinforge.errors import DanglingSymlink
from twinforge.twin.checks import CheckSpec, HashEquals, run_checks
from twinforge.twin.image import capture_image
from twinforge.twin.manifest import sha256_hex, scan_tree
from twinforge.twin.patch import PatchDelta, ReplaceFile, apply_patch
from twinforge.twin.sandbox import TwinState, instantiate_twin

# Two paths with equal bytes, two with equal lengths and other bytes, and
# an empty file, so that a rule trusting the image by path or by length
# alone gets a hash wrong.
TREE = {
    "bin/tool": b"\x7fELF tool\n" * 40,
    "bin/tool-copy": b"\x7fELF tool\n" * 40,
    "docs/empty": b"",
    "docs/readme.txt": b"local system under test\n",
    "etc/a.conf": b"mode=safe\n",
    "etc/b.conf": b"mode=fast\n",
}
FILES = sorted(TREE)
CHECK_EVERY_FILE = CheckSpec(tuple(HashEquals(path, sha256_hex(content)) for path, content in TREE.items()))
CHECK_TOOL = CheckSpec((HashEquals("bin/tool", sha256_hex(TREE["bin/tool"])),))


@pytest.fixture(scope="module")
def image(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    for path, content in TREE.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_bytes(content)
    (root / "bin" / "tool").chmod(0o755)
    return capture_image(root)


@pytest.fixture()
def hashed(monkeypatch):
    """The lengths of the buffers hashed with SHA-256 while the test runs."""
    lengths = Counter()
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data=b"": lengths.update([len(data)]) or sha256(data))
    return lengths


def _mutate(box: Path, kind: str, path: str, other: str, where: int) -> None:
    """One change to the file ``path`` of the live tree; none when an
    earlier change has made it something other than a regular file."""
    node = box / path
    if node.is_symlink() or not node.is_file():
        return
    content = node.read_bytes()
    if kind == "flip" and content:
        i = (0, len(content) // 2, len(content) - 1)[where]
        node.write_bytes(content[:i] + bytes([content[i] ^ 1]) + content[i + 1 :])
    elif kind == "same":
        node.write_bytes(content)
    elif kind == "truncate":
        node.write_bytes(b"")
    elif kind == "append":
        node.write_bytes(content + b"x")
    elif kind == "chmod":
        node.chmod(node.stat().st_mode & 0o7777 ^ 0o100)
    elif kind == "delete":
        node.unlink()
    elif kind == "add":
        node.with_name(node.name + ".new").write_bytes(content)
    elif kind == "link" and other != path and (box / other).is_file():
        node.unlink()
        node.symlink_to(os.path.relpath(box / other, node.parent))
    elif kind == "dir":
        node.unlink()
        node.mkdir()


_KINDS = ("flip", "same", "truncate", "append", "chmod", "delete", "add", "link", "dir")
_mutations = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.sampled_from(FILES), st.sampled_from(FILES), st.integers(0, 2)),
    max_size=6,
)


def _outcome(read):
    """What ``read()`` returns, or the type of what it raises (the walk
    refuses a link left pointing at a deleted file)."""
    try:
        return read()
    except (OSError, DanglingSymlink) as exc:
        return type(exc)


@settings(derandomize=True)
@given(_mutations)
def test_a_restored_twin_reads_the_same_manifest_and_checks_as_a_full_hash(image, tmp_path_factory, mutations):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        box = Path(work) / "box"
        twin = instantiate_twin(image, box)
        for mutation in mutations:
            _mutate(box, *mutation)
        assert _outcome(lambda: scan_tree(box, known=twin.image_files)) == _outcome(lambda: scan_tree(box))
        assert _outcome(lambda: run_checks(twin, CHECK_EVERY_FILE)) == _outcome(
            lambda: run_checks(TwinState(box), CHECK_EVERY_FILE)
        )


def test_a_patch_of_a_restored_twin_hashes_only_the_file_it_wrote(image, tmp_path, hashed):
    twin = instantiate_twin(image, tmp_path / "box")
    hashed.clear()
    content = b"mode=slow\nretries=9\n"
    report = apply_patch(twin, PatchDelta((ReplaceFile("etc/a.conf", content),)))
    assert hashed == Counter({len(content): 1})
    assert report.manifest == scan_tree(twin.sandbox)


def test_a_hash_check_of_an_untouched_file_hashes_nothing(image, tmp_path, hashed):
    twin = instantiate_twin(image, tmp_path / "box")
    hashed.clear()
    (result,) = run_checks(twin, CHECK_TOOL)
    assert result.passed
    assert hashed.total() == 0


def test_a_twin_built_from_a_path_hashes_every_file(image, tmp_path, hashed):
    instantiate_twin(image, tmp_path / "box")
    twin = TwinState(tmp_path / "box")
    hashed.clear()
    apply_patch(twin, PatchDelta((ReplaceFile("etc/a.conf", b"mode=slow\n"),)))
    assert hashed.total() == len(TREE)
    hashed.clear()
    (result,) = run_checks(twin, CHECK_TOOL)
    assert result.passed
    assert hashed == Counter({len(TREE["bin/tool"]): 1})
