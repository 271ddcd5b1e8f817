"""The tree walk: one ``os.scandir`` per directory, the same entries as the
``os.walk`` reference, no directory skipped in silence, and one exclusion
rule that drops an excluded directory with everything under it."""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinforge.cli import main
from twinforge.errors import TwinforgeError
from twinforge.twin.image import capture_image
from twinforge.twin.manifest import DEFAULT_EXCLUSIONS, is_excluded, scan_tree, walk_tree
from twinforge.twin.sandbox import instantiate_twin

import reference_loops as ref


def _outcome(walk, root, exclusions):
    """What ``walk`` returns, or the type of what it raises."""
    try:
        return walk(root, exclusions)
    except (OSError, TwinforgeError) as exc:
        return type(exc)


EXCLUSION_SETS = [(), DEFAULT_EXCLUSIONS, ("tmp/**",), ("tmp",), ("*.conf", "bin/*"), ("*/**",)]


@pytest.mark.parametrize("exclusions", EXCLUSION_SETS, ids=repr)
def test_the_walk_matches_the_reference_on_the_fixture_trees(twin_tree, tmp_path, exclusions):
    twin = instantiate_twin(capture_image(twin_tree, ()), tmp_path / "sandbox")
    (twin.sandbox / "docs" / "current").symlink_to("readme.txt")
    (twin.sandbox / "apps" / "bin").symlink_to("../bin")
    for root in (twin_tree, twin.sandbox):
        assert walk_tree(root, exclusions) == ref.walk_tree(root, exclusions)


_NAMES = ("a", "b", "tmp", "proc", "x.log")
_FAULTS = ("escaping", "dangling", "loop", "not-utf8")
_EXCLUSIONS = ("tmp/**", "proc/**", "*.log", "b", "a/*/**", "*/b/**")


@st.composite
def _trees(draw):
    """Files at paths of one to three names, links to some of the nodes
    they make, at most one fault and a set of exclusion patterns."""
    files = draw(st.lists(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3).map("/".join), max_size=8))
    links = draw(st.lists(st.tuples(st.sampled_from(_NAMES), st.integers(0, 30), st.integers(0, 30)), max_size=3))
    fault = draw(st.none() | st.tuples(st.sampled_from(_FAULTS), st.integers(0, 30)))
    exclusions = draw(st.lists(st.sampled_from(_EXCLUSIONS), unique=True, max_size=3))
    return files, links, fault, tuple(exclusions)


def _build(root: Path, files, links, fault) -> None:
    root.mkdir()
    for path in files:
        node = root / path
        try:
            node.parent.mkdir(parents=True, exist_ok=True)
            node.write_bytes(path.encode())
        except (FileExistsError, NotADirectoryError, IsADirectoryError):
            pass  # a name already taken by a node of the other kind
    nodes = sorted(root.rglob("*"))
    dirs = [root, *(node for node in nodes if node.is_dir())]
    for name, where, target in links:
        link = dirs[where % len(dirs)] / f"l{name}"
        if nodes and not link.exists():
            link.symlink_to(os.path.relpath(nodes[target % len(nodes)], link.parent))
    if fault is not None:
        kind, where = fault
        node = dirs[where % len(dirs)] / "zz"
        if kind == "escaping":
            node.symlink_to(root.parent / "outside")
        elif kind == "dangling":
            node.symlink_to("missing")
        elif kind == "loop":
            node.symlink_to("zz")
        else:
            (node.parent / os.fsdecode(b"\xff")).write_bytes(b"x")


@settings(derandomize=True, max_examples=200)
@given(_trees())
def test_the_walk_matches_the_reference_on_generated_trees(tmp_path_factory, tree):
    files, links, fault, exclusions = tree
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        (Path(work) / "outside").write_bytes(b"secret\n")
        root = Path(work) / "root"
        _build(root, files, links, fault)
        assert _outcome(walk_tree, root, exclusions) == _outcome(ref.walk_tree, root, exclusions)


def _refusing_scandir(monkeypatch, refused: str):
    """Make ``os.scandir`` raise PermissionError for directories named
    ``refused`` and record every directory it lists."""
    listed = []
    scandir = os.scandir

    def refusing(path="."):
        listed.append(os.fspath(path))
        if os.path.basename(os.fspath(path)) == refused:
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refusing)
    return listed


def test_a_directory_the_walk_cannot_list_is_an_error(tmp_path, monkeypatch, capsys):
    # ``os.walk`` skipped it in silence, so ``capture`` wrote an image
    # without ``a/locked/secret`` and exited 0.
    root = tmp_path / "root"
    (root / "a" / "locked").mkdir(parents=True)
    (root / "a" / "locked" / "secret").write_bytes(b"x")
    (root / "a" / "open").write_bytes(b"y")
    _refusing_scandir(monkeypatch, "locked")
    for read in (walk_tree, scan_tree, capture_image):
        with pytest.raises(PermissionError):
            read(root)
    image = tmp_path / "sys.twimg"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"workspace": str(tmp_path / "ws")}), encoding="utf-8")
    assert main(["--config", str(config), "capture", "--root", str(root), "--out", str(image)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert not image.exists()


def test_a_directory_excluded_whole_is_not_listed(tmp_path, monkeypatch):
    root = tmp_path / "root"
    for directory in ("proc/1/locked", "sys/locked", "etc", "tmp/t"):
        (root / directory).mkdir(parents=True)
    (root / "etc" / "app.conf").write_bytes(b"mode=safe\n")
    listed = _refusing_scandir(monkeypatch, "locked")
    cases = [  # x/**, a bare name, */x/**
        (DEFAULT_EXCLUSIONS, ["etc", "etc/app.conf"], [".", "etc"]),
        (("proc", "sys", "tmp"), ["etc", "etc/app.conf"], [".", "etc"]),
        (("*/1/**", "sys/**", "tmp/**"), ["etc", "etc/app.conf", "proc"], [".", "etc", "proc"]),
    ]
    for exclusions, manifest, directories in cases:
        listed.clear()
        image = capture_image(root, exclusions)
        assert [e.path for e in image.manifest] == manifest, exclusions
        assert sorted(os.path.relpath(path, root) for path in listed) == directories, exclusions


_RULE_PATHS = (
    "tmp", "tmp/x", "a", "a/b", "a/cache", "a/cache/f", "a/x.log", "b", "b/c",
    "cache", "cache/g", "conf.d", "conf.d/f", "proc", "proc/1/status", "x.log",
)
_RULE_PATTERNS = ("tmp/**", "*.d", "b", "*/cache/**", "cache/**", "a/*", "*/**", "*.log", "proc/**", "[ab]/**")


def test_the_exclusion_rule_matches_the_per_pattern_reference():
    sets = [()] + [(p,) for p in _RULE_PATTERNS] + list(itertools.combinations(_RULE_PATTERNS, 2))
    for patterns in sets:
        for path in _RULE_PATHS:
            assert is_excluded(path, patterns) == ref.is_excluded(path, patterns), (path, patterns)
    # the directory of a wildcard ``x/**`` goes with its subtree, and ``*/**`` takes every path
    assert is_excluded("a/cache", ("*/cache/**",)) and is_excluded("cache", ("cache/**",))
    assert all(is_excluded(path, ("*/**",)) for path in _RULE_PATHS)
    assert not is_excluded("a/cache", ()) and not is_excluded("acache", ("*/cache/**",))
