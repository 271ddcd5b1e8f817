"""Dry-run replay rules against an instantiated twin."""

from __future__ import annotations

import pytest

from twinforge.errors import SymlinkOutsideRoot
from twinforge.ingest.macro import parse_macro_script
from twinforge.twin.image import capture_image
from twinforge.twin.manifest import scan_tree
from twinforge.twin.sandbox import instantiate_twin
from twinforge.validate.replay import (
    EXECUTABLE_PREFIXES,
    MISSING_TARGET,
    MISSING_WINDOW,
    NO_ACTIVE_WINDOW,
    OUT_OF_BOUNDS,
    replay_validate,
)


@pytest.fixture()
def twin(twin_tree, tmp_path):
    image = capture_image(twin_tree)
    return instantiate_twin(image, tmp_path / "sandbox")


def test_happy_path(twin):
    script = parse_macro_script(
        "Run, chrome.exe\nWinActivate, chrome\nSend, hi", name="ok"
    )
    result = replay_validate(script, twin)
    assert result.ok
    assert result.first_failure is None


def test_missing_target(twin):
    script = parse_macro_script("Run, ghost.exe", name="ghost")
    result = replay_validate(script, twin)
    assert not result.ok
    assert result.first_failure.kind == MISSING_TARGET
    assert result.first_failure.index == 1


def test_click_out_of_bounds(twin):
    script = parse_macro_script("Run, chrome.exe\nClick, 99999, 10", name="oob")
    result = replay_validate(script, twin)
    assert result.first_failure.kind == OUT_OF_BOUNDS
    assert result.first_failure.index == 2


def test_window_must_be_opened_first(twin):
    script = parse_macro_script("Run, chrome.exe\nWinActivate, gedit", name="wrongwin")
    result = replay_validate(script, twin)
    assert result.first_failure.kind == MISSING_WINDOW


def test_send_requires_active_window(twin):
    script = parse_macro_script("Run, chrome.exe\nSend, hello", name="noactive")
    result = replay_validate(script, twin)
    assert result.first_failure.kind == NO_ACTIVE_WINDOW


def test_sleep_always_passes(twin):
    script = parse_macro_script("Sleep, 10\nSleep, 0", name="naps")
    assert replay_validate(script, twin).ok


def test_events_truncate_at_first_failure(twin):
    # a second, different failure later on must not replace the first
    script = parse_macro_script(
        "Run, chrome.exe\nRun, ghost.exe\nSleep, 5\nClick, 99999, 10", name="stops"
    )
    result = replay_validate(script, twin)
    assert not result.ok
    assert result.first_failure.kind == MISSING_TARGET
    assert result.first_failure.index == 2


def test_fixture_corpus_replays_cleanly(twin, script_corpus):
    before = scan_tree(twin.sandbox)
    for script in script_corpus:
        result = replay_validate(script, twin)
        assert result.ok, f"{script.name}: {result.first_failure}"
    assert scan_tree(twin.sandbox) == before


def test_executables_match_a_full_scan(twin, tmp_path):
    """Replay takes executables from a walk that hashes nothing, with the
    results the module's contract gives for a full ``scan_tree`` manifest:
    a ``Run`` names a file under ``bin/`` or ``apps/`` by its bare base name
    or by its exact path."""
    (twin.sandbox / "bin" / "alias").symlink_to("../apps/gedit")
    (twin.sandbox / "apps" / "more").symlink_to("../docs")
    (twin.sandbox / "apps" / "suite").mkdir()
    (twin.sandbox / "apps" / "suite" / "calc").write_bytes(b"calc\n")
    manifest = scan_tree(twin.sandbox)
    executables = {e.path for e in manifest if e.kind == "file" and e.path.startswith(EXECUTABLE_PREFIXES)}
    names = {path.rsplit("/", 1)[-1] for path in executables}
    assert {"alias", "calc", "gedit"} <= names and "more" not in names
    targets = sorted({e.path.rsplit("/", 1)[-1] for e in manifest} | {e.path for e in manifest})
    for target in targets + ["ghost.exe", "bin/ghost", "bin/gedit", "bin/calc", "suite/calc"]:
        expected = target in executables or ("/" not in target and target in names)
        result = replay_validate(parse_macro_script(f"Run, {target}", name="run"), twin)
        assert result.ok == expected, target

    outside = tmp_path / "outside"
    outside.write_bytes(b"elsewhere\n")
    (twin.sandbox / "docs" / "escape").symlink_to(outside)
    with pytest.raises(SymlinkOutsideRoot):
        replay_validate(parse_macro_script("Run, chrome.exe", name="run"), twin)


@pytest.mark.parametrize(
    "target, ok",
    [
        ("gedit", True),
        ("apps/gedit", True),
        ("bin/gedit", False),  # gedit is under apps/, not bin/
        ("tool", True),
        ("bin/sub/tool", True),
        ("bin/tool", False),  # tool is under bin/sub/
        ("sub/tool", False),
    ],
)
def test_run_names_a_base_name_or_an_exact_path(twin, target, ok):
    (twin.sandbox / "bin" / "sub").mkdir()
    (twin.sandbox / "bin" / "sub" / "tool").write_bytes(b"tool\n")
    result = replay_validate(parse_macro_script(f"Run, {target}", name="run"), twin)
    assert result.ok == ok
    assert ok or result.first_failure.kind == MISSING_TARGET
