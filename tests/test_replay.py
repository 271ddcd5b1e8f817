"""Dry-run replay rules against an instantiated twin."""

from __future__ import annotations

import pytest

from twinforge.ingest import parse_macro_script
from twinforge.twin import capture_image, instantiate_twin
from twinforge.validate import (
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
    before = twin.manifest()
    for script in script_corpus:
        result = replay_validate(script, twin)
        assert result.ok, f"{script.name}: {result.first_failure}"
    assert twin.manifest() == before
