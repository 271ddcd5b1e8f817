"""Dry-run replay of macro scripts against a twin's state.

No process is launched: the interpreter only checks the same failure
classes a desktop replay would hit. ``Run`` targets must name an executable
manifest entry (a file under ``bin/`` or ``apps/``) and register a window
titled by the target's stem; window verbs require that window to have been
opened; ``Send`` requires an active window; ``Click`` must land inside the
virtual screen. Failures are data, not exceptions, and the walk stops at
the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import TYPE_CHECKING

from twinforge.ingest.macro import MacroScript

if TYPE_CHECKING:  # only for annotations; replay works on any twin-shaped object
    from twinforge.twin.sandbox import TwinState

EXECUTABLE_PREFIXES = ("bin/", "apps/")

MISSING_TARGET = "MissingTarget"
MISSING_WINDOW = "MissingWindow"
OUT_OF_BOUNDS = "OutOfBounds"
NO_ACTIVE_WINDOW = "NoActiveWindow"


@dataclass(frozen=True)
class ReplayFailure:
    kind: str
    index: int  # 1-based command position
    detail: str


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    first_failure: ReplayFailure | None


def executable_names(manifest) -> set[str]:
    """Base names of manifest files living under an executable prefix."""
    names = set()
    for entry in manifest:
        if entry.kind == "file" and entry.path.startswith(EXECUTABLE_PREFIXES):
            names.add(PurePosixPath(entry.path).name)
    return names


def replay_validate(script: MacroScript, twin: "TwinState") -> ReplayResult:
    """Interpret the script against the twin manifest; purely read-only."""
    executables = executable_names(twin.manifest())
    screen_w, screen_h = twin.screen_width, twin.screen_height
    windows: set[str] = set()
    active: str | None = None

    for index, cmd in enumerate(script.commands, start=1):
        failure: ReplayFailure | None = None
        if cmd.verb == "Run":
            target = str(cmd.args[0])
            if target in executables or any(
                target == f"{prefix}{name}" for prefix in EXECUTABLE_PREFIXES for name in executables
            ):
                windows.add(PurePosixPath(target).stem)
            else:
                failure = ReplayFailure(MISSING_TARGET, index, f"no executable {target!r} in manifest")
        elif cmd.verb in ("WinActivate", "WinWaitActive"):
            title = str(cmd.args[0])
            if title in windows:
                active = title
            else:
                failure = ReplayFailure(MISSING_WINDOW, index, f"window {title!r} was never opened")
        elif cmd.verb == "Click":
            x, y = int(cmd.args[0]), int(cmd.args[1])
            if not (0 <= x < screen_w and 0 <= y < screen_h):
                failure = ReplayFailure(
                    OUT_OF_BOUNDS, index, f"({x}, {y}) outside {screen_w}x{screen_h}"
                )
        elif cmd.verb == "Send":
            if active is None:
                failure = ReplayFailure(NO_ACTIVE_WINDOW, index, "Send with no active window")
        # Sleep always succeeds

        if failure is not None:
            return ReplayResult(ok=False, first_failure=failure)
    return ReplayResult(ok=True, first_failure=None)
