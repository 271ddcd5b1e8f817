"""Dry-run replay of macro scripts against a twin's state.

No process is launched: the interpreter only checks the same failure
classes a desktop replay would hit. ``Run`` targets must name an executable
(a file under ``bin/`` or ``apps/``), by its bare base name or by its exact
path, and register a window titled by the target's stem; window verbs
require that window to have been opened; ``Send`` requires an active
window; ``Click`` must land inside the virtual screen. Failures are data,
not exceptions, and the walk stops at the first one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePosixPath

from twinforge.ingest.macro import MacroScript
from twinforge.twin.manifest import FILE, walk_tree
from twinforge.twin.sandbox import TwinState, sandbox_lock

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


def executable_targets(entries) -> set[str]:
    """What a ``Run`` may name, from ``walk_tree``'s ``(path, kind)``
    pairs: the path of each file under an executable prefix, and its base
    name."""
    targets = set()
    for path, kind in entries:
        if kind == FILE and path.startswith(EXECUTABLE_PREFIXES):
            targets.update((path, PurePosixPath(path).name))
    return targets


def replay_validate(script: MacroScript, twin: TwinState) -> ReplayResult:
    """Interpret the script against the twin's file list, walked under the
    sandbox lock; purely read-only, and no file is read."""
    with sandbox_lock(twin.sandbox):
        executables = executable_targets(walk_tree(twin.sandbox))
    screen = twin.screen
    windows: set[str] = set()
    active: str | None = None

    for index, cmd in enumerate(script.commands, start=1):
        failure: ReplayFailure | None = None
        if cmd.verb == "Run":
            target = str(cmd.args[0])
            if target in executables:
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
            if not (0 <= x < screen.width and 0 <= y < screen.height):
                failure = ReplayFailure(
                    OUT_OF_BOUNDS, index, f"({x}, {y}) outside {screen.width}x{screen.height}"
                )
        elif cmd.verb == "Send":
            if active is None:
                failure = ReplayFailure(NO_ACTIVE_WINDOW, index, "Send with no active window")
        # Sleep always succeeds

        if failure is not None:
            return ReplayResult(ok=False, first_failure=failure)
    return ReplayResult(ok=True, first_failure=None)
