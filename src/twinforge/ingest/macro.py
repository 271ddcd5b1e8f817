"""Macro test scripts: a six-verb AutoHotkey-like grammar.

Grammar, one command per line::

    Run, <target>                 launch an executable
    Send, <text>                  type text into the active window
    Click, <x>, <y>               click at virtual-screen coordinates
    Sleep, <milliseconds>         pause
    WinActivate, <title>          focus an open window
    WinWaitActive, <title>        wait for and focus an open window

Lines starting with ``;`` are comments; blank lines are ignored. Text
arguments run to the end of the line (so Send text may contain commas) and
are stripped of surrounding whitespace, which makes ``parse(emit(s)) == s``
hold for every constructible script.
"""

from __future__ import annotations

from dataclasses import dataclass

from twinforge.digits import ascii_int
from twinforge.errors import BadArg, BadArity, EmptyScript, MacroSyntaxError, UnknownVerb
from twinforge.jsonfile import is_utf8_text

# Sequence sentinels used by tokenize_script and the sequence models.
BOS = "<s>"
EOS = "</s>"

# Each verb by its lower-case spelling: its canonical spelling and its number
# of integer arguments, where 0 means one text argument (rest of line).
_VERBS = {
    "run": ("Run", 0),
    "send": ("Send", 0),
    "winactivate": ("WinActivate", 0),
    "winwaitactive": ("WinWaitActive", 0),
    "sleep": ("Sleep", 1),
    "click": ("Click", 2),
}


def _check_text_arg(verb: str, arg: object) -> None:
    if not isinstance(arg, str):
        raise BadArg(f"{verb} takes a text argument")
    if arg != arg.strip() or not arg:
        raise BadArg(f"{verb} argument must be non-empty with no surrounding whitespace")
    if arg.splitlines() != [arg]:  # the parser splits lines where str.splitlines does
        raise BadArg(f"{verb} argument must not contain line breaks")
    if not is_utf8_text(arg):  # a lone surrogate, as Python gives an argv byte that is not UTF-8
        raise BadArg(f"{verb} argument is not valid UTF-8 text: {arg!r}")


def _check_int_arg(verb: str, arg: object) -> None:
    if isinstance(arg, str):  # text the parser could not read as an int says why
        try:
            ascii_int(arg, f"{verb} argument")
        except ValueError as exc:
            raise BadArg(str(exc)) from None
    if isinstance(arg, bool) or not isinstance(arg, int):
        raise BadArg(f"{verb} arguments must be integers")
    if arg < 0:
        raise BadArg(f"{verb} arguments must be >= 0")


@dataclass(frozen=True)
class MacroCommand:
    """A single verb plus validated arguments: the one judge of the grammar's
    verbs, arities and arguments. Its errors carry no position; the reader
    that walks the text adds one."""

    verb: str
    args: tuple[str | int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        canonical, n_ints = _VERBS.get(self.verb.lower(), (None, 0))
        if self.verb != canonical:
            hint = f" (did you mean {canonical!r}?)" if canonical else ""
            raise UnknownVerb(f"unknown verb {self.verb!r}{hint}")
        if len(self.args) != (n_ints or 1):
            count = f"{n_ints} argument(s)" if n_ints else "one argument"
            raise BadArity(f"{self.verb} takes exactly {count}")
        for arg in self.args:
            (_check_int_arg if n_ints else _check_text_arg)(self.verb, arg)

    def emit(self) -> str:
        """Canonical line form: verb, one space after each comma."""
        return f"{self.verb}, " + ", ".join(str(a) for a in self.args)


@dataclass(frozen=True)
class MacroScript:
    """A named, ordered, non-empty command list."""

    name: str
    commands: tuple[MacroCommand, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "commands", tuple(self.commands))
        if not self.commands:
            raise EmptyScript(f"script {self.name!r} has no commands")


def _int_or_text(part: str) -> int | str:
    try:
        return ascii_int(part, "argument")
    except ValueError:
        return part  # MacroCommand refuses it, saying why


def parse_macro_line(line: str) -> MacroCommand:
    """Split one command line into its verb and arguments for MacroCommand
    to judge. The verb is matched in any case and takes its canonical
    spelling; an integer verb's arguments are split at commas and those of
    ASCII digits read as ints. An empty argument is a missing one, so a line
    with one passes no arguments and gets the verb's arity refusal."""
    head, _, rest = line.partition(",")
    verb, n_ints = _VERBS.get(head.strip().lower(), (head.strip(), 0))
    parts = [part.strip() for part in (rest.split(",") if n_ints else [rest])]
    if not all(parts):
        return MacroCommand(verb, ())
    return MacroCommand(verb, tuple(map(_int_or_text, parts)) if n_ints else tuple(parts))


def parse_macro_script(text: str, name: str = "script") -> MacroScript:
    """Parse script text; comments and blank lines are skipped, and an
    error names its line."""
    commands = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            commands.append(parse_macro_line(line))
        except MacroSyntaxError as exc:
            raise type(exc)(exc.reason, line_no=line_no) from None
    return MacroScript(name, tuple(commands))


def emit_macro_script(script: MacroScript) -> str:
    """Canonical text form, one command per line, trailing newline."""
    return "\n".join(cmd.emit() for cmd in script.commands) + "\n"


def tokenize_script(script: MacroScript) -> tuple[str, ...]:
    """One token per command (its canonical line), wrapped in BOS/EOS."""
    return (BOS, *(cmd.emit() for cmd in script.commands), EOS)
