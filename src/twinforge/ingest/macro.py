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

from twinforge.errors import BadArg, BadArity, EmptyScript, MacroSyntaxError, UnknownVerb

# Sequence sentinels used by tokenize_script and the sequence models.
BOS = "<s>"
EOS = "</s>"

# Verbs whose single argument is free text (rest of line).
_TEXT_VERBS = {"run": "Run", "send": "Send", "winactivate": "WinActivate", "winwaitactive": "WinWaitActive"}
# Verbs with fixed non-negative integer arguments.
_INT_VERBS = {"sleep": ("Sleep", 1), "click": ("Click", 2)}


def _check_text_arg(verb: str, arg: object) -> None:
    if not isinstance(arg, str):
        raise BadArg(f"{verb} takes a text argument")
    if arg != arg.strip() or not arg:
        raise BadArg(f"{verb} argument must be non-empty with no surrounding whitespace")
    if arg.splitlines() != [arg]:  # the parser splits lines where str.splitlines does
        raise BadArg(f"{verb} argument must not contain line breaks")
    try:
        arg.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate, as Python gives an argv byte that is not UTF-8
        raise BadArg(f"{verb} argument is not valid UTF-8 text: {exc}") from exc


def _check_int_arg(verb: str, arg: object) -> None:
    if isinstance(arg, bool) or not isinstance(arg, int):
        raise BadArg(f"{verb} arguments must be integers")
    if arg < 0:
        raise BadArg(f"{verb} arguments must be >= 0")


@dataclass(frozen=True)
class MacroCommand:
    """A single verb plus validated arguments."""

    verb: str
    args: tuple[str | int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))
        key = self.verb.lower()
        if key in _TEXT_VERBS:
            if self.verb != _TEXT_VERBS[key]:
                raise UnknownVerb(f"unknown verb {self.verb!r} (did you mean {_TEXT_VERBS[key]!r}?)")
            if len(self.args) != 1:
                raise BadArity(f"{self.verb} takes exactly one argument")
            _check_text_arg(self.verb, self.args[0])
        elif key in _INT_VERBS:
            canonical, arity = _INT_VERBS[key]
            if self.verb != canonical:
                raise UnknownVerb(f"unknown verb {self.verb!r} (did you mean {canonical!r}?)")
            if len(self.args) != arity:
                raise BadArity(f"{self.verb} takes exactly {arity} argument(s)")
            for arg in self.args:
                _check_int_arg(self.verb, arg)
        else:
            raise UnknownVerb(f"unknown verb {self.verb!r}")

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


def parse_macro_line(line: str, line_no: int | None = None) -> MacroCommand:
    """Parse one command line, attributing errors to ``line_no`` when given."""
    head, sep, rest = line.partition(",")
    verb_raw = head.strip()
    key = verb_raw.lower()
    try:
        if key in _TEXT_VERBS:
            verb = _TEXT_VERBS[key]
            arg = rest.strip()
            if not sep or not arg:
                raise BadArity(f"{verb} takes exactly one argument")
            return MacroCommand(verb, (arg,))
        if key in _INT_VERBS:
            verb, arity = _INT_VERBS[key]
            if not sep:
                raise BadArity(f"{verb} takes exactly {arity} argument(s)")
            parts = [p.strip() for p in rest.split(",")]
            if len(parts) != arity or any(not p for p in parts):
                raise BadArity(f"{verb} takes exactly {arity} argument(s)")
            # int() also takes "_" separators, a sign and non-ASCII digits,
            # and refuses more digits than sys.get_int_max_str_digits()
            for part in parts:
                if not (part.isascii() and part.isdigit()):
                    raise BadArg(f"{verb} argument must be ASCII digits, got {part!r}")
            try:
                return MacroCommand(verb, tuple(map(int, parts)))
            except ValueError as exc:
                raise BadArg(f"{verb} argument is not an integer: {exc}") from None
        raise UnknownVerb(f"unknown verb {verb_raw!r}")
    except MacroSyntaxError as exc:
        if line_no is not None and exc.line_no is None:
            raise type(exc)(exc.reason, line_no=line_no) from None
        raise


def parse_macro_script(text: str, name: str = "script") -> MacroScript:
    """Parse script text; comments and blank lines are skipped."""
    commands = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        commands.append(parse_macro_line(line, line_no))
    if not commands:
        raise EmptyScript(f"script {name!r} has no commands")
    return MacroScript(name, tuple(commands))


def emit_macro_script(script: MacroScript) -> str:
    """Canonical text form, one command per line, trailing newline."""
    return "\n".join(cmd.emit() for cmd in script.commands) + "\n"


def tokenize_script(script: MacroScript) -> tuple[str, ...]:
    """One token per command (its canonical line), wrapped in BOS/EOS."""
    return (BOS, *(cmd.emit() for cmd in script.commands), EOS)
