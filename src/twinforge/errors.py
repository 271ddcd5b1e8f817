"""Exception types shared across the package.

Plain file-system failures (unreadable paths, permission errors) surface as
the standard OSError. Everything the pipeline itself can reject gets a typed
subclass of TwinforgeError so callers and the CLI can map failures to exit
codes without string matching.
"""

from __future__ import annotations


class TwinforgeError(Exception):
    """Base class for every error raised by this package."""


# -- ingest: process tables and CSV datasets --------------------------------


class MalformedTime(TwinforgeError):
    """Elapsed-time text does not match the MM:SS.t shape."""


class MalformedLine(TwinforgeError):
    """A process-capture line could not be parsed."""

    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptyCapture(TwinforgeError):
    """A process capture contained no data lines."""


class MalformedCsv(TwinforgeError):
    """A dataset CSV file violates the on-disk format."""


class MalformedRow(TwinforgeError, ValueError):
    """A dataset row breaks a cell or pid rule; ``row`` is its 0-based index,
    which each reader turns into the line of its own input."""

    def __init__(self, row: int, reason: str) -> None:
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


# -- ingest: macro scripts ---------------------------------------------------


class MacroSyntaxError(TwinforgeError):
    """Base for macro-script grammar violations; carries source position."""

    def __init__(self, reason: str, line_no: int | None = None, token_index: int | None = None) -> None:
        where = ""
        if line_no is not None:
            where = f"line {line_no}: "
        elif token_index is not None:
            where = f"token {token_index}: "
        super().__init__(where + reason)
        self.reason = reason
        self.line_no = line_no
        self.token_index = token_index


class UnknownVerb(MacroSyntaxError):
    """A command verb outside the supported grammar."""


class BadArity(MacroSyntaxError):
    """Wrong number of arguments for a verb."""


class BadArg(MacroSyntaxError):
    """An argument with the right arity but an invalid value."""


class EmptyScript(MacroSyntaxError):
    """A macro script with zero commands; it has no position."""


# -- tabular synthesis -------------------------------------------------------


class TooFewValues(TwinforgeError):
    """Not enough values to fit a mixture."""


class UnknownCategory(TwinforgeError):
    """A discrete value absent from the training category table."""

    def __init__(self, column: str, value: str) -> None:
        super().__init__(f"column {column!r}: unknown category {value!r}")
        self.column = column
        self.value = value


class TooFewRows(TwinforgeError):
    """Dataset smaller than one training batch."""


class NonFiniteLoss(TwinforgeError):
    """Training produced a NaN or infinite loss."""

    def __init__(self, step: int, which: str) -> None:
        super().__init__(f"non-finite {which} loss at step {step}")
        self.step = step
        self.which = which


class EmptySample(TwinforgeError):
    """A distance was requested over an empty sample."""


class GateExhausted(TwinforgeError):
    """The acceptance gate rejected every sampled batch."""

    def __init__(self, max_attempts: int, column: str, distance: float, threshold: float) -> None:
        super().__init__(
            f"gate exhausted after {max_attempts} attempts; worst column "
            f"{column!r} at distance {distance:.6g} (threshold {threshold:.6g})"
        )
        self.max_attempts = max_attempts
        self.column = column
        self.distance = distance
        self.threshold = threshold


class MalformedModel(TwinforgeError):
    """A persisted model file does not match its documented schema."""


# -- sequence synthesis ------------------------------------------------------


class EmptyCorpus(TwinforgeError):
    """No training sequences were provided."""


class ServiceUnreachable(TwinforgeError):
    """The external generation service could not be reached."""


class ServiceBadResponse(TwinforgeError):
    """The external generation service returned an invalid payload."""


class ServiceTimeout(TwinforgeError):
    """The external generation service did not answer in time."""


# -- validation --------------------------------------------------------------


class EmptyDataset(TwinforgeError):
    """Statistics were requested over a dataset with no rows."""


class SchemaMismatch(TwinforgeError):
    """Two datasets being compared have different schemas."""


class EmptyCandidate(TwinforgeError):
    """BLEU candidate sequence is empty."""


class NoReferences(TwinforgeError):
    """BLEU reference list is empty."""


class MalformedReport(TwinforgeError):
    """A report file does not match its documented schema."""


# -- twin harness ------------------------------------------------------------


class SandboxNotEmpty(TwinforgeError):
    """The target sandbox directory already has contents."""


class HashMismatch(TwinforgeError):
    """An image's file content does not match its manifest hash."""

    def __init__(self, path: str, expected: str, actual: str) -> None:
        super().__init__(f"{path}: expected sha256 {expected}, got {actual}")
        self.path = path
        self.expected = expected
        self.actual = actual


class SymlinkOutsideRoot(TwinforgeError):
    """A symlink escapes the capture root."""


class DanglingSymlink(TwinforgeError):
    """A symlink in a twin tree leads to no file or directory."""


class MalformedArchive(TwinforgeError):
    """A twin image, its header or its archive, is structurally invalid."""


class PatchOpRefused(TwinforgeError):
    """A patch op does not fit the twin, so the patch is undone; the message
    names the op by its 1-based index and says why."""


class DeleteMissing(PatchOpRefused):
    """DeleteFile targeted a path absent from the twin."""


class ReplaceMissing(PatchOpRefused):
    """ReplaceFile targeted a path absent from the twin."""


class AddExisting(PatchOpRefused):
    """AddFile targeted a path already present in the twin."""


class ConfigKeyMissing(PatchOpRefused):
    """SetConfig could not find the key (or the config file itself)."""


class MalformedPatch(TwinforgeError):
    """A patch-delta file does not match its documented schema."""


class MalformedChecks(TwinforgeError):
    """A check-spec file does not match its documented schema."""


class TwinLocked(TwinforgeError):
    """Another process holds a workspace's or tree's directory lock."""


class MalformedJournal(TwinforgeError):
    """A sandbox's undo journal holds a record that cannot be read."""


# -- configuration and CLI ----------------------------------------------------


class ConfigParse(TwinforgeError):
    """A config value is missing, has the wrong type, or is out of range."""


class UndecodableInput(TwinforgeError):
    """A text input file is not valid UTF-8, or a string to write is not UTF-8 text."""
