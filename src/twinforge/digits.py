"""The one rule for a whole number written as text: ASCII digits alone.

Macro integer arguments, ``top`` capture pids and dataset CSV pid cells are
all read through :func:`ascii_int`, so each input spells a number the one
way every writer here writes it: ``str(int)``.
"""

from __future__ import annotations


def ascii_int(text: str, what: str) -> int:
    """The int ``text`` spells in ASCII digits, or ``ValueError`` naming
    ``what``. ``int()`` alone also takes "_" separators, a sign, surrounding
    whitespace and non-ASCII digits, and refuses more digits than
    ``sys.get_int_max_str_digits()``."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"{what} is not an integer: {exc}") from None
