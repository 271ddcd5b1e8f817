"""Macro-script grammar: parse/emit round trips, tokenization, rejection cases."""

from __future__ import annotations

import string

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from twinforge.errors import BadArg, BadArity, EmptyScript, UnknownVerb
from twinforge.ingest.macro import (
    BOS,
    EOS,
    MacroCommand,
    MacroScript,
    emit_macro_script,
    parse_macro_script,
    tokenize_script,
)
from twinforge.sequence.ngram import sequence_to_script


def test_parse_basic_script():
    script = parse_macro_script("Run, chrome.exe\nSleep, 500\nSend, hello{Enter}")
    assert len(script.commands) == 3
    assert script.commands[0] == MacroCommand("Run", ("chrome.exe",))
    assert script.commands[1] == MacroCommand("Sleep", (500,))
    assert script.commands[2] == MacroCommand("Send", ("hello{Enter}",))


def test_comments_and_blanks_skipped():
    script = parse_macro_script("; header\n\nRun, x\n   ; indented comment\nSleep, 1\n")
    assert [c.verb for c in script.commands] == ["Run", "Sleep"]


def test_send_text_may_contain_commas():
    script = parse_macro_script("Send, one, two, three")
    assert script.commands[0].args == ("one, two, three",)
    assert parse_macro_script(emit_macro_script(script)).commands == script.commands


_DIGITS_LIMIT = (
    "Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits;"
    " use sys.set_int_max_str_digits() to increase the limit"
)


@pytest.mark.parametrize(
    "line,err,message",
    [
        ("Teleport, x", UnknownVerb, "unknown verb 'Teleport'"),
        (", x", UnknownVerb, "unknown verb ''"),
        ("Sleep, -5", BadArg, "Sleep argument must be ASCII digits, got '-5'"),
        ("Sleep, abc", BadArg, "Sleep argument must be ASCII digits, got 'abc'"),
        ("Sleep", BadArity, "Sleep takes exactly 1 argument(s)"),
        ("Sleep, ", BadArity, "Sleep takes exactly 1 argument(s)"),
        ("Sleep, 1, 2", BadArity, "Sleep takes exactly 1 argument(s)"),
        ("Click, 5", BadArity, "Click takes exactly 2 argument(s)"),
        ("Click, 5,", BadArity, "Click takes exactly 2 argument(s)"),
        ("Click, 1, , 2", BadArity, "Click takes exactly 2 argument(s)"),
        ("Click, 5, x", BadArg, "Click argument must be ASCII digits, got 'x'"),
        ("Click, -1, 4", BadArg, "Click argument must be ASCII digits, got '-1'"),
        ("Run,", BadArity, "Run takes exactly one argument"),
        ("Run", BadArity, "Run takes exactly one argument"),
        ("Send,   ", BadArity, "Send takes exactly one argument"),
        ("Sleep, 1_000", BadArg, "Sleep argument must be ASCII digits, got '1_000'"),
        ("Sleep, \uff15", BadArg, "Sleep argument must be ASCII digits, got '\uff15'"),
        ("Sleep, \u0665", BadArg, "Sleep argument must be ASCII digits, got '\u0665'"),
        ("Click, +5, 3", BadArg, "Click argument must be ASCII digits, got '+5'"),
        pytest.param(
            "Sleep, " + "9" * 5000, BadArg, f"Sleep argument is not an integer: {_DIGITS_LIMIT}", id="Sleep-5000-digits"
        ),
    ],
)
def test_rejections(line, err, message):
    with pytest.raises(err) as e:
        parse_macro_script("Run, ok\n" + line)
    assert (e.value.line_no, e.value.token_index, e.value.reason) == (2, None, message)
    assert str(e.value) == f"line 2: {message}"
    with pytest.raises(err) as e:
        sequence_to_script((BOS, "Run, ok", line, EOS))
    assert (e.value.line_no, e.value.token_index, str(e.value)) == (None, 2, f"token 2: {message}")


def test_a_verb_is_read_in_any_case_but_built_in_its_own():
    assert parse_macro_script("run, x").commands == (MacroCommand("Run", ("x",)),)
    assert parse_macro_script("CLICK, 1, 2").commands == (MacroCommand("Click", (1, 2)),)
    with pytest.raises(UnknownVerb) as e:
        MacroCommand("run", ("x",))
    assert (e.value.line_no, e.value.token_index, str(e.value)) == (None, None, "unknown verb 'run' (did you mean 'Run'?)")


def test_empty_script_errors():
    with pytest.raises(EmptyScript, match="^script 'blank' has no commands$"):
        parse_macro_script("; nothing here\n\n", name="blank")
    with pytest.raises(EmptyScript, match="^script 'empty' has no commands$"):
        MacroScript("empty", ())
    with pytest.raises(EmptyScript) as e:
        sequence_to_script((BOS, EOS))
    assert (e.value.line_no, e.value.token_index, str(e.value)) == (None, None, "script 'generated' has no commands")


def test_fixture_corpus_round_trips(script_paths, script_corpus):
    for path, script in zip(script_paths, script_corpus):
        text = emit_macro_script(script)
        assert parse_macro_script(text, name=script.name) == script
        # emitting is idempotent: canonical form re-emits byte-identically
        assert emit_macro_script(parse_macro_script(text, name=script.name)) == text


def test_tokenize_sentinels(script_corpus):
    script = script_corpus[0]
    tokens = tokenize_script(script)
    assert tokens[0] == BOS and tokens[-1] == EOS
    assert len(tokens) == len(script.commands) + 2
    assert tokens[1] == script.commands[0].emit()


def test_identical_commands_tokenize_identically():
    a = parse_macro_script("Run, x\nSleep, 5", name="a")
    b = parse_macro_script("; other recording\nRun, x\nSleep, 5\n", name="b")
    assert tokenize_script(a) == tokenize_script(b)


_text_arg = (
    st.text(alphabet=string.ascii_letters + string.digits + " {}.,=-_/", min_size=1, max_size=20)
    .map(str.strip)
    .filter(bool)
)
_command = st.one_of(
    st.tuples(st.sampled_from(["Run", "Send", "WinActivate", "WinWaitActive"]), _text_arg).map(
        lambda t: MacroCommand(t[0], (t[1],))
    ),
    st.integers(0, 10**6).map(lambda n: MacroCommand("Sleep", (n,))),
    st.tuples(st.integers(0, 4096), st.integers(0, 4096)).map(lambda t: MacroCommand("Click", t)),
)


@given(st.lists(_command, min_size=1, max_size=12))
def test_round_trip_for_random_scripts(commands):
    script = MacroScript("generated", tuple(commands))
    assert parse_macro_script(emit_macro_script(script), name="generated") == script


# every line boundary of str.splitlines, which the parser splits on
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", _LINE_BREAKS)
def test_a_text_argument_may_not_hold_a_line_break(char):
    with pytest.raises(BadArg, match="line breaks"):
        MacroCommand("Send", (f"a{char}b",))


_any_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from(_LINE_BREAKS), min_size=1, max_size=12
)


@given(st.lists(st.tuples(st.sampled_from(["Run", "Send", "WinActivate", "WinWaitActive"]), _any_text), max_size=6))
def test_every_constructible_script_round_trips(pairs):
    commands = []
    for verb, text in pairs:
        try:
            commands.append(MacroCommand(verb, (text,)))
        except BadArg:
            pass
    assume(commands)
    script = MacroScript("generated", tuple(commands))
    assert parse_macro_script(emit_macro_script(script), name="generated") == script
