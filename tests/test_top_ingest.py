"""Process-capture parsing: elapsed time and table rows."""

from __future__ import annotations

import pytest

from twinforge.errors import EmptyCapture, MalformedLine, MalformedTime
from twinforge.ingest.top import TOP_SCHEMA, parse_time_lapsed, parse_top_capture

EXPECTED_TABLE = [
    (392, "root", 3.3, 0.2, 1.1, "gedit"),
    (1281, "root", 2.0, 0.1, 39.5, "top"),
    (184, "root", 2.0, 0.1, 9.1, "sh"),
    (421, "root", 1.7, 0.7, 0.7, "xdg-desktop-por"),
    (75, "root", 0.7, 0.4, 0.1, "featherpad"),
]


@pytest.mark.parametrize(
    "text,expected",
    [("00:01.1", 1.1), ("00:00.0", 0.0), ("01:02.5", 62.5), ("00:39.5", 39.5)],
)
def test_parse_time_lapsed(text, expected):
    assert parse_time_lapsed(text) == expected


@pytest.mark.parametrize("text", ["1:2.3", "00:01", "0:001.1", "01:02.55", "junk", "", "-1:00.0"])
def test_parse_time_lapsed_rejects_other_shapes(text):
    with pytest.raises(MalformedTime):
        parse_time_lapsed(text)


def test_parse_time_round_trips_on_tenth_grid():
    # every tenth of a second below 100 minutes
    for tenths in range(0, 60_000, 7):  # step 7 keeps the loop quick but dense
        minutes, rest = divmod(tenths, 600)
        text = f"{minutes:02d}:{rest // 10:02d}.{rest % 10}"
        assert parse_time_lapsed(text) == tenths / 10


def test_parse_top_capture_reproduces_all_cells(top_capture_text):
    dataset = parse_top_capture(top_capture_text)
    assert dataset.schema == TOP_SCHEMA
    assert dataset.pids == tuple(row[0] for row in EXPECTED_TABLE)
    assert dataset.rows == tuple(row[1:] for row in EXPECTED_TABLE)


def test_parse_top_single_line():
    dataset = parse_top_capture("392 root 3.3 0.2 00:01.1 gedit")
    assert dataset.rows == (("root", 3.3, 0.2, 1.1, "gedit"),)
    assert dataset.pids == (392,)


def test_command_keeps_embedded_spaces():
    dataset = parse_top_capture("7 root 1.0 0.5 00:02.0 cool app v2")
    assert dataset.column_values("command") == ("cool app v2",)


def test_empty_capture():
    with pytest.raises(EmptyCapture):
        parse_top_capture("")
    with pytest.raises(EmptyCapture):
        parse_top_capture("PID USER %CPU %MEM TIME+ COMMAND\n\n")


@pytest.mark.parametrize(
    "line",
    [
        "392 root 3.3 0.2 gedit",  # missing field
        "x root 3.3 0.2 00:01.1 gedit",  # bad pid
        "392 root 3.3 0.2 1.1 gedit",  # bad time shape
        "392 root -1 0.2 00:01.1 gedit",  # negative cpu
        "392 root 3.3 101 00:01.1 gedit",  # mem out of range
        "392 root inf 0.2 00:01.1 gedit",  # non-finite cpu
        "392 root nan 0.2 00:01.1 gedit",  # non-finite cpu
        "1_0 root 3.3 0.2 00:01.1 gedit",  # pid with a digit separator
        "+7 root 3.3 0.2 00:01.1 gedit",  # signed pid
        "\u0663 root 3.3 0.2 00:01.1 gedit",  # non-ASCII digit pid
        "392 root 1_0 0.2 00:01.1 gedit",  # cpu with a digit separator
        "392 root \u0663 0.2 00:01.1 gedit",  # non-ASCII digit cpu
        "392 root 3.3 0_2 00:01.1 gedit",  # mem with a digit separator
        "392 root 3.3 \u0663 00:01.1 gedit",  # non-ASCII digit mem
        "392 root 3.3 0.2 \u0660\u0660:01.1 gedit",  # non-ASCII digit time
    ],
)
def test_malformed_lines_carry_line_number(line):
    text = "392 root 3.3 0.2 00:01.1 gedit\n" + line
    with pytest.raises(MalformedLine) as err:
        parse_top_capture(text)
    assert err.value.line_no == 2



@pytest.mark.parametrize("cpu", ["inf", "nan", "-nan", "1e400"])
def test_non_finite_cpu_is_a_data_error_naming_its_line(tmp_path, monkeypatch, capsys, cpu):
    from twinforge.cli import main

    monkeypatch.chdir(tmp_path)  # the default workspace is the working directory
    capture = tmp_path / "top.txt"
    capture.write_text("PID USER %CPU %MEM TIME+ COMMAND\n392 root 3.3 0.2 00:01.1 gedit\n" f"7 root {cpu} 0.5 00:02.0 sh\n")
    out = tmp_path / "top.csv"
    assert main(["ingest", "top", "--in", str(capture), "--out", str(out)]) == 2
    assert "line 3: column 'cpu_pct': non-finite value" in capsys.readouterr().err
    assert not out.exists()
