"""Comparison report construction and lossless persistence."""

from __future__ import annotations

import json

import pytest

from twinforge.errors import MalformedReport
from twinforge.validate.comparison import ColumnDistance
from twinforge.validate.report import ScriptMetrics, build_report, load_report, save_report
from twinforge.validate.stats import compare_stats, summary_stats

from test_stats import RECORDED


def _saved_doc(tmp_path, report):
    """The JSON document ``save_report`` writes for ``report``."""
    path = tmp_path / "saved.json"
    save_report(report, path)
    return json.loads(path.read_text(encoding="utf-8"))


def _report(scripts=(), gate_attempts=4):
    stats = summary_stats(RECORDED)
    return build_report(
        run_id="abc123def456",
        created_at="2024-05-01T12:00:00Z",
        seeds={"global": 7, "gen_tabular": 99},
        config={"seed": 7, "gate": {"tau_continuous": 0.1}},
        real_stats=stats,
        synth_stats=stats,
        comparison=compare_stats(RECORDED, RECORDED),
        distances=(
            ColumnDistance("cpu_pct", "continuous", 0.031),
            ColumnDistance("user", "discrete", 0.05),
        ),
        scripts=scripts,
        gate_attempts=gate_attempts,
    )


def test_round_trip_bit_exact(tmp_path):
    report = _report(
        scripts=(
            ScriptMetrics("gen_chrome", 0.82, 0.7071, True),
            ScriptMetrics("gen_gedit", 0.5, 0.25, False),
        )
    )
    path = tmp_path / "report-abc123def456.json"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded == report
    save_report(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_report_without_scripts_is_valid(tmp_path):
    report = _report(scripts=(), gate_attempts=None)
    path = tmp_path / "r.json"
    save_report(report, path)
    loaded = load_report(path)
    assert loaded.scripts == ()
    assert loaded.gate_attempts is None


def test_gate_attempts_recorded():
    assert _report(gate_attempts=12).gate_attempts == 12


def test_malformed_report(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedReport):
        load_report(path)
    path.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(MalformedReport):
        load_report(path)


@pytest.mark.parametrize("section", ["distances", "scripts"])
def test_unknown_key_in_a_row_is_malformed(tmp_path, section):
    doc = _saved_doc(tmp_path, _report(scripts=(ScriptMetrics("gen_chrome", 0.82, 0.7071, True),)))
    doc[section][0]["extra"] = 1
    path = tmp_path / "r.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedReport):
        load_report(path)


def test_report_file_keys_are_pinned(tmp_path):
    # Field names become on-disk keys, so renaming a field must fail here.
    doc = _saved_doc(tmp_path, _report(scripts=(ScriptMetrics("gen_chrome", 0.82, 0.7071, True),)))
    stats = {"means": {"cpu_pct": 0.2, "mem_pct": 0.99}, "modes": {"user": ["root", 0.75]}, "row_count": 4}
    assert doc == {
        "format_version": 1,
        "run_id": "abc123def456",
        "created_at": "2024-05-01T12:00:00Z",
        "seeds": {"gen_tabular": 99, "global": 7},
        "config": {"gate": {"tau_continuous": 0.1}, "seed": 7},
        "real_stats": stats,
        "synth_stats": stats,
        "comparison": {
            "row_counts": [4, 4],
            "continuous": {
                "cpu_pct": {"real": 0.2, "synth": 0.2, "abs_delta": 0.0, "rel_delta": 0.0},
                "mem_pct": {"real": 0.99, "synth": 0.99, "abs_delta": 0.0, "rel_delta": 0.0},
            },
            "discrete": {
                "user": {"real": "root", "synth": "root", "match": True, "freq_abs_delta": 0.0},
            },
        },
        "distances": [
            {"column": "cpu_pct", "kind": "continuous", "distance": 0.031},
            {"column": "user", "kind": "discrete", "distance": 0.05},
        ],
        "scripts": [{"name": "gen_chrome", "cosine": 0.82, "bleu": 0.7071, "replay_ok": True}],
        "gate_attempts": 4,
    }
