"""Self-test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced in smoke mode and checks
that the printed metric names match BENCHMARK.json, that no op failed, and
that the traced library spans account for the op wall time. Run from the
repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    record, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    env = record["environment"]
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "work_dir_fs", "trace"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    record, result = _run(workload, 1)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["failed"] == 0 and result["correct"]
    trace = record["detail"]
    assert trace["traced_requests"] > 0
    # The op.* root spans keep only what no library span covers: the
    # benchmark's own glue between calls and the wrappers' cost.
    assert 0.0 <= trace["uncovered_s"] <= 0.05 * trace["traced_op_wall_s"], trace
    # The library spans' self times add up to the untraced op time, within
    # the tracing overhead: a missing or double-counted span breaks this.
    gap = abs(trace["library_self_s"] - trace["untraced_op_wall_s"])
    assert gap <= abs(trace["overhead_s"]) + 0.05 * trace["untraced_op_wall_s"], trace


def test_catalog_maps_every_per_layer_metric():
    sys.path.insert(0, str(HERE))
    from catalog import GROUPS

    names = [name for _workload, _targets, group in GROUPS for name in group]
    assert sorted(names) == sorted(m["name"] for m in SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    first, _ = _run(workload, 0, seed=5)
    second, _ = _run(workload, 0, seed=5)
    assert first["digest_requests"] == second["digest_requests"] > 0
    assert len(first["op_digests"]) >= first["digest_requests"]
    assert first["digest"] == second["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "perfbench" / path.relative_to(HERE)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
