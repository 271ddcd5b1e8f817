"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload gan-train --seed 1 --seconds 38 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the detail record (per-op percentiles, output digest, environment),
which is also written under ``.perfbench/records/``. ``--smoke`` shrinks
every size for the benchmark's own test.
"""

from __future__ import annotations

import os

# One single-threaded process: pin the BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"


def _import_library() -> None:
    """Put the checkout's own ``src`` first on the path, or give up."""
    if not (SRC / "twinforge" / "__init__.py").is_file():
        print(f"perfbench: no twinforge sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        left, _, right = line.partition(" - ")
        mount_point = left.split()[4]
        if (target == mount_point or target.startswith(mount_point.rstrip("/") + "/")) and len(
            mount_point
        ) >= len(best):
            best, fstype = mount_point, right.split()[0]
    return fstype


def environment(work: Path, trace: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "work_dir_fs": _fs_type(work),
        "trace": trace,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _iqm(values: list[float]) -> float:
    """Interquartile mean: the mean of the middle half of the values. Unlike
    the median it moves smoothly when a bimodal mix shifts, and unlike the
    mean it ignores the slow and fast tails."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut : len(ordered) - cut])


def _summary(values: list[float], scale: float, wanted: int) -> dict:
    """Median and the highest well-supported percentile up to ``wanted``."""
    from harness import percentile, supported_percentile

    if not values:
        return {"n": 0}
    q = supported_percentile(len(values), wanted)
    out = {"n": len(values), "p50": percentile(values, 50) * scale}
    if q > 50:
        out[f"p{q}"] = percentile(values, q) * scale
    return out


def end_to_end(run, workload: str, extra: dict) -> tuple[dict, dict]:
    """The printed end-to-end metrics and the per-op detail behind them."""
    walls = {kind: run.request_walls(kind) for kind in run.request_times}
    detail: dict = {}
    if workload == "gan-train":
        rate = extra["train_steps_per_s"]
        request = walls.get("train", [])
        detail["train_steps_per_s"] = _median(rate)
        detail["train_ms"] = _summary(request, 1e3, 90)
    elif workload == "gan-synth":
        rate = extra["synth_rows_per_s"]
        request = walls.get("small", [])
        detail["synth_rows_per_s"] = _median(rate)
        detail["small_request_ms"] = _summary(request, 1e3, 90)
        detail["bulk_request_ms"] = _summary(walls.get("bulk", []), 1e3, 90)
        detail["gate_attempts"] = extra["gate"]
    else:
        # candidates tested per second: one patch plus its checks
        rate = [1.0 / (_median(run.op_times["patch"]) + _median(run.op_times["check"]))]
        request = walls.get("session", [])
        detail["candidates_per_s"] = rate[0]
        detail["session_s"] = _summary(request, 1.0, 90)
        for kind in ("restore", "patch", "check", "diff", "script", "teardown"):
            detail[f"{kind}_ms"] = _summary(run.op_times[kind], 1e3, 90)
    attempted = max(run.attempted, 1)
    metrics = {
        "setup_s": (_median(run.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - run.failed) / attempted, "ratio"),
        "throughput_per_s": (_median(rate), "1/s"),
        "request_ms_iqm": (_iqm(request) * 1e3, "ms"),
    }
    return metrics, detail


def per_layer(run, workload: str, extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced requests and traced set-ups."""
    from tracer import TARGETS

    span_names = {name for name, *_ in TARGETS}
    requests = run.traced_requests
    n_req = max(len(requests), 1)
    n_setup = len(run.setup_times)
    op_totals = run.tracer.totals(requests)
    setup_totals = run.tracer.totals({-1})
    gate = extra.get("gate", {})
    written = run.patch_bytes_written
    sessions = n_req if workload == "twin-session" else 0

    special = {
        "twin.patch.rescan_bytes_per_changed_byte": (
            run.tracer.child_counter("twin.patch.apply_patch", "twin.manifest.scan_tree", "bytes")
            / written
            if written
            else 0.0
        ),
        "twin.manifest.scan_tree.calls_per_session": (
            op_totals.get("twin.manifest.scan_tree", {}).get("calls", 0.0) / sessions
            if sessions
            else 0.0
        ),
    }
    for kind in ("small", "bulk"):
        tally = gate.get(kind, [])
        special[f"tabular.gate.{kind}.attempts"] = sum(tally) / len(tally) if tally else 0.0
        special[f"tabular.gate.{kind}.accept_ratio"] = len(tally) / sum(tally) if tally else 0.0

    traced_wall, untraced_wall = run.traced_op_wall()
    special["trace.wall_ratio"] = traced_wall / untraced_wall if untraced_wall else 1.0

    metrics = {}
    for spec in json.loads(SPEC.read_text(encoding="utf-8"))["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name in special:
            value = special[name]
        else:
            span, key = name.rsplit(".", 1)
            assert span in span_names, name
            per_setup = unit.endswith("/setup")
            totals = setup_totals if per_setup else op_totals
            value = totals.get(span, {}).get(key, 0.0) / (n_setup if per_setup else n_req)
        metrics[name] = (value, unit)

    # An op.* root span keeps for itself only what no library span covers.
    library = uncovered = 0.0
    for s, own in zip(run.tracer.spans, run.tracer.self_times()):
        if s.request in requests:
            if s.name.startswith("op."):
                uncovered += own
            else:
                library += own
    detail = {
        "traced_requests": len(requests),
        "spans": len(run.tracer.spans),
        "library_self_s": library,
        "uncovered_s": uncovered,
        "traced_op_wall_s": traced_wall,
        "untraced_op_wall_s": untraced_wall,
        "overhead_s": traced_wall - untraced_wall,
    }
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    _import_library()
    from harness import Run
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(work, trace)

    # One CPU for the whole run, so the scheduler does not move the work.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["cpu"] = cpu
    run = Run(args.workload, args.seed, args.seconds, trace)
    try:
        extra = WORKLOADS[args.workload](run, work, SMOKE if args.smoke else FULL)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics, detail = per_layer(run, args.workload, extra)
    else:
        metrics, detail = end_to_end(run, args.workload, extra)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": env,
        "setup_s": run.setup_times,
        "op_s": run.op_times,
        "traced_op_s": run.traced_op_walls,
        "request_s": run.request_times,  # per kind: [wall, traced] pairs
        "digest": run.output_digest(),
        "digest_requests": run.min_requests,
        "op_digests": run.digests,
        "detail": detail,
        "metrics": {k: v for k, (v, _u) in metrics.items()},
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    if trace:
        with gzip.open(records / f"{tag}.spans.jsonl.gz", "wt", encoding="utf-8") as fh:
            for span in run.tracer.to_records():
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
