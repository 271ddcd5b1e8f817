"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import shutil
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.stats import wasserstein_distance

from twinforge.cli import main
from twinforge.errors import HashMismatch
from twinforge.ingest.macro import parse_macro_script, tokenize_script
from twinforge.ingest.tabular import read_dataset_csv, write_dataset_csv
from twinforge.sequence.ngram import GenRequest, generate_sequence, sequence_to_script, train_ngram
from twinforge.tabular.distance import emd_1d
from twinforge.tabular.mixture import fit_mode_normalizer
from twinforge.twin.image import TwinImage, capture_image
from twinforge.twin.manifest import TwinDiff, diff_states, scan_tree
from twinforge.twin.patch import AddFile, DeleteFile, PatchDelta, ReplaceFile, apply_patch
from twinforge.twin.sandbox import instantiate_twin
from twinforge.validate.metrics import bleu, cosine_similarity
from twinforge.validate.replay import replay_validate
from twinforge.validate.report import load_report

from conftest import build_twin_tree, make_fixture_dataset

FIXTURES = Path(__file__).parent / "fixtures"


# collected lines surface in the terminal summary (see conftest) as well as
# inline under ``-s``
CRITERION_LINES: list[str] = []


def _announce(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        _announce(f"CRITERION {number}: FAIL - {summary}")
        raise
    _announce(f"CRITERION {number}: PASS - {summary}")


def _run(args: list[str]) -> int:
    return main(args)


def test_criterion_1_pipeline_shape_and_stat_bands(pipeline_artifacts):
    with criterion(1, "560->70 pipeline: averages within max(0.1, 30%) and modal match"):
        assert pipeline_artifacts["train_gen_seconds"] <= 300, "train+gen must finish in 5 minutes"
        report = load_report(pipeline_artifacts["report_path"])
        synth = read_dataset_csv(pipeline_artifacts["synth_csv"])
        assert len(synth.rows) == 70

        # the report carries avg-CPU, avg-MEM, avg-runtime and modal-user comparisons
        assert {"cpu_pct", "mem_pct", "elapsed_s"} <= set(report.comparison.continuous)
        assert "user" in report.comparison.discrete

        for name, delta in report.comparison.continuous.items():
            band = max(0.1, 0.30 * abs(delta.real))
            assert delta.abs_delta <= band, f"{name}: |{delta.real} - {delta.synth}| > {band}"
        assert report.comparison.discrete["user"].match


def test_criterion_2_gate_guarantee(pipeline_artifacts, tmp_path):
    with criterion(2, "accepted batches sit under the gate thresholds; tau=0 exits 3"):
        real = read_dataset_csv(pipeline_artifacts["real_csv"])
        synth = read_dataset_csv(pipeline_artifacts["synth_csv"])

        # independent post-hoc pass (library EMD, hand TV), not the gate's own code
        for i, column in enumerate(real.schema.columns):
            real_vals = [row[i] for row in real.rows]
            synth_vals = [row[i] for row in synth.rows]
            if column.kind == "continuous":
                lo, hi = min(real_vals), max(real_vals)
                rn = [(v - lo) / (hi - lo) for v in real_vals]
                sn = [(v - lo) / (hi - lo) for v in synth_vals]
                assert wasserstein_distance(rn, sn) <= 0.1 + 1e-12, column.name
            else:
                ca, cb = Counter(real_vals), Counter(synth_vals)
                tv = 0.5 * sum(
                    abs(ca[k] / len(real_vals) - cb[k] / len(synth_vals)) for k in set(ca) | set(cb)
                )
                assert tv <= 0.1 + 1e-12, column.name

        # tau = 0 exhausts the gate and the CLI exits 3
        strict_config = tmp_path / "strict.json"
        strict_config.write_text(
            json.dumps(
                {
                    "workspace": str(tmp_path / "ws"),
                    "seed": 7,
                    "gate": {"tau_continuous": 0.0, "max_attempts": 3},
                }
            ),
            encoding="utf-8",
        )
        code = _run(
            [
                "--config", str(strict_config), "--quiet", "gen", "tabular",
                "--model", str(pipeline_artifacts["model_path"]),
                "--real", str(pipeline_artifacts["real_csv"]),
                "--n", "70",
                "--out", str(tmp_path / "never.csv"),
            ]
        )
        assert code == 3


def test_criterion_3_emd_oracle_equivalence():
    with criterion(3, "sort-and-sweep EMD equals min-cost matching on 1000 random pairs"):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = rng.normal(0.0, 2.0, n)
            b = rng.normal(0.5, 3.0, n)
            cost = np.abs(a[:, None] - b[None, :])
            rows, cols = linear_sum_assignment(cost)
            matching = cost[rows, cols].sum() / n
            assert abs(emd_1d(a, b) - matching) < 1e-9


def test_criterion_4_em_correctness(fixture_dataset):
    with criterion(4, "BIC picks K=2 with means near {0,10}; EM log-likelihood monotone"):
        rng = np.random.default_rng(404)
        draws = np.concatenate([rng.normal(0.0, 1.0, 250), rng.normal(10.0, 1.0, 250)])
        norm = fit_mode_normalizer(draws, seed=4)
        assert norm.n_modes == 2
        means = sorted(norm.means)
        assert abs(means[0] - 0.0) < 0.3 and abs(means[1] - 10.0) < 0.3
        assert (np.diff(norm.em_loglik) >= -1e-9).all()

        # every fitted column of the pipeline fixture is monotone too
        for name in ("cpu_pct", "mem_pct", "elapsed_s"):
            values = [float(v) for v in fixture_dataset.column_values(name)]
            column_norm = fit_mode_normalizer(values, seed=4)
            assert (np.diff(column_norm.em_loglik) >= -1e-9).all(), name


def test_criterion_5_sequence_pipeline(tmp_path, script_corpus):
    with criterion(5, "6-script corpus -> 3 prompts at T=0.8: 3/3 parse, >=2/3 replay; metric oracles hold"):
        model = train_ngram([tokenize_script(s) for s in script_corpus], order=3, delta=0.01)
        twin = instantiate_twin(capture_image(build_twin_tree(tmp_path / "tree")), tmp_path / "sandbox")

        prompts = ["Run, chrome.exe", "Run, gedit", "Run, featherpad"]
        parsed, replayed = 0, 0
        for i, prompt in enumerate(prompts):
            request = GenRequest(prompt=(prompt,), temperature=0.8, seed=i)
            tokens = generate_sequence(model, request)
            script = sequence_to_script(tokens, name=f"generated-{i}")
            parsed += 1
            if replay_validate(script, twin).ok:
                replayed += 1
        assert parsed == 3
        assert replayed >= 2

        # metric implementations against the frozen oracles
        a = parse_macro_script("Run, x\nRun, y", name="a")
        b = parse_macro_script("Run, x", name="b")
        assert cosine_similarity(a, b) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert cosine_similarity(a, a) == 1.0
        assert cosine_similarity(parse_macro_script("Run, x"), parse_macro_script("Run, z")) == 0.0
        assert bleu(["a", "b", "c"], [["a", "b", "d"]]) == pytest.approx((2.0 / 9.0) ** 0.25, abs=1e-12)
        tokens = ["Run, x", "Sleep, 5", "Send, hi", "Click, 1, 2"]
        assert bleu(tokens, [tokens]) == pytest.approx(1.0, abs=1e-12)
        assert bleu(["a", "b"], [["c", "d"]]) == 0.0


def test_criterion_6_twin_round_trip(tmp_path):
    with criterion(6, "capture/restore round trip, byte determinism, corruption detection"):
        tree = build_twin_tree(tmp_path / "source")
        image_a = capture_image(tree)
        image_b = capture_image(tree)
        assert image_a.archive == image_b.archive

        source_manifest = {e.path: e for e in image_a.manifest}
        assert not any(p == "tmp" or p.startswith("tmp/") for p in source_manifest)

        twin = instantiate_twin(image_a, tmp_path / "sandbox")
        live = {e.path: e for e in scan_tree(twin.sandbox)}
        assert set(live) == set(source_manifest) | {"tmp"}
        for path, entry in source_manifest.items():
            assert live[path] == entry

        corrupted = bytearray(image_a.archive)
        corrupted[-1] ^= 0x01
        broken = TwinImage(image_a.manifest, bytes(corrupted), image_a.exclusions, image_a.created_at)
        with pytest.raises(HashMismatch):
            instantiate_twin(broken, tmp_path / "sandbox2")


def test_criterion_7_patch_atomicity(tmp_path):
    with criterion(7, "failing third op leaves the twin untouched; identity patch diffs empty"):
        tree = build_twin_tree(tmp_path / "source")
        twin = instantiate_twin(capture_image(tree), tmp_path / "sandbox")
        before = scan_tree(twin.sandbox)

        bad_delta = PatchDelta(
            (
                AddFile("bin/tool-a", b"a"),
                ReplaceFile("docs/readme.txt", b"mutated\n"),
                DeleteFile("not/present"),
            )
        )
        with pytest.raises(Exception):
            apply_patch(twin, bad_delta)
        assert scan_tree(twin.sandbox) == before

        report = apply_patch(twin, PatchDelta(()))
        assert diff_states(before, report.manifest) == TwinDiff((), (), ())


def _run_full_pipeline(tmp: Path, workspace: Path, config: Path, script_paths) -> dict[str, bytes]:
    if workspace.exists():
        shutil.rmtree(workspace)
    tree = tmp / "source"
    if tree.exists():
        shutil.rmtree(tree)
    build_twin_tree(tree)
    sandbox = tmp / "sandbox"
    if sandbox.exists():
        shutil.rmtree(sandbox)

    real_csv = tmp / "real.csv"
    write_dataset_csv(make_fixture_dataset(n_rows=240, seed=6), real_csv)

    image = tmp / "sys.twimg"
    model = tmp / "tabular.json"
    seq_model = tmp / "seq.json"
    synth = tmp / "synth.csv"
    gen_script = tmp / "generated.ahk"
    report = tmp / "report.json"
    delta = tmp / "delta.json"
    delta.write_text(
        json.dumps([{"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\n"}]),
        encoding="utf-8",
    )

    cfg = ["--config", str(config), "--quiet"]
    assert _run([*cfg, "capture", "--root", str(tree), "--out", str(image)]) == 0
    assert _run([*cfg, "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    assert _run([*cfg, "twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)]) == 0
    assert _run([*cfg, "train", "tabular", "--data", str(real_csv), "--out", str(model)]) == 0
    assert _run([*cfg, "gen", "tabular", "--model", str(model), "--real", str(real_csv), "--n", "40", "--out", str(synth)]) == 0
    seq_args = [*cfg, "train", "seq", "--corpus"] + [str(p) for p in script_paths] + ["--out", str(seq_model)]
    assert _run(seq_args) == 0
    assert _run(
        [*cfg, "gen", "seq", "--model", str(seq_model), "--prompt", "Run, chrome.exe", "--out", str(gen_script)]
    ) == 0
    assert _run(
        [
            *cfg, "validate", "--real", str(real_csv), "--synth", str(synth),
            "--pair", str(gen_script), str(script_paths[0]),
            "--sandbox", str(sandbox),
            "--out", str(report),
        ]
    ) == 0
    return {
        "model": model.read_bytes(),
        "seq_model": seq_model.read_bytes(),
        "synth": synth.read_bytes(),
        "gen_script": gen_script.read_bytes(),
        "report": report.read_bytes(),
        "image": image.read_bytes(),
    }


def test_criterion_8_global_determinism(tmp_path, script_paths, monkeypatch):
    with criterion(8, "two identical pipeline runs produce byte-identical artifacts"):
        monkeypatch.setenv("TWINFORGE_TIMESTAMP", "2024-06-01T00:00:00Z")
        workspace = tmp_path / "ws"
        config = tmp_path / "config.json"
        # reduced epochs and a loose gate: this criterion checks byte equality,
        # not model quality (criteria 1 and 2 cover that at defaults)
        config.write_text(
            json.dumps(
                {
                    "workspace": str(workspace),
                    "seed": 13,
                    "gan": {"epochs": 60},
                    "gate": {"tau_continuous": 0.5, "tau_discrete": 0.5, "max_attempts": 10},
                }
            ),
            encoding="utf-8",
        )
        first = _run_full_pipeline(tmp_path, workspace, config, script_paths)
        second = _run_full_pipeline(tmp_path, workspace, config, script_paths)
        for name in sorted(first):
            assert first[name] == second[name], f"{name} differs between runs"
