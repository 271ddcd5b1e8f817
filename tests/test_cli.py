"""CLI surface: full pipeline flow, exit codes, artifact round trips."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twinforge.cli import main
from twinforge.config import WORKSPACE_ENV
from twinforge.errors import MalformedModel
from twinforge.ingest.tabular import read_dataset_csv, write_dataset_csv
from twinforge.tabular.gan import load_model
from twinforge.twin.image import MAGIC, capture_image, load_image, save_image
from twinforge.twin.manifest import scan_tree
from twinforge.twin.sandbox import instantiate_twin
from twinforge.validate.report import load_report

from conftest import edit_image_manifest, held_by_child, make_fixture_dataset


@pytest.fixture()
def workspace(tmp_path):
    return tmp_path / "ws"


def _config(tmp_path, workspace, **overrides):
    doc = {"workspace": str(workspace)}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "frobnicate" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error():
    assert main(["capture"]) == 1


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_capture_twin_patch_diff_check_flow(tmp_path, workspace, twin_tree, capsys):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 0
    assert image.exists()

    sandbox = tmp_path / "sandbox"
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    assert (sandbox / "tmp").is_dir()
    assert f"twin ready at {sandbox} ({len(scan_tree(sandbox))} entries)" in capsys.readouterr().out

    delta = tmp_path / "delta.json"
    delta.write_text(
        json.dumps(
            [
                {"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\n"},
                {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"},
            ]
        ),
        encoding="utf-8",
    )
    assert main(["--config", str(config), "twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)]) == 0

    diff_out = tmp_path / "diff.json"
    assert main(
        ["--config", str(config), "twin", "diff", "--pre", str(image), "--post", str(sandbox), "--out", str(diff_out)]
    ) == 0
    diff = json.loads(diff_out.read_text(encoding="utf-8"))
    assert "bin/newtool" in diff["added"]
    assert "tmp" in diff["added"]  # fresh tmp/ relative to the image
    assert [m["path"] for m in diff["modified"]] == ["etc/app.conf"]

    checks = tmp_path / "checks.json"
    checks.write_text(
        json.dumps(
            [
                {"check": "file_exists", "path": "bin/newtool"},
                {"check": "config_equals", "file": "etc/app.conf", "key": "mode", "value": "fast"},
            ]
        ),
        encoding="utf-8",
    )
    assert main(["--config", str(config), "twin", "check", "--sandbox", str(sandbox), "--checks", str(checks)]) == 0

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps([{"check": "file_exists", "path": "bin/ghost"}]), encoding="utf-8")
    assert main(["--config", str(config), "twin", "check", "--sandbox", str(sandbox), "--checks", str(failing)]) == 3
    assert list(workspace.iterdir()) == []  # capture made it, and no lock file is in it
    assert not any(p.name in (".twin.lock", "workspace.lock") for p in tmp_path.rglob("*"))


def test_a_twin_command_leaves_nothing_in_a_workspace_that_is_its_sandbox(
    tmp_path, workspace, twin_tree, monkeypatch
):
    image, sandbox = tmp_path / "sys.twimg", tmp_path / "sandbox"
    save_image(capture_image(twin_tree), image)
    config = _config(tmp_path, workspace)
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps([{"op": "replace_file", "path": "bin/term", "content": "v2\n"}]), encoding="utf-8")
    checks = tmp_path / "checks.json"
    checks.write_text(json.dumps([{"check": "file_exists", "path": "bin/term"}]), encoding="utf-8")
    monkeypatch.setenv(WORKSPACE_ENV, str(sandbox))
    assert main(["twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)]) == 0
    assert main(["twin", "check", "--sandbox", str(sandbox), "--checks", str(checks)]) == 0
    out = tmp_path / "diff.json"
    assert main(["twin", "diff", "--pre", str(image), "--post", str(sandbox), "--out", str(out)]) == 0
    diff = json.loads(out.read_text(encoding="utf-8"))
    assert (diff["added"], diff["removed"]) == (["tmp"], [])
    assert [m["path"] for m in diff["modified"]] == ["bin/term"]


def test_twin_create_creates_no_workspace(tmp_path, workspace, twin_tree):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    save_image(capture_image(twin_tree), image)
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(tmp_path / "box")]) == 0
    assert not workspace.exists()


def test_twin_create_on_nonempty_sandbox_is_data_error(tmp_path, workspace, twin_tree):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)])
    sandbox = tmp_path / "sandbox"
    sandbox.mkdir()
    (sandbox / "junk").write_text("x", encoding="utf-8")
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 2


def test_ingest_top_and_macro(tmp_path, workspace, capsys):
    config = _config(tmp_path, workspace)
    capture = Path(__file__).parent / "fixtures" / "top_capture.txt"
    out_csv = tmp_path / "real.csv"
    assert main(["--config", str(config), "ingest", "top", "--in", str(capture), "--out", str(out_csv)]) == 0
    dataset = read_dataset_csv(out_csv)
    assert len(dataset.rows) == 5
    assert dataset.pids == (392, 1281, 184, 421, 75)

    script = Path(__file__).parent / "fixtures" / "scripts" / "01_chrome_search.ahk"
    out_ahk = tmp_path / "canonical.ahk"
    assert main(["--config", str(config), "ingest", "macro", "--in", str(script), "--out", str(out_ahk)]) == 0
    assert out_ahk.read_text(encoding="utf-8").startswith("Run, chrome.exe\n")

    bad = tmp_path / "bad.ahk"
    bad.write_text("Teleport, x\n", encoding="utf-8")
    assert main(["--config", str(config), "ingest", "macro", "--in", str(bad)]) == 2


def test_tabular_train_gen_validate_report(tmp_path, workspace, twin_tree, capsys):
    # relaxed gate keeps this mechanics test quick; defaults are exercised in acceptance
    config = _config(
        tmp_path,
        workspace,
        seed=5,
        gan={"epochs": 30},
        gate={"tau_continuous": 0.3, "tau_discrete": 0.3, "max_attempts": 10},
    )
    real_csv = tmp_path / "real.csv"
    write_dataset_csv(make_fixture_dataset(n_rows=200, seed=2), real_csv)

    model_path = tmp_path / "gan.json"
    assert main(["--config", str(config), "train", "tabular", "--data", str(real_csv), "--out", str(model_path)]) == 0

    synth_csv = tmp_path / "synth.csv"
    code = main(
        ["--config", str(config), "gen", "tabular", "--model", str(model_path), "--real", str(real_csv), "--n", "40", "--out", str(synth_csv)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "accepted after" in out
    synth = read_dataset_csv(synth_csv)
    assert len(synth.rows) == 40
    assert synth.pids == tuple(range(1, 41))
    meta = json.loads((tmp_path / "synth.csv.meta.json").read_text(encoding="utf-8"))
    assert meta["gate_attempts"] >= 1
    assert meta["csv_sha256"] == hashlib.sha256(synth_csv.read_bytes()).hexdigest()

    report_path = tmp_path / "report.json"
    assert main(
        ["--config", str(config), "validate", "--real", str(real_csv), "--synth", str(synth_csv), "--out", str(report_path)]
    ) == 0
    report = load_report(report_path)
    assert report.gate_attempts == meta["gate_attempts"]
    assert set(report.comparison.continuous) == {"cpu_pct", "mem_pct", "elapsed_s"}
    assert report.config["seed"] == 5

    assert main(["--config", str(config), "report", "--in", str(report_path)]) == 0
    assert "gate attempts" in capsys.readouterr().out


def test_gate_exhaustion_exits_three(tmp_path, workspace, capsys):
    config = _config(
        tmp_path,
        workspace,
        gan={"epochs": 2},
        gate={"tau_continuous": 0.0, "max_attempts": 2},
    )
    real_csv = tmp_path / "real.csv"
    write_dataset_csv(make_fixture_dataset(n_rows=100, seed=3), real_csv)
    model_path = tmp_path / "gan.json"
    assert main(["--config", str(config), "train", "tabular", "--data", str(real_csv), "--out", str(model_path)]) == 0
    code = main(
        ["--config", str(config), "gen", "tabular", "--model", str(model_path), "--real", str(real_csv), "--n", "10"]
    )
    assert code == 3
    assert "gate" in capsys.readouterr().err


def _short_bias(gen):
    gen["biases"][0].pop()


def _length_1_bias(gen):
    gen["biases"][1] = gen["biases"][1][:1]


def _narrow_output(gen):
    gen["weights"][-1] = [row[:-1] for row in gen["weights"][-1]]
    gen["biases"][-1] = gen["biases"][-1][:-1]


def _wrong_input_width(gen):
    gen["weights"][0].pop()


def _nan_weight(gen):
    gen["weights"][1][0][0] = math.nan


# Edits of the trained model's generator block. Unchecked, a short bias raised
# a bare ValueError in forward, a length-1 bias broadcast silently, a narrow
# last layer loaded and then exhausted the gate, and a NaN weight raised a
# bare ValueError in validation.
@pytest.mark.parametrize(
    "edit", [_short_bias, _length_1_bias, _narrow_output, _wrong_input_width, _nan_weight]
)
def test_malformed_generator_is_a_data_error(tmp_path, workspace, pipeline_artifacts, edit, capsys):
    doc = json.loads(pipeline_artifacts["model_path"].read_text(encoding="utf-8"))
    edit(doc["generator"])
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedModel):
        load_model(model_path)

    config = _config(tmp_path, workspace)
    real_csv = str(pipeline_artifacts["real_csv"])
    code = main(["--config", str(config), "gen", "tabular", "--model", str(model_path), "--real", real_csv, "--n", "10"])
    assert code == 2
    assert "generator" in capsys.readouterr().err


def test_seq_train_and_gen(tmp_path, workspace, script_paths, capsys):
    config = _config(tmp_path, workspace, seed=11)
    model_path = tmp_path / "seq.json"
    args = ["--config", str(config), "train", "seq", "--corpus"]
    args += [str(p) for p in script_paths]
    args += ["--out", str(model_path)]
    assert main(args) == 0

    out_script = tmp_path / "gen.ahk"
    assert main(
        [
            "--config", str(config), "gen", "seq",
            "--model", str(model_path),
            "--prompt", "Run, chrome.exe",
            "--temperature", "0.8",
            "--out", str(out_script),
        ]
    ) == 0
    text = out_script.read_text(encoding="utf-8")
    assert text.startswith("Run, chrome.exe\n")


def test_gen_seq_with_a_prompt_that_is_not_utf8_writes_no_script(tmp_path, workspace, script_paths, capsys):
    """An argv byte that is not UTF-8 reaches Python as a lone surrogate
    (``\\xff`` as ``\\udcff``); such a sequence fails validation like any
    other, so ``gen seq`` exits 3 and writes no script."""
    config = _config(tmp_path, workspace, seed=11)
    model_path = tmp_path / "seq.json"
    args = ["--config", str(config), "train", "seq", "--corpus", *map(str, script_paths), "--out", str(model_path)]
    assert main(args) == 0
    out_script = tmp_path / "gen.ahk"
    argv = ["--config", str(config), "gen", "seq", "--model", str(model_path), "--out", str(out_script)]
    assert main([*argv, "--prompt", "Send, \udcff"]) == 3
    assert "generated sequence failed validation" in capsys.readouterr().err
    assert not out_script.exists()


NON_FINITE = {
    "ngram": {"delta": math.nan},
    "service": {"url": "http://localhost:1", "timeout_s": math.inf},
    "gan": {"cond_loss_weight": math.inf},
}


@pytest.mark.parametrize("section", sorted(NON_FINITE))
def test_non_finite_config_value_is_a_data_error(tmp_path, workspace, script_paths, section, capsys):
    config = _config(tmp_path, workspace, **{section: NON_FINITE[section]})
    model_path = tmp_path / "seq.json"
    args = ["--config", str(config), "train", "seq", "--corpus", *map(str, script_paths), "--out", str(model_path)]
    assert main(args) == 2
    assert f"{config}: {section}: " in capsys.readouterr().err
    assert not model_path.exists()


def test_validate_with_script_pairs(tmp_path, workspace, twin_tree, script_paths):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)])
    sandbox = tmp_path / "sandbox"
    main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)])

    real_csv = tmp_path / "real.csv"
    synth_csv = tmp_path / "synth.csv"
    write_dataset_csv(make_fixture_dataset(n_rows=60, seed=4), real_csv)
    write_dataset_csv(make_fixture_dataset(n_rows=60, seed=8), synth_csv)

    report_path = tmp_path / "report.json"
    code = main(
        [
            "--config", str(config), "validate",
            "--real", str(real_csv), "--synth", str(synth_csv),
            "--pair", str(script_paths[0]), str(script_paths[1]),
            "--sandbox", str(sandbox),
            "--out", str(report_path),
        ]
    )
    assert code == 0
    report = load_report(report_path)
    assert len(report.scripts) == 1
    assert report.scripts[0].replay_ok is True
    assert 0.0 <= report.scripts[0].cosine <= 1.0

    # pairs without a sandbox are a usage error
    assert main(
        [
            "--config", str(config), "validate",
            "--real", str(real_csv), "--synth", str(synth_csv),
            "--pair", str(script_paths[0]), str(script_paths[1]),
        ]
    ) == 1



def test_validate_whose_sandbox_is_its_workspace_replays_it(tmp_path, workspace, twin_tree, script_paths):
    """``validate`` holds its workspace's lock, and its replay holds that
    same directory once more in the same process, with no second ``flock``."""
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    save_image(capture_image(twin_tree), image)
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(workspace)]) == 0
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=4), tmp_path / "real.csv")
    report = tmp_path / "report.json"
    argv = ["--config", str(config), "validate", "--real", str(tmp_path / "real.csv"), "--synth", str(tmp_path / "real.csv")]
    argv += ["--pair", str(script_paths[0]), str(script_paths[1]), "--sandbox", str(workspace), "--out", str(report)]
    assert main(argv) == 0
    assert [script.replay_ok for script in load_report(report).scripts] == [True]

def test_patch_op_path_with_nul_byte_is_data_error(tmp_path, workspace, capsys):
    config = _config(tmp_path, workspace)
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps([{"op": "add_file", "path": "a\u0000b", "content": "x"}]), encoding="utf-8")
    argv = ["--config", str(config), "twin", "patch", "--sandbox", str(tmp_path), "--delta", str(delta)]
    assert main(argv) == 2
    assert "bad op path" in capsys.readouterr().err


def test_patch_op_path_that_is_not_utf8_is_a_data_error_that_writes_nothing(tmp_path, workspace, twin_tree, capsys):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    sandbox = tmp_path / "sandbox"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 0
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    before = scan_tree(sandbox)
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps([{"op": "add_file", "path": "bin/\udcff", "content": "x"}]), encoding="utf-8")
    capsys.readouterr()
    assert main(["--config", str(config), "twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)]) == 2
    assert f"{delta}: a string that is not UTF-8 text: 'bin/\\udcff'" in capsys.readouterr().err
    assert scan_tree(sandbox) == before


def test_twin_create_checks_the_whole_image_before_it_writes(tmp_path, workspace, twin_tree, capsys):
    (twin_tree / "etc" / "app.conf").chmod(0o644)
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 0
    sandbox = tmp_path / "sandbox"
    create = ["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]
    archive = image.read_bytes()
    image.write_bytes(archive[:-1] + bytes([archive[-1] ^ 0xFF]))  # the last file's last byte
    capsys.readouterr()
    assert main(create) == 2
    assert "expected sha256" in capsys.readouterr().err
    assert not sandbox.exists()

    for broken, message in [
        (archive[:-1], "the manifest's sizes add up to"),
        (archive + b"\x00", "the manifest's sizes add up to"),
        (b"TWIMG1\x00" + archive[len(MAGIC) :], "capture the tree again"),  # the magic of the old layout
    ]:
        image.write_bytes(broken)
        assert main(create) == 2
        assert message in capsys.readouterr().err
        assert not sandbox.exists()

    image.write_bytes(archive)

    def grow(doc):
        next(e for e in doc["entries"] if e["path"] == "etc/app.conf")["size"] += 1

    edit_image_manifest(image, grow)
    assert main(create) == 2
    assert "the manifest's sizes add up to" in capsys.readouterr().err
    assert not sandbox.exists()


def test_twin_diff_reads_an_images_header_alone_and_refuses_a_cut_or_older_image(
    tmp_path, workspace, twin_tree, capsys, monkeypatch
):
    config = _config(tmp_path, workspace)
    image, out = tmp_path / "sys.twimg", tmp_path / "diff.json"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 0
    diff = ["--config", str(config), "twin", "diff", "--pre", str(image), "--post", str(twin_tree), "--out", str(out)]
    with monkeypatch.context() as patched:
        patched.setattr("twinforge.cli.load_image", lambda path: pytest.fail("twin diff read the archive"))
        assert main(diff) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["added"] == ["tmp", "tmp/scratch.txt"]
    out.unlink()
    saved, archive = image.read_bytes(), load_image(image).archive
    # an older image: the TWIMG2 magic with the files' bytes, its manifest in a sidecar
    (tmp_path / "sys.manifest.json").write_text('{"format_version": 1}', encoding="utf-8")
    for content, message in [
        (saved[:-1], "the manifest's sizes add up to"),
        (b"TWIMG2\x00" + archive, "capture the tree again"),
    ]:
        image.write_bytes(content)
        capsys.readouterr()
        assert main(diff) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_a_patch_through_a_looping_link_is_a_data_error_that_changes_nothing(tmp_path, workspace, twin_tree, capsys):
    # ``Path.resolve`` raises ``RuntimeError`` on a link loop; it once
    # escaped ``twin patch`` as a traceback with exit 1.
    config = _config(tmp_path, workspace)
    image, sandbox = tmp_path / "sys.twimg", tmp_path / "sandbox"
    save_image(capture_image(twin_tree), image)
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    (sandbox / "loop").symlink_to("loop")
    listing = sorted(os.listdir(sandbox))
    before = {p: (sandbox / p).read_bytes() for p in ("bin/term", "etc/app.conf")}
    for op in ({"op": "replace_file", "path": "loop", "content": "x\n"}, {"op": "add_file", "path": "loop/x", "content": "x\n"}):
        delta = tmp_path / "delta.json"
        ops = [{"op": "replace_file", "path": "bin/term", "content": "v2\n"}, op]
        delta.write_text(json.dumps(ops), encoding="utf-8")
        capsys.readouterr()
        assert main(["--config", str(config), "twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)]) == 2
        assert f"{op['path']}: the link loop loops" in capsys.readouterr().err
        assert sorted(os.listdir(sandbox)) == listing and os.readlink(sandbox / "loop") == "loop"
        assert {p: (sandbox / p).read_bytes() for p in before} == before


def test_twin_create_restores_a_root_file_tmp_and_adds_no_tmp_dir(tmp_path, workspace, capsys):
    # Captured without the default ``tmp/**`` exclusion, a root file ``tmp``
    # is in the image; a restore once refused it, as it made ``tmp/`` itself.
    config = _config(tmp_path, workspace)
    root = tmp_path / "root"
    (root / "bin").mkdir(parents=True)
    (root / "bin" / "tool").write_bytes(b"#!/bin/sh\n")
    (root / "tmp").write_bytes(b"a file, not a directory\n")
    image = tmp_path / "sys.twimg"
    capture = ["--config", str(config), "capture", "--root", str(root), "--out", str(image), "--exclude", "proc/**"]
    assert main(capture) == 0
    sandbox = tmp_path / "sandbox"
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    assert (sandbox / "tmp").read_bytes() == b"a file, not a directory\n"
    assert list(scan_tree(sandbox)) == list(load_image(image).manifest)


# Neither can match a walked path, so each once captured ``proc/1/status``.
@pytest.mark.parametrize("pattern", ["/proc/**", "proc/"])
def test_an_exclusion_that_breaks_the_path_rule_is_refused(tmp_path, workspace, capsys, pattern):
    root = tmp_path / "root"
    (root / "proc" / "1").mkdir(parents=True)
    (root / "proc" / "1" / "status").write_bytes(b"State: R\n")
    image = tmp_path / "sys.twimg"
    config = _config(tmp_path, workspace)
    capture = ["--config", str(config), "capture", "--root", str(root), "--out", str(image)]
    assert main([*capture, "--exclude", pattern]) == 1
    assert repr(pattern) in capsys.readouterr().err
    assert main(["--config", str(_config(tmp_path, workspace, exclusions=[pattern])), *capture[2:]]) == 2
    assert "exclusions" in capsys.readouterr().err
    assert not image.exists()


def test_a_workspace_with_a_nul_is_a_data_error(tmp_path, capsys):
    config = _config(tmp_path, "\x00")
    script = Path(__file__).parent / "fixtures" / "scripts" / "01_chrome_search.ahk"
    assert main(["--config", str(config), "ingest", "macro", "--in", str(script)]) == 2
    assert "workspace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("mode", "rw"), ("mode", True), ("mode", 0o10000), ("mode", -1), ("size", -5), ("size", False), ("size", 1.0)],
)
def test_a_header_entry_with_a_bad_size_or_mode_is_a_data_error_that_writes_nothing(
    tmp_path, workspace, twin_tree, capsys, field, value
):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 0

    def set_field(doc):
        next(e for e in doc["entries"] if e["path"] == "etc/app.conf")[field] = value

    edit_image_manifest(image, set_field)
    capsys.readouterr()

    sandbox = tmp_path / "sandbox"
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not sandbox.exists()
    diff = tmp_path / "diff.json"
    argv = ["--config", str(config), "twin", "diff", "--pre", str(image), "--post", str(twin_tree), "--out", str(diff)]
    assert main(argv) == 2
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not diff.exists()


def test_capture_of_a_file_name_that_is_not_utf8_is_a_data_error(tmp_path, workspace, capsys):
    config = _config(tmp_path, workspace)
    root = tmp_path / "root"
    root.mkdir()
    (root / os.fsdecode(b"\xff")).write_bytes(b"x")
    image = tmp_path / "sys.twimg"
    assert main(["--config", str(config), "capture", "--root", str(root), "--out", str(image)]) == 2
    assert "file name b'\\xff' is not valid UTF-8" in capsys.readouterr().err
    assert not image.exists()


def test_capture_of_a_dangling_link_is_a_data_error_that_names_it(tmp_path, workspace, twin_tree, capsys):
    # It once exited as a bare ``io error`` from the stat of the missing target.
    config = _config(tmp_path, workspace)
    (twin_tree / "etc" / "dangling").symlink_to("missing")
    image = tmp_path / "sys.twimg"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 2
    assert capsys.readouterr().err == "error: etc/dangling -> missing: the link leads to nothing\n"
    assert not image.exists()


def test_quiet_gen_tabular_prints_nothing(tmp_path, workspace, pipeline_artifacts, capsys):
    config = _config(tmp_path, workspace, seed=7)
    synth_csv = tmp_path / "synth.csv"
    argv = [
        "--config", str(config), "--quiet", "gen", "tabular", "--model", str(pipeline_artifacts["model_path"]),
        "--real", str(pipeline_artifacts["real_csv"]), "--n", "70", "--out", str(synth_csv),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    assert synth_csv.is_file()


# Each command reads {bad}, a file of bytes that are neither UTF-8 nor JSON,
# named so that ``validate`` picks it up as the synthetic CSV's sidecar;
# {good} is a valid macro script.
@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{bad}", "report", "--in", "{dir}/report.json"],
        ["--config", "{config}", "twin", "patch", "--sandbox", "{dir}", "--delta", "{bad}"],
        ["--config", "{config}", "twin", "check", "--sandbox", "{dir}", "--checks", "{bad}"],
        ["--config", "{config}", "report", "--in", "{bad}"],
        ["--config", "{config}", "gen", "tabular", "--model", "{bad}", "--real", "{dir}/real.csv", "--n", "5"],
        ["--config", "{config}", "ingest", "macro", "--in", "{bad}"],
        ["--config", "{config}", "ingest", "top", "--in", "{bad}"],
        ["--config", "{config}", "train", "seq", "--corpus", "{good}", "{bad}"],
        ["--config", "{config}", "validate", "--real", "{dir}/real.csv", "--synth", "{dir}/synth.csv"],
        [
            "--config", "{config}", "validate", "--real", "{dir}/real.csv", "--synth", "{dir}/real.csv",
            "--sandbox", "{dir}", "--pair", "{good}", "{bad}",
        ],
    ],
    ids=[
        "config", "twin-patch", "twin-check", "report", "gen-tabular-model", "ingest-macro",
        "ingest-top", "train-seq-corpus", "validate-meta", "validate-pair",
    ],
)
def test_undecodable_input_is_data_error(tmp_path, workspace, script_paths, argv, capsys):
    config = _config(tmp_path, workspace)
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=4), tmp_path / "real.csv")
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=8), tmp_path / "synth.csv")
    bad = tmp_path / "synth.csv.meta.json"
    bad.write_bytes(b"\xff\xfe{not UTF-8")
    assert main([a.format(bad=bad, good=script_paths[0], config=config, dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert str(bad) in err


@pytest.mark.parametrize("command", ["patch", "check"])
def test_undecodable_sandbox_config_is_data_error(tmp_path, workspace, twin_tree, command, capsys):
    config = _config(tmp_path, workspace)
    image = tmp_path / "sys.twimg"
    sandbox = tmp_path / "sandbox"
    assert main(["--config", str(config), "capture", "--root", str(twin_tree), "--out", str(image)]) == 0
    assert main(["--config", str(config), "twin", "create", "--image", str(image), "--sandbox", str(sandbox)]) == 0
    conf = sandbox / "etc" / "app.conf"
    conf.write_bytes(b"\xff\xfemode=safe\n")
    before = scan_tree(sandbox)
    delta = tmp_path / "delta.json"
    delta.write_text(
        json.dumps(
            [
                {"op": "add_file", "path": "bin/newtool", "content": "#!/bin/sh\n"},
                {"op": "set_config", "file": "etc/app.conf", "key": "mode", "value": "fast"},
            ]
        ),
        encoding="utf-8",
    )
    checks = tmp_path / "checks.json"
    checks.write_text(
        json.dumps([{"check": "config_equals", "file": "etc/app.conf", "key": "mode", "value": "safe"}]),
        encoding="utf-8",
    )
    flag, spec = ("--delta", delta) if command == "patch" else ("--checks", checks)
    capsys.readouterr()
    assert main(["--config", str(config), "twin", command, "--sandbox", str(sandbox), flag, str(spec)]) == 2
    assert str(conf.resolve()) in capsys.readouterr().err
    assert scan_tree(sandbox) == before


def _with_lone_surrogate(source: Path, target: Path, edit) -> Path:
    """``source``'s JSON document, changed by ``edit``, written to ``target``
    with ``\\ud800``, an unpaired escape, in place of one string."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    edit(doc)
    target.write_text(json.dumps(doc), encoding="utf-8")
    return target


# A JSON string holding a lone surrogate is not UTF-8 text: each of these
# once escaped ``main`` as a UnicodeEncodeError traceback with exit 1.
# ``capsys`` keeps the text as it is, where pytest's default capture would
# write ``?`` for it and hide the crash.
def test_a_report_with_a_lone_surrogate_is_a_data_error(tmp_path, workspace, pipeline_artifacts, capsys):
    report = _with_lone_surrogate(
        pipeline_artifacts["report_path"], tmp_path / "report.json", lambda doc: doc.update(run_id="\ud800")
    )
    capsys.readouterr()
    assert main(["--config", str(_config(tmp_path, workspace)), "report", "--in", str(report)]) == 2
    assert capsys.readouterr().err == f"error: {report}: a string that is not UTF-8 text: '\\ud800'\n"


def test_a_check_with_a_lone_surrogate_is_a_data_error(tmp_path, workspace, twin_tree, capsys):
    config, sandbox = str(_config(tmp_path, workspace)), tmp_path / "sandbox"
    instantiate_twin(capture_image(twin_tree), sandbox)
    checks = tmp_path / "checks.json"
    checks.write_text(json.dumps([{"check": "hash_equals", "path": "etc/app.conf", "sha256": "\ud800"}]))
    capsys.readouterr()
    assert main(["--config", config, "twin", "check", "--sandbox", str(sandbox), "--checks", str(checks)]) == 2
    assert capsys.readouterr().err == f"error: {checks}: a string that is not UTF-8 text: '\\ud800'\n"


def test_a_model_with_a_lone_surrogate_is_a_data_error(tmp_path, workspace, pipeline_artifacts, capsys):
    def edit(doc):
        column = next(iter(doc["categories"]))
        first = doc["categories"][column][0]
        doc["categories"][column][0] = "\ud800"
        doc["frequencies"][column]["\ud800"] = doc["frequencies"][column].pop(first)

    model = _with_lone_surrogate(pipeline_artifacts["model_path"], tmp_path / "model.json", edit)
    out = tmp_path / "synth.csv"
    config = _config(tmp_path, workspace, gate={"tau_continuous": 1e9, "tau_discrete": 1.0})  # accepts any batch
    argv = ["--config", str(config), "gen", "tabular", "--model", str(model)]
    capsys.readouterr()
    assert main([*argv, "--real", str(pipeline_artifacts["real_csv"]), "--n", "70", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {model}: a string that is not UTF-8 text: '\\ud800'\n"
    assert not out.exists()


def test_gen_tabular_against_a_csv_of_another_schema_is_a_data_error(tmp_path, workspace, pipeline_artifacts, capsys):
    # it once escaped ``main`` as a ValueError traceback, where ``validate``
    # refuses the same two schemas as SchemaMismatch
    real = tmp_path / "other.csv"
    real.write_text(pipeline_artifacts["real_csv"].read_text(encoding="utf-8").replace('"cpu_pct"', '"cpu"', 1))
    out = tmp_path / "synth.csv"
    model = pipeline_artifacts["model_path"]
    argv = ["--config", str(_config(tmp_path, workspace)), "gen", "tabular", "--model", str(model), "--real", str(real)]
    capsys.readouterr()
    assert main([*argv, "--n", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: real dataset schema does not match the model\n"
    assert not out.exists()


def test_validate_rejects_a_sidecar_that_is_not_an_object(tmp_path, workspace):
    config = _config(tmp_path, workspace)
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=4), tmp_path / "real.csv")
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=8), tmp_path / "synth.csv")
    (tmp_path / "synth.csv.meta.json").write_text("[]", encoding="utf-8")
    argv = ["--config", str(config), "validate", "--real", str(tmp_path / "real.csv")]
    assert main(argv + ["--synth", str(tmp_path / "synth.csv")]) == 2


def _ingest_top(config) -> list[str]:
    capture = Path(__file__).parent / "fixtures" / "top_capture.txt"
    return ["--config", str(config), "ingest", "top", "--in", str(capture)]


def test_workspace_lock_excludes_concurrent_invocation(tmp_path, workspace):
    config = _config(tmp_path, workspace)
    workspace.mkdir(parents=True)
    with held_by_child(workspace):
        assert main(_ingest_top(config)) == 2
        assert list(workspace.iterdir()) == []  # the lock is on the directory, not a file in it
    assert list(workspace.iterdir()) == []
    alias = tmp_path / "alias"
    alias.symlink_to(workspace)
    with held_by_child(alias):
        assert main(_ingest_top(config)) == 2
    assert main(_ingest_top(config)) == 0


def test_workspace_lock_is_released_when_its_holder_is_killed(tmp_path, workspace):
    config = _config(tmp_path, workspace)
    workspace.mkdir(parents=True)
    with held_by_child(workspace):
        assert main(_ingest_top(config)) == 2
    assert main(_ingest_top(config)) == 0


def test_read_only_commands_ignore_the_lock_and_leave_the_workspace_alone(tmp_path, workspace):
    config = _config(tmp_path, workspace)
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=4), tmp_path / "real.csv")
    report = tmp_path / "report.json"
    argv = ["--config", str(config), "validate", "--real", str(tmp_path / "real.csv")]
    assert main(argv + ["--synth", str(tmp_path / "real.csv"), "--out", str(report)]) == 0
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    before = sorted(p.name for p in workspace.iterdir())
    assert before == []
    with held_by_child(workspace):
        assert main(["--config", str(config), "report", "--in", str(report)]) == 0
        diff = ["--config", str(config), "twin", "diff", "--pre", str(tmp_path / "a")]
        assert main(diff + ["--post", str(tmp_path / "b"), "--out", str(tmp_path / "d.json")]) == 0
    assert sorted(p.name for p in workspace.iterdir()) == before


def test_failing_command_creates_no_workspace_layout(tmp_path, workspace):
    config = _config(tmp_path, workspace)
    argv = ["--config", str(config), "train", "seq", "--corpus", str(tmp_path / "missing.ahk")]
    assert main(argv) == 2
    assert list(workspace.iterdir()) == []


# Each flag value breaks a rule of what it sets; each once escaped ``main``
# as a ValueError traceback with exit 1.
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--seed", "-1", "train", "seq", "--corpus", "{script}"], "--seed"),
        (["train", "tabular", "--data", "{dir}/real.csv", "--epochs", "0"], "--epochs"),
        (["train", "seq", "--corpus", "{script}", "--order", "0"], "--order"),
        (["gen", "tabular", "--model", "{dir}/model.json", "--real", "{dir}/real.csv", "--n", "0"], "--n"),
        (["gen", "seq", "--model", "{dir}/seq.json", "--prompt", "Run, x", "--max-len", "0"], "--max-len"),
        (["gen", "seq", "--model", "{dir}/seq.json", "--prompt", "Run, x", "--temperature", "-1"], "--temperature"),
        (["gen", "seq", "--model", "{dir}/seq.json", "--prompt", "Run, x", "--temperature", "nan"], "--temperature"),
    ],
    ids=["seed", "epochs", "order", "n", "max-len", "temperature", "temperature-nan"],
)
def test_a_flag_value_that_breaks_a_rule_is_a_usage_error(tmp_path, workspace, script_paths, argv, flag, capsys):
    config = _config(tmp_path, workspace)
    assert main(["--config", str(config), *(a.format(dir=tmp_path, script=script_paths[0]) for a in argv)]) == 1
    assert capsys.readouterr().err.startswith(f"{flag}: ")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [config]


def test_a_workspace_from_the_environment_that_is_not_utf8_is_a_data_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(WORKSPACE_ENV, os.fsdecode(str(tmp_path / "ws").encode() + b"\xff"))
    script = Path(__file__).parent / "fixtures" / "scripts" / "01_chrome_search.ahk"
    assert main(["ingest", "macro", "--in", str(script)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {WORKSPACE_ENV}: workspace must be")
    assert list(tmp_path.iterdir()) == []


def test_seed_flag_overrides_config(tmp_path, workspace, script_paths):
    config = _config(tmp_path, workspace, seed=1)
    model_path = tmp_path / "seq.json"
    args = ["--config", str(config), "--seed", "99", "train", "seq", "--corpus"]
    args += [str(p) for p in script_paths] + ["--out", str(model_path)]
    assert main(args) == 0
    assert json.loads(model_path.read_text(encoding="utf-8"))["seed"] == 99


def test_python_dash_m_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "twinforge", "--help"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert "twinforge" in result.stdout


def test_twin_commands_load_no_numpy_and_no_http_client(tmp_path, workspace, twin_tree):
    # Each command imports only the leg it runs, so the twin commands, the
    # most repeated ones, start without the tabular and service legs, and
    # ``report`` reads its JSON file without numpy or the GAN.
    config = _config(tmp_path, workspace)
    write_dataset_csv(make_fixture_dataset(n_rows=20, seed=4), tmp_path / "real.csv")
    report = tmp_path / "report.json"
    argv = ["--config", str(config), "validate", "--real", str(tmp_path / "real.csv")]
    assert main(argv + ["--synth", str(tmp_path / "real.csv"), "--out", str(report)]) == 0
    image, sandbox = tmp_path / "sys.twimg", tmp_path / "sandbox"
    delta, checks = tmp_path / "delta.json", tmp_path / "checks.json"
    delta.write_text(json.dumps([{"op": "add_file", "path": "bin/newtool", "content": "x\n"}]), encoding="utf-8")
    checks.write_text(json.dumps([{"check": "file_exists", "path": "bin/newtool"}]), encoding="utf-8")
    commands = [
        ["capture", "--root", str(twin_tree), "--out", str(image)],
        ["twin", "create", "--image", str(image), "--sandbox", str(sandbox)],
        ["twin", "patch", "--sandbox", str(sandbox), "--delta", str(delta)],
        ["twin", "diff", "--pre", str(image), "--post", str(sandbox), "--out", str(tmp_path / "diff.json")],
        ["twin", "check", "--sandbox", str(sandbox), "--checks", str(checks)],
        ["report", "--in", str(report)],
    ]
    code = (
        "import json, sys\n"
        "from twinforge.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(json.dumps([main(argv), sorted({'numpy', 'urllib.request', 'twinforge.tabular.gan'} & set(sys.modules))]))\n"
    )
    argvs = [["--quiet", "--config", str(config), *command] for command in commands]
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(Path(__file__).parent.parent / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    assert [json.loads(line) for line in result.stdout.splitlines()] == [[0, []]] * len(commands)
