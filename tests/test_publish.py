"""Every artifact is published whole: ``jsonfile.publish`` is the one writer,
and a reader sees the previous artifact or the new one, never part of one."""

from __future__ import annotations

import os
import shutil
import stat

import pytest

from twinforge.cli import main
from twinforge.jsonfile import publish
from twinforge.tabular import gate

from conftest import CUT, RAN_THROUGH, build_twin_tree, run_cut_at


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_publish_replaces_the_target_whole_and_leaves_nothing_beside_it(tmp_path):
    target = tmp_path / "a.json"
    with publish(target) as fh:
        fh.write("one\r\ntwo\n")
    assert target.read_bytes() == b"one\r\ntwo\n"  # no newline translation
    with publish(target, binary=True) as fh:
        fh.write(b"\x00\xff")
        assert target.read_bytes() == b"one\r\ntwo\n"  # untouched until the block ends
    assert target.read_bytes() == b"\x00\xff"
    assert os.listdir(tmp_path) == ["a.json"]


def test_publish_of_a_block_that_raises_keeps_the_target_and_removes_the_temporary(tmp_path):
    target = tmp_path / "a.json"
    target.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="halfway"):
        with publish(target) as fh:
            fh.write("new, but only half")
            raise RuntimeError("halfway")
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["a.json"]


def test_publish_keeps_the_modes_a_plain_write_leaves(tmp_path):
    """An existing target keeps its bits, a new one gets the umask's default,
    never a temporary file's 0600."""
    existing, new = tmp_path / "existing", tmp_path / "new"
    existing.write_bytes(b"x")
    existing.chmod(0o751)
    old_umask = os.umask(0o027)
    try:
        for path in (existing, new):
            with publish(path) as fh:
                fh.write("y")
    finally:
        os.umask(old_umask)
    assert (_mode(existing), _mode(new)) == (0o751, 0o640)


def test_publish_follows_a_link_at_the_target(tmp_path):
    (tmp_path / "real").write_bytes(b"old")
    (tmp_path / "link").symlink_to("real")
    with publish(tmp_path / "link") as fh:
        fh.write("new")
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "real").read_bytes() == b"new"


def _gen(config, model, real, n, out) -> int:
    return main(["--config", str(config), "--quiet", "gen", "tabular", "--model", str(model),
                 "--real", str(real), "--n", str(n), "--out", str(out)])


def _validate(config, real, synth, out) -> int:
    return main(["--config", str(config), "--quiet", "validate", "--real", str(real), "--synth", str(synth),
                 "--out", str(out)])


def test_validate_refuses_a_csv_shorter_than_its_meta_says(pipeline_artifacts, tmp_path, capsys):
    """A writer killed between two 2048-row blocks once left a 2048-row CSV
    beside a meta saying 5000 rows, and ``validate`` passed it."""
    config, real = pipeline_artifacts["config"], pipeline_artifacts["real_csv"]
    synth = tmp_path / "synth.csv"
    assert _gen(config, pipeline_artifacts["model_path"], real, 5000, synth) == 0
    lines = synth.read_bytes().split(b"\r\n")
    synth.write_bytes(b"\r\n".join(lines[: 1 + 2048]) + b"\r\n")
    capsys.readouterr()
    assert _validate(config, real, synth, tmp_path / "report.json") == 2
    err = capsys.readouterr().err
    assert f"{synth}.meta.json describes another CSV: its csv_sha256 is not the SHA-256 of {synth}" in err
    assert not (tmp_path / "report.json").exists()


def test_validate_refuses_the_meta_of_an_earlier_batch_of_the_same_n(pipeline_artifacts, tmp_path, capsys):
    """A ``gen tabular`` killed between its CSV's rename and its meta's leaves
    the new CSV beside the previous run's meta; when both asked for the same
    ``--n``, ``validate`` once passed the pair and reported the earlier seed."""
    config, real = pipeline_artifacts["config"], pipeline_artifacts["real_csv"]
    first, second = tmp_path / "first", tmp_path / "second"
    for seed, box in (("1", first), ("2", second)):
        box.mkdir()
        assert main(["--config", str(config), "--seed", seed, "--quiet", "gen", "tabular", "--model",
                     str(pipeline_artifacts["model_path"]), "--real", str(real), "--n", "70",
                     "--out", str(box / "synth.csv")]) == 0
    synth = second / "synth.csv"
    assert synth.read_bytes() != (first / "synth.csv").read_bytes()
    assert _validate(config, real, synth, tmp_path / "report.json") == 0
    os.replace(first / "synth.csv.meta.json", f"{synth}.meta.json")
    capsys.readouterr()
    assert _validate(config, real, synth, tmp_path / "stale.json") == 2
    err = capsys.readouterr().err
    assert f"{synth}.meta.json describes another CSV: its csv_sha256 is not the SHA-256 of {synth}" in err
    assert not (tmp_path / "stale.json").exists()


def _bytes(*paths) -> tuple[bytes | None, ...]:
    return tuple(path.read_bytes() if path.exists() else None for path in paths)


def _beside(directory, names) -> list[str]:
    """The entries of ``directory`` that are neither ``names`` nor one of
    their ``.<name>.*`` temporaries."""
    return [e for e in os.listdir(directory) if e not in names and not any(e.startswith(f".{n}.") for n in names)]


def test_gen_tabular_cut_at_any_write_leaves_the_previous_or_the_new_batch(pipeline_artifacts, tmp_path, monkeypatch):
    """``gen tabular --n 5000`` over a 70-row batch, killed before each of its
    writes (each CSV block among them), leaves each file whole, the previous
    or the new, and ``validate`` passes only a CSV and meta that agree."""
    config, real, model = pipeline_artifacts["config"], pipeline_artifacts["real_csv"], pipeline_artifacts["model_path"]
    names = ("synth.csv", "synth.csv.meta.json")
    prev, new = tmp_path / "prev", tmp_path / "new"
    prev.mkdir(), new.mkdir()
    assert _gen(config, model, real, 70, prev / "synth.csv") == 0
    batches = []
    real_gated = gate.generate_gated

    def gated(*args):
        batches.append(real_gated(*args))
        return batches[-1]

    monkeypatch.setattr(gate, "generate_gated", gated)
    assert _gen(config, model, real, 5000, new / "synth.csv") == 0
    before, after = _bytes(*(prev / n for n in names)), _bytes(*(new / n for n in names))
    monkeypatch.setattr(gate, "generate_gated", lambda *args: batches[0])  # the children only write
    k = 0
    while True:
        k += 1
        box = tmp_path / f"cut{k}"
        shutil.copytree(prev, box)
        code = run_cut_at(k, lambda: _gen(config, model, real, 5000, box / "synth.csv"))
        assert code in (CUT, RAN_THROUGH)
        state = _bytes(*(box / n for n in names))
        assert all(now in (was, will) for now, was, will in zip(state, before, after)), f"cut at write {k}"
        assert _beside(box, names) == []
        result = _validate(config, real, box / "synth.csv", tmp_path / f"report{k}.json")
        assert result == (0 if state in (before, after) else 2), f"cut at write {k}"
        if code == RAN_THROUGH:
            break
    assert state == after
    assert k > 9  # the CSV's create, header, three blocks and replace, and the meta's


def test_capture_cut_at_any_write_leaves_the_previous_or_the_new_image(tmp_path, monkeypatch):
    """A ``capture`` over an existing image, killed before each of its
    writes, leaves the previous image or the new one, whole, and nothing
    else beside it, and ``twin create`` restores it."""
    monkeypatch.setenv("TWINFORGE_TIMESTAMP", "2024-06-01T00:00:00Z")
    tree = build_twin_tree(tmp_path / "tree")
    config = tmp_path / "config.json"
    config.write_text('{"workspace": "%s"}' % (tmp_path / "ws"), encoding="utf-8")
    names = ("system.twimg",)
    prev, new = tmp_path / "prev", tmp_path / "new"

    def capture(out):
        return main(["--config", str(config), "--quiet", "capture", "--root", str(tree), "--out", str(out)])

    prev.mkdir(), new.mkdir()
    assert capture(prev / "system.twimg") == 0
    (tree / "docs" / "readme.txt").write_bytes(b"a longer readme, in the image captured over the first\n")
    (tree / "bin" / "added").write_bytes(b"\x7fELF\n")
    assert capture(new / "system.twimg") == 0
    assert os.listdir(prev) == os.listdir(new) == ["system.twimg"]  # one file per image, no sidecar
    before, after = _bytes(*(prev / n for n in names)), _bytes(*(new / n for n in names))
    k = 0
    while True:
        k += 1
        box = tmp_path / f"cut{k}"
        shutil.copytree(prev, box)
        code = run_cut_at(k, lambda: capture(box / "system.twimg"))
        assert code in (CUT, RAN_THROUGH)
        state = _bytes(*(box / n for n in names))
        assert state in (before, after), f"cut at write {k}"
        assert _beside(box, names) == []
        result = main(["--quiet", "twin", "create", "--image", str(box / "system.twimg"),
                       "--sandbox", str(tmp_path / f"twin{k}")])
        assert result == 0, f"cut at write {k}"
        if code == RAN_THROUGH:
            break
    assert state == after and os.listdir(box) == ["system.twimg"]
    assert k > 6  # the workspace's mkdir, then the file's create, chmod, two writes and replace
