"""Shared fixtures: recorded-data corpora, the 560-row mixed table, twin trees."""

from __future__ import annotations

import builtins
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from twinforge.errors import TwinLocked
from twinforge.ingest.macro import MacroScript, parse_macro_script
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset, write_dataset_csv
from twinforge.tabular.encoding import TableCodec
from twinforge.tabular.mixture import ModeNormalizer

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"

# Mirrors the recorded-table shape: 560 rows of mixed discrete/continuous
# process data drawn from a known distribution, regenerated deterministically.
FIXTURE_DATASET_SEED = 11
FIXTURE_DATASET_ROWS = 560

# Relative paths the one path rule refuses although they stay inside the
# directory they are joined to: each names its node only in another
# spelling, or, the last, cannot be written as UTF-8.
UNNORMALIZED_PATHS = ["bin//new", "./a", "a/./b", "a/", "bin/\udcff"]


@pytest.fixture(scope="session")
def top_capture_text() -> str:
    return (FIXTURES / "top_capture.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def script_paths() -> list[Path]:
    return sorted((FIXTURES / "scripts").glob("*.ahk"))


@pytest.fixture(scope="session")
def script_corpus(script_paths) -> list[MacroScript]:
    return [
        parse_macro_script(p.read_text(encoding="utf-8"), name=p.stem)
        for p in script_paths
    ]


def make_fixture_dataset(
    n_rows: int = FIXTURE_DATASET_ROWS, seed: int = FIXTURE_DATASET_SEED
) -> TabularDataset:
    """Known mixed-type distribution for training and gating tests.

    Continuous columns are bimodal or unimodal Gaussians whose ranges are
    narrow relative to their means, so a distributionally close sample also
    has close column averages.
    """
    rng = np.random.default_rng(seed)
    users = rng.choice(["root", "admin", "daemon"], size=n_rows, p=[0.8, 0.125, 0.075])
    commands = rng.choice(["gedit", "top", "sh"], size=n_rows, p=[0.5, 0.3, 0.2])
    cpu_mode = rng.random(n_rows) < 0.7
    cpu = np.where(
        cpu_mode,
        rng.normal(0.10, 0.04, n_rows),
        rng.normal(0.45, 0.07, n_rows),
    ).clip(min=0.0)
    mem = rng.normal(0.99, 0.22, n_rows).clip(min=0.0)
    elapsed_mode = rng.random(n_rows) < 0.5
    elapsed = np.where(
        elapsed_mode,
        rng.normal(5.0, 2.0, n_rows),
        rng.normal(55.0, 6.0, n_rows),
    ).clip(min=0.0)

    schema = Schema(
        (
            Column("user", DISCRETE),
            Column("cpu_pct", CONTINUOUS),
            Column("mem_pct", CONTINUOUS),
            Column("elapsed_s", CONTINUOUS),
            Column("command", DISCRETE),
        )
    )
    rows = tuple(
        (str(users[i]), float(cpu[i]), float(mem[i]), float(elapsed[i]), str(commands[i]))
        for i in range(n_rows)
    )
    pids = tuple(range(1, n_rows + 1))
    return TabularDataset(schema, rows, pids)


def make_codec_with_widths() -> TableCodec:
    """Flag blocks of every width from 1 to 20: a discrete column with that
    many categories each (two of width 9), continuous columns of 1 to 5 modes."""
    rng = np.random.default_rng(17)
    columns, normalizers, categories, frequencies = [], {}, {}, {}
    for k in range(1, 6):
        name = f"x{k}"
        columns.append(Column(name, CONTINUOUS))
        normalizers[name] = ModeNormalizer((1.0 / k,) * k, tuple(float(m) for m in range(k)), (1.0,) * k, 1e-6)
    for width in list(range(1, 21)) + [9]:
        name = f"d{len(columns)}"
        columns.append(Column(name, DISCRETE))
        categories[name] = tuple(f"c{j:02d}" for j in range(width))
        counts = rng.integers(0, 50, size=width)  # zero counts leave flat steps in a cdf
        counts[0] += 1
        frequencies[name] = {c: int(n) for c, n in zip(categories[name], counts)}
    rng.shuffle(columns)
    return TableCodec(Schema(tuple(columns)), normalizers, categories, frequencies)


@pytest.fixture(scope="session")
def fixture_dataset() -> TabularDataset:
    return make_fixture_dataset()


@pytest.fixture(scope="session")
def pipeline_artifacts(tmp_path_factory):
    """One default-config CLI run of train + gen + validate on the 560-row
    fixture: the suite's only default-config training."""
    from twinforge.cli import main

    tmp = tmp_path_factory.mktemp("pipeline")
    workspace = tmp / "ws"
    config = tmp / "config.json"
    config.write_text(json.dumps({"workspace": str(workspace), "seed": 7}), encoding="utf-8")

    real_csv = tmp / "real.csv"
    write_dataset_csv(make_fixture_dataset(), real_csv)

    model_path = tmp / "tabular.json"
    synth_csv = tmp / "synth.csv"
    report_path = tmp / "report.json"

    started = time.monotonic()
    assert main(["--config", str(config), "--quiet", "train", "tabular", "--data", str(real_csv), "--out", str(model_path)]) == 0
    assert main(
        ["--config", str(config), "--quiet", "gen", "tabular", "--model", str(model_path), "--real", str(real_csv), "--n", "70", "--out", str(synth_csv)]
    ) == 0
    elapsed = time.monotonic() - started
    assert main(
        ["--config", str(config), "--quiet", "validate", "--real", str(real_csv), "--synth", str(synth_csv), "--out", str(report_path)]
    ) == 0
    return {
        "config": config,
        "real_csv": real_csv,
        "synth_csv": synth_csv,
        "model_path": model_path,
        "report_path": report_path,
        "train_gen_seconds": elapsed,
    }


@pytest.fixture(scope="session")
def trained_model(pipeline_artifacts):
    """The default-config model the pipeline run trained (seed
    ``stage_seed(7, "train.tabular")``), shared by slow tests."""
    from twinforge.tabular.gan import load_model

    return load_model(pipeline_artifacts["model_path"])


def build_twin_tree(root: Path) -> Path:
    """A small system-like tree with executables, config, and a tmp dir."""
    (root / "bin").mkdir(parents=True)
    (root / "apps").mkdir()
    (root / "etc").mkdir()
    (root / "docs").mkdir()
    (root / "tmp").mkdir()
    (root / "bin" / "chrome.exe").write_bytes(b"\x7fELF chrome browser build 118\n" * 8)
    (root / "bin" / "featherpad").write_bytes(b"\x7fELF featherpad editor\n" * 6)
    (root / "bin" / "term").write_bytes(b"\x7fELF terminal emulator\n" * 5)
    (root / "apps" / "gedit").write_bytes(b"\x7fELF gnome editor\n" * 7)
    (root / "apps" / "files").write_bytes(b"\x7fELF file manager\n" * 4)
    (root / "etc" / "app.conf").write_text("mode=safe\nretries=3\nlog_level=info\n", encoding="utf-8")
    (root / "docs" / "readme.txt").write_text("local system under test\n", encoding="utf-8")
    (root / "tmp" / "scratch.txt").write_text("ephemeral\n", encoding="utf-8")
    return root


@pytest.fixture()
def twin_tree(tmp_path: Path) -> Path:
    return build_twin_tree(tmp_path / "source")


def edit_image_manifest(path: Path, edit: Callable[[dict], bytes | None]) -> None:
    """Rewrite the header of the twin image at ``path`` in place: ``edit``
    changes the header's JSON document, or returns the bytes of a new
    header, and the file is framed again (magic, header length, header)
    ahead of the same archive bytes."""
    from twinforge.twin.image import MAGIC

    data = path.read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(data[len(MAGIC) : start], "big")
    doc = json.loads(data[start:end].decode("utf-8"))
    header = edit(doc)
    if header is None:
        header = json.dumps(doc).encode("utf-8")
    path.write_bytes(MAGIC + len(header).to_bytes(8, "big") + header + data[end:])


# The exit codes of a child run by ``run_cut_at``.
CUT, RAN_THROUGH = 7, 0

# The ``os`` calls that change the tree: each one is a cut point.
_MUTATIONS = ("mkdir", "rmdir", "unlink", "rename", "replace", "chmod", "fchmod")


def run_cut_at(k: int, action: Callable[[], object]) -> int:
    """Run ``action`` in a forked child that ``os._exit``s just before its
    ``k``-th filesystem mutation: a kill, which no ``except`` or ``finally``
    clause sees. A mutation is an ``os`` call of ``_MUTATIONS``, an
    ``os.open`` that may create or write, an ``open`` for writing, or a
    write to a file so opened; the writes before a cut are flushed, so they
    are on disk as a kill leaves them. Returns the child's exit code:
    ``CUT``, or ``RAN_THROUGH`` when ``action`` returned after fewer than
    ``k`` mutations."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child never returns
        try:
            count = 0

            def step():
                nonlocal count
                count += 1
                if count == k:
                    os._exit(CUT)

            def counted(real):
                def mutation(*args, **kwargs):
                    step()
                    return real(*args, **kwargs)

                return mutation

            class Written:
                """A file opened for writing, each write a cut point."""

                def __init__(self, fh):
                    self._fh = fh

                def write(self, data):
                    self._fh.flush()
                    step()
                    return self._fh.write(data)

                def __enter__(self):
                    self._fh.__enter__()
                    return self

                def __exit__(self, *exc):
                    return self._fh.__exit__(*exc)

                def __getattr__(self, name):
                    return getattr(self._fh, name)

            real_open, real_os_open = io.open, os.open

            def open_(file, mode="r", *args, **kwargs):
                if not set(mode) & set("wax+"):
                    return real_open(file, mode, *args, **kwargs)
                step()
                return Written(real_open(file, mode, *args, **kwargs))

            def os_open(path, flags, *args, **kwargs):
                if flags & (os.O_WRONLY | os.O_RDWR | os.O_CREAT):
                    step()
                return real_os_open(path, flags, *args, **kwargs)

            for name in _MUTATIONS:
                setattr(os, name, counted(getattr(os, name)))
            os.open, io.open, builtins.open = os_open, open_, open_
            action()
            os._exit(RAN_THROUGH)
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


SRC = Path(__file__).resolve().parent.parent / "src"


@contextmanager
def python_child(code: str, *args: str):
    """Run ``code`` with ``args`` in a Python child that imports the package,
    its stdout piped, for the block; SIGKILL it on exit, as a crash ends a
    command."""
    child = subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    try:
        yield child
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()


_HOLD = """
import sys, time
from pathlib import Path
from twinforge.errors import TwinLocked
from twinforge.twin.sandbox import sandbox_lock
try:
    with sandbox_lock(Path(sys.argv[1])):
        print("held", flush=True)
        time.sleep(60)
except TwinLocked:
    print("locked", flush=True)
"""


@contextmanager
def held_by_child(directory: Path):
    """Hold ``sandbox_lock(directory)`` from a child process for the block,
    since a lock this process holds does not exclude this process; raise
    ``TwinLocked`` if another process holds it."""
    with python_child(_HOLD, str(directory)) as child:
        reply = child.stdout.readline()
        if reply == "locked\n":
            raise TwinLocked(f"{directory}: another command holds its lock")
        assert reply == "held\n"
        yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines where capture cannot hide them."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
