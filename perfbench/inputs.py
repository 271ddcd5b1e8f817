"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its seed: the mixed process table,
the twin source tree, candidate patches and script prompts. The library
under test only ever sees the generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twinforge.ingest import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset
from twinforge.twin import AddFile, DeleteFile, PatchDelta, ReplaceFile, SetConfig

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE / "data"
CORPUS_DIR = DATA_DIR / "scripts"

TABLE_ROWS = 560
# The frozen model was trained on the table drawn from this seed.
FROZEN_TABLE_SEED = 11
FROZEN_MODEL_SEED = 7

SCHEMA = Schema(
    (
        Column("user", DISCRETE),
        Column("cpu_pct", CONTINUOUS),
        Column("mem_pct", CONTINUOUS),
        Column("elapsed_s", CONTINUOUS),
        Column("command", DISCRETE),
    )
)


def make_table(seed: int, n_rows: int = TABLE_ROWS) -> TabularDataset:
    """The known mixed distribution of the test suite's 560-row fixture.

    Two discrete columns with skewed categories, a bimodal CPU column, a
    unimodal memory column and a bimodal elapsed-time column.
    """
    rng = np.random.default_rng(seed)
    users = rng.choice(["root", "admin", "daemon"], size=n_rows, p=[0.8, 0.125, 0.075])
    commands = rng.choice(["gedit", "top", "sh"], size=n_rows, p=[0.5, 0.3, 0.2])
    cpu_mode = rng.random(n_rows) < 0.7
    cpu = np.where(
        cpu_mode, rng.normal(0.10, 0.04, n_rows), rng.normal(0.45, 0.07, n_rows)
    ).clip(min=0.0)
    mem = rng.normal(0.99, 0.22, n_rows).clip(min=0.0)
    elapsed_mode = rng.random(n_rows) < 0.5
    elapsed = np.where(
        elapsed_mode, rng.normal(5.0, 2.0, n_rows), rng.normal(55.0, 6.0, n_rows)
    ).clip(min=0.0)
    rows = tuple(
        (str(users[i]), float(cpu[i]), float(mem[i]), float(elapsed[i]), str(commands[i]))
        for i in range(n_rows)
    )
    return TabularDataset(SCHEMA, rows, tuple(range(1, n_rows + 1)))


# -- twin tree -------------------------------------------------------------------

EXECUTABLES = {
    "bin/chrome.exe": b"\x7fELF chrome browser build 118\n" * 8,
    "bin/featherpad": b"\x7fELF featherpad editor\n" * 6,
    "bin/term": b"\x7fELF terminal emulator\n" * 5,
    "apps/gedit": b"\x7fELF gnome editor\n" * 7,
    "apps/files": b"\x7fELF file manager\n" * 4,
}
CONFIG_FILE = "etc/app.conf"
CONFIG_KEYS = ("mode", "retries", "log_level", "cache_mb", "workers")


@dataclass(frozen=True)
class TreeSpec:
    dirs: int
    files_per_dir: int
    min_bytes: int = 256
    max_bytes: int = 8192


def build_tree(root: Path, spec: TreeSpec, seed: int) -> dict[str, bytes]:
    """Write a seeded system-like tree; returns every file's content by path.

    Besides the bulk data directories the tree holds the executables that
    replay resolves, a line-oriented config that patches and checks edit,
    and a ``tmp/`` entry that capture excludes.
    """
    rng = np.random.default_rng([seed, 0x7EE])
    files: dict[str, bytes] = dict(EXECUTABLES)
    files[CONFIG_FILE] = "".join(f"{k}=v0\n" for k in CONFIG_KEYS).encode()
    # Every seed gets the same evenly spaced file sizes, shuffled, so the
    # tree's size does not vary from seed to seed; only placement and
    # content do.
    n = spec.dirs * spec.files_per_dir
    ladder = np.linspace(spec.min_bytes, spec.max_bytes, n).round().astype(int)
    sizes = rng.permutation(ladder).reshape(spec.dirs, spec.files_per_dir)
    for d in range(spec.dirs):
        for f, size in enumerate(sizes[d]):
            files[f"data/d{d:03d}/f{f:04d}.bin"] = rng.bytes(int(size))
    for rel, content in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)
    (root / "tmp").mkdir()
    (root / "tmp" / "scratch.txt").write_bytes(b"ephemeral\n")
    return files


# -- candidate patches -----------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    """A patch plus the file state it should produce; ``valid`` is False when
    one op is meant to fail and the whole patch must be rejected."""

    delta: PatchDelta
    valid: bool
    expected: dict[str, bytes]
    written: int  # bytes the ops write


def _set_config(content: bytes, key: str, value: str) -> bytes:
    lines = content.decode().splitlines()
    lines = [f"{key}={value}" if ln.partition("=")[0].strip() == key else ln for ln in lines]
    return ("\n".join(lines) + "\n").encode()


def make_candidate(files: dict[str, bytes], rng: np.random.Generator, tag: str) -> Candidate:
    """One to four ops over the current file state; about one in five
    candidates carries an op that must fail (add over an existing file,
    replace or delete a missing file, or set a config key that is absent)."""
    state = dict(files)
    data_paths = sorted(p for p in state if p.startswith("data/"))
    ops = []
    written = 0
    n_ops = int(rng.integers(1, 5))
    bad_at = int(rng.integers(n_ops)) if rng.random() < 0.2 else -1
    for i in range(n_ops):
        if i == bad_at:
            kind = int(rng.integers(4))
            if kind == 0:
                ops.append(AddFile(data_paths[int(rng.integers(len(data_paths)))], b"clash"))
            elif kind == 1:
                ops.append(ReplaceFile(f"data/missing/{tag}-{i}.bin", b"nope"))
            elif kind == 2:
                ops.append(DeleteFile(f"data/missing/{tag}-{i}.bin"))
            else:
                ops.append(SetConfig(CONFIG_FILE, f"absent_{tag}", "1"))
            continue
        kind = int(rng.integers(4))
        if kind == 0:
            path = f"data/new/{tag}-{i}.bin"
            content = rng.bytes(int(rng.integers(256, 8193)))
            ops.append(AddFile(path, content))
            state[path] = content
            written += len(content)
        elif kind == 1:
            path = data_paths[int(rng.integers(len(data_paths)))]
            content = rng.bytes(int(rng.integers(256, 8193)))
            ops.append(ReplaceFile(path, content))
            state[path] = content
            written += len(content)
        elif kind == 2:
            path = data_paths[int(rng.integers(len(data_paths)))]
            ops.append(DeleteFile(path))
            del state[path]
            data_paths.remove(path)
        else:
            key = CONFIG_KEYS[int(rng.integers(len(CONFIG_KEYS)))]
            value = f"{tag}{i}"
            ops.append(SetConfig(CONFIG_FILE, key, value))
            state[CONFIG_FILE] = _set_config(state[CONFIG_FILE], key, value)
            written += len(state[CONFIG_FILE])
    valid = bad_at < 0
    return Candidate(PatchDelta(tuple(ops)), valid, state if valid else dict(files), written)


# -- script corpus ---------------------------------------------------------------


def corpus_texts() -> dict[str, str]:
    """The six recorded macro scripts, by file stem."""
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.ahk"))}
