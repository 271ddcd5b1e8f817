"""The three workloads. Each isolates one leg of the pipeline.

``gan-train``    conditional-GAN training: condition sampling, row encoding,
                 the two MLPs and Adam.
``gan-synth``    frozen-model synthesis requests: gated sampling, decode,
                 dataset validation, CSV round trip, statistics and report.
``twin-session`` twin patch-testing sessions: restore, patch, checks, diff,
                 script generation and dry-run replay.

Every op's output is checked by the benchmark itself, outside the timed
region; a failed check counts as a failed op.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
from harness import Run, check, derive_seed, sha256_hex
from twinforge.errors import AddExisting, ConfigKeyMissing, DeleteMissing, ReplaceMissing
from twinforge.ingest import macro
from twinforge.ingest import tabular as ingest_tabular
from twinforge.ingest.tabular import CONTINUOUS
from twinforge.sequence import ngram
from twinforge.tabular import gan, gate
from twinforge.twin import checks, image, manifest, patch, sandbox
from twinforge.validate import metrics, replay, report, stats

PATCH_REJECTIONS = (AddExisting, ConfigKeyMissing, DeleteMissing, ReplaceMissing)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``SMOKE`` shrinks them for the benchmark's own test."""

    train_epochs: int = 10
    small_rows: int = 70
    bulk_rows: int = 20000
    smalls_per_bulk: int = 30
    # Few large files: creating a file costs the checkout's filesystem an
    # amount that swings with its state, hashing a byte does not (README,
    # Known limits).
    tree: inputs.TreeSpec = inputs.TreeSpec(
        dirs=4, files_per_dir=4, min_bytes=256 * 1024, max_bytes=4 * 1024 * 1024
    )
    patches_per_session: int = 4
    scripts_per_session: int = 4


FULL = Sizes()
SMOKE = Sizes(
    train_epochs=1,
    bulk_rows=700,
    smalls_per_bulk=2,
    tree=inputs.TreeSpec(dirs=2, files_per_dir=5),
    patches_per_session=2,
    scripts_per_session=2,
)


# -- gan-train -------------------------------------------------------------------


def gan_train(run: Run, work: Path, sizes: Sizes) -> dict:
    config = gan.GanConfig(epochs=sizes.train_epochs)

    table = inputs.make_table(run.seed)
    run.setup(lambda: gan.train_gan(table, gan.GanConfig(epochs=1), seed=run.seed))
    steps = config.epochs * max(1, len(table) // config.batch_size)
    model_path = work / "model.json"
    run.min_requests = 4
    i = 0
    while run.more(i):
        with run.request(i, "train"):
            try:
                with run.op("train"):
                    model = gan.train_gan(table, config, seed=derive_seed(run.seed, i))
                text = gan.model_to_json(model)
                check(len(model.gen_losses) == config.epochs, "one generator loss per epoch")
                check(len(model.disc_losses) == config.epochs, "one discriminator loss per epoch")
                check(
                    all(map(math.isfinite, model.gen_losses + model.disc_losses)),
                    "finite losses",
                )
                gan.save_model(model, model_path)
                check(gan.model_to_json(gan.load_model(model_path)) == text, "model JSON round trip")
                run.digest(sha256_hex(text.encode()))
            except Exception as exc:  # the loop must go on and count it
                run.fail(exc)
        i += 1
    return {"train_steps_per_s": [steps / w for w in run.op_times["train"]]}


# -- gan-synth -------------------------------------------------------------------


def _range_normalised_w1(real: list[float], synth: list[float]) -> float:
    from scipy.stats import wasserstein_distance

    lo = min(real)
    span = max(real) - lo
    return float(
        wasserstein_distance([(v - lo) / span for v in real], [(v - lo) / span for v in synth])
    )


def _tv(real: list[str], synth: list[str]) -> float:
    a, b = Counter(real), Counter(synth)
    return 0.5 * sum(abs(a[k] / len(real) - b[k] / len(synth)) for k in a.keys() | b.keys())


def check_batch(real, batch, n: int, config: gate.GateConfig) -> None:
    """The accepted batch has n rows of the schema and passes the gate
    as recomputed here with scipy's W1 and a hand-written TV."""
    check(len(batch.rows) == n, f"{n} rows")
    check(batch.schema == real.schema, "schema")
    for column in real.schema.columns:
        r = list(real.column_values(column.name))
        s = list(batch.column_values(column.name))
        if column.kind == CONTINUOUS:
            if max(r) == min(r):
                continue  # the gate skips zero-range columns
            d, tau = _range_normalised_w1(r, s), config.tau_continuous
        else:
            d, tau = _tv(r, s), config.tau_discrete
        check(d <= tau + 1e-9, f"{column.name}: distance {d:.4f} above tau {tau}")


def _synth_request(run: Run, kind: str, model, real, n: int, out: Path, request_seed: int):
    gate_config = gate.GateConfig()
    csv_path = out / "synthetic.csv"
    with run.op(kind):
        rng = np.random.default_rng(request_seed)
        batch, attempts = gate.generate_gated(model, real, n, gate_config, rng)
        ingest_tabular.write_dataset_csv(batch, csv_path)
        read_back = ingest_tabular.read_dataset_csv(csv_path)
        comparison = stats.compare_stats(real, read_back)
        distances = tuple(
            report.ColumnDistanceRecord(cd.column, cd.kind, cd.distance)
            for cd in gate.column_distances(real, read_back)
        )
        doc = report.build_report(
            run_id=f"r{request_seed:x}",
            created_at="1970-01-01T00:00:00Z",
            seeds={"gen_tabular": request_seed},
            config={},
            real_stats=stats.summary_stats(real),
            synth_stats=stats.summary_stats(read_back),
            comparison=comparison,
            distances=distances,
            gate_attempts=attempts,
        )
        report.save_report(doc, out / "report.json")
    check_batch(real, batch, n, gate_config)
    check(read_back == batch, "CSV read-back equals the accepted batch")
    check(comparison.row_counts == (len(real), n), "compared row counts")
    return attempts, sha256_hex(csv_path.read_bytes())


def gan_synth(run: Run, work: Path, sizes: Sizes) -> dict:
    import scipy.stats  # noqa: F401  # the output checks need it; load it before set-up is timed

    model_path = inputs.DATA_DIR / "model.json"
    expected_sha = (inputs.DATA_DIR / "model.sha256").read_text(encoding="utf-8").strip()

    def build():
        actual = sha256_hex(model_path.read_bytes())
        if actual != expected_sha:
            raise SystemExit(
                f"{model_path}: sha256 {actual} does not match model.sha256 {expected_sha}; "
                "regenerate both with perfbench/make_model.py"
            )
        model = gan.load_model(model_path)
        _synth_request(run, "small", model, real, sizes.small_rows, work, derive_seed(run.seed, -1))
        return model

    real = inputs.make_table(inputs.FROZEN_TABLE_SEED)
    model = run.setup(build)
    gate_tally: dict[str, list[int]] = {"small": [], "bulk": []}
    run.min_requests = 2 + sizes.smalls_per_bulk  # two bulk requests
    i = 0
    while run.more(i):
        kind = "bulk" if i % (1 + sizes.smalls_per_bulk) == 0 else "small"
        n = sizes.bulk_rows if kind == "bulk" else sizes.small_rows
        with run.request(i, kind):
            try:
                attempts, digest = _synth_request(
                    run, kind, model, real, n, work, derive_seed(run.seed, i)
                )
                gate_tally[kind].append(attempts)
                run.digest(f"{kind}:{attempts}:{digest}")
            except Exception as exc:
                run.fail(exc)
        i += 1
    return {
        "gate": gate_tally,
        "synth_rows_per_s": [sizes.bulk_rows / w for w in run.request_walls("bulk")],
    }


# -- twin-session ----------------------------------------------------------------


def _dirs_of(paths) -> set[str]:
    out = set()
    for p in paths:
        parts = p.split("/")[:-1]
        for k in range(1, len(parts) + 1):
            out.add("/".join(parts[:k]))
    return out


def hash_tree(root: Path) -> tuple[dict[str, str], set[str]]:
    """Files (path -> sha256) and directories under ``root``, by the
    benchmark's own walk; the writer lock file is ignored."""
    files: dict[str, str] = {}
    dirs: set[str] = set()
    for dirpath, dirnames, filenames in os.walk(root):
        rel = Path(dirpath).relative_to(root).as_posix()
        prefix = "" if rel == "." else rel + "/"
        dirs.update(prefix + d for d in dirnames)
        for name in filenames:
            if name != manifest.LOCK_FILENAME:
                files[prefix + name] = sha256_hex((Path(dirpath) / name).read_bytes())
    return files, dirs


def _manifest_files(entries) -> dict[str, str]:
    return {e.path: e.sha256 for e in entries if e.kind == manifest.FILE}


def _expected_files(state: dict[str, bytes]) -> dict[str, str]:
    return {p: sha256_hex(c) for p, c in state.items()}


def _check_spec(state: dict[str, bytes], rng: np.random.Generator, touched: list[str]):
    """Assertions that must all pass on ``state``: executables present,
    a few data hashes (touched files first) and every config key."""
    data = sorted(p for p in state if p.startswith("data/"))
    picks = [p for p in touched if p in state][:2]
    picks += [data[int(k)] for k in rng.integers(len(data), size=3 - len(picks))]
    config = dict(
        line.split("=", 1) for line in state[inputs.CONFIG_FILE].decode().splitlines()
    )
    return checks.CheckSpec(
        tuple(checks.FileExists(p) for p in inputs.EXECUTABLES)
        + tuple(checks.HashEquals(p, sha256_hex(state[p])) for p in picks)
        + tuple(checks.ConfigEquals(inputs.CONFIG_FILE, k, v) for k, v in config.items())
    )


@dataclass
class TwinSetup:
    image: image.TwinImage
    files: dict[str, bytes]
    seq_model: ngram.SeqModel
    corpus: list[macro.MacroScript]


def _session(run: Run, setup: TwinSetup, index: int, work: Path, sizes: Sizes) -> list[str]:
    """One patch-testing session; returns its digest parts."""
    rng = np.random.default_rng(derive_seed(run.seed, index))
    box = work / f"session-{index}"
    parts: list[str] = []
    tmp_dirs = {"tmp"}
    image_files = _manifest_files(setup.image.manifest)

    with run.op("restore"):
        twin = sandbox.instantiate_twin(setup.image, box)
    files, dirs = hash_tree(box)
    check(files == image_files, "restored files equal the image manifest")
    check(files == _expected_files(setup.files), "restored files equal the source tree")
    check(dirs == _dirs_of(setup.files) | tmp_dirs, "restored directories")
    parts.append(sha256_hex(repr(sorted(files.items())).encode()))

    state = dict(setup.files)
    live_dirs = _dirs_of(setup.files) | tmp_dirs  # deleting a file keeps its directory
    for k in range(sizes.patches_per_session):
        cand = inputs.make_candidate(state, rng, f"s{index}p{k}")
        with run.op("patch"):
            try:
                outcome = patch.apply_patch(twin, cand.delta)
            except PATCH_REJECTIONS as exc:
                outcome = exc
        if cand.valid:
            check(not isinstance(outcome, Exception), f"valid patch applied ({outcome!r})")
            check(
                _manifest_files(outcome.manifest) == _expected_files(cand.expected),
                "post-patch manifest equals the expected hashes",
            )
            if run.traced_now:
                run.patch_bytes_written += cand.written
        else:
            check(isinstance(outcome, PATCH_REJECTIONS), "invalid patch raised its typed error")
            check(hash_tree(box)[0] == _expected_files(state), "rejected patch left the tree")
        state = cand.expected
        live_dirs |= _dirs_of(state)
        parts.append(f"patch{k}:{cand.valid}:{type(outcome).__name__}")

        spec = _check_spec(state, rng, [getattr(op, "path", "") for op in cand.delta.ops])
        with run.op("check"):
            results = checks.run_checks(twin, spec)
        check(all(r.passed for r in results), "every check passes on the patched twin")

    with run.op("diff"):
        diff = manifest.diff_states(setup.image.manifest, manifest.scan_tree(box))
    source, now = _expected_files(setup.files), _expected_files(state)
    image_dirs = _dirs_of(setup.files)
    check(set(diff.added) == (now.keys() - source.keys()) | (live_dirs - image_dirs), "diff added")
    check(set(diff.removed) == source.keys() - now.keys(), "diff removed")
    check(
        {m.path for m in diff.modified}
        == {p for p in source.keys() & now.keys() if source[p] != now[p]},
        "diff modified",
    )
    parts.append(sha256_hex(repr(sorted(now.items())).encode()))

    for j in range(sizes.scripts_per_session):
        reference = setup.corpus[(index * sizes.scripts_per_session + j) % len(setup.corpus)]
        request = ngram.GenRequest(
            prompt=(reference.commands[0].emit(),),
            temperature=0.8,
            seed=derive_seed(run.seed, index, j),
        )
        ref_tokens = [c.emit() for c in reference.commands]
        with run.op("script"):
            tokens = ngram.generate_sequence(setup.seq_model, request)
            script = ngram.sequence_to_script(tokens, name=f"gen-{index}-{j}")
            outcome = replay.replay_validate(script, twin)
            bleu = metrics.bleu([c.emit() for c in script.commands], [ref_tokens])
            cosine = metrics.cosine_similarity(script, reference)
        check(0.0 <= bleu <= 1.0 and 0.0 <= cosine <= 1.0 + 1e-12, "scores in [0, 1]")
        failure = outcome.first_failure
        parts.append(
            f"script{j}:{len(tokens)}:{outcome.ok}:"
            f"{failure.kind if failure else ''}:{failure.index if failure else 0}"
        )
    check(hash_tree(box)[0] == now, "replay left the sandbox unchanged")

    with run.op("teardown"), run.span("bench.teardown"):
        shutil.rmtree(box)
    return parts


def twin_session(run: Run, work: Path, sizes: Sizes) -> dict:
    corpus = [
        macro.parse_macro_script(text, name=name) for name, text in inputs.corpus_texts().items()
    ]

    files = inputs.build_tree(work / "tree", sizes.tree, run.seed)

    def build():
        path = work / f"system-{len(run.setup_times)}.twimg"
        image.save_image(image.capture_image(work / "tree"), path)
        loaded = image.load_image(path)
        seq_model = ngram.train_ngram(
            [macro.tokenize_script(s) for s in corpus], order=3, delta=0.01, seed=run.seed
        )
        return TwinSetup(loaded, files, seq_model, corpus)

    setup = run.setup(build)
    run.min_requests = 4
    i = 0
    while run.more(i):
        with run.request(i, "session"):
            try:
                run.digest(*_session(run, setup, i, work, sizes))
            except Exception as exc:
                run.fail(exc)
                shutil.rmtree(work / f"session-{i}", ignore_errors=True)
        i += 1
    return {}


WORKLOADS = {"gan-train": gan_train, "gan-synth": gan_synth, "twin-session": twin_session}
