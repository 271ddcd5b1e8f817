"""Command-line pipeline: capture, twin ops, ingest, train, generate, validate.

Exit codes: 0 success, 1 usage error, 2 data error (parse failures; bad,
unreadable or non-UTF-8 files; I/O), 3 gate or validation failure. All
randomness derives from the config seed (``--seed`` overrides); per-stage
streams are hashed from it so stages stay independent.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

from twinforge.config import PipelineConfig, default_config, load_config
from twinforge.errors import (
    EmptyScript,
    GateExhausted,
    MacroSyntaxError,
    MalformedCsv,
    TwinforgeError,
)
from twinforge.jsonfile import dumps, from_doc, publish, read_json, read_text, write_json
from twinforge.twin.checks import load_checks, run_checks
from twinforge.twin.image import capture_image, load_image, load_manifest, save_image
from twinforge.twin.manifest import diff_states, is_safe_rel_path, scan_tree, sha256_hex, walk_tree
from twinforge.twin.patch import apply_patch, load_delta
from twinforge.twin.sandbox import TwinState, instantiate_twin, sandbox_lock

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VALIDATION = 3


@dataclass(frozen=True)
class SynthMeta:
    """The ``.meta.json`` beside a generated CSV: how the batch was made."""

    gate_attempts: int
    seed: int
    csv_sha256: str
    model: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def stage_seed(base: int, label: str) -> int:
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _workspace_lock(args: argparse.Namespace, workspace: Path):
    """The lock on the workspace directory, for the commands that may write
    into it. ``report`` and the ``twin`` commands write nothing there, so
    they neither take the lock nor create the workspace."""
    if args.command in ("report", "twin"):
        return nullcontext()
    workspace.mkdir(parents=True, exist_ok=True)
    return sandbox_lock(workspace)


def _workspace_path(config: PipelineConfig, subdir: str, name: str) -> Path:
    target = config.workspace / subdir
    target.mkdir(parents=True, exist_ok=True)
    return target / name


def _build_parser() -> _Parser:
    parser = _Parser(prog="twinforge", description=__doc__)
    parser.add_argument("--config", type=Path, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("capture", help="capture a filesystem image")
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--name", default=None)
    p.add_argument("--exclude", action="append", metavar="GLOB", help="glob over paths relative to --root, replacing "
                   "the config's exclusions (repeatable); an excluded directory is dropped with everything under it")

    twin = commands.add_parser("twin", help="twin sandbox operations")
    twin_sub = twin.add_subparsers(dest="twin_command", required=True, parser_class=_Parser)
    p = twin_sub.add_parser("create")
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--sandbox", type=Path, required=True)
    p = twin_sub.add_parser("patch")
    p.add_argument("--sandbox", type=Path, required=True)
    p.add_argument("--delta", type=Path, required=True)
    p = twin_sub.add_parser("diff")
    p.add_argument("--pre", type=Path, required=True, help="sandbox dir, or .twimg image (only its header is read)")
    p.add_argument("--post", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p = twin_sub.add_parser("check")
    p.add_argument("--sandbox", type=Path, required=True)
    p.add_argument("--checks", type=Path, required=True)

    ingest = commands.add_parser("ingest", help="parse recorded system data")
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True, parser_class=_Parser)
    p = ingest_sub.add_parser("top")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p = ingest_sub.add_parser("macro")
    p.add_argument("--in", dest="input", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--name", default=None)

    train = commands.add_parser("train", help="train a generative model")
    train_sub = train.add_subparsers(dest="train_command", required=True, parser_class=_Parser)
    p = train_sub.add_parser("tabular")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--epochs", type=int)
    p = train_sub.add_parser("seq")
    p.add_argument("--corpus", type=Path, nargs="+", required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--order", type=int)

    gen = commands.add_parser("gen", help="generate synthetic data")
    gen_sub = gen.add_subparsers(dest="gen_command", required=True, parser_class=_Parser)
    p = gen_sub.add_parser("tabular")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--real", type=Path, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=Path)
    p = gen_sub.add_parser("seq")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--prompt", required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--temperature", type=float, default=0.8)
    p.add_argument("--max-len", type=int, default=200)
    p.add_argument("--name", default="generated")
    p.add_argument("--via-service", action="store_true")

    p = commands.add_parser("validate", help="compare synthetic against recorded data")
    p.add_argument("--real", type=Path, required=True)
    p.add_argument("--synth", type=Path, required=True)
    p.add_argument("--pair", nargs=2, action="append", default=[], metavar=("GEN", "REF"))
    p.add_argument("--sandbox", type=Path)
    p.add_argument("--out", type=Path)

    p = commands.add_parser("report", help="load and display a report")
    p.add_argument("--in", dest="input", type=Path, required=True)

    return parser


def _set_flag(flag: str, make):
    """``make()``, which sets ``flag``'s value on the dataclass that owns its rule, or a usage error naming ``flag``."""
    try:
        return make()
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(args.config) if args.config is not None else default_config()
    if args.seed is not None:
        config = _set_flag("--seed", lambda: replace(config, seed=args.seed))
    if getattr(args, "epochs", None) is not None:
        config = replace(config, gan=_set_flag("--epochs", lambda: replace(config.gan, epochs=args.epochs)))
    if getattr(args, "order", None) is not None:
        config = replace(config, ngram=_set_flag("--order", lambda: replace(config.ngram, order=args.order)))
    return config


def _manifest_source(path: Path):
    if not path.is_dir():
        return load_manifest(path)
    with sandbox_lock(path):
        return scan_tree(path)


def _cmd_capture(args, config, say) -> int:
    exclusions = tuple(args.exclude) if args.exclude else config.exclusions
    if bad := [pattern for pattern in exclusions if not is_safe_rel_path(pattern)]:
        raise _UsageError(f"capture: --exclude {bad[0]!r} is not a glob over relative, normalized paths")
    with sandbox_lock(args.root):
        image = capture_image(args.root, exclusions)
    name = args.name or args.root.name or "image"
    out = args.out or _workspace_path(config, "images", f"{name}.twimg")
    save_image(image, out)
    say(f"captured {len(image.manifest)} entries -> {out}")
    return EXIT_OK


def _cmd_twin(args, config, say) -> int:
    if args.twin_command == "create":
        image = load_image(args.image)
        twin = instantiate_twin(image, args.sandbox)
        say(f"twin ready at {twin.sandbox} ({len(walk_tree(twin.sandbox))} entries)")
        return EXIT_OK
    if args.twin_command == "patch":
        twin = TwinState(args.sandbox, config.screen)
        report = apply_patch(twin, load_delta(args.delta))
        for op in report.applied:
            say(f"applied {op}")
        say(f"manifest now {len(report.manifest)} entries")
        return EXIT_OK
    if args.twin_command == "diff":
        diff = diff_states(_manifest_source(args.pre), _manifest_source(args.post))
        if args.out:
            write_json(diff, args.out)
            say(f"diff -> {args.out}")
        else:
            sys.stdout.write(dumps(diff))
        return EXIT_OK
    # check
    twin = TwinState(args.sandbox, config.screen)
    results = run_checks(twin, load_checks(args.checks))
    failed = 0
    for result in results:
        status = "pass" if result.passed else "FAIL"
        say(f"{status}: {result.assertion} ({result.detail})")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed", file=sys.stderr)
        return EXIT_VALIDATION
    say(f"all {len(results)} checks passed")
    return EXIT_OK


# The handlers below import their leg when they run, so the capture and twin
# commands above load neither numpy nor the service client.


def _cmd_ingest(args, config, say) -> int:
    from twinforge.ingest.macro import emit_macro_script, parse_macro_script
    from twinforge.ingest.tabular import write_dataset_csv
    from twinforge.ingest.top import parse_top_capture

    if args.ingest_command == "top":
        dataset = parse_top_capture(read_text(args.input))
        out = args.out or _workspace_path(config, "datasets", args.input.stem + ".csv")
        write_dataset_csv(dataset, out)
        say(f"{len(dataset)} rows -> {out}")
        return EXIT_OK
    name = args.name or args.input.stem
    script = parse_macro_script(read_text(args.input), name=name)
    out = args.out or _workspace_path(config, "scripts", f"{name}.ahk")
    with publish(out) as fh:
        fh.write(emit_macro_script(script))
    say(f"{len(script.commands)} commands -> {out}")
    return EXIT_OK


def _cmd_train(args, config, say) -> int:
    from twinforge.ingest.macro import parse_macro_script, tokenize_script
    from twinforge.ingest.tabular import read_dataset_csv
    from twinforge.sequence.ngram import save_seq_model, train_ngram
    from twinforge.tabular.gan import save_model, train_gan

    if args.train_command == "tabular":
        dataset = read_dataset_csv(args.data)
        seed = stage_seed(config.seed, "train.tabular")
        model = train_gan(dataset, config.gan, seed=seed)
        out = args.out or _workspace_path(config, "models", "tabular.json")
        save_model(model, out)
        say(
            f"trained {config.gan.epochs} epochs on {len(dataset)} rows "
            f"(final G loss {model.gen_losses[-1]:.4f}) -> {out}"
        )
        return EXIT_OK
    corpus = []
    for path in args.corpus:
        script = parse_macro_script(read_text(path), name=path.stem)
        corpus.append(tokenize_script(script))
    model = train_ngram(corpus, order=config.ngram.order, delta=config.ngram.delta, seed=config.seed)
    out = args.out or _workspace_path(config, "models", "sequence.json")
    save_seq_model(model, out)
    say(f"trained order-{model.order} model on {len(corpus)} scripts ({len(model.vocab)} tokens) -> {out}")
    return EXIT_OK


def _cmd_gen(args, config, say) -> int:
    import numpy as np

    from twinforge.ingest.macro import emit_macro_script
    from twinforge.ingest.tabular import read_dataset_csv, write_dataset_csv
    from twinforge.sequence.ngram import GenRequest, generate_sequence, load_seq_model, sequence_to_script
    from twinforge.sequence.service import generate_via_service
    from twinforge.tabular.gan import load_model
    from twinforge.tabular.gate import generate_gated

    if args.gen_command == "tabular":
        if args.n < 1:  # ``generate_gated``'s rule, judged before anything is read
            raise _UsageError(f"--n: n must be >= 1, not {args.n}")
        model = load_model(args.model)
        real = read_dataset_csv(args.real)
        seed = stage_seed(config.seed, "gen.tabular")
        rng = np.random.default_rng(seed)
        synth, attempts = generate_gated(model, real, args.n, config.gate, rng)
        out = args.out or _workspace_path(config, "datasets", "synthetic.csv")
        write_dataset_csv(synth, out)
        write_json(SynthMeta(attempts, seed, sha256_hex(out.read_bytes()), str(args.model)), str(out) + ".meta.json")
        say(f"accepted after {attempts} attempt(s) -> {out}")
        return EXIT_OK
    # seq
    request = GenRequest(prompt=(args.prompt,), seed=stage_seed(config.seed, "gen.seq"))
    request = _set_flag("--temperature", lambda: replace(request, temperature=args.temperature))
    request = _set_flag("--max-len", lambda: replace(request, max_len=args.max_len))
    if args.via_service:
        if config.service is None:
            raise _UsageError("--via-service requires a service block in the config")
        tokens = generate_via_service(config.service, request)
    else:
        model = load_seq_model(args.model)
        tokens = generate_sequence(model, request)
    try:
        script = sequence_to_script(tokens, name=args.name)
    except (MacroSyntaxError, EmptyScript) as exc:
        print(f"generated sequence failed validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = args.out or _workspace_path(config, "scripts", f"{args.name}.ahk")
    with publish(out) as fh:
        fh.write(emit_macro_script(script))
    say(f"{len(script.commands)} commands -> {out}")
    return EXIT_OK


def _cmd_validate(args, config, say) -> int:
    from twinforge.clock import now_iso
    from twinforge.ingest.macro import parse_macro_script
    from twinforge.ingest.tabular import read_dataset_csv
    from twinforge.tabular.gate import column_distances
    from twinforge.validate.metrics import bleu, cosine_similarity
    from twinforge.validate.replay import replay_validate
    from twinforge.validate.report import ScriptMetrics, build_report, save_report
    from twinforge.validate.stats import compare_stats, summary_stats

    real = read_dataset_csv(args.real)
    synth = read_dataset_csv(args.synth)
    synth_sha256 = sha256_hex(args.synth.read_bytes())
    gate_attempts = None
    seeds = {"global": config.seed}
    meta_path = Path(str(args.synth) + ".meta.json")
    if meta_path.is_file():
        meta = from_doc(SynthMeta, read_json(meta_path, MalformedCsv), MalformedCsv, str(meta_path))
        if meta.csv_sha256 != synth_sha256:
            raise MalformedCsv(f"{meta_path} describes another CSV: its csv_sha256 is not the SHA-256 of {args.synth}")
        gate_attempts = meta.gate_attempts
        seeds["gen_tabular"] = meta.seed
    comparison = compare_stats(real, synth)

    if args.pair and args.sandbox is None:
        raise _UsageError("--pair needs --sandbox for replay validation")
    scripts = []
    for gen_path, ref_path in args.pair:
        gen_path, ref_path = Path(gen_path), Path(ref_path)
        gen = parse_macro_script(read_text(gen_path), name=gen_path.stem)
        ref = parse_macro_script(read_text(ref_path), name=ref_path.stem)
        twin = TwinState(args.sandbox, config.screen)
        replay = replay_validate(gen, twin)
        scripts.append(
            ScriptMetrics(
                name=gen.name,
                cosine=cosine_similarity(gen, ref),
                bleu=bleu(
                    [c.emit() for c in gen.commands], [[c.emit() for c in ref.commands]]
                ),
                replay_ok=replay.ok,
            )
        )

    run_id = sha256_hex(f"{config.seed}|{sha256_hex(args.real.read_bytes())}|{synth_sha256}".encode("utf-8"))[:12]
    report = build_report(
        run_id=run_id,
        created_at=now_iso(),
        seeds=seeds,
        config=config.snapshot(),
        real_stats=summary_stats(real),
        synth_stats=summary_stats(synth),
        comparison=comparison,
        distances=column_distances(real, synth),
        scripts=tuple(scripts),
        gate_attempts=gate_attempts,
    )
    out = args.out or _workspace_path(config, "reports", f"report-{run_id}.json")
    save_report(report, out)
    say(f"report -> {out}")
    for name, delta in comparison.continuous.items():
        say(f"  {name}: real {delta.real:.4f} synth {delta.synth:.4f} (abs {delta.abs_delta:.4f})")
    for name, modal in comparison.discrete.items():
        say(f"  {name}: modal {modal.real!r} vs {modal.synth!r} match={modal.match}")
    return EXIT_OK


def _cmd_report(args, config, say) -> int:
    from twinforge.validate.report import load_report

    report = load_report(args.input)
    say(f"run {report.run_id} at {report.created_at}")
    say(f"rows: real {report.real_stats.row_count}, synthetic {report.synth_stats.row_count}")
    if report.gate_attempts is not None:
        say(f"gate attempts: {report.gate_attempts}")
    for name, delta in report.comparison.continuous.items():
        say(
            f"  {name}: real {delta.real:.4f} synth {delta.synth:.4f} "
            f"(abs {delta.abs_delta:.4f}, rel {delta.rel_delta:.2%})"
        )
    for name, modal in report.comparison.discrete.items():
        say(f"  {name}: modal {modal.real!r} vs {modal.synth!r} match={modal.match}")
    for cd in report.distances:
        say(f"  distance {cd.column} ({cd.kind}): {cd.distance:.4f}")
    for sm in report.scripts:
        say(f"  script {sm.name}: cosine {sm.cosine:.4f} bleu {sm.bleu:.4f} replay_ok={sm.replay_ok}")
    return EXIT_OK


_DISPATCH = {
    "capture": _cmd_capture,
    "twin": _cmd_twin,
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "gen": _cmd_gen,
    "validate": _cmd_validate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_pipeline_config(args)

        def say(message: str) -> None:
            if not args.quiet:
                print(message)

        with _workspace_lock(args, config.workspace):
            return _DISPATCH[args.command](args, config, say)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except GateExhausted as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TwinforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
