"""Backoff n-gram model over macro-command tokens.

Tokens are whole canonical command lines (see ``tokenize_script``), so any
sampled sequence is made of locally well-formed commands. Prediction backs
off from the longest seen context down to the unigram table; every level is
add-delta smoothed over the full vocabulary, which keeps each conditional a
strictly positive distribution summing to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from twinforge.errors import EmptyCorpus, EmptyScript, MacroSyntaxError, MalformedModel
from twinforge.ingest.macro import BOS, EOS, MacroScript, parse_macro_line
from twinforge.jsonfile import read_record, record_text

MODEL_FORMAT_VERSION = 1
_CTX_JOIN = "\n"  # tokens are single lines, so newline never collides


@dataclass(frozen=True)
class GenRequest:
    """Prompt plus decoding parameters for one generation call."""

    prompt: tuple[str, ...]
    temperature: float = 0.8
    max_len: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "prompt", tuple(self.prompt))
        if not self.prompt:
            raise ValueError("prompt needs at least one token")
        if not self.temperature >= 0:
            raise ValueError("temperature must be >= 0")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass
class SeqModel:
    """Count tables for all context lengths below ``order``."""

    order: int
    delta: float
    seed: int
    vocab: tuple[str, ...]
    counts: dict[int, dict[tuple[str, ...], dict[str, int]]]
    totals: dict[int, dict[tuple[str, ...], int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if BOS not in self.vocab or EOS not in self.vocab:
            raise ValueError("vocabulary must include the BOS/EOS sentinels")
        # what generation relies on: a table per context length, the empty context's
        # included, and counts of vocabulary tokens only, each at least 1
        if set(self.counts) != set(range(self.order)) or () not in self.counts[0]:
            raise ValueError("counts must hold a table for each context length below order")
        vocab = set(self.vocab)
        for tables in self.counts.values():
            for table in tables.values():
                if not vocab.issuperset(table) or min(table.values(), default=1) < 1:
                    raise ValueError("each count must be >= 1 and count a vocabulary token")
        self.totals = {
            m: {ctx: sum(table.values()) for ctx, table in tables.items()}
            for m, tables in self.counts.items()
        }


def train_ngram(
    corpus: Sequence[Sequence[str]], order: int = 3, delta: float = 0.01, seed: int = 0
) -> SeqModel:
    """Count m-grams for every m below ``order`` over BOS/EOS-wrapped sequences."""
    if not corpus:
        raise EmptyCorpus("no training sequences")
    sequences = [tuple(seq) for seq in corpus]
    for seq in sequences:
        if len(seq) < 2 or seq[0] != BOS or seq[-1] != EOS:
            raise ValueError("every training sequence must be BOS/EOS wrapped")

    vocab = sorted({token for seq in sequences for token in seq})
    counts: dict[int, dict[tuple[str, ...], dict[str, int]]] = {m: {} for m in range(order)}
    for seq in sequences:
        for i in range(1, len(seq)):
            token = seq[i]
            for m in range(min(order - 1, i) + 1):
                context = seq[i - m : i]
                table = counts[m].setdefault(context, {})
                table[token] = table.get(token, 0) + 1
    return SeqModel(order=order, delta=delta, seed=seed, vocab=tuple(vocab), counts=counts)


def next_token_probs(model: SeqModel, context: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Smoothed next-token distribution after backing off to a seen context."""
    context = tuple(context)
    vocab = model.vocab
    v = len(vocab)
    for m in range(min(model.order - 1, len(context)), -1, -1):
        ctx = context[len(context) - m :]
        total = model.totals[m].get(ctx)
        if total:
            table = model.counts[m][ctx]
            probs = np.array(
                [(table.get(tok, 0) + model.delta) for tok in vocab], dtype=float
            )
            probs /= total + model.delta * v
            return vocab, probs
    raise RuntimeError("unigram table is empty; model was not trained")


def generate_sequence(model: SeqModel, request: GenRequest) -> tuple[str, ...]:
    """Autoregressive sampling; T=0 is argmax with lexicographic tie-break.

    Prompt tokens the model has never seen are not an error: unseen contexts
    back off naturally, bottoming out at the smoothed unigram table. The
    returned tokens start with the prompt and contain no sentinels unless
    sampling happens to emit BOS (EOS always terminates).
    """
    rng = np.random.default_rng(request.seed)
    history: list[str] = [BOS, *request.prompt]
    output: list[str] = list(request.prompt)
    while len(output) < request.max_len:
        vocab, probs = next_token_probs(model, history)
        if request.temperature == 0:
            choice = int(np.argmax(probs))  # vocab is sorted, so ties break low
        else:
            logits = np.log(probs) / request.temperature
            logits -= logits.max()
            weights = np.exp(logits)
            weights /= weights.sum()
            choice = int(rng.choice(len(vocab), p=weights))
        token = vocab[choice]
        if token == EOS:
            break
        output.append(token)
        history.append(token)
    return tuple(output)


def sequence_to_script(tokens: Sequence[str], name: str = "generated") -> MacroScript:
    """Strip sentinels and parse each remaining token as a command line."""
    commands = []
    for index, token in enumerate(tokens):
        if token in (BOS, EOS):
            continue
        try:
            commands.append(parse_macro_line(token))
        except MacroSyntaxError as exc:
            raise type(exc)(exc.reason, token_index=index) from None
    if not commands:
        raise EmptyScript("sequence holds no command tokens")
    return MacroScript(name, tuple(commands))


# -- persistence ---------------------------------------------------------------


@dataclass(frozen=True)
class _SeqModelFile:
    """A sequence model file's fields after its ``format_version``; counts
    are keyed by context length and by context tokens joined by newlines."""

    kind: str
    order: int
    delta: float
    seed: int
    vocab: tuple[str, ...]
    counts: dict[str, dict[str, dict[str, int]]]


def seq_model_to_json(model: SeqModel) -> str:
    counts = {
        str(m): {_CTX_JOIN.join(ctx): table for ctx, table in tables.items()} for m, tables in model.counts.items()
    }
    doc = _SeqModelFile("sequence-ngram", model.order, model.delta, model.seed, model.vocab, counts)
    return record_text(MODEL_FORMAT_VERSION, doc)


def save_seq_model(model: SeqModel, path: str | Path) -> None:
    Path(path).write_text(seq_model_to_json(model), encoding="utf-8")


def load_seq_model(path: str | Path) -> SeqModel:
    doc = read_record(path, {MODEL_FORMAT_VERSION: _SeqModelFile}, MalformedModel)
    try:
        counts = {
            int(m): {tuple(ctx.split(_CTX_JOIN)) if ctx else (): table for ctx, table in tables.items()}
            for m, tables in doc.counts.items()
        }
        return SeqModel(doc.order, doc.delta, doc.seed, doc.vocab, counts)
    except ValueError as exc:
        raise MalformedModel(f"{path}: {exc}") from exc
