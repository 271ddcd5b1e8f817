"""Conditional GAN over encoded tabular rows.

The generator maps ``noise ++ condition`` through two rectified hidden
layers to per-column heads: a tanh scalar for each continuous column's
alpha plus softmax blocks for mode and category flags. The discriminator
scores packs of ``pac`` samples (each ``encoded row ++ condition``) through
two leaky-rectified hidden layers; judging small groups jointly lets it
punish over-represented categories, which a one-row-at-a-time critic is
blind to in practice (without packing the non-conditioned discrete column
collapses toward its majority category and the acceptance gate starves).
Training alternates non-saturating cross-entropy steps; the generator
additionally pays a cross-entropy penalty when the flags of the
conditioned column disagree with the condition. Real rows for each step
are drawn among those matching the sampled condition (training by
sampling), so rare categories still reach the discriminator.

Everything is a pure function of (dataset, config, seed): two runs with the
same inputs produce bit-identical weights. Only the generator outlives
training; synthesis never consults the discriminator, so the model file
does not carry it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from twinforge.config import GanConfig
from twinforge.errors import MalformedModel, NonFiniteLoss, TooFewRows
from twinforge.ingest.tabular import Column, Schema, TabularDataset
from twinforge.jsonfile import read_record, record_text
from twinforge.tabular.encoding import PAIRWISE_FROM, TableCodec
from twinforge.tabular.mixture import ModeNormalizer
from twinforge.tabular.net import INPUT, LEAKY_RELU, PARAMS, RELU, Adam, FeedForward

MODEL_FORMAT_VERSION = 2
# Rows the generator runs at once in synthesis: a block's hidden layers
# (hidden_dim doubles per row each) stay within a few MiB of cache.
_BLOCK_ROWS = 2048


@dataclass
class GanModel:
    """Trained generator plus the encoding metadata and per-epoch losses."""

    codec: TableCodec
    config: GanConfig
    seed: int
    generator: FeedForward
    gen_losses: tuple[float, ...]
    disc_losses: tuple[float, ...]

    @property
    def schema(self) -> Schema:
        return self.codec.schema


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _block_sums(blocks: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """Each block's sum over the last axis, bit for bit the sum numpy makes of
    a C-ordered row of the block's entries. Padding is set to -0.0, which adds
    nothing to any sum. A narrow block may keep whatever layout it has, since
    numpy then adds its entries one after another either way; a wider one is
    made C-ordered, so numpy adds it pairwise as it would add the row."""
    blocks[:, pad] = -0.0
    if blocks.shape[2] >= PAIRWISE_FROM:
        blocks = np.ascontiguousarray(blocks)
    return blocks.sum(axis=2, keepdims=True)


def _apply_heads(raw: np.ndarray, codec: TableCodec) -> np.ndarray:
    """Per-column output activations: tanh alphas, softmax flag blocks."""
    out = np.empty((raw.shape[0], raw.shape[1] + 1))  # + the padding's spare column
    out[:, codec.alpha_columns] = np.tanh(raw[:, codec.alpha_columns])
    for group in codec.flag_groups:
        block = raw[:, group.columns]  # (rows, blocks, width)
        block -= block.max(axis=2, keepdims=True)
        np.exp(block, out=block)
        block /= _block_sums(block, group.pad)
        out[:, group.targets] = block
    return out[:, :-1]


def _heads_backward(grad_act: np.ndarray, activated: np.ndarray, codec: TableCodec) -> np.ndarray:
    """Pull gradients back through the head activations onto the raw outputs."""
    grad_raw = np.empty((grad_act.shape[0], grad_act.shape[1] + 1))  # + the padding's spare column
    a = activated[:, codec.alpha_columns]
    grad_raw[:, codec.alpha_columns] = grad_act[:, codec.alpha_columns] * (1.0 - a * a)
    for group in codec.flag_groups:
        p = activated[:, group.columns]
        g = grad_act[:, group.columns]
        g -= _block_sums(p * g, group.pad)
        g *= p
        grad_raw[:, group.targets] = g
    return grad_raw[:, :-1]


class _ConditionedSampler:
    """Draws (condition, matching real row) pairs for training steps.

    The rows holding each condition bit sit together, in row order, in one
    flat array: bit ``b``'s rows are ``members[starts[b] : starts[b] + counts[b]]``.
    """

    def __init__(self, dataset: TabularDataset, codec: TableCodec) -> None:
        self.codec = codec
        self.n_rows = len(dataset)
        bits = [
            span.cond_offset + codec.codes(span.name, dataset.column(span.name))
            for span in codec.cond_spans
        ]
        bits = np.concatenate(bits or [np.empty(0, dtype=int)])
        # a stable sort keeps each bit's rows in row order
        self.members = bits.argsort(kind="stable") % self.n_rows
        self.counts = np.bincount(bits, minlength=codec.cond_width)
        self.starts = self.counts.cumsum() - self.counts

    def sample(self, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        conds = self.codec.sample_conditions_logfreq(rng, size)
        if not self.codec.cond_spans:
            return conds, rng.integers(self.n_rows, size=size)
        bits = conds.argmax(axis=1)
        return conds, self.members[self.starts[bits] + rng.integers(self.counts[bits])]


def _cond_cross_entropy(
    activated: np.ndarray, conds: np.ndarray, codec: TableCodec
) -> tuple[float, np.ndarray]:
    """Mean -log p(conditioned category) plus its gradient on the raw logits;
    each row of ``conds`` holds one bit, or none when the table has no
    discrete column."""
    batch = activated.shape[0]
    grad_raw = np.zeros_like(activated)
    if not codec.cond_width:
        return 0.0, grad_raw
    bits = conds.argmax(axis=1)
    rows = np.arange(batch)
    columns = codec.cond_columns[bits]
    picked = activated[rows, columns]  # p of each row's conditioned category
    # combined softmax + CE gradient on the raw logits: (p - onehot) / batch,
    # over the conditioned column's block and +0.0 elsewhere
    np.divide(activated, batch, out=grad_raw, where=codec.cond_blocks[bits])
    grad_raw[rows, columns] -= 1.0 / batch
    # math.log terms taken off left to right: the loss of a row-by-row sum, bit for bit
    total = reduce(operator.sub, map(math.log, np.maximum(picked, 1e-12).tolist()), 0.0)
    return total / batch, grad_raw


def _generator_sizes(config: GanConfig, codec: TableCodec) -> list[int]:
    return [config.noise_dim + codec.cond_width, config.hidden_dim, config.hidden_dim, codec.row_width]


def train_gan(dataset: TabularDataset, config: GanConfig = GanConfig(), seed: int = 0) -> GanModel:
    """Train the conditional GAN; deterministic given (dataset, config, seed)."""
    if len(dataset) < config.batch_size:
        raise TooFewRows(f"{len(dataset)} rows < batch size {config.batch_size}")

    codec = TableCodec.fit(dataset, max_modes=config.max_modes, seed=seed)
    sampler = _ConditionedSampler(dataset, codec)
    table = codec.row_constants(dataset)
    encoded_width = codec.row_width
    sample_width = encoded_width + codec.cond_width
    pac = config.pac

    init_g, init_d, stream = np.random.SeedSequence(seed).spawn(3)
    generator = FeedForward(_generator_sizes(config, codec), RELU, np.random.default_rng(init_g))
    discriminator = FeedForward(
        [sample_width * pac, config.hidden_dim, config.hidden_dim, 1],
        LEAKY_RELU,
        np.random.default_rng(init_d),
    )
    adam_g = Adam(generator.param_vector, config.learning_rate, config.beta1, config.beta2)
    adam_d = Adam(discriminator.param_vector, config.learning_rate, config.beta1, config.beta2)
    rng = np.random.default_rng(stream)

    batch = config.batch_size
    noise_dim = config.noise_dim
    packs = batch // pac
    steps_per_epoch = max(1, len(dataset) // batch)
    # The networks' inputs, filled in place: G reads noise ++ condition; D reads
    # packs of (encoded row ++ condition), the real rows' packs before the fakes'.
    g_input = np.empty((batch, noise_dim + codec.cond_width))
    d_rows = np.empty((2 * batch, sample_width))
    real_rows, fake_rows = d_rows[:batch], d_rows[batch:]
    d_input, fake_packs = d_rows.reshape(2 * packs, -1), fake_rows.reshape(packs, -1)
    d_signs = np.repeat([-1.0, 1.0], packs)
    gen_losses: list[float] = []
    disc_losses: list[float] = []
    step_index = 0
    for _ in range(config.epochs):
        epoch_g = 0.0
        epoch_d = 0.0
        for _ in range(steps_per_epoch):
            # -- discriminator step
            conds, row_idx = sampler.sample(batch, rng)
            real_rows[:, :encoded_width] = codec.encode_rows(table.take(row_idx), rng)
            real_rows[:, encoded_width:] = conds
            g_input[:, :noise_dim] = rng.standard_normal((batch, noise_dim))
            g_input[:, noise_dim:] = conds
            fake_rows[:, :encoded_width] = _apply_heads(generator.forward(g_input), codec)
            fake_rows[:, encoded_width:] = conds
            # -s for the real packs and s for the fakes, as one array
            signed = discriminator.forward(d_input)[:, 0] * d_signs
            losses = _softplus(signed)
            d_loss = float(losses[:packs].mean() + losses[packs:].mean())
            if not math.isfinite(d_loss):
                raise NonFiniteLoss(step_index, "discriminator")
            grad_scores = (_sigmoid(signed) * d_signs / packs)[:, None]
            adam_d.step(discriminator.backward(grad_scores, PARAMS))

            # -- generator step
            conds, _ = sampler.sample(batch, rng)
            g_input[:, :noise_dim] = rng.standard_normal((batch, noise_dim))
            g_input[:, noise_dim:] = conds
            fake_act = _apply_heads(generator.forward(g_input), codec)
            fake_rows[:, :encoded_width] = fake_act
            fake_rows[:, encoded_width:] = conds
            neg_scores = -discriminator.forward(fake_packs)[:, 0]
            adv_loss = float(_softplus(neg_scores).mean())
            ce_loss, ce_grad_raw = _cond_cross_entropy(fake_act, conds, codec)
            g_loss = adv_loss + config.cond_loss_weight * ce_loss
            if not math.isfinite(g_loss):
                raise NonFiniteLoss(step_index, "generator")
            grad_scores = (-_sigmoid(neg_scores) / packs)[:, None]
            d_input_grad = discriminator.backward(grad_scores, INPUT)
            grad_act = d_input_grad.reshape(batch, sample_width)[:, :encoded_width]
            grad_raw = _heads_backward(grad_act, fake_act, codec)
            grad_raw += config.cond_loss_weight * ce_grad_raw
            adam_g.step(generator.backward(grad_raw, PARAMS))

            epoch_d += d_loss
            epoch_g += g_loss
            step_index += 1
        gen_losses.append(epoch_g / steps_per_epoch)
        disc_losses.append(epoch_d / steps_per_epoch)

    return GanModel(
        codec=codec,
        config=config,
        seed=seed,
        generator=generator,
        gen_losses=tuple(gen_losses),
        disc_losses=tuple(disc_losses),
    )


def generate_rows(model: GanModel, n: int, rng: np.random.Generator) -> TabularDataset:
    """Sample n synthetic rows; flags decode by hard argmax, pids run 1..n.

    The conditions for all n rows come first, then each row block's noise in
    row order: the stream of one (n, noise_dim) draw. The generator runs one
    block at a time, so its activations take memory for a block, not for n
    rows. n <= ``_BLOCK_ROWS`` is one block; more rows split into the fewest
    near-equal blocks of at most that many, each then at least half of it:
    a single-row block would take a matrix-vector product, whose outputs
    differ in the last bits from the same row's in a larger block."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return TabularDataset(model.schema, (), ())
    codec, noise_dim = model.codec, model.config.noise_dim
    conds = codec.sample_conditions_empirical(rng, n)
    count = -(-n // _BLOCK_ROWS)
    bounds = [n * i // count for i in range(count + 1)]
    # one input for all blocks, filled in place: a fresh np.hstack per block
    # made 20000 rows about a fifth slower
    g_input = np.empty((-(-n // count), noise_dim + codec.cond_width))
    activated = np.empty((n, codec.row_width))
    for start, stop in zip(bounds, bounds[1:]):
        block = g_input[: stop - start]
        block[:, :noise_dim] = rng.standard_normal((stop - start, noise_dim))
        block[:, noise_dim:] = conds[start:stop]
        activated[start:stop] = _apply_heads(model.generator.forward(block, cache=False), codec)
    return TabularDataset.from_columns(model.schema, codec.decode_rows(activated), np.arange(1, n + 1))


# -- persistence ---------------------------------------------------------------


@dataclass(frozen=True)
class _NetLists:
    """A network as the model file holds it: nested lists for each layer."""

    activation: str
    weights: tuple[list, ...]
    biases: tuple[list, ...]


def _net_to_lists(net: FeedForward) -> _NetLists:
    return _NetLists(net.activation, tuple(w.tolist() for w in net.weights), tuple(b.tolist() for b in net.biases))


def _net_from_lists(data: _NetLists, sizes: list[int]) -> FeedForward:
    """A network of the given layer sizes holding the stored parameters;
    raises ``ValueError`` unless every array is made of numbers (never a
    bool), has its layer's shape and is finite."""
    net = FeedForward(sizes, data.activation, np.random.default_rng(0))
    for kind, targets in (("weights", net.weights), ("biases", net.biases)):
        sources = getattr(data, kind)
        if len(sources) != len(targets):
            raise ValueError(f"generator has {len(sources)} {kind} arrays, expected {len(targets)}")
        for i, (target, source) in enumerate(zip(targets, sources)):
            arr = np.array(source)  # a ragged list raises ValueError
            if arr.dtype.kind not in "if":
                raise ValueError(f"generator {kind}[{i}] holds a value that is not a number")
            if arr.shape != target.shape:
                raise ValueError(f"generator {kind}[{i}] has shape {arr.shape}, expected {target.shape}")
            # numpy reads a JSON true or false among numbers as 1 or 0, so a
            # bool can only sit where the array holds one of those
            for at in np.argwhere((arr == 0) | (arr == 1)).tolist():
                if type(reduce(operator.getitem, at, source)) is bool:
                    raise ValueError(f"generator {kind}[{i}] holds a boolean, not a number")
            if not np.isfinite(arr).all():
                raise ValueError(f"generator {kind}[{i}] holds a non-finite value")
            target[...] = arr
    return net


@dataclass(frozen=True)
class _ModelFile:
    """A tabular model file's fields after its ``format_version``."""

    kind: str
    seed: int
    config: GanConfig
    schema: tuple[tuple[str, str], ...]
    normalizers: dict[str, ModeNormalizer]
    categories: dict[str, tuple[str, ...]]
    frequencies: dict[str, dict[str, int]]
    generator: _NetLists
    gen_losses: tuple[float, ...]
    disc_losses: tuple[float, ...]


@dataclass(frozen=True)
class _ModelFileV1(_ModelFile):
    """Version 1 files also hold the discriminator; loading ignores it."""

    discriminator: dict


def model_to_json(model: GanModel) -> str:
    codec = model.codec
    doc = _ModelFile(
        "tabular-gan", model.seed, model.config, tuple((c.name, c.kind) for c in model.schema.columns),
        codec.normalizers, codec.categories, codec.frequencies, _net_to_lists(model.generator),
        model.gen_losses, model.disc_losses,
    )
    return record_text(MODEL_FORMAT_VERSION, doc)


def save_model(model: GanModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> GanModel:
    doc = read_record(path, {1: _ModelFileV1, MODEL_FORMAT_VERSION: _ModelFile}, MalformedModel)
    try:
        codec = TableCodec(
            Schema(tuple(Column(n, k) for n, k in doc.schema)), doc.normalizers, doc.categories, doc.frequencies
        )
        generator = _net_from_lists(doc.generator, _generator_sizes(doc.config, codec))
    except (ValueError, OverflowError) as exc:  # OverflowError: a count past the double range
        raise MalformedModel(f"{path}: {exc}") from exc
    return GanModel(codec, doc.config, doc.seed, generator, doc.gen_losses, doc.disc_losses)
