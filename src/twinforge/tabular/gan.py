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

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from twinforge.errors import MalformedModel, NonFiniteLoss, TooFewRows
from twinforge.ingest.tabular import CONTINUOUS, Column, Schema, TabularDataset
from twinforge.tabular.encoding import TableCodec
from twinforge.tabular.mixture import ModeNormalizer
from twinforge.tabular.net import LEAKY_RELU, RELU, Adam, FeedForward

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class GanConfig:
    epochs: int = 300
    batch_size: int = 32
    learning_rate: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.9
    noise_dim: int = 32
    hidden_dim: int = 128
    max_modes: int = 5
    cond_loss_weight: float = 1.0
    pac: int = 8

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not (0 < self.learning_rate and math.isfinite(self.learning_rate)):
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if self.noise_dim < 1 or self.hidden_dim < 1:
            raise ValueError("noise_dim and hidden_dim must be >= 1")
        if not 1 <= self.max_modes:
            raise ValueError("max_modes must be >= 1")
        if self.cond_loss_weight < 0:
            raise ValueError("cond_loss_weight must be >= 0")
        if self.pac < 1 or self.batch_size % self.pac != 0:
            raise ValueError("pac must be >= 1 and divide batch_size")


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


def _apply_heads(raw: np.ndarray, codec: TableCodec) -> np.ndarray:
    """Per-column output activations: tanh alphas, softmax flag blocks."""
    out = np.empty_like(raw)
    for span in codec.spans:
        lo, hi = span.offset, span.offset + span.width
        if span.kind == CONTINUOUS:
            out[:, lo] = np.tanh(raw[:, lo])
            block = raw[:, lo + 1 : hi]
        else:
            block = raw[:, lo:hi]
        shifted = block - block.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        if span.kind == CONTINUOUS:
            out[:, lo + 1 : hi] = probs
        else:
            out[:, lo:hi] = probs
    return out


def _heads_backward(grad_act: np.ndarray, activated: np.ndarray, codec: TableCodec) -> np.ndarray:
    """Pull gradients back through the head activations onto the raw outputs."""
    grad_raw = np.empty_like(grad_act)
    for span in codec.spans:
        lo, hi = span.offset, span.offset + span.width
        if span.kind == CONTINUOUS:
            a = activated[:, lo]
            grad_raw[:, lo] = grad_act[:, lo] * (1.0 - a * a)
            p = activated[:, lo + 1 : hi]
            g = grad_act[:, lo + 1 : hi]
            grad_raw[:, lo + 1 : hi] = p * (g - (p * g).sum(axis=1, keepdims=True))
        else:
            p = activated[:, lo:hi]
            g = grad_act[:, lo:hi]
            grad_raw[:, lo:hi] = p * (g - (p * g).sum(axis=1, keepdims=True))
    return grad_raw


class _ConditionedSampler:
    """Draws (condition, matching real row) pairs for training steps."""

    def __init__(self, dataset: TabularDataset, codec: TableCodec) -> None:
        self.codec = codec
        self.n_rows = len(dataset.rows)
        self.rows_by_category: dict[tuple[str, str], np.ndarray] = {}
        for span in codec.cond_spans:
            col_idx = dataset.schema.names.index(span.name)
            buckets: dict[str, list[int]] = {c: [] for c in codec.categories[span.name]}
            for r, row in enumerate(dataset.rows):
                buckets[str(row[col_idx])].append(r)
            for cat, idxs in buckets.items():
                self.rows_by_category[(span.name, cat)] = np.asarray(idxs, dtype=int)

    def sample(self, size: int, rng: np.random.Generator) -> tuple[np.ndarray, list[tuple[str, str]], np.ndarray]:
        conds, chosen = self.codec.sample_conditions_logfreq(rng, size)
        if not chosen:
            rows = rng.integers(self.n_rows, size=size)
            return conds, chosen, rows
        rows = np.empty(size, dtype=int)
        for i, key in enumerate(chosen):
            bucket = self.rows_by_category[key]
            rows[i] = bucket[int(rng.integers(bucket.size))]
        return conds, chosen, rows


def _cond_cross_entropy(
    activated: np.ndarray, chosen: list[tuple[str, str]], codec: TableCodec
) -> tuple[float, np.ndarray]:
    """Mean -log p(conditioned category) plus its gradient on the raw logits."""
    grad_raw = np.zeros_like(activated)
    if not chosen:
        return 0.0, grad_raw
    batch = activated.shape[0]
    span_by_name = {s.name: s for s in codec.spans}
    total = 0.0
    for i, (column, category) in enumerate(chosen):
        span = span_by_name[column]
        cats = codec.categories[column]
        j = cats.index(category)
        probs = activated[i, span.offset : span.offset + span.width]
        total += -math.log(max(probs[j], 1e-12))
        # combined softmax + CE gradient on the raw logits: (p - onehot) / batch
        grad_raw[i, span.offset : span.offset + span.width] = probs / batch
        grad_raw[i, span.offset + j] -= 1.0 / batch
    return total / batch, grad_raw


def train_gan(dataset: TabularDataset, config: GanConfig = GanConfig(), seed: int = 0) -> GanModel:
    """Train the conditional GAN; deterministic given (dataset, config, seed)."""
    if len(dataset.rows) < config.batch_size:
        raise TooFewRows(f"{len(dataset.rows)} rows < batch size {config.batch_size}")

    codec = TableCodec.fit(dataset, max_modes=config.max_modes, seed=seed)
    sampler = _ConditionedSampler(dataset, codec)
    encoded_width = codec.row_width
    cond_width = codec.cond_width
    sample_width = encoded_width + cond_width
    pac = config.pac

    init_g, init_d, stream = np.random.SeedSequence(seed).spawn(3)
    generator = FeedForward(
        [config.noise_dim + cond_width, config.hidden_dim, config.hidden_dim, encoded_width],
        RELU,
        np.random.default_rng(init_g),
    )
    discriminator = FeedForward(
        [sample_width * pac, config.hidden_dim, config.hidden_dim, 1],
        LEAKY_RELU,
        np.random.default_rng(init_d),
    )
    adam_g = Adam(generator.params, config.learning_rate, config.beta1, config.beta2)
    adam_d = Adam(discriminator.params, config.learning_rate, config.beta1, config.beta2)
    rng = np.random.default_rng(stream)

    batch = config.batch_size
    packs = batch // pac
    steps_per_epoch = max(1, len(dataset.rows) // batch)
    gen_losses: list[float] = []
    disc_losses: list[float] = []
    step_index = 0
    for _ in range(config.epochs):
        epoch_g = 0.0
        epoch_d = 0.0
        for _ in range(steps_per_epoch):
            # -- discriminator step
            conds, chosen, row_idx = sampler.sample(batch, rng)
            real_rows = [dataset.rows[i] for i in row_idx]
            real_enc = codec.encode_rows(real_rows, rng)
            noise = rng.standard_normal((batch, config.noise_dim))
            fake_act = _apply_heads(generator.forward(np.hstack([noise, conds])), codec)
            d_input = np.vstack(
                [
                    np.hstack([real_enc, conds]).reshape(packs, -1),
                    np.hstack([fake_act, conds]).reshape(packs, -1),
                ]
            )
            scores = discriminator.forward(d_input)[:, 0]
            s_real, s_fake = scores[:packs], scores[packs:]
            d_loss = float(_softplus(-s_real).mean() + _softplus(s_fake).mean())
            if not math.isfinite(d_loss):
                raise NonFiniteLoss(step_index, "discriminator")
            grad_scores = np.concatenate(
                [-_sigmoid(-s_real) / packs, _sigmoid(s_fake) / packs]
            )[:, None]
            d_grads, _ = discriminator.backward(grad_scores)
            adam_d.step(d_grads)

            # -- generator step
            conds, chosen, _ = sampler.sample(batch, rng)
            noise = rng.standard_normal((batch, config.noise_dim))
            raw = generator.forward(np.hstack([noise, conds]))
            fake_act = _apply_heads(raw, codec)
            scores = discriminator.forward(np.hstack([fake_act, conds]).reshape(packs, -1))[:, 0]
            adv_loss = float(_softplus(-scores).mean())
            ce_loss, ce_grad_raw = _cond_cross_entropy(fake_act, chosen, codec)
            g_loss = adv_loss + config.cond_loss_weight * ce_loss
            if not math.isfinite(g_loss):
                raise NonFiniteLoss(step_index, "generator")
            grad_scores = (-_sigmoid(-scores) / packs)[:, None]
            _, d_input_grad = discriminator.backward(grad_scores)
            grad_act = d_input_grad.reshape(batch, sample_width)[:, :encoded_width]
            grad_raw = _heads_backward(grad_act, fake_act, codec)
            grad_raw += config.cond_loss_weight * ce_grad_raw
            g_grads, _ = generator.backward(grad_raw)
            adam_g.step(g_grads)

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
    """Sample n synthetic rows; flags decode by hard argmax, pids run 1..n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return TabularDataset(model.schema, (), ())
    conds, _ = model.codec.sample_conditions_empirical(rng, n)
    noise = rng.standard_normal((n, model.config.noise_dim))
    activated = _apply_heads(model.generator.forward(np.hstack([noise, conds])), model.codec)
    rows = tuple(model.codec.decode_rows(activated))
    return TabularDataset(model.schema, rows, tuple(range(1, n + 1)))


# -- persistence ---------------------------------------------------------------


def _net_to_lists(net: FeedForward) -> dict:
    return {
        "activation": net.activation,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_lists(data: dict) -> FeedForward:
    weights = [np.asarray(w, dtype=float) for w in data["weights"]]
    sizes = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    net = FeedForward(sizes, data["activation"], np.random.default_rng(0))
    net.weights = weights
    net.biases = [np.asarray(b, dtype=float) for b in data["biases"]]
    return net


def model_to_json(model: GanModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "tabular-gan",
        "seed": model.seed,
        "config": asdict(model.config),
        "schema": [[c.name, c.kind] for c in model.schema.columns],
        "normalizers": {
            name: {
                "weights": list(norm.weights),
                "means": list(norm.means),
                "stdevs": list(norm.stdevs),
                "stdev_floor": norm.stdev_floor,
                "em_loglik": list(norm.em_loglik),
            }
            for name, norm in model.codec.normalizers.items()
        },
        "categories": {k: list(v) for k, v in model.codec.categories.items()},
        "frequencies": model.codec.frequencies,
        "generator": _net_to_lists(model.generator),
        "gen_losses": list(model.gen_losses),
        "disc_losses": list(model.disc_losses),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def save_model(model: GanModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> GanModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedModel(f"{path}: not valid JSON: {exc}") from exc
    try:
        # Version 1 files also hold the discriminator; loading ignores that block.
        if doc["format_version"] not in (1, MODEL_FORMAT_VERSION):
            raise MalformedModel(f"{path}: unsupported format_version {doc['format_version']!r}")
        schema = Schema(tuple(Column(n, k) for n, k in doc["schema"]))
        normalizers = {
            name: ModeNormalizer(
                tuple(d["weights"]),
                tuple(d["means"]),
                tuple(d["stdevs"]),
                d["stdev_floor"],
                tuple(d["em_loglik"]),
            )
            for name, d in doc["normalizers"].items()
        }
        codec = TableCodec(
            schema,
            normalizers,
            {k: tuple(v) for k, v in doc["categories"].items()},
            doc["frequencies"],
        )
        return GanModel(
            codec=codec,
            config=GanConfig(**doc["config"]),
            seed=doc["seed"],
            generator=_net_from_lists(doc["generator"]),
            gen_losses=tuple(doc["gen_losses"]),
            disc_losses=tuple(doc["disc_losses"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedModel(f"{path}: {exc}") from exc
