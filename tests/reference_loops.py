"""The GAN training step written one block, one column and one span at a time,
and the twin tree walk written over ``os.walk`` and ``Path`` objects.

These are the per-block loops the whole-batch code in ``tabular/encoding.py``,
``tabular/gan.py`` and ``tabular/net.py`` replaced. The tests keep them as the
reference that code must match byte for byte: the same bits, signed zeros
included, and the same random stream. The walk is the one the ``os.scandir``
walk of ``twin/manifest.py`` replaced, which must list the same entries; its
exclusion rule is a loop of ``fnmatchcase`` calls, one per pattern, that the
library's one compiled regex must agree with.
"""

from __future__ import annotations

import math
import operator
import os
from fnmatch import fnmatchcase
from functools import reduce
from pathlib import Path

import numpy as np

from twinforge.config import GanConfig
from twinforge.errors import DanglingSymlink, NonFiniteLoss, TooFewRows, UndecodableInput
from twinforge.ingest.tabular import CONTINUOUS, Categorical
from twinforge.tabular.encoding import ALPHA_SCALE, TableCodec
from twinforge.tabular.gan import GanModel, _ConditionedSampler, _generator_sizes
from twinforge.tabular.net import LEAK, LEAKY_RELU, RELU, Adam
from twinforge.twin.manifest import DIR, FILE, is_safe_rel_path, resolve_inside


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: ``==`` cannot tell -0.0 from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- codec -----------------------------------------------------------------------


def rows_of(columns, rows: np.ndarray) -> list:
    """Each column's cells at an index array, in its order."""
    return [c[rows] if isinstance(c, np.ndarray) else Categorical(c.categories, c.codes[rows]) for c in columns]


def encode_rows(codec: TableCodec, columns, rng: np.random.Generator) -> np.ndarray:
    """Encode rows given as one array or Categorical per column."""
    n = len(columns[0])
    out = np.zeros((n, codec.row_width))
    for span, values in zip(codec.spans, columns):
        if span.kind == CONTINUOUS:
            norm = codec.normalizers[span.name]
            resp = norm.responsibilities(values)
            draws = rng.random((n, 1))
            modes = (draws > resp.cumsum(axis=1)).sum(axis=1)
            modes = np.minimum(modes, norm.n_modes - 1)
            mu = np.asarray(norm.means)[modes]
            sd = np.asarray(norm.stdevs)[modes]
            alpha = np.clip((values - mu) / (ALPHA_SCALE * sd), -1.0, 1.0)
            out[:, span.offset] = alpha
            out[np.arange(n), span.offset + 1 + modes] = 1.0
        else:
            out[np.arange(n), span.offset + codec.codes(span.name, values)] = 1.0
    return out


def sample_conditions(codec: TableCodec, rng: np.random.Generator, size: int, log_weighted: bool) -> np.ndarray:
    cond_spans = [s for s in codec.spans if s.kind != CONTINUOUS]
    conds = np.zeros((size, codec.cond_width))
    if not cond_spans:
        return conds
    picks = rng.integers(len(cond_spans), size=size)
    uniforms = rng.random(size)
    for c, span in enumerate(cond_spans):
        table = codec.frequencies[span.name]
        counts = np.array([table[k] for k in codec.categories[span.name]], dtype=float)
        weights = np.log1p(counts) if log_weighted else counts
        cdf = (weights / weights.sum()).cumsum()
        cdf = cdf / cdf[-1]
        rows = np.flatnonzero(picks == c)
        conds[rows, span.cond_offset + cdf.searchsorted(uniforms[rows], side="right")] = 1.0
    return conds


# -- heads and condition loss ------------------------------------------------------


def _alpha_columns(codec: TableCodec) -> list[int]:
    return [s.offset for s in codec.spans if s.kind == CONTINUOUS]


def _flag_blocks(codec: TableCodec) -> list[tuple[int, int]]:
    return [(s.offset + (s.kind == CONTINUOUS), s.offset + s.width) for s in codec.spans]


def apply_heads(raw: np.ndarray, codec: TableCodec) -> np.ndarray:
    out = np.empty_like(raw)
    for col in _alpha_columns(codec):
        out[:, col] = np.tanh(raw[:, col])
    for lo, hi in _flag_blocks(codec):
        shifted = raw[:, lo:hi] - raw[:, lo:hi].max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        out[:, lo:hi] = exp / exp.sum(axis=1, keepdims=True)
    return out


def heads_backward(grad_act: np.ndarray, activated: np.ndarray, codec: TableCodec) -> np.ndarray:
    grad_raw = np.empty_like(grad_act)
    for col in _alpha_columns(codec):
        a = activated[:, col]
        grad_raw[:, col] = grad_act[:, col] * (1.0 - a * a)
    for lo, hi in _flag_blocks(codec):
        p = activated[:, lo:hi]
        g = grad_act[:, lo:hi]
        grad_raw[:, lo:hi] = p * (g - (p * g).sum(axis=1, keepdims=True))
    return grad_raw


def cond_cross_entropy(activated: np.ndarray, conds: np.ndarray, codec: TableCodec) -> tuple[float, np.ndarray]:
    batch = activated.shape[0]
    grad_raw = np.zeros_like(activated)
    picked = np.ones(batch)
    for span in codec.cond_spans:
        cond = conds[:, span.cond_offset : span.cond_offset + span.width]
        rows = np.flatnonzero(cond.any(axis=1))
        cats = cond[rows].argmax(axis=1)
        probs = activated[rows, span.offset : span.offset + span.width]
        picked[rows] = probs[np.arange(rows.size), cats]
        grad_raw[rows, span.offset : span.offset + span.width] = probs / batch
        grad_raw[rows, span.offset + cats] -= 1.0 / batch
    total = reduce(operator.sub, map(math.log, np.maximum(picked, 1e-12).tolist()), 0.0)
    return total / batch, grad_raw


# -- networks --------------------------------------------------------------------


class FeedForward:
    """The network with its full backward pass: parameter and input gradients."""

    def __init__(self, sizes: list[int], activation: str, rng: np.random.Generator) -> None:
        self.activation = activation
        n_params = sum(i * o + o for i, o in zip(sizes[:-1], sizes[1:]))
        self.param_vector = np.zeros(n_params)
        self._grad_vector = np.zeros(n_params)
        self.weights, self.biases = _layer_views(self.param_vector, sizes)
        self._grad_weights, self._grad_biases = _layer_views(self._grad_vector, sizes)
        for w in self.weights:
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
        self._cache = None

    def _act(self, pre):
        if self.activation == RELU:
            return np.maximum(pre, 0.0)
        return np.where(pre > 0, pre, LEAK * pre)

    def _act_grad(self, pre):
        if self.activation == RELU:
            return pre > 0
        return np.where(pre > 0, 1.0, LEAK)

    def forward(self, x: np.ndarray) -> np.ndarray:
        cache = []
        out = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = out @ w
            pre += b
            cache.append((out, pre))
            out = pre if i == last else self._act(pre)
        self._cache = cache
        return out

    def backward(self, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grad = grad_out
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            x_in, pre = self._cache[i]
            if i != last:
                grad = grad * self._act_grad(pre)
            np.matmul(x_in.T, grad, out=self._grad_weights[i])
            grad.sum(axis=0, out=self._grad_biases[i])
            grad = grad @ self.weights[i].T
        self._cache = None
        return self._grad_vector, grad


def _layer_views(flat: np.ndarray, sizes: list[int]):
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at : at + fan_out])
        at += fan_out
    return weights, biases


# -- the training loop -------------------------------------------------------------


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sample(sampler: _ConditionedSampler, codec: TableCodec, size: int, rng: np.random.Generator):
    conds = sample_conditions(codec, rng, size, log_weighted=True)
    if not codec.cond_spans:
        return conds, rng.integers(sampler.n_rows, size=size)
    bits = conds.argmax(axis=1)
    return conds, sampler.members[sampler.starts[bits] + rng.integers(sampler.counts[bits])]


def train_gan(dataset, config: GanConfig = GanConfig(), seed: int = 0) -> GanModel:
    if len(dataset) < config.batch_size:
        raise TooFewRows(f"{len(dataset)} rows < batch size {config.batch_size}")

    codec = TableCodec.fit(dataset, max_modes=config.max_modes, seed=seed)
    sampler = _ConditionedSampler(dataset, codec)
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
    packs = batch // pac
    steps_per_epoch = max(1, len(dataset) // batch)
    gen_losses, disc_losses = [], []
    step_index = 0
    for _ in range(config.epochs):
        epoch_g = 0.0
        epoch_d = 0.0
        for _ in range(steps_per_epoch):
            conds, row_idx = _sample(sampler, codec, batch, rng)
            real_enc = encode_rows(codec, rows_of(dataset.columns, row_idx), rng)
            noise = rng.standard_normal((batch, config.noise_dim))
            fake_act = apply_heads(generator.forward(np.hstack([noise, conds])), codec)
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
            grad_scores = np.concatenate([-_sigmoid(-s_real) / packs, _sigmoid(s_fake) / packs])[:, None]
            d_grads, _ = discriminator.backward(grad_scores)
            adam_d.step(d_grads)

            conds, _ = _sample(sampler, codec, batch, rng)
            noise = rng.standard_normal((batch, config.noise_dim))
            raw = generator.forward(np.hstack([noise, conds]))
            fake_act = apply_heads(raw, codec)
            scores = discriminator.forward(np.hstack([fake_act, conds]).reshape(packs, -1))[:, 0]
            adv_loss = float(_softplus(-scores).mean())
            ce_loss, ce_grad_raw = cond_cross_entropy(fake_act, conds, codec)
            g_loss = adv_loss + config.cond_loss_weight * ce_loss
            if not math.isfinite(g_loss):
                raise NonFiniteLoss(step_index, "generator")
            grad_scores = (-_sigmoid(-scores) / packs)[:, None]
            _, d_input_grad = discriminator.backward(grad_scores)
            grad_act = d_input_grad.reshape(batch, sample_width)[:, :encoded_width]
            grad_raw = heads_backward(grad_act, fake_act, codec)
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


def generate_activated(model: GanModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """The activated generator rows ``generate_rows`` decodes."""
    conds = sample_conditions(model.codec, rng, n, log_weighted=False)
    noise = rng.standard_normal((n, model.config.noise_dim))
    return apply_heads(model.generator.forward(np.hstack([noise, conds])), model.codec)


# -- twin tree walk ----------------------------------------------------------------


def is_excluded(rel: str, patterns) -> bool:
    """The exclusion rule one pattern at a time: ``fnmatchcase`` on the
    path, and on the ``x`` of an ``x/**`` pattern."""
    return any(
        fnmatchcase(rel, pattern) or pattern.endswith("/**") and fnmatchcase(rel, pattern[:-3])
        for pattern in patterns
    )


def walk_tree(root, exclusions=()) -> tuple[tuple[str, str], ...]:
    """``(path, kind)`` of every entry, from ``os.walk``, which skips a
    directory it cannot list; excluded directories are pruned unlisted."""
    root = Path(root).resolve()
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory")
    entries: list[tuple[str, str]] = []

    def visit(path: Path, kind: str) -> bool:
        rel = path.relative_to(root).as_posix()
        if is_excluded(rel, exclusions):
            return False
        if not is_safe_rel_path(rel):
            raise UndecodableInput(f"{root}: file name {os.fsencode(rel)!r} is not valid UTF-8")
        if path.is_symlink():
            if not path.exists():
                raise DanglingSymlink(f"{rel} -> {os.readlink(path)}: the link leads to nothing")
            resolve_inside(root, rel)
        entries.append((rel, kind))
        return True

    for dirpath, dirnames, filenames in os.walk(root, followlinks=False):
        dirnames.sort()
        filenames.sort()
        here = Path(dirpath)
        dirnames[:] = [name for name in dirnames if visit(here / name, DIR)]
        for name in filenames:
            visit(here / name, FILE)
    entries.sort()
    return tuple(entries)
