"""GAN training and synthesis: determinism, decode contracts, persistence."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from twinforge.errors import MalformedModel, TooFewRows
from twinforge.ingest import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset
from twinforge.tabular import (
    ALPHA_SCALE,
    GanConfig,
    generate_rows,
    load_model,
    model_to_json,
    save_model,
    train_gan,
)
from twinforge.tabular.encoding import TableCodec
from twinforge.tabular.gan import _apply_heads, _cond_cross_entropy, _ConditionedSampler

from conftest import make_fixture_dataset

SMALL_CONFIG = GanConfig(epochs=4, batch_size=16, pac=4)


@pytest.fixture(scope="module")
def small_dataset() -> TabularDataset:
    return make_fixture_dataset(n_rows=96, seed=5)


@pytest.fixture(scope="module")
def small_model(small_dataset):
    return train_gan(small_dataset, SMALL_CONFIG, seed=21)


def test_same_seed_bit_identical_weights(small_dataset):
    a = train_gan(small_dataset, SMALL_CONFIG, seed=3)
    b = train_gan(small_dataset, SMALL_CONFIG, seed=3)
    for wa, wb in zip(a.generator.params, b.generator.params):
        assert (wa == wb).all()
    assert a.gen_losses == b.gen_losses
    assert a.disc_losses == b.disc_losses


def test_too_few_rows():
    schema = Schema((Column("u", DISCRETE), Column("x", CONTINUOUS)))
    tiny = TabularDataset(schema, (("a", 1.0),) * 8)
    with pytest.raises(TooFewRows):
        train_gan(tiny, GanConfig(batch_size=32))


def test_training_progress_on_fixture(trained_model):
    losses = trained_model.gen_losses
    assert len(losses) == 300
    assert np.mean(losses[-50:]) < np.mean(losses[:50])


def test_generate_zero_rows(small_model):
    synth = generate_rows(small_model, 0, np.random.default_rng(0))
    assert len(synth.rows) == 0
    assert synth.schema == small_model.schema


def test_generated_discrete_values_in_training_set(small_model, small_dataset):
    synth = generate_rows(small_model, 50, np.random.default_rng(1))
    for i, column in enumerate(small_dataset.schema.columns):
        if column.kind == DISCRETE:
            trained = set(small_model.codec.categories[column.name])
            assert {row[i] for row in synth.rows} <= trained


def test_generated_continuous_within_mode_envelope(small_model):
    synth = generate_rows(small_model, 50, np.random.default_rng(2))
    for i, column in enumerate(small_model.schema.columns):
        if column.kind != CONTINUOUS:
            continue
        norm = small_model.codec.normalizers[column.name]
        for row in synth.rows:
            value = float(row[i])
            inside = any(
                m - ALPHA_SCALE * s - 1e-9 <= value <= m + ALPHA_SCALE * s + 1e-9
                for m, s in zip(norm.means, norm.stdevs)
            )
            assert inside


def test_generated_pids_run_sequentially(small_model):
    synth = generate_rows(small_model, 9, np.random.default_rng(3))
    assert synth.pids == tuple(range(1, 10))


def test_model_round_trip_bit_exact(tmp_path, small_model):
    path = tmp_path / "model.json"
    save_model(small_model, path)
    loaded = load_model(path)
    assert model_to_json(loaded) == model_to_json(small_model)
    assert path.read_text(encoding="utf-8") == model_to_json(small_model)
    # a reloaded model generates identically
    a = generate_rows(small_model, 20, np.random.default_rng(11))
    b = generate_rows(loaded, 20, np.random.default_rng(11))
    assert a == b


def test_model_file_is_generator_only_and_reads_version_1(tmp_path, small_model):
    doc = json.loads(model_to_json(small_model))
    assert doc["format_version"] == 2
    assert "discriminator" not in doc
    # A version 1 file is the same document plus the discriminator's weights.
    legacy = dict(doc, format_version=1)
    legacy["discriminator"] = {"activation": "leaky_relu", "weights": [[[0.5]]], "biases": [[0.0]]}
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(legacy), encoding="utf-8")
    loaded = load_model(path)
    assert model_to_json(loaded) == model_to_json(small_model)
    a = generate_rows(small_model, 20, np.random.default_rng(11))
    b = generate_rows(loaded, 20, np.random.default_rng(11))
    assert a == b

    path.write_text(json.dumps(dict(doc, format_version=99)), encoding="utf-8")
    with pytest.raises(MalformedModel):
        load_model(path)


def test_config_validation():
    with pytest.raises(ValueError):
        GanConfig(epochs=0)
    with pytest.raises(ValueError):
        GanConfig(batch_size=30, pac=8)  # pac must divide batch
    with pytest.raises(ValueError):
        GanConfig(learning_rate=-1.0)


def test_conditioned_sampler_draws_rows_holding_the_condition(small_dataset):
    codec = TableCodec.fit(small_dataset, seed=0)
    conds, rows = _ConditionedSampler(small_dataset, codec).sample(2000, np.random.default_rng(4))
    names = small_dataset.schema.names
    # reference: a bucket of matching rows per category, one scalar draw per row
    reference = np.random.default_rng(4)
    assert (codec.sample_conditions_logfreq(reference, 2000) == conds).all()
    drawn = set()
    for cond, r in zip(conds, rows):
        (bit,) = np.flatnonzero(cond)
        span = next(s for s in codec.cond_spans if s.cond_offset <= bit < s.cond_offset + s.width)
        category = codec.categories[span.name][bit - span.cond_offset]
        assert small_dataset.rows[r][names.index(span.name)] == category
        bucket = [k for k, row in enumerate(small_dataset.rows) if row[names.index(span.name)] == category]
        assert r == bucket[int(reference.integers(len(bucket)))]
        drawn.add((span.name, category))
    # log-frequency weighting reaches every category, rare ones included
    assert drawn == {(s.name, c) for s in codec.cond_spans for c in codec.categories[s.name]}


def test_cond_cross_entropy_matches_per_row_sum(small_dataset):
    codec = TableCodec.fit(small_dataset, seed=0)
    rng = np.random.default_rng(9)
    conds, _ = _ConditionedSampler(small_dataset, codec).sample(64, rng)
    activated = _apply_heads(rng.normal(size=(64, codec.row_width)), codec)
    loss, grad = _cond_cross_entropy(activated, conds, codec)
    # reference: one row at a time, -log p summed in row order
    total, expected = 0.0, np.zeros_like(activated)
    for i, cond in enumerate(conds):
        (bit,) = np.flatnonzero(cond)
        span = next(s for s in codec.cond_spans if s.cond_offset <= bit < s.cond_offset + s.width)
        probs = activated[i, span.offset : span.offset + span.width]
        j = bit - span.cond_offset
        total += -math.log(max(probs[j], 1e-12))
        expected[i, span.offset : span.offset + span.width] = probs / 64
        expected[i, span.offset + j] -= 1.0 / 64
    assert loss == total / 64
    assert (grad == expected).all()
