"""GAN training and synthesis: determinism, decode contracts, persistence."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from twinforge.config import GanConfig
from twinforge.errors import MalformedModel, TooFewRows
from twinforge.ingest.tabular import CONTINUOUS, DISCRETE, Column, Schema, TabularDataset
from twinforge.tabular.encoding import ALPHA_SCALE, TableCodec
from twinforge.tabular.gan import (
    _BLOCK_ROWS,
    _apply_heads,
    _cond_cross_entropy,
    _ConditionedSampler,
    _heads_backward,
    generate_rows,
    load_model,
    model_to_json,
    save_model,
    train_gan,
)

import reference_loops as reference
from conftest import make_codec_with_widths, make_fixture_dataset

SMALL_CONFIG = GanConfig(epochs=4, batch_size=16, pac=4)


def _assert_same_text(actual: str, expected: str) -> None:
    """``actual == expected``, compared by sha256: a failing ``==`` of two
    whole-model documents had pytest diff megabytes of JSON for minutes.
    A mismatch names the first differing offset with the text around it."""
    digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (actual, expected)]
    if digests[0] != digests[1]:
        at = next((i for i, (a, b) in enumerate(zip(actual, expected)) if a != b), min(len(actual), len(expected)))
        context = slice(max(at - 60, 0), at + 60)
        pytest.fail(
            f"texts of {len(actual)} and {len(expected)} characters differ from offset {at}:\n"
            f"  actual:   {actual[context]!r}\n  expected: {expected[context]!r}"
        )


@pytest.fixture(scope="module")
def small_dataset() -> TabularDataset:
    return make_fixture_dataset(n_rows=96, seed=5)


@pytest.fixture(scope="module")
def small_model(small_dataset):
    return train_gan(small_dataset, SMALL_CONFIG, seed=21)


def test_same_seed_bit_identical_weights(small_dataset):
    a = train_gan(small_dataset, SMALL_CONFIG, seed=3)
    b = train_gan(small_dataset, SMALL_CONFIG, seed=3)
    assert (a.generator.param_vector == b.generator.param_vector).all()
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
    _assert_same_text(model_to_json(loaded), model_to_json(small_model))
    _assert_same_text(path.read_text(encoding="utf-8"), model_to_json(small_model))
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
    _assert_same_text(model_to_json(loaded), model_to_json(small_model))
    a = generate_rows(small_model, 20, np.random.default_rng(11))
    b = generate_rows(loaded, 20, np.random.default_rng(11))
    assert a == b

    path.write_text(json.dumps(dict(doc, format_version=99)), encoding="utf-8")
    with pytest.raises(MalformedModel):
        load_model(path)


# A count past the double range once let OverflowError escape load_model, and
# the CLI print a traceback with exit 1.
@pytest.mark.parametrize("place", ["frequencies", "generator"])
def test_a_number_past_the_double_range_is_malformed(tmp_path, small_model, place):
    doc = json.loads(model_to_json(small_model))
    if place == "frequencies":
        table = next(iter(doc["frequencies"].values()))
        table[next(iter(table))] = 10**400
    else:
        _set(doc["generator"]["weights"], (0, 0, 0), 10**400)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedModel, match=str(path)):
        load_model(path)


def _set(array: list, at: tuple[int, ...], value: object) -> None:
    for i in at[:-1]:
        array = array[i]
    array[at[-1]] = value


# numpy reads a JSON true or false among numbers as 1 or 0: unchecked, such a
# model loaded and generated with a weight of 1.0 or a bias of 0.0.
@pytest.mark.parametrize(
    "kind, at, value",
    [("weights", (1, 0, 0), True), ("weights", (0, 3, 2), False), ("biases", (2, 0), True), ("biases", (0, 5), False)],
)
def test_a_boolean_in_a_generator_array_is_refused(tmp_path, small_model, kind, at, value):
    doc = json.loads(model_to_json(small_model))
    path = tmp_path / "model.json"
    for number in (float(value), int(value)):  # the same place holding a number loads
        _set(doc["generator"][kind], at, number)
        path.write_text(json.dumps(doc), encoding="utf-8")
        load_model(path)
    _set(doc["generator"][kind], at, value)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(MalformedModel, match=rf"generator {kind}\[{at[0]}\] holds a boolean"):
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
    assert reference.same_bits(grad, expected)


# -- the whole-batch step against the per-block loops it replaced ------------------


def _columns_of(dataset: TabularDataset, kind: str) -> TabularDataset:
    schema = Schema(tuple(c for c in dataset.schema.columns if c.kind == kind))
    return TabularDataset.from_columns(schema, [dataset.column(c.name) for c in schema.columns])


def _wide_and_narrow_table(n_rows: int = 96, seed: int = 13) -> TabularDataset:
    """An 11-category column (wider than numpy's 8-value pairwise block)
    beside a 2-category one and a bimodal continuous column."""
    rng = np.random.default_rng(seed)
    schema = Schema((Column("cmd", DISCRETE), Column("x", CONTINUOUS), Column("flag", DISCRETE)))
    weights = np.arange(1, 12, dtype=float)
    cmds = rng.choice([f"c{k:02d}" for k in range(11)], size=n_rows, p=weights / weights.sum())
    xs = np.where(rng.random(n_rows) < 0.5, rng.normal(0.0, 1.0, n_rows), rng.normal(9.0, 2.0, n_rows))
    flags = rng.choice(["on", "off"], size=n_rows, p=[0.9, 0.1])
    return TabularDataset(schema, tuple(zip(cmds.tolist(), xs.tolist(), flags.tolist())))


_TRAINING_CASES = {
    "small-seed-3": (lambda d: d, SMALL_CONFIG, 3),
    "small-seed-21": (lambda d: d, SMALL_CONFIG, 21),
    "small-seed-40": (lambda d: d, SMALL_CONFIG, 40),
    "continuous-only": (lambda d: _columns_of(d, CONTINUOUS), SMALL_CONFIG, 5),
    "discrete-only": (lambda d: _columns_of(d, DISCRETE), SMALL_CONFIG, 6),
    "wide-and-narrow": (lambda d: _wide_and_narrow_table(), SMALL_CONFIG, 7),
    "pac-1": (lambda d: d, GanConfig(epochs=2, batch_size=16, pac=1), 8),
}


@pytest.mark.parametrize("case", sorted(_TRAINING_CASES))
def test_training_matches_the_per_block_loop_byte_for_byte(case, small_dataset):
    make, config, seed = _TRAINING_CASES[case]
    dataset = make(small_dataset)
    model = train_gan(dataset, config, seed=seed)
    _assert_same_text(model_to_json(model), model_to_json(reference.train_gan(dataset, config, seed=seed)))
    # synthesis from the trained model runs the same heads and condition sampler
    synth = generate_rows(model, 40, np.random.default_rng(seed))
    activated = reference.generate_activated(model, 40, np.random.default_rng(seed))
    expected = TabularDataset.from_columns(model.schema, model.codec.decode_rows(activated), np.arange(1, 41))
    assert synth == expected


def _raw_outputs(n: int, width: int, seed: int) -> np.ndarray:
    """Logits over several decades, with some exact and negative zeros."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-3, 3, size=(n, width))
    raw[rng.random((n, width)) < 0.05] = 0.0
    raw[rng.random((n, width)) < 0.05] = -0.0
    return raw


@pytest.mark.parametrize("n", [1, 32, 20000])
def test_heads_match_the_per_block_loops(n):
    codec = make_codec_with_widths()
    blocks_by_width = {g.columns.shape[1]: g.columns.shape[0] for g in codec.flag_groups}
    assert blocks_by_width[9] == 2 and set(range(8, 21)) <= set(blocks_by_width)  # wide blocks grouped by width
    raw = _raw_outputs(n, codec.row_width, seed=n)
    activated = _apply_heads(raw, codec)
    assert reference.same_bits(activated, reference.apply_heads(raw, codec))
    grad_act = _raw_outputs(n, codec.row_width, seed=n + 1)
    assert reference.same_bits(
        _heads_backward(grad_act, activated, codec), reference.heads_backward(grad_act, activated, codec)
    )


@pytest.mark.parametrize("n", [1, 32, 20000])
def test_cond_cross_entropy_matches_the_per_span_loop(n):
    codec = make_codec_with_widths()
    activated = _apply_heads(_raw_outputs(n, codec.row_width, seed=n + 2), codec)
    assert (activated[:, codec.alpha_columns] < 0).any()  # where a 0/1 mask would write -0.0
    conds = reference.sample_conditions(codec, np.random.default_rng(n), n, log_weighted=True)
    loss, grad = _cond_cross_entropy(activated, conds, codec)
    expected_loss, expected_grad = reference.cond_cross_entropy(activated, conds, codec)
    assert loss == expected_loss
    assert reference.same_bits(grad, expected_grad)


def _same_dataset_bits(actual: TabularDataset, expected: TabularDataset) -> bool:
    return actual.schema == expected.schema and actual.pids == expected.pids and all(
        reference.same_bits(a, b) if isinstance(a, np.ndarray) else a.categories == b.categories
        and reference.same_bits(a.codes, b.codes)
        for a, b in zip(actual.columns, expected.columns)
    )


B = _BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 1, 3 * B - 1])
def test_generation_in_row_blocks_matches_one_pass_bit_for_bit(small_model, n):
    synth = generate_rows(small_model, n, np.random.default_rng(n))
    activated = reference.generate_activated(small_model, n, np.random.default_rng(n))
    expected = TabularDataset.from_columns(
        small_model.schema, small_model.codec.decode_rows(activated), np.arange(1, n + 1)
    )
    assert _same_dataset_bits(synth, expected)


def test_generation_memory_grows_by_far_less_than_a_hidden_layer_per_row(small_model):
    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            generate_rows(small_model, n, np.random.default_rng(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    per_row = (peak(6 * B) - peak(2 * B)) / (4 * B)
    # one pass over all rows held each hidden layer whole: about 3 KB a row
    assert per_row < small_model.config.hidden_dim * 8 / 2
