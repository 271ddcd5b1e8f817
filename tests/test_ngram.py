"""Sequence model: probabilities, backoff, decoding, persistence."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinforge.errors import EmptyCorpus, EmptyScript, UnknownVerb
from twinforge.ingest.macro import BOS, EOS, tokenize_script
from twinforge.sequence.ngram import (
    GenRequest,
    generate_sequence,
    load_seq_model,
    next_token_probs,
    save_seq_model,
    sequence_to_script,
    train_ngram,
)


@pytest.fixture(scope="module")
def corpus_tokens(script_corpus):
    return [tokenize_script(s) for s in script_corpus]


@pytest.fixture(scope="module")
def model(corpus_tokens):
    return train_ngram(corpus_tokens, order=3, delta=0.01)


def test_vocabulary_is_corpus_union_plus_sentinels(model, corpus_tokens):
    expected = {t for seq in corpus_tokens for t in seq}
    assert set(model.vocab) == expected
    assert BOS in model.vocab and EOS in model.vocab


def test_empty_corpus():
    with pytest.raises(EmptyCorpus):
        train_ngram([])


def test_unwrapped_sequence_rejected():
    with pytest.raises(ValueError):
        train_ngram([("Run, x", EOS)])


def _sequence_log_prob(model, seq):
    total = 0.0
    for i in range(1, len(seq)):
        vocab, probs = next_token_probs(model, seq[:i])
        total += float(np.log(probs[vocab.index(seq[i])]))
    return total


def test_single_sequence_is_most_probable(script_corpus):
    tokens = tokenize_script(script_corpus[0])
    model = train_ngram([tokens], order=3)
    base = _sequence_log_prob(model, tokens)
    rng = np.random.default_rng(0)
    for _ in range(25):
        # same length, same vocabulary, different interior ordering or tokens
        interior = list(tokens[1:-1])
        rng.shuffle(interior)
        alt = (tokens[0], *interior, tokens[-1])
        if alt == tokens:
            continue
        assert _sequence_log_prob(model, alt) < base


def test_probs_positive_and_sum_to_one(model):
    contexts = [
        (),
        (BOS,),
        (BOS, "Run, chrome.exe"),
        ("Sleep, 500", "Click, 512, 320"),
        ("never-seen-token",),
        ("x", "y", "z", "w"),  # longer than order
    ]
    for ctx in contexts:
        _, probs = next_token_probs(model, ctx)
        assert (probs > 0).all()
        assert abs(probs.sum() - 1.0) < 1e-9


def test_argmax_reproduces_single_training_script(script_corpus):
    script = script_corpus[0]
    tokens = tokenize_script(script)
    model = train_ngram([tokens], order=3)
    request = GenRequest(prompt=(tokens[1],), temperature=0.0, seed=0)
    out = generate_sequence(model, request)
    assert out == tokens[1:-1]
    assert sequence_to_script(out, name=script.name) == script


def test_t0_is_deterministic(model):
    request = GenRequest(prompt=("Run, chrome.exe",), temperature=0.0)
    assert generate_sequence(model, request) == generate_sequence(model, request)


def test_seeded_sampling_parses_as_script(model):
    request = GenRequest(prompt=("Run, chrome.exe",), temperature=0.8, seed=5)
    out = generate_sequence(model, request)
    script = sequence_to_script(out, name="sampled")
    assert script.commands[0].emit() == "Run, chrome.exe"


def test_unseen_prompt_tokens_fall_back(model):
    request = GenRequest(prompt=("Run, unheard-of.exe",), temperature=0.0)
    out = generate_sequence(model, request)
    assert out[0] == "Run, unheard-of.exe"
    assert len(out) >= 1


def test_max_len_caps_output(model):
    request = GenRequest(prompt=("Run, chrome.exe",), temperature=1.5, max_len=4, seed=1)
    assert len(generate_sequence(model, request)) <= 4


def test_sequence_to_script_reports_token_index():
    with pytest.raises(UnknownVerb) as err:
        sequence_to_script((BOS, "Run, x", "Teleport, x", EOS))
    assert err.value.token_index == 2


def test_sentinel_only_sequence():
    with pytest.raises(EmptyScript):
        sequence_to_script((BOS, EOS))


def test_round_trip_persistence(tmp_path, model):
    path = tmp_path / "seq.json"
    save_seq_model(model, path)
    loaded = load_seq_model(path)
    assert loaded == model
    resaved = tmp_path / "resaved.json"
    save_seq_model(loaded, resaved)
    assert resaved.read_bytes() == path.read_bytes()
    request = GenRequest(prompt=("Run, gedit",), temperature=0.8, seed=9)
    assert generate_sequence(loaded, request) == generate_sequence(model, request)


def test_request_validation():
    with pytest.raises(ValueError):
        GenRequest(prompt=())
    with pytest.raises(ValueError):
        GenRequest(prompt=("x",), temperature=-1.0)
    with pytest.raises(ValueError):
        GenRequest(prompt=("x",), max_len=0)


@given(st.integers(0, 2**32 - 1))
def test_sampled_output_always_starts_with_prompt(seed):
    corpus = [(BOS, "Run, a", "Sleep, 1", EOS), (BOS, "Run, b", "Sleep, 2", EOS)]
    model = train_ngram(corpus, order=2)
    request = GenRequest(prompt=("Run, a",), temperature=1.0, seed=seed, max_len=6)
    out = generate_sequence(model, request)
    assert out[0] == "Run, a"
    assert len(out) <= 6
