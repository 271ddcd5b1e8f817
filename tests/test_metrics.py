"""Cosine and BLEU against hand-computed oracles and invariance properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinforge.errors import EmptyCandidate, NoReferences
from twinforge.ingest.macro import MacroScript, parse_macro_script
from twinforge.validate.metrics import bleu, cosine_similarity

# Hand-worked oracle for candidate "a b c" vs reference "a b d":
#   p1 = 2/3 (unsmoothed)
#   p2 = (1+1)/(2+1) = 2/3   (bigrams: {ab, bc} vs {ab, bd})
#   p3 = (0+1)/(1+1) = 1/2
#   p4 = (0+1)/(0+1) = 1     (no 4-grams on either side)
#   BP = 1 (equal lengths)   => BLEU = (2/3 * 2/3 * 1/2) ** (1/4)
BLEU_ABC_ABD = (2.0 / 9.0) ** 0.25


def _script(text: str, name: str = "s") -> MacroScript:
    return parse_macro_script(text, name=name)


def test_cosine_identical_is_exactly_one():
    a = _script("Run, x\nSleep, 5\nSend, hi")
    assert cosine_similarity(a, a) == 1.0


def test_cosine_disjoint_is_zero():
    a = _script("Run, x")
    b = _script("Run, y")
    assert cosine_similarity(a, b) == 0.0


def test_cosine_hand_case():
    # bags {x:1, y:1} vs {x:1} -> 1/sqrt(2)
    a = _script("Run, x\nRun, y")
    b = _script("Run, x")
    assert cosine_similarity(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_cosine_symmetric_and_order_free():
    a = _script("Run, x\nSleep, 5\nSend, hi")
    b = _script("Send, hi\nRun, x\nSleep, 5")
    c = _script("Run, x\nSleep, 5")
    assert cosine_similarity(a, b) == 1.0  # bag semantics ignore order
    assert cosine_similarity(a, c) == pytest.approx(cosine_similarity(c, a), abs=1e-12)


def test_cosine_scale_invariance():
    a = _script("Run, x\nSleep, 5")
    doubled = _script("Run, x\nSleep, 5\nRun, x\nSleep, 5")
    assert cosine_similarity(a, doubled) == pytest.approx(1.0, abs=1e-12)


def test_bleu_identity():
    tokens = ["Run, x", "Sleep, 5", "Send, hi", "Click, 1, 2"]
    assert bleu(tokens, [tokens]) == pytest.approx(1.0, abs=1e-12)


def test_bleu_zero_unigram_overlap():
    assert bleu(["a", "b"], [["c", "d"]]) == 0.0


def test_bleu_hand_case_regression():
    assert bleu(["a", "b", "c"], [["a", "b", "d"]]) == pytest.approx(BLEU_ABC_ABD, abs=1e-12)


def test_bleu_brevity_penalty():
    # shorter candidate with full overlap pays exp(1 - r/c)
    value = bleu(["a", "b"], [["a", "b", "c", "d"]])
    p2 = (1 + 1) / (1 + 1)
    expected = math.exp(1 - 4 / 2) * (1.0 * p2 * 1.0 * 1.0) ** 0.25
    assert value == pytest.approx(expected, abs=1e-12)


def test_bleu_reference_order_invariant():
    cand = ["a", "b", "c"]
    refs = [["a", "x"], ["a", "b", "c"], ["q"]]
    assert bleu(cand, refs) == bleu(cand, list(reversed(refs)))


def test_bleu_non_increasing_when_matching_reference_removed():
    cand = ["a", "b", "c"]
    refs = [["a", "b", "c"], ["x", "y", "z", "w"]]
    assert bleu(cand, refs) >= bleu(cand, [["x", "y", "z", "w"]])


def test_bleu_errors():
    with pytest.raises(EmptyCandidate):
        bleu([], [["a"]])
    with pytest.raises(NoReferences):
        bleu(["a"], [])
    with pytest.raises(NoReferences):
        bleu(["a"], [[]])


_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8)


@given(_tokens, st.lists(_tokens, min_size=1, max_size=4))
def test_bleu_bounded(cand, refs):
    value = bleu(cand, refs)
    assert 0.0 <= value <= 1.0 + 1e-12


@given(st.permutations(list(range(4))))
def test_bleu_reference_permutation_property(order):
    cand = ["a", "b", "c"]
    refs = [["a"], ["a", "b"], ["b", "c"], ["d", "d", "d"]]
    shuffled = [refs[i] for i in order]
    assert bleu(cand, shuffled) == bleu(cand, refs)
