"""Script similarity metrics: bag-of-tokens cosine and 4-gram BLEU.

Cosine treats a script as a bag of canonical command lines, so it ignores
ordering. BLEU is the usual geometric mean of n-gram precisions for n up to
four with clipped counts; orders above one use add-one smoothing on both
sides of the ratio, and candidates shorter than the closest reference pay
the multiplicative brevity penalty exp(1 - r/c).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from twinforge.errors import EmptyCandidate, NoReferences
from twinforge.ingest.macro import MacroScript

BLEU_MAX_ORDER = 4


def _bag(script: MacroScript) -> Counter:
    return Counter(cmd.emit() for cmd in script.commands)


def cosine_similarity(a: MacroScript, b: MacroScript) -> float:
    """Cosine between token-count vectors over the union vocabulary; a
    MacroScript is never empty, so neither norm is 0."""
    bag_a = _bag(a)
    bag_b = _bag(b)
    dot = sum(bag_a[t] * bag_b[t] for t in bag_a.keys() & bag_b.keys())
    norm_sq_a = sum(v * v for v in bag_a.values())
    norm_sq_b = sum(v * v for v in bag_b.values())
    # sqrt of the product keeps identical bags at exactly 1.0
    return dot / math.sqrt(norm_sq_a * norm_sq_b)


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: Sequence[str], references: Sequence[Sequence[str]]) -> float:
    """BLEU with uniform weights over orders 1..4."""
    candidate = list(candidate)
    if not candidate:
        raise EmptyCandidate("candidate token list is empty")
    refs = [list(r) for r in references]
    if not refs:
        raise NoReferences("need at least one reference")
    if any(not r for r in refs):
        raise NoReferences("references must be non-empty")

    log_precisions = []
    for n in range(1, BLEU_MAX_ORDER + 1):
        cand_counts = _ngrams(candidate, n)
        total = sum(cand_counts.values())
        max_ref: Counter = Counter()
        for ref in refs:
            for gram, count in _ngrams(ref, n).items():
                max_ref[gram] = max(max_ref[gram], count)
        matches = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
        if n == 1:
            if matches == 0:
                return 0.0
            precision = matches / total
        else:
            precision = (matches + 1) / (total + 1)
        log_precisions.append(math.log(precision))

    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    brevity = math.exp(1.0 - r / c) if c < r else 1.0
    return brevity * math.exp(sum(log_precisions) / BLEU_MAX_ORDER)
