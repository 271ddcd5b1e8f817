"""Distribution distances used by the acceptance gate and reports."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from twinforge.errors import EmptySample


def emd_1d(a: Sequence[float], b: Sequence[float]) -> float:
    """Exact one-dimensional Wasserstein-1 between two empirical samples.

    Integrates |F_a - F_b| over the merged support with a single sorted
    sweep; samples may differ in size.
    """
    xa = np.sort(np.asarray(a, dtype=float))
    xb = np.sort(np.asarray(b, dtype=float))
    if xa.size == 0 or xb.size == 0:
        raise EmptySample("emd_1d needs non-empty samples")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ValueError("emd_1d requires finite values")
    merged = np.concatenate([xa, xb])
    merged.sort()
    gaps = np.diff(merged)
    if gaps.size == 0:
        return 0.0
    cdf_a = np.searchsorted(xa, merged[:-1], side="right") / xa.size
    cdf_b = np.searchsorted(xb, merged[:-1], side="right") / xb.size
    return float(np.sum(np.abs(cdf_a - cdf_b) * gaps))


def tv_distance(a: Iterable[str] | Mapping[str, int], b: Iterable[str] | Mapping[str, int]) -> float:
    """Total variation between two category samples, each given as its
    cells or as a category -> count mapping: half the L1 gap.

    The gaps are summed exactly, so the result does not depend on the
    (hash-seeded) order in which the category set yields them.
    """
    count_a = Counter(a)
    count_b = Counter(b)
    n_a = sum(count_a.values())
    n_b = sum(count_b.values())
    if n_a == 0 or n_b == 0:
        raise EmptySample("tv_distance needs non-empty samples")
    keys = set(count_a) | set(count_b)
    return 0.5 * math.fsum(abs(count_a[k] / n_a - count_b[k] / n_b) for k in keys)
