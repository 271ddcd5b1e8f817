"""Per-column Gaussian mixtures for mode-specific normalization.

``fit_mode_normalizer`` runs plain expectation-maximization once per
candidate mode count (k-means++-style seeded initialization) and keeps the
fit with the lowest BIC. Standard deviations are floored at a fraction of
the column range so degenerate clusters stay invertible, and the iteration
log-likelihood is recorded and guaranteed non-decreasing: an update that
would decrease it (possible only through the floor) is discarded and the
loop stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from twinforge.errors import TooFewValues

MAX_MODES = 5
EM_MAX_ITER = 50
EM_TOL = 1e-6
STDEV_FLOOR_SCALE = 1e-6
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ModeNormalizer:
    """Mixture parameters for one continuous column."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    stdevs: tuple[float, ...]
    stdev_floor: float
    em_loglik: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        k = len(self.weights)
        if not 1 <= k:
            raise ValueError("need at least one mode")
        if len(self.means) != k or len(self.stdevs) != k:
            raise ValueError("weights, means and stdevs must align")
        if not all(map(math.isfinite, (*self.weights, *self.means, *self.stdevs))):
            raise ValueError("weights, means and stdevs must be finite")
        if self.stdev_floor <= 0:
            raise ValueError("stdev_floor must be positive")
        if any(w <= 0 for w in self.weights) or not math.isclose(sum(self.weights), 1.0, abs_tol=1e-9):
            raise ValueError("weights must be positive and sum to 1")
        if any(s < self.stdev_floor for s in self.stdevs):
            raise ValueError("stdevs must respect the floor")

    @property
    def n_modes(self) -> int:
        return len(self.weights)

    def responsibilities(self, values: np.ndarray) -> np.ndarray:
        """Posterior mode probabilities for each value, shape (n, K)."""
        p, _ = _shifted_density(values, self.weights, self.means, self.stdevs)
        p /= p.sum(axis=0)
        return p.T


# The fit works in a (modes x values) layout, one contiguous row per mode.
# Every sum adds in the order numpy uses for the same sum over the
# (values x modes) array, so the layout does not change the fit's bits. Over
# modes, numpy adds left to right in both layouts; over values, see
# ``_sum_over_values`` and the mean numerator in ``_run_em``.


def _shifted_density(values, weights, means, stdevs) -> tuple[np.ndarray, np.ndarray]:
    """Weighted per-mode Gaussian densities, shape (K, n), each column divided
    by ``exp(shift)``, where ``shift`` (shape (n,)) is its largest log-density."""
    sd = np.asarray(stdevs, dtype=float)[:, None]
    logp = np.asarray(values, dtype=float)[None, :] - np.asarray(means, dtype=float)[:, None]
    logp /= sd
    np.square(logp, out=logp)
    logp *= -0.5
    logp -= np.log(sd)
    logp -= 0.5 * _LOG_2PI
    logp += np.log(np.asarray(weights, dtype=float))[:, None]
    shift = logp.max(axis=0)
    logp -= shift
    return np.exp(logp, out=logp), shift


def _sum_over_values(a: np.ndarray) -> np.ndarray:
    """Per-mode sums over values, in the order numpy sums axis 0 of the
    C-ordered (n, K) array: value after value, or pairwise when K is 1."""
    if a.shape[0] == 1:
        return a.sum(axis=1)
    return np.cumsum(a, axis=1)[:, -1]


def _kmeanspp_centers(values: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [values[rng.integers(values.size)]]
    for _ in range(1, k):
        d2 = np.min((values[:, None] - np.asarray(centers)[None, :]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(values[rng.integers(values.size)])
        else:
            centers.append(rng.choice(values, p=d2 / total))
    return np.asarray(centers, dtype=float)


def _run_em(
    values: np.ndarray, k: int, floor: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    n = values.size
    weights = np.full(k, 1.0 / k)
    means = _kmeanspp_centers(values, k, rng)
    stdevs = np.full(k, max(float(values.std()), floor))

    accepted = (weights, means, stdevs)
    trajectory: list[float] = []
    for _ in range(EM_MAX_ITER):
        resp, shift = _shifted_density(values, weights, means, stdevs)
        total = resp.sum(axis=0)
        ll = float((shift + np.log(total)).sum())
        if trajectory and ll < trajectory[-1]:
            # The stdev floor broke the EM guarantee; keep the previous fit.
            break
        converged = bool(trajectory) and (ll - trajectory[-1] < EM_TOL)
        trajectory.append(ll)
        accepted = (weights, means, stdevs)
        if converged:
            break

        resp /= total
        mass = _sum_over_values(resp)
        alive = mass > 1e-10
        live = resp[alive]
        new_means = means.copy()
        new_stdevs = stdevs.copy()
        # boolean indexing made the (values x modes) product F-ordered, which numpy sums pairwise
        new_means[alive] = (live * values).sum(axis=1) / mass[alive]
        dev = values - new_means[alive][:, None]
        np.square(dev, out=dev)
        dev *= live
        var = _sum_over_values(dev) / mass[alive]
        new_stdevs[alive] = np.maximum(np.sqrt(var), floor)
        weights = np.maximum(mass / n, 1e-12)
        weights = weights / weights.sum()
        means, stdevs = new_means, new_stdevs

    return accepted[0], accepted[1], accepted[2], trajectory


def fit_mode_normalizer(
    values: Sequence[float], max_modes: int = MAX_MODES, seed: int = 0
) -> ModeNormalizer:
    """Fit a 1-D Gaussian mixture, selecting the mode count by minimum BIC."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise TooFewValues(f"need at least 2 values, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    if max_modes < 1:
        raise ValueError("max_modes must be >= 1")

    value_range = float(arr.max() - arr.min())
    floor = STDEV_FLOOR_SCALE * (value_range if value_range > 0 else 1.0)

    best: tuple[float, ModeNormalizer] | None = None
    for k in range(1, min(max_modes, arr.size) + 1):
        rng = np.random.default_rng([seed, k])
        weights, means, stdevs, trajectory = _run_em(arr, k, floor, rng)
        # free parameters: k-1 weights, k means, k stdevs
        bic = -2.0 * trajectory[-1] + (3 * k - 1) * math.log(arr.size)
        candidate = ModeNormalizer(
            tuple(float(w) for w in weights),
            tuple(float(m) for m in means),
            tuple(float(s) for s in stdevs),
            floor,
            tuple(trajectory),
        )
        if best is None or bic < best[0]:
            best = (bic, candidate)
    assert best is not None
    return best[1]
