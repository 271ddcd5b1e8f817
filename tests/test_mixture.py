"""Mixture fitting: degenerate columns, mode recovery, BIC selection, EM
monotonicity, and bit identity with the (values x modes) EM it replaced."""

from __future__ import annotations

import numpy as np
import pytest

from twinforge.errors import TooFewValues
from twinforge.tabular import mixture
from twinforge.tabular.mixture import (
    _LOG_2PI,
    EM_MAX_ITER,
    EM_TOL,
    ModeNormalizer,
    _kmeanspp_centers,
    fit_mode_normalizer,
)


def test_constant_column_degenerates_to_floor():
    norm = fit_mode_normalizer([5.0] * 40, seed=3)
    assert norm.n_modes == 1
    assert norm.means[0] == pytest.approx(5.0, abs=1e-12)
    assert norm.stdevs[0] == norm.stdev_floor == 1e-6  # zero range falls back to 1.0 scale


def test_two_mode_recovery():
    rng = np.random.default_rng(7)
    draws = np.concatenate([rng.normal(0.0, 1.0, 250), rng.normal(10.0, 1.0, 250)])
    norm = fit_mode_normalizer(draws, seed=5)
    assert norm.n_modes == 2
    means = sorted(norm.means)
    assert abs(means[0] - 0.0) < 0.3
    assert abs(means[1] - 10.0) < 0.3
    assert min(norm.weights) > 0.3


def test_bic_prefers_single_mode_on_unimodal_data():
    rng = np.random.default_rng(19)
    draws = rng.normal(0.0, 1.0, 500)
    norm = fit_mode_normalizer(draws, max_modes=2, seed=5)
    assert norm.n_modes == 1


def test_loglik_never_decreases():
    rng = np.random.default_rng(23)
    for sample in (
        rng.normal(0, 1, 200),
        np.concatenate([rng.normal(0, 0.1, 100), rng.normal(4, 0.5, 100)]),
        rng.uniform(0, 1, 150),
        np.repeat([1.0, 2.0, 3.0], 30),
    ):
        norm = fit_mode_normalizer(sample, seed=1)
        diffs = np.diff(norm.em_loglik)
        assert (diffs >= -1e-9).all()


def test_too_few_values():
    with pytest.raises(TooFewValues):
        fit_mode_normalizer([1.0])


def test_determinism():
    rng = np.random.default_rng(2)
    draws = rng.normal(3.0, 2.0, 300)
    a = fit_mode_normalizer(draws, seed=9)
    b = fit_mode_normalizer(draws, seed=9)
    assert a == b


def test_responsibilities_are_a_distribution():
    rng = np.random.default_rng(4)
    draws = np.concatenate([rng.normal(-2, 0.5, 100), rng.normal(2, 0.5, 100)])
    norm = fit_mode_normalizer(draws, seed=0)
    resp = norm.responsibilities(draws)
    assert resp.shape == (200, norm.n_modes)
    assert np.allclose(resp.sum(axis=1), 1.0)
    assert (resp >= 0).all()


def test_validation():
    with pytest.raises(ValueError):
        ModeNormalizer((0.5, 0.6), (0.0, 1.0), (1.0, 1.0), 1e-6)
    with pytest.raises(ValueError):
        ModeNormalizer((1.0,), (0.0,), (0.0,), 1e-6)


# -- reference EM ----------------------------------------------------------
# The (values x modes) EM that the (modes x values) fit replaced. The fit must
# reproduce it bit for bit: the model bytes depend on every rounding.


def _reference_shifted_density(values, weights, means, stdevs):
    x = np.asarray(values, dtype=float)[:, None]
    mu, sd = np.asarray(means)[None, :], np.asarray(stdevs)[None, :]
    logp = -0.5 * ((x - mu) / sd) ** 2 - np.log(sd) - 0.5 * _LOG_2PI + np.log(weights)[None, :]
    shift = logp.max(axis=1, keepdims=True)
    return np.exp(logp - shift), shift


def _reference_run_em(values, k, floor, rng, dead_mode_iterations=None):
    n = values.size
    weights = np.full(k, 1.0 / k)
    means = _kmeanspp_centers(values, k, rng)
    stdevs = np.full(k, max(float(values.std()), floor))

    accepted = (weights, means, stdevs)
    trajectory = []
    for iteration in range(EM_MAX_ITER):
        expp, shift = _reference_shifted_density(values, weights, means, stdevs)
        ll = float((shift[:, 0] + np.log(expp.sum(axis=1))).sum())
        if trajectory and ll < trajectory[-1]:
            break
        converged = bool(trajectory) and (ll - trajectory[-1] < EM_TOL)
        trajectory.append(ll)
        accepted = (weights.copy(), means.copy(), stdevs.copy())
        if converged:
            break

        resp = expp / expp.sum(axis=1, keepdims=True)
        mass = resp.sum(axis=0)
        alive = mass > 1e-10
        if dead_mode_iterations is not None and not alive.all():
            dead_mode_iterations.append(iteration)
        new_means = means.copy()
        new_stdevs = stdevs.copy()
        new_means[alive] = (resp[:, alive] * values[:, None]).sum(axis=0) / mass[alive]
        var = (resp[:, alive] * (values[:, None] - new_means[None, alive]) ** 2).sum(axis=0) / mass[alive]
        new_stdevs[alive] = np.maximum(np.sqrt(var), floor)
        weights = np.maximum(mass / n, 1e-12)
        weights = weights / weights.sum()
        means, stdevs = new_means, new_stdevs

    return accepted[0], accepted[1], accepted[2], trajectory


def _reference_fit(values, max_modes, seed, monkeypatch, dead_mode_iterations=None):
    with monkeypatch.context() as patch:
        patch.setattr(
            mixture,
            "_run_em",
            lambda v, k, floor, rng: _reference_run_em(v, k, floor, rng, dead_mode_iterations),
        )
        return fit_mode_normalizer(values, max_modes=max_modes, seed=seed)


def _seeded_column(i: int) -> np.ndarray:
    rng = np.random.default_rng([31, i])
    modes = 1 + i % 5
    means = rng.uniform(-50.0, 50.0, modes)
    scales = 10.0 ** rng.uniform(-2.0, 1.0, modes)
    labels = rng.integers(modes, size=int(rng.integers(30, 600)))
    return rng.normal(means[labels], scales[labels])


def _assert_candidates_match(values, max_modes, seed):
    floor = mixture.STDEV_FLOOR_SCALE * (float(np.ptp(values)) or 1.0)
    for k in range(1, max_modes + 1):
        got = mixture._run_em(values, k, floor, np.random.default_rng([seed, k]))
        want = _reference_run_em(values, k, floor, np.random.default_rng([seed, k]))
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        assert got[3] == want[3]


@pytest.mark.parametrize("i", range(45))
def test_fit_matches_the_reference_em_bit_for_bit(i, monkeypatch):
    values = _seeded_column(i)
    max_modes = 5 if i % 3 else 1 + i % 5
    fit = fit_mode_normalizer(values, max_modes=max_modes, seed=i)
    assert fit == _reference_fit(values, max_modes, i, monkeypatch)
    _assert_candidates_match(values, max_modes, seed=i)


def test_constant_column_matches_the_reference_em(monkeypatch):
    values = np.full(40, 5.0)
    assert fit_mode_normalizer(values, seed=3) == _reference_fit(values, 5, 3, monkeypatch)
    _assert_candidates_match(values, 5, seed=3)


def test_dead_mode_branch_matches_the_reference_em(monkeypatch):
    # three isolated values beside a spike: one of four modes loses all its mass
    values = np.array([0.0] * 35 + [7.5, 8.8, 9.1])
    dead_mode_iterations: list[int] = []
    reference = _reference_fit(values, 4, 5, monkeypatch, dead_mode_iterations)
    assert dead_mode_iterations, "the column no longer starves a mode"
    assert fit_mode_normalizer(values, max_modes=4, seed=5) == reference
    _assert_candidates_match(values, 4, seed=5)
