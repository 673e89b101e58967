"""Statistical validation of Theorem 1.

Theorem 1 claims the sketch join is a *uniform random sample* of the
joined table. These tests check the operational consequences:

1. the sketch-join key set equals the bottom-m joint keys by ``g(k)``
   (the structural fact the proof rests on);
2. over many independent hashing schemes, each joint key is included in
   the sketch join approximately equally often (uniform inclusion);
3. sample means over the sketch join are unbiased estimates of the joined
   column mean.
"""

import numpy as np
import pytest

from repro.core.joined_sample import join_sketches
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher


def _build_pair(keys_x, keys_y, n, seed):
    hasher = KeyHasher(seed=seed)
    left = CorrelationSketch.from_columns(
        keys_x, np.arange(len(keys_x), dtype=float), n, hasher=hasher
    )
    right = CorrelationSketch.from_columns(
        keys_y, np.arange(len(keys_y), dtype=float), n, hasher=hasher
    )
    return left, right


def test_join_keys_are_bottom_ranked_joint_keys():
    """L_X ∩ L_Y == the m smallest g(k) among joint keys, m = |L_X ∩ L_Y|."""
    rng = np.random.default_rng(0)
    universe = [f"k{i}" for i in range(3000)]
    keys_x = [k for k in universe if rng.uniform() < 0.7]
    keys_y = [k for k in universe if rng.uniform() < 0.7]
    joint = sorted(set(keys_x) & set(keys_y))

    left, right = _build_pair(keys_x, keys_y, n=100, seed=1)
    sample = join_sketches(left, right)
    got = set(int(kh) for kh in sample.key_hashes)

    hasher = KeyHasher(seed=1)
    ranked = sorted(joint, key=lambda k: hasher.hash(k).unit_hash)
    expected = {hasher.key_hash(k) for k in ranked[: sample.size]}
    assert got == expected
    assert sample.size > 0


def test_inclusion_is_uniform_across_hash_seeds():
    """Each joint key should appear in the sketch join with roughly equal
    frequency over independent hashing schemes."""
    n_keys = 400
    sketch_n = 100
    keys = [f"k{i}" for i in range(n_keys)]
    trials = 120
    counts = {k: 0 for k in keys}
    for seed in range(trials):
        left, right = _build_pair(keys, keys, n=sketch_n, seed=seed)
        sample = join_sketches(left, right)
        hasher = KeyHasher(seed=seed)
        included = set(int(kh) for kh in sample.key_hashes)
        for k in keys:
            if hasher.key_hash(k) in included:
                counts[k] += 1
    # Expected inclusion probability = sketch_n / n_keys = 0.25.
    freqs = np.array([c / trials for c in counts.values()])
    assert abs(float(freqs.mean()) - sketch_n / n_keys) < 0.02
    # No key should be systematically favoured: binomial(120, .25) has
    # std ~ 0.04, so ±5 std is a generous uniformity band.
    assert float(freqs.max()) < 0.25 + 5 * 0.04
    assert float(freqs.min()) > 0.25 - 5 * 0.04


def test_sample_mean_is_unbiased():
    """Averaging x over the sketch join estimates the joined-column mean."""
    rng = np.random.default_rng(5)
    n_keys = 2000
    keys = [f"k{i}" for i in range(n_keys)]
    values = rng.exponential(size=n_keys)  # skewed on purpose
    true_mean = float(values.mean())

    estimates = []
    for seed in range(60):
        hasher = KeyHasher(seed=seed)
        left = CorrelationSketch.from_columns(keys, values, 150, hasher=hasher)
        right = CorrelationSketch.from_columns(
            keys, np.zeros(n_keys), 150, hasher=hasher
        )
        sample = join_sketches(left, right)
        estimates.append(float(sample.x.mean()))
    bias = float(np.mean(estimates)) - true_mean
    # Standard error of the mean-of-means ~ sigma/sqrt(150*60) ~ 0.01.
    assert abs(bias) < 0.04


def test_correlation_estimates_unbiased_over_seeds():
    """The mean sketch estimate over many hashing schemes must approach
    the full-join correlation (no systematic bias)."""
    rng = np.random.default_rng(7)
    n_keys = 3000
    keys = [f"k{i}" for i in range(n_keys)]
    x = rng.standard_normal(n_keys)
    y = 0.6 * x + 0.8 * rng.standard_normal(n_keys)
    true_r = float(np.corrcoef(x, y)[0, 1])

    from repro.correlation.pearson import pearson

    estimates = []
    for seed in range(40):
        hasher = KeyHasher(seed=seed)
        left = CorrelationSketch.from_columns(keys, x, 128, hasher=hasher)
        right = CorrelationSketch.from_columns(keys, y, 128, hasher=hasher)
        sample = join_sketches(left, right)
        estimates.append(pearson(sample.x, sample.y))
    assert float(np.mean(estimates)) == pytest.approx(true_r, abs=0.03)
