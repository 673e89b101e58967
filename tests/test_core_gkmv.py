"""Unit tests for the G-KMV-style threshold sketch."""

import math

import numpy as np
import pytest

from repro.core.gkmv import ThresholdSketch
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.hashing import KeyHasher


def test_threshold_validation():
    with pytest.raises(ValueError, match="threshold"):
        ThresholdSketch(0.0)
    with pytest.raises(ValueError, match="threshold"):
        ThresholdSketch(1.5)
    with pytest.raises(ValueError, match="unknown aggregate"):
        ThresholdSketch(0.5, aggregate="median")


def test_size_proportional_to_threshold():
    n_keys = 20_000
    sketch = ThresholdSketch(0.05)
    for i in range(n_keys):
        sketch.update(f"k{i}", 0.0)
    # Expect ~ tau * D = 1000 retained keys.
    assert 800 <= len(sketch) <= 1200


def test_retained_keys_below_threshold():
    sketch = ThresholdSketch(0.1)
    for i in range(2000):
        sketch.update(f"k{i}", 1.0)
    for kh in sketch.key_hashes():
        assert sketch.hasher.unit_hash_of_key_hash(kh) < 0.1


def test_distinct_keys_estimate():
    sketch = ThresholdSketch(0.1)
    for i in range(30_000):
        sketch.update(f"k{i}", 1.0)
    assert abs(sketch.distinct_keys() - 30_000) / 30_000 < 0.1


def test_repeated_keys_aggregate():
    sketch = ThresholdSketch(1.0, aggregate="mean")
    sketch.update("a", 2.0)
    sketch.update("a", 4.0)
    assert sketch.entries()[sketch.hasher.key_hash("a")] == 3.0


def test_saw_all_keys_only_at_full_threshold():
    assert ThresholdSketch(1.0).saw_all_keys
    assert not ThresholdSketch(0.5).saw_all_keys


def test_nan_value_retains_key():
    sketch = ThresholdSketch(1.0)
    sketch.update("a", math.nan)
    assert len(sketch) == 1
    assert math.isnan(sketch.entries()[sketch.hasher.key_hash("a")])


def test_joins_with_fixed_size_sketch():
    """Duck-typed join between threshold and bottom-n sketches works and
    both select by the same h_u, so the overlap is non-trivial."""
    rng = np.random.default_rng(0)
    n = 5000
    keys = [f"k{i}" for i in range(n)]
    x = rng.standard_normal(n)
    y = 0.8 * x + 0.6 * rng.standard_normal(n)
    hasher = KeyHasher()

    fixed = CorrelationSketch.from_columns(keys, x, 256, hasher=hasher)
    threshold = ThresholdSketch(256 / n, hasher=hasher)
    threshold.update_all(zip(keys, y))

    sample = join_pair(fixed, threshold).samples[0]
    assert sample.size > 50
    assert pearson(sample.x, sample.y) == pytest.approx(0.8, abs=0.2)


def test_two_threshold_sketches_estimate_correlation():
    rng = np.random.default_rng(1)
    n = 10_000
    keys = [f"k{i}" for i in range(n)]
    x = rng.standard_normal(n)
    y = -0.7 * x + math.sqrt(1 - 0.49) * rng.standard_normal(n)
    hasher = KeyHasher()

    a = ThresholdSketch(0.03, hasher=hasher)
    a.update_all(zip(keys, x))
    b = ThresholdSketch(0.03, hasher=hasher)
    b.update_all(zip(keys, y))

    # Key coordination: same threshold + same hasher -> identical key sets.
    assert a.key_hashes() == b.key_hashes()
    sample = join_pair(a, b).samples[0]
    assert pearson(sample.x, sample.y) == pytest.approx(-0.7, abs=0.12)


def test_value_range_tracked():
    sketch = ThresholdSketch(0.5)
    sketch.update("a", -2.0)
    sketch.update("b", 9.0)
    assert sketch.value_min == -2.0
    assert sketch.value_max == 9.0
