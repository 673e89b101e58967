"""Unit tests for sketch joins and JoinedSample (Theorem 1 machinery).

A pair joins as a page of one (``join_pair``); the dict-set pair join,
``drop_nan`` and ``combined_range`` are the oracle's
(``sketch_join_oracle``)."""

import math

import numpy as np
import pytest

from repro.core.joined_sample import JoinedSample, join_pair
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher

from sketch_join_oracle import combined_range, drop_nan, join_sketches


def _sketch(keys, values, n=64, **kwargs):
    return CorrelationSketch.from_columns(list(keys), list(values), n, **kwargs)


def _join(a, b):
    return join_pair(a, b).samples[0]


def test_join_requires_same_scheme():
    a = _sketch(["x"], [1.0], hasher=KeyHasher(seed=1))
    b = _sketch(["x"], [1.0], hasher=KeyHasher(seed=2))
    with pytest.raises(ValueError, match="hashing schemes"):
        join_pair(a, b)


def test_identical_keys_full_overlap():
    keys = [f"k{i}" for i in range(30)]
    a = _sketch(keys, np.arange(30.0))
    b = _sketch(keys, np.arange(30.0) * 2)
    sample = _join(a, b)
    assert sample.size == 30
    # Alignment: y must be exactly 2x for every pair.
    assert np.allclose(sample.y, 2 * sample.x)


def test_disjoint_keys_empty_join():
    a = _sketch([f"a{i}" for i in range(20)], np.ones(20))
    b = _sketch([f"b{i}" for i in range(20)], np.ones(20))
    sample = _join(a, b)
    assert sample.size == 0
    assert len(sample) == 0


def test_partial_overlap_alignment():
    a = _sketch(["a", "b", "c", "d"], [1.0, 2.0, 3.0, 4.0])
    b = _sketch(["c", "d", "e"], [30.0, 40.0, 50.0])
    sample = _join(a, b)
    assert sample.size == 2
    pairs = set(zip(sample.x.tolist(), sample.y.tolist()))
    assert pairs == {(3.0, 30.0), (4.0, 40.0)}


def test_join_extreme_dependence_beats_uniform_sampling():
    """Section 3.1's motivating example: same key universe, sketch size n
    ≪ N must still produce overlap ≈ n (uniform sampling would give
    ~n²/N ≈ 1)."""
    n_keys = 10_000
    keys = [f"k{i}" for i in range(n_keys)]
    a = _sketch(keys, np.zeros(n_keys), n=100)
    b = _sketch(keys, np.zeros(n_keys), n=100)
    sample = _join(a, b)
    assert sample.size == 100  # maximum possible


def test_key_hashes_ascending_by_rank():
    keys = [f"k{i}" for i in range(500)]
    a = _sketch(keys, np.zeros(500), n=50)
    b = _sketch(keys, np.zeros(500), n=50)
    sample = _join(a, b)
    units = [a.hasher.unit_hash_of_key_hash(int(kh)) for kh in sample.key_hashes]
    assert units == sorted(units)


def test_ranges_carried_from_sketches():
    a = _sketch(["a", "b"], [-5.0, 10.0])
    b = _sketch(["a", "b"], [0.0, 2.0])
    sample = _join(a, b)
    assert sample.x_range == (-5.0, 10.0)
    assert sample.y_range == (0.0, 2.0)
    assert combined_range(sample) == (-5.0, 10.0)
    lows, highs = join_pair(a, b).samples.combined_ranges()
    assert (lows.tolist(), highs.tolist()) == ([-5.0], [10.0])


def test_combined_range_with_unknown_side():
    sample = JoinedSample(
        key_hashes=np.array([], dtype=np.uint64),
        x=np.array([]),
        y=np.array([]),
        x_range=(math.nan, math.nan),
        y_range=(0.0, 1.0),
    )
    assert combined_range(sample) == (0.0, 1.0)


def test_combined_range_all_unknown():
    sample = JoinedSample(
        key_hashes=np.array([], dtype=np.uint64),
        x=np.array([]),
        y=np.array([]),
    )
    lo, hi = combined_range(sample)
    assert math.isnan(lo) and math.isnan(hi)


def test_drop_nan_filters_pairs():
    sample = JoinedSample(
        key_hashes=np.array([1, 2, 3, 4], dtype=np.uint64),
        x=np.array([1.0, math.nan, 3.0, 4.0]),
        y=np.array([1.0, 2.0, math.nan, 4.0]),
    )
    clean = drop_nan(sample)
    assert clean.size == 2
    assert clean.x.tolist() == [1.0, 4.0]
    assert clean.key_hashes.tolist() == [1, 4]


def test_drop_nan_no_copies_when_clean():
    sample = JoinedSample(
        key_hashes=np.array([1], dtype=np.uint64),
        x=np.array([1.0]),
        y=np.array([2.0]),
    )
    assert drop_nan(sample) is sample


def test_missing_values_flow_through_join_as_nan():
    a = _sketch(["a", "b"], [math.nan, 2.0])
    b = _sketch(["a", "b"], [1.0, 3.0])
    sample = join_sketches(a, b)
    assert sample.size == 2
    assert drop_nan(sample).size == 1
    joined = join_pair(a, b)
    assert joined.samples[0].size == 1
    assert joined.overlaps.tolist() == [2]
