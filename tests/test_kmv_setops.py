"""Unit tests for the KMV set-operation estimates of a sketch pair
(union, ∩, Jaccard, containment, join size): ``set_estimates``.

The row-at-a-time synopsis these behaviours were first pinned on is
``kmv_synopsis_oracle``; ``test_core_set_estimates.py`` holds
``set_estimates`` to it.
"""

import numpy as np
import pytest

from repro.core.estimation import estimate, set_estimates
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher


def _sketch(keys, n, hasher=None):
    keys = list(keys)
    return CorrelationSketch.from_columns(keys, np.zeros(len(keys)), n, hasher=hasher)


def _sketches(n_a, n_b, n_shared, n=256):
    shared = [f"shared-{i}" for i in range(n_shared)]
    only_a = [f"a-{i}" for i in range(n_a - n_shared)]
    only_b = [f"b-{i}" for i in range(n_b - n_shared)]
    return _sketch(shared + only_a, n), _sketch(shared + only_b, n)


def test_incompatible_hashers_rejected():
    a = _sketch(["x"], 4, hasher=KeyHasher(seed=1))
    b = _sketch(["x"], 4, hasher=KeyHasher(seed=2))
    with pytest.raises(ValueError, match="hashing schemes"):
        set_estimates(a, b)


def test_exact_when_small():
    sets = set_estimates(_sketch(["a", "b", "c"], 64), _sketch(["b", "c", "d", "e"], 64))
    assert sets.exact
    assert sets.union == 5.0
    assert sets.intersection == 2.0
    assert sets.jaccard == pytest.approx(2.0 / 5.0)
    assert sets.containment == pytest.approx(2.0 / 3.0)


def test_union_estimate_large():
    est = set_estimates(*_sketches(20_000, 20_000, 10_000)).union
    true = 30_000
    assert abs(est - true) / true < 0.15


def test_intersection_estimate_large():
    est = set_estimates(*_sketches(20_000, 20_000, 10_000)).intersection
    assert abs(est - 10_000) / 10_000 < 0.3


def test_jaccard_estimate_large():
    true_j = 5_000 / 25_000
    assert abs(set_estimates(*_sketches(15_000, 15_000, 5_000)).jaccard - true_j) < 0.1


def test_containment_estimate_large():
    true_c = 8_000 / 10_000
    est = set_estimates(*_sketches(10_000, 40_000, 8_000)).containment
    assert abs(est - true_c) < 0.2


def test_containment_clipped_to_unit_interval():
    assert 0.0 <= set_estimates(*_sketches(5_000, 5_000, 5_000)).containment <= 1.0


def test_disjoint_sets():
    a = _sketch((f"a{i}" for i in range(5000)), 128)
    b = _sketch((f"b{i}" for i in range(5000)), 128)
    sets = set_estimates(a, b)
    assert sets.intersection == pytest.approx(0.0)
    assert sets.jaccard == pytest.approx(0.0)


def test_empty_synopses():
    sets = set_estimates(_sketch([], 16), _sketch([], 16))
    assert sets.union == 0.0
    assert sets.intersection == 0.0
    assert sets.jaccard == 0.0
    assert sets.containment == 0.0


def test_join_size_equals_intersection():
    a, b = _sketches(8_000, 8_000, 4_000)
    assert estimate(a, b).join_size_est == set_estimates(a, b).intersection


def test_merge_uses_min_k():
    a = _sketch((f"k{i}" for i in range(10_000)), 64)
    b = _sketch((f"k{i}" for i in range(10_000)), 256)
    assert set_estimates(a, b).k == 64


def test_merge_intersection_count_identical_sets():
    keys = [f"k{i}" for i in range(10_000)]
    sets = set_estimates(_sketch(keys, 128), _sketch(keys, 128))
    # Identical key sets: every combined hash appears in both sketches.
    assert sets.k_inter == sets.k
