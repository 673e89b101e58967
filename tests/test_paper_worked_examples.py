"""Structural reproduction of the paper's worked examples (Figures 1–2).

The hash values in Figure 2 are illustrative, but everything structural
about the example is testable: sketch size 3 with mean aggregation over
table T_Y collapses the repeated 2021-01/02/03 keys, the sketch retains
the 3 keys with minimum h_u, the joined sketch aligns values by key hash,
and the unit hash never needs storing because it derives from h(k).
"""

import numpy as np
import pytest

from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.table.join import join_columns

# Figure 1 input tables.
TX_KEYS = ["2021-01", "2021-02", "2021-03", "2021-04", "2021-05", "2021-06", "2021-07"]
TX_VALS = [6.0, 4.0, 2.0, 3.0, 0.5, 4.0, 2.0]
TY_KEYS = ["2021-01", "2021-01", "2021-02", "2021-02", "2021-03", "2021-03", "2021-04"]
TY_VALS = [5.5, 4.5, 3.9, 2.0, 4.0, 1.0, 4.0]

#: Mean-aggregated T_Y values per distinct key (Figure 1's aggregation,
#: unrounded: the paper displays 2.95 as 3.0).
TY_AGGREGATED = {"2021-01": 5.0, "2021-02": 2.95, "2021-03": 2.5, "2021-04": 4.0}


def _sketches(n=3):
    left = CorrelationSketch.from_columns(TX_KEYS, TX_VALS, n, aggregate="mean")
    right = CorrelationSketch.from_columns(TY_KEYS, TY_VALS, n, aggregate="mean")
    return left, right


def test_sketch_sizes_match_figure2():
    left, right = _sketches()
    assert len(left) == 3
    assert len(right) == 3


def test_left_sketch_keeps_three_minimum_hash_keys():
    left, _ = _sketches()
    hasher = left.hasher
    expected = sorted(TX_KEYS, key=lambda k: hasher.hash(k).unit_hash)[:3]
    assert left.key_hashes() == {hasher.key_hash(k) for k in expected}


def test_right_sketch_aggregates_repeated_keys_with_mean():
    _, right = _sketches(n=4)  # keep all 4 distinct keys of T_Y
    hasher = right.hasher
    for key, expected in TY_AGGREGATED.items():
        assert right.entries()[hasher.key_hash(key)] == pytest.approx(expected)


def test_joined_sketch_aligns_values_by_key():
    """Every pair in L_{X⋈Y} must match the corresponding row of the
    full aggregated join T_{X⋈Y} (Figure 1, right table)."""
    left, right = _sketches(n=4)
    sample = join_pair(left, right).samples[0]
    assert sample.size >= 1
    hasher = left.hasher
    truth = {
        hasher.key_hash(k): (x, TY_AGGREGATED[k])
        for k, x in zip(TX_KEYS, TX_VALS)
        if k in TY_AGGREGATED
    }
    for kh, x, y in zip(sample.key_hashes, sample.x, sample.y):
        expected_x, expected_y = truth[int(kh)]
        assert x == pytest.approx(expected_x)
        assert y == pytest.approx(expected_y)


def test_sketch_join_is_subset_of_full_join():
    left, right = _sketches(n=3)
    sample = join_pair(left, right).samples[0]
    full = join_columns(TX_KEYS, np.array(TX_VALS), TY_KEYS, np.array(TY_VALS))
    full_pairs = set(zip(full.x.tolist(), full.y.tolist()))
    sample_pairs = set(zip(sample.x.tolist(), sample.y.tolist()))
    assert sample_pairs <= full_pairs


def test_unit_hash_is_not_stored_but_derivable():
    """Figure 2's note: the h_u(k) column need not be stored."""
    left, _ = _sketches()
    payload = left.to_dict()
    # Serialized entries are (key_hash, value) pairs only.
    assert all(len(entry) == 2 for entry in payload["entries"])
    clone = CorrelationSketch.from_dict(payload)
    for kh, unit, _value in clone.items():
        assert unit == clone.hasher.unit_hash_of_key_hash(kh)
