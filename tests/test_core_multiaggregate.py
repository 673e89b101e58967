"""Unit tests for MultiAggregateSketch."""

import math

import numpy as np
import pytest

from repro.core.joined_sample import join_pair
from repro.core.multiaggregate import MultiAggregateSketch
from repro.core.sketch import CorrelationSketch
from test_ingest_parity import assert_full_state_equal


def test_validation():
    with pytest.raises(ValueError, match="positive"):
        MultiAggregateSketch(0, ["mean"])
    with pytest.raises(ValueError, match="at least one"):
        MultiAggregateSketch(4, [])
    with pytest.raises(ValueError, match="duplicate"):
        MultiAggregateSketch(4, ["mean", "mean"])
    with pytest.raises(ValueError, match="unknown aggregate"):
        MultiAggregateSketch(4, ["median"])


def test_views_match_single_aggregate_sketches():
    """Every per-function view must equal, in full state, a sketch built
    with only that aggregate — one pass (here in three batches) replaces
    len(aggregates) passes."""
    rng = np.random.default_rng(0)
    n_rows = 3000
    keys = [f"k{i % 700}" for i in range(n_rows)]  # repeated keys
    values = rng.standard_normal(n_rows)
    values[::13] = math.nan

    multi = MultiAggregateSketch(64, ["mean", "max", "count"], name="m")
    for lo, hi in ((0, 1000), (1000, 1001), (1001, n_rows)):
        multi.update_array(keys[lo:hi], values[lo:hi])
    assert multi.rows_seen == n_rows and len(multi) == 64

    for agg in ("mean", "max", "count"):
        direct = CorrelationSketch.from_columns(
            keys, values, 64, aggregate=agg, name=f"m:{agg}"
        )
        assert_full_state_equal(multi.view(agg), direct)


def test_unknown_view():
    multi = MultiAggregateSketch(4, ["mean"])
    with pytest.raises(KeyError, match="not tracked"):
        multi.view("sum")


def test_view_names():
    multi = MultiAggregateSketch(4, ["mean", "sum"], name="pair")
    assert multi.view("mean").name == "pair:mean"
    assert multi.view("sum").name == "pair:sum"


def test_views_joinable():
    rng = np.random.default_rng(1)
    n = 1500
    keys = [f"k{i}" for i in range(n)]
    x = rng.standard_normal(n)
    multi = MultiAggregateSketch(64, ["mean", "last"])
    multi.update_array(keys, x)
    other = CorrelationSketch.from_columns(keys, 2 * x, 64)
    sample = join_pair(multi.view("mean"), other).samples[0]
    assert sample.size > 0
    assert np.allclose(sample.y, 2 * sample.x)


def test_overflow_state_propagated():
    multi = MultiAggregateSketch(4, ["mean"])
    multi.update_array([f"k{i}" for i in range(100)], np.ones(100))
    assert not multi.saw_all_keys
    assert not multi.view("mean").saw_all_keys


def test_nan_handling():
    multi = MultiAggregateSketch(8, ["mean", "count"])
    multi.update_array(["a", "a"], [math.nan, 4.0])
    h = multi.hasher.key_hash("a")
    assert multi.view("mean").entries()[h] == 4.0
    assert multi.view("count").entries()[h] == 2.0  # NaN occurrences count
