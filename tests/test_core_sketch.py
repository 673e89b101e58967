"""Unit tests for CorrelationSketch construction and introspection."""

import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher


def _sketch_from(keys, values, n=16, **kwargs):
    return CorrelationSketch.from_columns(list(keys), list(values), n, **kwargs)


def test_invalid_size_rejected():
    with pytest.raises(ValueError, match="positive"):
        CorrelationSketch(0)


def test_invalid_aggregate_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown aggregate"):
        CorrelationSketch(8, aggregate="mode")


def test_mismatched_columns_rejected():
    with pytest.raises(ValueError, match="rows"):
        CorrelationSketch.from_columns(["a"], [1.0, 2.0], 8)


def test_small_input_fully_retained():
    sketch = _sketch_from(["a", "b", "c"], [1.0, 2.0, 3.0])
    assert len(sketch) == 3
    assert sketch.saw_all_keys
    assert sketch.rows_seen == 3


def test_capacity_respected():
    keys = [f"k{i}" for i in range(1000)]
    sketch = _sketch_from(keys, np.arange(1000.0), n=32)
    assert len(sketch) == 32
    assert not sketch.saw_all_keys


def test_retains_minimum_unit_hash_keys():
    """The sketch must contain exactly the bottom-n keys by g(k)."""
    keys = [f"k{i}" for i in range(500)]
    sketch = _sketch_from(keys, np.zeros(500), n=20)
    hasher = sketch.hasher
    expected = sorted(keys, key=lambda k: hasher.hash(k).unit_hash)[:20]
    expected_hashes = {hasher.key_hash(k) for k in expected}
    assert sketch.key_hashes() == expected_hashes


def test_repeated_keys_aggregate_mean():
    sketch = _sketch_from(
        ["2021-01", "2021-01", "2021-02"], [5.5, 4.5, 3.0], aggregate="mean"
    )
    entries = sketch.entries()
    h = sketch.hasher.key_hash("2021-01")
    assert entries[h] == 5.0


def test_repeated_keys_aggregate_sum():
    sketch = _sketch_from(["a", "a", "b"], [1.0, 2.0, 10.0], aggregate="sum")
    assert sketch.entries()[sketch.hasher.key_hash("a")] == 3.0


def test_aggregation_applies_to_retained_keys_only_after_overflow():
    """Values for a retained key keep aggregating after the sketch fills."""
    keys = [f"k{i}" for i in range(100)]
    sketch = _sketch_from(keys, np.ones(100), n=10, aggregate="sum")
    retained_before = dict(sketch.entries())
    # Send another round of values for every key; only retained keys change.
    sketch.update_array(keys, np.ones(100))
    for kh, value in sketch.entries().items():
        assert value == retained_before[kh] + 1.0


def test_value_range_tracked_globally():
    sketch = _sketch_from([f"k{i}" for i in range(50)], np.linspace(-3, 7, 50), n=4)
    assert sketch.value_min == -3.0
    assert sketch.value_max == 7.0
    assert sketch.value_range == 10.0


def test_value_range_ignores_nan():
    sketch = _sketch_from(["a", "b", "c"], [1.0, math.nan, 5.0])
    assert sketch.value_min == 1.0
    assert sketch.value_max == 5.0


def test_empty_sketch_range_zero():
    assert CorrelationSketch(4).value_range == 0.0


def test_nan_value_key_still_counts_for_joinability():
    sketch = _sketch_from(["a", "b"], [math.nan, 2.0])
    assert len(sketch) == 2
    h = sketch.hasher.key_hash("a")
    assert math.isnan(sketch.entries()[h])


def test_items_sorted_by_unit_hash():
    sketch = _sketch_from([f"k{i}" for i in range(100)], np.ones(100), n=16)
    units = [u for _kh, u, _v in sketch.items()]
    assert units == sorted(units)
    assert sketch.kth_unit_value() == units[-1]


def test_distinct_keys_exact_small():
    sketch = _sketch_from(["a", "b", "a", "c"], [1, 2, 3, 4])
    assert sketch.distinct_keys() == 3.0


def test_distinct_keys_estimate_large():
    keys = [f"k{i}" for i in range(30_000)]
    sketch = _sketch_from(keys, np.zeros(30_000), n=512)
    est = sketch.distinct_keys()
    assert abs(est - 30_000) / 30_000 < 0.15


def test_repr_mentions_name_and_size():
    sketch = _sketch_from(["a"], [1.0], name="tbl::k->v")
    assert "tbl::k->v" in repr(sketch)
    assert "n=16" in repr(sketch)


class TestSerialization:
    def test_round_trip_preserves_entries(self):
        keys = [f"k{i}" for i in range(200)]
        sketch = _sketch_from(keys, np.arange(200.0), n=32, name="s")
        clone = CorrelationSketch.from_dict(sketch.to_dict())
        assert clone.entries() == sketch.entries()
        assert clone.key_hashes() == sketch.key_hashes()
        assert clone.n == sketch.n
        assert clone.value_min == sketch.value_min
        assert clone.value_max == sketch.value_max
        assert clone.saw_all_keys == sketch.saw_all_keys
        assert clone.name == "s"

    def test_round_trip_is_json_safe(self):
        import json

        sketch = _sketch_from(["a", "b"], [1.0, 2.0])
        payload = json.loads(json.dumps(sketch.to_dict()))
        clone = CorrelationSketch.from_dict(payload)
        assert clone.entries() == sketch.entries()

    def test_round_trip_empty_range(self):
        sketch = CorrelationSketch(4)
        clone = CorrelationSketch.from_dict(sketch.to_dict())
        assert clone.value_range == 0.0

    def test_custom_hasher_round_trip(self):
        sketch = _sketch_from(["a"], [1.0], n=4, hasher=KeyHasher(bits=64, seed=3))
        clone = CorrelationSketch.from_dict(sketch.to_dict())
        assert clone.hasher.scheme_id == (64, 3)


# -- rehydrated sketches are read-only ----------------------------------------

AGGREGATES = ("mean", "sum", "max", "min", "first", "last", "count")


def _from_dict(sketch, tmp_path):
    return CorrelationSketch.from_dict(sketch.to_dict())


def _from_frozen_arrays(sketch, tmp_path):
    columns = sketch.columnar()
    return CorrelationSketch.from_frozen_arrays(
        columns.key_hashes,
        columns.values,
        n=sketch.n,
        aggregate=sketch.aggregate,
        hasher=sketch.hasher,
        rows_seen=sketch.rows_seen,
        value_min=sketch.value_min,
        value_max=sketch.value_max,
    )


def _from_arena(sketch, tmp_path):
    from repro.index.catalog import SketchCatalog

    catalog = SketchCatalog(
        sketch_size=sketch.n, aggregate=sketch.aggregate, hasher=sketch.hasher
    )
    catalog.add_sketch("s", sketch)
    catalog.save(tmp_path / "c.arena")
    return SketchCatalog.load(tmp_path / "c.arena").get("s")


@pytest.mark.parametrize("rehydrate", [_from_dict, _from_frozen_arrays, _from_arena])
@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("rows", [[("a", 1.0), ("b", 3.0), ("a", 3.0)], []])
def test_rehydrated_sketch_rejects_updates(rows, aggregate, rehydrate, tmp_path):
    """No format persists aggregator state, so a rehydrated sketch (an
    empty one included) cannot fold further rows into its values: every
    update refuses, an empty batch included, and reads are untouched.
    (Before, six of seven aggregates crashed in ``update_array``.)"""
    built = _sketch_from(
        [k for k, _ in rows], [v for _, v in rows], n=8, aggregate=aggregate
    )
    sketch = rehydrate(built, tmp_path)
    before = sketch.to_dict()
    for update in (
        lambda: sketch.update_array(["a", "c", "c"], [10.0, 5.0, 7.0]),
        lambda: sketch.update_array([], []),
    ):
        with pytest.raises(ValueError, match="frozen for estimation"):
            update()
    assert repr(sketch.to_dict()) == repr(before)
    assert sketch.entries() == built.entries()
    assert sketch.rows_seen == len(rows)
    assert len(sketch) == len(built)
