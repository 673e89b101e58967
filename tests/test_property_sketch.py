"""Property-based tests (hypothesis) for sketch invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher

keys_strategy = st.lists(
    st.text(alphabet="abcdefghij0123456789", min_size=1, max_size=8),
    min_size=0,
    max_size=200,
)
values_strategy = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def _sketch_in_batches(keys, cuts, value, n) -> CorrelationSketch:
    """A sketch of ``keys`` fed as consecutive ``update_array`` batches,
    split at ``cuts`` (the schedule a streamed file produces)."""
    sketch = CorrelationSketch(n)
    bounds = [0, *sorted(c % (len(keys) + 1) for c in cuts), len(keys)]
    for lo, hi in zip(bounds, bounds[1:]):
        sketch.update_array(keys[lo:hi], np.full(hi - lo, value))
    return sketch


cuts_strategy = st.lists(st.integers(min_value=0, max_value=200), max_size=6)


@given(keys=keys_strategy, n=st.integers(min_value=1, max_value=64), cuts=cuts_strategy)
@settings(max_examples=50, deadline=None)
def test_sketch_size_never_exceeds_n(keys, n, cuts):
    sketch = _sketch_in_batches(keys, cuts, 1.0, n)
    assert len(sketch) <= n
    assert len(sketch) <= len(set(keys))
    assert sketch.rows_seen == len(keys)


@given(keys=keys_strategy, n=st.integers(min_value=1, max_value=64), cuts=cuts_strategy)
@settings(max_examples=50, deadline=None)
def test_sketch_retains_exactly_bottom_n(keys, n, cuts):
    """The retained key set is exactly the bottom-n distinct keys by g,
    however the rows are split into batches."""
    sketch = _sketch_in_batches(keys, cuts, 0.0, n)
    hasher = sketch.hasher
    distinct = set(keys)
    expected = sorted(distinct, key=lambda k: hasher.hash(k).unit_hash)[:n]
    assert sketch.key_hashes() == {hasher.key_hash(k) for k in expected}


@given(keys=keys_strategy)
@settings(max_examples=50, deadline=None)
def test_insertion_order_invariance(keys):
    """A sketch is a function of the key-value *set*, not arrival order
    (for order-independent aggregates)."""
    import random

    pairs = [(k, float(i % 7)) for i, k in enumerate(sorted(set(keys)))]
    shuffled = pairs[:]
    random.Random(0).shuffle(shuffled)
    a = CorrelationSketch.from_columns(
        [k for k, _ in pairs], [v for _, v in pairs], 16, aggregate="sum"
    )
    b = CorrelationSketch.from_columns(
        [k for k, _ in shuffled], [v for _, v in shuffled], 16, aggregate="sum"
    )
    assert a.entries() == b.entries()


@given(
    keys=st.lists(
        st.text(alphabet="abc123", min_size=1, max_size=6),
        min_size=2,
        max_size=100,
        unique=True,
    ),
    values=st.lists(values_strategy, min_size=2, max_size=100),
    n=st.integers(min_value=1, max_value=32),
)
@settings(max_examples=50, deadline=None)
def test_value_range_bounds_all_entries(keys, values, n):
    """With mean aggregation and unique keys, every sketched value lies
    within [value_min, value_max]."""
    m = min(len(keys), len(values))
    sketch = CorrelationSketch.from_columns(keys[:m], values[:m], n)
    for v in sketch.entries().values():
        if not math.isnan(v):
            assert sketch.value_min <= v <= sketch.value_max


@given(
    shared=st.integers(min_value=0, max_value=50),
    only_left=st.integers(min_value=0, max_value=50),
    only_right=st.integers(min_value=0, max_value=50),
    n=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=50, deadline=None)
def test_join_size_never_exceeds_either_sketch(shared, only_left, only_right, n):
    left_keys = [f"s{i}" for i in range(shared)] + [f"l{i}" for i in range(only_left)]
    right_keys = [f"s{i}" for i in range(shared)] + [f"r{i}" for i in range(only_right)]
    left = CorrelationSketch.from_columns(left_keys, np.ones(len(left_keys)), n)
    right = CorrelationSketch.from_columns(right_keys, np.ones(len(right_keys)), n)
    sample = join_pair(left, right).samples[0]
    assert sample.size <= min(len(left), len(right))
    assert sample.size <= shared


@given(
    shared=st.integers(min_value=0, max_value=60),
    n=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=50, deadline=None)
def test_join_is_symmetric_in_size(shared, n, seed):
    hasher = KeyHasher(seed=seed)
    keys = [f"s{i}" for i in range(shared)]
    a = CorrelationSketch.from_columns(keys, np.arange(float(shared)), n, hasher=hasher)
    b = CorrelationSketch.from_columns(keys, np.arange(float(shared)) * 2, n, hasher=hasher)
    ab = join_pair(a, b).samples[0]
    ba = join_pair(b, a).samples[0]
    assert ab.size == ba.size
    assert set(map(int, ab.key_hashes)) == set(map(int, ba.key_hashes))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_serialization_round_trip_property(data):
    keys = data.draw(
        st.lists(st.text(alphabet="xyz01", min_size=1, max_size=5), min_size=0, max_size=50)
    )
    n = data.draw(st.integers(min_value=1, max_value=16))
    sketch = CorrelationSketch.from_columns(
        keys, np.arange(len(keys), dtype=float), n
    )
    clone = CorrelationSketch.from_dict(sketch.to_dict())
    assert clone.key_hashes() == sketch.key_hashes()
    got = clone.entries()
    for kh, v in sketch.entries().items():
        assert got[kh] == v or (math.isnan(got[kh]) and math.isnan(v))
