"""Construction parity: ``update_array`` vs the streaming reference path.

The columnar path must produce a sketch *identical* to feeding the same
rows one at a time to the row-at-a-time oracle
(``row_sketch_oracle.update_all``) — same bottom-``n`` keys and unit
hashes, bit-identical aggregated values (the grouped NumPy reductions
reproduce the scalar aggregators' left-to-right float accumulation), same
``value_min``/``value_max``/``rows_seen`` and overflow flag. These tests
drive both over adversarial inputs — heavy key duplication, NaN cells,
multi-batch construction down to one-row batches, overflowing and
non-overflowing sketch sizes — and assert full-state equality, plus the
``BottomK.update_batch`` admission semantics the sketch relies on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.kmv.bottomk import BottomK
from row_sketch_oracle import row_sketch, update_all

AGGREGATES = ("mean", "sum", "max", "min", "first", "last", "count")


def assert_sketch_equal(streamed: CorrelationSketch, vectored: CorrelationSketch):
    """Full-state equality, NaN-tolerant on values only."""
    assert streamed.rows_seen == vectored.rows_seen
    assert streamed.saw_all_keys == vectored.saw_all_keys
    assert streamed.value_min == vectored.value_min
    assert streamed.value_max == vectored.value_max
    a, b = list(streamed.items()), list(vectored.items())
    assert len(a) == len(b)
    for (ka, ua, va), (kb, ub, vb) in zip(a, b):
        assert ka == kb
        assert ua == ub
        assert va == vb or (math.isnan(va) and math.isnan(vb))
    if len(streamed):
        assert streamed.kth_unit_value() == vectored.kth_unit_value()
        assert streamed.distinct_keys() == vectored.distinct_keys()


def _build_pair(keys, values, n, aggregate, bits=32):
    hasher = KeyHasher(bits=bits, seed=5)
    streamed = row_sketch(zip(keys, values), n, aggregate=aggregate, hasher=hasher)
    vectored = CorrelationSketch(n, aggregate=aggregate, hasher=hasher)
    vectored.update_array(keys, values)
    return streamed, vectored


duplicated_keys = st.lists(
    st.integers(min_value=0, max_value=40).map(lambda i: f"key-{i}"),
    min_size=0,
    max_size=250,
)


@given(
    keys=duplicated_keys,
    n=st.integers(min_value=1, max_value=64),
    aggregate=st.sampled_from(AGGREGATES),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_update_array_parity_property(keys, n, aggregate, data):
    """Random duplicated keys + NaN holes, every aggregate, both regimes."""
    values = np.array(
        [
            data.draw(
                st.one_of(
                    st.just(math.nan),
                    st.floats(
                        min_value=-1e6,
                        max_value=1e6,
                        allow_nan=False,
                        allow_infinity=False,
                    ),
                )
            )
            for _ in keys
        ],
        dtype=np.float64,
    )
    streamed, vectored = _build_pair(keys, values, n, aggregate)
    assert_sketch_equal(streamed, vectored)


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("bits", [32, 64])
def test_update_array_parity_randomized(aggregate, bits):
    """Deterministic randomized sweep, denser than the hypothesis pass."""
    rng = np.random.default_rng(123)
    for _ in range(15):
        m = int(rng.integers(0, 500))
        keys = [f"k{int(x)}" for x in rng.integers(0, 90, size=m)]
        values = rng.standard_normal(m)
        values[rng.uniform(size=m) < 0.25] = np.nan
        for n in (1, 8, 64, 2000):
            streamed, vectored = _build_pair(keys, values, n, aggregate, bits)
            assert_sketch_equal(streamed, vectored)


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_multi_batch_and_interleaved_updates(aggregate):
    """Batches seed live aggregator state, a one-row batch included."""
    rng = np.random.default_rng(9)
    hasher = KeyHasher()
    streamed = CorrelationSketch(16, aggregate=aggregate, hasher=hasher)
    vectored = CorrelationSketch(16, aggregate=aggregate, hasher=hasher)
    for _ in range(6):
        m = 80
        keys = [f"k{int(x)}" for x in rng.integers(0, 40, size=m)]
        values = rng.standard_normal(m)
        values[rng.uniform(size=m) < 0.3] = np.nan
        update_all(streamed, zip(keys, values))
        vectored.update_array(keys, values)
        assert_sketch_equal(streamed, vectored)
        # One row on top of batch-built state.
        update_all(streamed, [("scalar-key", 2.5)])
        vectored.update_array(["scalar-key"], [2.5])
    assert_sketch_equal(streamed, vectored)


def test_update_array_integer_key_array():
    """Native int arrays use the vectorized encoding; same sketch results.

    The scalar comparison iterates the same array (NumPy int64 scalars),
    which `_to_bytes` unwraps to plain ints — both paths must agree.
    """
    rng = np.random.default_rng(3)
    keys = rng.integers(-10_000, 10_000, size=600)
    values = rng.standard_normal(600)
    streamed, vectored = _build_pair(keys, values, 64, "mean")
    assert_sketch_equal(streamed, vectored)


def test_update_array_validation_and_edges():
    sketch = CorrelationSketch(4)
    with pytest.raises(ValueError):
        sketch.update_array(["a", "b"], [1.0])
    with pytest.raises(ValueError):
        sketch.update_array(["a"], np.zeros((1, 1)))
    # Empty batch counts nothing and changes nothing.
    sketch.update_array([], [])
    assert sketch.rows_seen == 0 and len(sketch) == 0
    # All-NaN batch: keys still join, no numeric range is recorded.
    sketch.update_array(["x", "y", "x"], np.full(3, np.nan))
    assert sketch.rows_seen == 3
    assert len(sketch) == 2
    assert sketch.value_range == 0.0


def test_update_array_serialization_round_trip():
    """A batch-built sketch serializes identically to a streamed one."""
    rng = np.random.default_rng(17)
    keys = [f"k{int(x)}" for x in rng.integers(0, 200, size=1000)]
    values = rng.standard_normal(1000)
    streamed, vectored = _build_pair(keys, values, 32, "mean")
    assert streamed.to_dict() == vectored.to_dict()
    revived = CorrelationSketch.from_dict(vectored.to_dict())
    assert revived.entries() == streamed.entries()


# -- BottomK.update_batch ---------------------------------------------------


def test_bottomk_update_batch_below_capacity():
    bk = BottomK(10)
    admitted = bk.update_batch(
        np.array([0.3, 0.1, 0.7]), np.array([3, 1, 7]), ["a", "b", "c"]
    )
    assert admitted.all()
    assert len(bk) == 3
    assert bk.get(1) == "b"
    assert bk.kth_rank() == 0.7


def test_bottomk_update_batch_matches_sequential_offers():
    rng = np.random.default_rng(5)
    for k in (1, 4, 16, 50):
        ranks = rng.uniform(size=120)
        keys = rng.permutation(10_000)[:120]
        seq = BottomK(k)
        for r, key in zip(ranks, keys):
            seq.offer(float(r), int(key), payload=int(key))
        bat = BottomK(k)
        # Feed in two chunks to exercise the merge-with-live-entries path.
        for lo, hi in ((0, 60), (60, 120)):
            bat.update_batch(
                ranks[lo:hi], keys[lo:hi], [int(x) for x in keys[lo:hi]]
            )
        assert seq.sorted_items() == bat.sorted_items()
        assert seq.kth_rank() == bat.kth_rank()


def test_bottomk_update_batch_admitted_mask_and_eviction():
    bk = BottomK(2)
    bk.offer(0.5, 50, "old-hi")
    bk.offer(0.2, 20, "old-lo")
    admitted = bk.update_batch(
        np.array([0.9, 0.1]), np.array([90, 10]), ["reject", "accept"]
    )
    assert admitted.tolist() == [False, True]
    assert sorted(bk.keys()) == [10, 20]
    assert bk.get(10) == "accept"
    # Evicted key is fully gone; future offers behave like fresh ones.
    assert 50 not in bk
    assert bk.max_rank == 0.2


def test_bottomk_update_batch_boundary_tie_prefers_incumbent():
    """A newcomer whose rank ties the current max loses, like offer()."""
    bk = BottomK(2)
    bk.offer(0.2, 20, "lo")
    bk.offer(0.5, 90, "incumbent")
    admitted = bk.update_batch(np.array([0.5]), np.array([10]), ["newcomer"])
    assert admitted.tolist() == [False]
    assert sorted(bk.keys()) == [20, 90]
    assert bk.get(90) == "incumbent"


def test_bottomk_update_batch_validation():
    bk = BottomK(4)
    with pytest.raises(ValueError):
        bk.update_batch(np.array([0.1]), np.array([1, 2]), ["x"])
    assert bk.update_batch(np.array([]), np.array([]), []).shape == (0,)
