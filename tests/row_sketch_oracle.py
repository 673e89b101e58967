"""The row-at-a-time sketch builder (Section 3.4's one-pass "tree").

Not a test file: it is the seventh oracle, the streaming definition of a
:class:`~repro.core.sketch.CorrelationSketch`. Every row is hashed by the
scalar ``KeyHasher.hash`` and offered to a ``BottomK`` heap of
``Aggregator`` objects: a retained key folds the value into its
aggregator, a new key is admitted only if its rank beats the current
maximum, which is then evicted. It was ``CorrelationSketch.update`` /
``update_all`` (the heap raised from the sketch's columns on the first
row and folded back on the next read) until columnar construction became
the one way ``src/`` builds a sketch: ``update_array`` /
``from_columns`` / ``from_key_column``, fed in blocks by the streaming
CSV reader.

* ``update_all(sketch, rows)`` streams ``(key, value)`` rows into an
  existing sketch and leaves it in the state the removed methods did —
  columns, every aggregator slot, ``rows_seen``, the value range and the
  overflow flag — so a test may interleave it with ``update_array``. A
  rehydrated sketch refuses, as ``update_array`` does.
* ``row_sketch(rows, n, ...)`` is a fresh sketch built by it.
* ``pair_rows(table, pair)`` is the row feed of a column pair, missing
  keys skipped and missing values NaN (``Table.pair_rows`` before it
  left ``src/``).
"""

from __future__ import annotations

import numpy as np

from repro.core import aggregators
from repro.core.aggregators import GroupedAggregates
from repro.core.sketch import CorrelationSketch
from repro.kmv.bottomk import BottomK


def pair_rows(table, pair):
    """Yield ``(key, value)`` for every row of ``pair`` with a key."""
    keys = table.categorical(pair.key).values
    values = table.numeric(pair.value).values
    for key, value in zip(keys, values):
        if key is not None:
            yield key, float(value)


def _aggregator(state: GroupedAggregates, row: int):
    """``row``'s slots as a live ``Aggregator`` object."""
    agg = aggregators.make_aggregator(state.name)
    for slot, column in state.slots.items():
        setattr(agg, slot, column[row].item())
    return agg


def _raise_heap(sketch: CorrelationSketch) -> BottomK:
    """The sketch's retained entries as a heap of aggregator objects."""
    state = sketch._live_state()  # a rehydrated sketch raises here
    heap = BottomK(sketch.n)
    heap.update_batch(
        sketch.hasher.unit_hash_batch(sketch._key_hashes),
        sketch._key_hashes,
        [_aggregator(state, row) for row in range(len(state))],
    )
    return heap


def _fold_heap(sketch: CorrelationSketch, heap: BottomK) -> None:
    """Write the heap back as the sketch's columns, in key-hash order."""
    entries = sorted(heap.items(), key=lambda entry: entry[1])
    state = GroupedAggregates(sketch.aggregate, len(entries))
    for slot, column in state.slots.items():
        column[:] = [getattr(agg, slot) for _, _, agg in entries]
    sketch._key_hashes = np.array([key for _, key, _ in entries], dtype=np.uint64)
    sketch._state = state
    sketch._columns = None


def update_all(sketch: CorrelationSketch, rows) -> None:
    """Offer every ``(key, value)`` row to ``sketch``, one at a time.

    ``value`` may be NaN (a missing cell): the key still counts toward
    joinability but contributes no value, except under ``count``.

    Raises:
        ValueError: on a rehydrated sketch.
    """
    heap = _raise_heap(sketch)
    for key, value in rows:
        sketch.rows_seen += 1
        value = float(value)
        if value == value:  # not NaN: the global range for the CI bounds
            if value < sketch.value_min:
                sketch.value_min = value
            if value > sketch.value_max:
                sketch.value_max = value
        pair = sketch.hasher.hash(key)
        if pair.key_hash in heap:
            heap.get(pair.key_hash).observe(value)
            continue
        was_full = len(heap) >= sketch.n
        agg = aggregators.make_aggregator(sketch.aggregate)
        agg.observe(value)
        if not heap.offer(pair.unit_hash, pair.key_hash, agg) or was_full:
            sketch._overflowed = True
    _fold_heap(sketch, heap)


def row_sketch(rows, n: int, **kwargs) -> CorrelationSketch:
    """A new ``CorrelationSketch(n, **kwargs)`` fed ``rows`` one by one."""
    sketch = CorrelationSketch(n, **kwargs)
    update_all(sketch, rows)
    return sketch
