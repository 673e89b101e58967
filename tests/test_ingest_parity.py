"""Ingest parity: ``add_table`` against one streamed sketch per pair.

``SketchCatalog.add_table`` hashes, groups, ranks and bottom-``n`` selects
each key column once and runs only the aggregation and the merge per value
column (Section 3.1's shared selection). Every sketch it registers must
still be, in full state, the sketch the row-at-a-time definition builds
from that pair alone: ``CorrelationSketch.from_columns(...,
vectorized=False)`` over ``Table.pair_rows``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from test_core_sketch_batch import assert_sketch_equal

AGGREGATES = ("mean", "sum", "max", "min", "first", "last", "count")


def assert_full_state_equal(got: CorrelationSketch, expected: CorrelationSketch):
    """``assert_sketch_equal`` (entries, ranks, value range, row count,
    overflow flag) plus identity and every aggregator's internal state."""
    assert_sketch_equal(expected, got)
    assert got.name == expected.name
    assert (got.n, got.aggregate) == (expected.n, expected.aggregate)
    assert got.hasher == expected.hasher
    for kh in expected.key_hashes():
        a, b = got._bottom.get(kh), expected._bottom.get(kh)
        assert type(a) is type(b)
        for slot in type(b).__slots__:
            x, y = getattr(a, slot), getattr(b, slot)
            assert type(x) is type(y), (kh, slot, x, y)
            assert x == y or (math.isnan(x) and math.isnan(y)), (kh, slot, x, y)


def _reference(table: Table, pair, catalog: SketchCatalog) -> CorrelationSketch:
    rows = list(table.pair_rows(pair))
    return CorrelationSketch.from_columns(
        [k for k, _ in rows],
        [v for _, v in rows],
        catalog.sketch_size,
        aggregate=catalog.aggregate,
        hasher=catalog.hasher,
        name=pair.pair_id,
        vectorized=False,
    )


key_cell = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=30).map(lambda i: f"key-{i}"),
    st.sampled_from(["", "é", "日本語", "a" * 33]),
)
value_cell = st.one_of(
    st.just(math.nan),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.integers(min_value=-3, max_value=3).map(float),
)


@given(
    rows=st.integers(min_value=0, max_value=80),
    n=st.integers(min_value=1, max_value=40),
    aggregate=st.sampled_from(AGGREGATES),
    bits=st.sampled_from([32, 64]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_add_table_equals_one_streamed_sketch_per_pair(rows, n, aggregate, bits, data):
    """Two key columns (each with its own missing cells and repeats) by
    three value columns (NaN holes, an all-NaN column now and then),
    sketch sizes on both sides of the distinct-key count."""
    column = lambda cell: data.draw(st.lists(cell, min_size=rows, max_size=rows))
    table = Table(
        "t.csv",
        [
            CategoricalColumn("k1", column(key_cell)),
            NumericColumn("x", np.asarray(column(value_cell), dtype=np.float64)),
            CategoricalColumn("k2", column(key_cell)),
            NumericColumn("y", np.asarray(column(value_cell), dtype=np.float64)),
            NumericColumn("z", np.full(rows, math.nan)),
        ],
    )
    catalog = SketchCatalog(
        sketch_size=n, aggregate=aggregate, hasher=KeyHasher(bits=bits, seed=3)
    )
    ids = catalog.add_table(table)
    pairs = table.column_pairs()
    assert ids == [pair.pair_id for pair in pairs]
    assert len(ids) == 6
    for pair in pairs:
        assert_full_state_equal(
            catalog.get(pair.pair_id), _reference(table, pair, catalog)
        )


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_add_tables_overflowing_with_repeats(aggregate):
    """The bulk entry point, 400 rows over 120 distinct keys into n=32."""
    rng = np.random.default_rng(11)
    tables = []
    for t in range(2):
        keys = [f"k{int(i)}" for i in rng.integers(0, 120, 400)]
        keys[5] = keys[17] = None
        columns = [CategoricalColumn("key", keys)]
        for c in range(3):
            values = rng.normal(size=400).round(2)
            values[rng.random(400) < 0.1] = math.nan
            columns.append(NumericColumn(f"v{c}", values))
        tables.append(Table(f"t{t}.csv", columns))
    catalog = SketchCatalog(sketch_size=32, aggregate=aggregate)
    ids = catalog.add_tables(tables)
    assert len(ids) == 6
    for table in tables:
        for pair in table.column_pairs():
            sketch = catalog.get(pair.pair_id)
            assert not sketch.saw_all_keys
            assert_full_state_equal(sketch, _reference(table, pair, catalog))


def test_from_key_column_is_from_columns_per_value_column():
    keys = ["a", "b", "a", "c", "b", "d"]
    columns = [[1.0, 2.0, 3.0, math.nan, 5.0, 6.0], [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]]
    built = CorrelationSketch.from_key_column(keys, columns, 3, names=["p", "q"])
    for sketch, values, name in zip(built, columns, ["p", "q"]):
        expected = CorrelationSketch.from_columns(
            keys, values, 3, name=name, vectorized=False
        )
        assert_full_state_equal(sketch, expected)
    assert CorrelationSketch.from_key_column(keys, [], 3) == []
    with pytest.raises(ValueError, match="key column has 6 rows"):
        CorrelationSketch.from_key_column(keys, [[1.0]], 3)


def test_add_table_hashes_each_key_column_once(monkeypatch):
    """Counted at the hashing seam: 1 key column x 3 value columns hashes
    ``rows_with_key`` keys — not once per pair."""
    hashed = []
    real = KeyHasher.hash_batch

    def counting(self, keys):
        hashed.append(len(keys))
        return real(self, keys)

    monkeypatch.setattr(KeyHasher, "hash_batch", counting)
    keys = [f"k{i % 50}" for i in range(200)]
    keys[0] = keys[100] = None
    rng = np.random.default_rng(0)
    table = Table(
        "t.csv",
        [CategoricalColumn("key", keys)]
        + [NumericColumn(f"v{c}", rng.normal(size=200)) for c in range(3)],
    )
    catalog = SketchCatalog(sketch_size=16)
    assert len(catalog.add_table(table)) == 3
    assert hashed == [198]

    hashed.clear()
    reference = SketchCatalog(sketch_size=16, vectorized=False)
    reference.add_table(table)
    assert hashed == []  # the row-at-a-time build never enters the batch hash
    for sid in catalog:
        assert_full_state_equal(catalog.get(sid), reference.get(sid))
