"""Ingest parity: ``add_table`` against one streamed sketch per pair.

``SketchCatalog.add_table`` hashes, groups, ranks and bottom-``n`` selects
each key column once and runs only the aggregation and the merge per value
column (Section 3.1's shared selection). Every sketch it registers must
still be, in full state, the sketch the row-at-a-time definition builds
from that pair alone: ``row_sketch_oracle.update_all`` over
``pair_rows`` — the reference lives in ``tests/``, not behind a flag in
``src/``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from row_sketch_oracle import pair_rows, row_sketch, update_all
from digest import assert_states_equal, sketch_state
from test_core_sketch_batch import assert_sketch_equal

AGGREGATES = ("mean", "sum", "max", "min", "first", "last", "count")


def assert_full_state_equal(got: CorrelationSketch, expected: CorrelationSketch):
    """``assert_sketch_equal`` (entries, ranks, value range, row count,
    overflow flag) plus identity and every aggregator slot of every
    retained key (``digest.sketch_state``: the full state in
    canonical key-hash order), and the serialized form."""
    assert_sketch_equal(expected, got)
    assert_states_equal(sketch_state(got), sketch_state(expected))
    assert repr(got.to_dict()) == repr(expected.to_dict())  # repr: nan == nan


def _reference(table: Table, pair, catalog: SketchCatalog) -> CorrelationSketch:
    return row_sketch(
        pair_rows(table, pair),
        catalog.sketch_size,
        aggregate=catalog.aggregate,
        hasher=catalog.hasher,
        name=pair.pair_id,
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


@st.composite
def _table_cells(draw):
    """``(k1, x, k2, y)``: two key and two value columns of one length."""
    rows = draw(st.integers(min_value=0, max_value=80))
    column = lambda cell: draw(st.lists(cell, min_size=rows, max_size=rows))
    return column(key_cell), column(value_cell), column(key_cell), column(value_cell)


#: Both zeros under one key, each sign first once (ROADMAP item 2's
#: flake, ``--hypothesis-seed=5`` before PR 24): the streaming strict
#: comparisons keep the first zero seen, for the value range and for the
#: ``max`` / ``min`` slots alike.
_BOTH_ZEROS = (
    ["key-1", "key-1", "key-2", "key-2"],
    [0.0, -0.0, -0.0, 0.0],
    ["key-3", "key-3", "key-3", "key-3"],
    [-0.0, math.nan, 0.0, -0.0],
)


@given(
    cells=_table_cells(),
    n=st.integers(min_value=1, max_value=40),
    aggregate=st.sampled_from(AGGREGATES),
    bits=st.sampled_from([32, 64]),
)
@example(cells=_BOTH_ZEROS, n=8, aggregate="max", bits=32)
@example(cells=_BOTH_ZEROS, n=8, aggregate="min", bits=64)
@settings(max_examples=150, deadline=None)
def test_add_table_equals_one_streamed_sketch_per_pair(cells, n, aggregate, bits):
    """Two key columns (each with its own missing cells and repeats) by
    three value columns (NaN holes, an all-NaN column now and then),
    sketch sizes on both sides of the distinct-key count."""
    k1, x, k2, y = cells
    table = Table(
        "t.csv",
        [
            CategoricalColumn("k1", k1),
            NumericColumn("x", np.asarray(x, dtype=np.float64)),
            CategoricalColumn("k2", k2),
            NumericColumn("y", np.asarray(y, dtype=np.float64)),
            NumericColumn("z", np.full(len(k1), math.nan)),
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
        expected = row_sketch(zip(keys, values), 3, name=name)
        assert_full_state_equal(sketch, expected)
        assert_full_state_equal(
            CorrelationSketch.from_columns(keys, values, 3, name=name), expected
        )
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
    references = [_reference(table, pair, catalog) for pair in table.column_pairs()]
    assert hashed == []  # the row-at-a-time build never enters the batch hash
    for sid, reference in zip(catalog, references):
        assert_full_state_equal(catalog.get(sid), reference)


# -- array build ≡ row-at-a-time build, in full state --------------------------
#
# The oracle throughout is one sketch fed every row through
# ``row_sketch_oracle.update_all``, in order (its heap of aggregator
# objects is the streaming definition of Section 3.4). The sketch under
# test sees the same rows through a schedule of ``update_array`` batches
# and oracle runs.

_NAN = math.nan
#: Three chunks of rows over keys k0..k11 (+ k12..k51 in the last): repeats
#: inside and across chunks with different values (``first``/``last`` must
#: keep stream order over batch boundaries), NaN holes, a key that only
#: ever sees NaN (k11), a chunk that is all NaN, and a last chunk wide
#: enough to overflow any ``n`` below the distinct-key count.
_CHUNKS = (
    [(f"k{i % 12}", _NAN if i % 5 == 0 or i % 12 == 11 else float((7 * i) % 13 - 6))
     for i in range(30)],
    [(f"k{i % 9 + 3}", _NAN) for i in range(14)],
    [(f"k{(5 * i) % 52}", _NAN if i % 7 == 3 else float(i % 11) / 4 - 1)
     for i in range(90)],
)
_SCHEDULES = {
    "one_batch": [("batch", _CHUNKS[0] + _CHUNKS[1] + _CHUNKS[2])],
    "three_batches": [("batch", chunk) for chunk in _CHUNKS],
    "batch_then_rows": [("batch", _CHUNKS[0]), ("rows", _CHUNKS[1] + _CHUNKS[2])],
    "rows_then_batch": [
        ("rows", _CHUNKS[0]), ("batch", _CHUNKS[1]), ("batch", _CHUNKS[2])
    ],
}


def _feed(sketch: CorrelationSketch, kind: str, rows) -> None:
    if kind == "rows":
        update_all(sketch, rows)
    else:
        sketch.update_array([k for k, _ in rows], [v for _, v in rows])


@pytest.mark.parametrize("schedule", sorted(_SCHEDULES))
@pytest.mark.parametrize("n", [8, 16, 64])  # overflows: first batch, later, never
@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_schedules_of_batches_and_rows_equal_the_row_build(aggregate, bits, n, schedule):
    hasher = KeyHasher(bits=bits, seed=9)
    oracle = CorrelationSketch(n, aggregate=aggregate, hasher=hasher, name="p")
    built = CorrelationSketch(n, aggregate=aggregate, hasher=hasher, name="p")
    overflowed_after = []
    for kind, rows in _SCHEDULES[schedule]:
        update_all(oracle, rows)
        _feed(built, kind, rows)
        # Compared after every step: a fold between steps changes nothing.
        assert_full_state_equal(built, oracle)
        overflowed_after.append(not built.saw_all_keys)
    distinct = len({k for chunk in _CHUNKS for k, _ in chunk})
    assert overflowed_after[-1] == (distinct > n)
    if schedule == "three_batches":
        assert overflowed_after == {8: [True] * 3, 16: [False, False, True],
                                    64: [False] * 3}[n]


@pytest.mark.parametrize("aggregate", AGGREGATES)
def test_all_nan_column_in_full_state(aggregate):
    rows = [(f"k{i % 20}", _NAN) for i in range(50)]
    oracle = row_sketch(rows, 8, aggregate=aggregate)
    built = CorrelationSketch(8, aggregate=aggregate)
    _feed(built, "batch", rows[:25])
    _feed(built, "batch", rows[25:])
    assert_full_state_equal(built, oracle)
    assert math.isinf(built.value_min) and built.value_range == 0.0


class _IdentityHasher(KeyHasher):
    """64-bit scheme whose ``h(k)`` is the (integer) key itself, with the
    real Fibonacci ``h_u`` — the way to place keys on chosen ranks."""

    def __init__(self):
        super().__init__(bits=64)

    def key_hash(self, key):
        return int(key)

    def hash(self, key):
        from repro.hashing.hash_functions import HashPair

        return HashPair(int(key), self.unit_hash_of_key_hash(int(key)))

    def hash_batch(self, keys):
        return np.asarray(keys, dtype=np.uint64)


def _key_with_fib(fib: int) -> int:
    """The key hash whose 64-bit Fibonacci hash is ``fib``."""
    from repro.hashing.fibonacci import FIB_MULTIPLIER_64

    return fib * pow(FIB_MULTIPLIER_64, -1, 2**64) % 2**64


def test_rank_ties_on_the_boundary_at_64_bits():
    """float64 rounds ``fib(h) / 2**64`` to 53 bits, so two key hashes can
    share a rank. On the admission boundary a retained key beats a tied
    newcomer and, among equals, the smaller key hash stays — the row
    build's rule (``BottomK.offer`` / ``_Entry.__lt__``), except between
    two tied newcomers of one batch, where the row build keeps whichever
    came first and the array build the smaller key hash."""
    hasher = _IdentityHasher()
    low, lower = _key_with_fib(2**61), _key_with_fib(2**60)
    tie_a, tie_b = sorted(_key_with_fib(2**63 + 2**20 + d) for d in (0, 1))
    assert hasher.unit_hash_of_key_hash(tie_a) == hasher.unit_hash_of_key_hash(tie_b)

    def both(n, *batches):
        oracle = CorrelationSketch(n, hasher=hasher)
        built = CorrelationSketch(n, hasher=hasher)
        for keys in batches:
            values = [float(i) for i in range(len(keys))]
            update_all(oracle, zip(keys, values))
            built.update_array(keys, values)
        assert_full_state_equal(built, oracle)
        return built.key_hashes()

    # A retained key is not displaced by a newcomer on its own rank,
    # whichever of the two has the smaller key hash.
    assert both(2, [low, tie_b], [tie_a]) == {low, tie_b}
    assert both(2, [low, tie_a], [tie_b]) == {low, tie_a}
    # Two retained keys tied at the top: the larger key hash is evicted.
    assert both(3, [low, tie_b, tie_a], [lower]) == {low, lower, tie_a}
    # Two tied newcomers for one place: the smaller key hash (the row
    # build agrees when that one arrives first).
    assert both(2, [low], [tie_a, tie_b]) == {low, tie_a}
    built = CorrelationSketch(2, hasher=hasher)
    built.update_array([low], [0.0])
    built.update_array([tie_b, tie_a], [0.0, 1.0])
    assert built.key_hashes() == {low, tie_a}
    # ... and on an empty sketch, where the selection is _KeyGroups.bottom's.
    fresh = CorrelationSketch.from_key_column(
        [tie_b, low, tie_a], [[0.0, 1.0, 2.0]], 2, hasher=hasher
    )[0]
    assert fresh.key_hashes() == {low, tie_a}


def test_array_paths_build_no_per_key_objects(monkeypatch, tmp_path):
    """Counted at the three seams every per-key object passes through
    (an ``Aggregator`` is made by ``make_aggregator``, a heap entry is
    pushed by ``heappush`` or offered through ``BottomK.offer``):
    registering a table, stream-sketching a CSV, sketching a query and
    opening a stored sketch construct none — only the row-at-a-time
    oracle does."""
    import heapq

    import repro.core.aggregators as aggregators_module
    from repro.kmv.bottomk import BottomK
    from repro.serving.session import QuerySession
    from repro.table.csv_io import write_csv

    calls = {"make_aggregator": 0, "heappush": 0, "offer": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        aggregators_module,
        "make_aggregator",
        counted("make_aggregator", aggregators_module.make_aggregator),
    )
    monkeypatch.setattr(heapq, "heappush", counted("heappush", heapq.heappush))
    monkeypatch.setattr(BottomK, "offer", counted("offer", BottomK.offer))

    rng = np.random.default_rng(4)
    keys = [f"k{i}" for i in range(600)]
    table = Table(
        "t.csv",
        [CategoricalColumn("key", keys)]
        + [NumericColumn(f"v{c}", rng.normal(size=600)) for c in range(3)],
    )
    catalog = SketchCatalog(sketch_size=256)
    ids = catalog.add_table(table)
    assert [len(catalog.get(sid)) for sid in ids] == [256] * 3
    write_csv(table, tmp_path / "s.csv")
    streamed = SketchCatalog(sketch_size=256)
    assert len(streamed.add_csv_streaming(tmp_path / "s.csv", type_inference_rows=50)) == 3
    session = QuerySession.for_catalog(catalog)
    query = session.query_sketch(keys, rng.normal(size=600), name="q")
    assert [c.candidate_id for c in session.submit_one(query).ranked]
    catalog.save(tmp_path / "c.arena")
    loaded = SketchCatalog.load(tmp_path / "c.arena")
    assert len(loaded.get(ids[0])) == 256
    assert loaded.get(ids[0]).entries() == catalog.get(ids[0]).entries()
    assert calls == {"make_aggregator": 0, "heappush": 0, "offer": 0}

    # The same seams do count the row-at-a-time builder.
    row_sketch(zip(keys, rng.normal(size=600)), 256)
    assert calls["make_aggregator"] == 600 and calls["offer"] == 600
    assert calls["heappush"] >= 256
