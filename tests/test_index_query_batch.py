"""``query_batch`` parity: one batched pipeline vs looped single queries.

The contract (docs/ARCHITECTURE.md "Query pipeline"): for every scoring
function, both rng modes and both retrieval backends, ``query_batch``
returns results **bit-identical** to calling :meth:`query` per sketch in
order — same candidate pages, same scores, same rankings. Only the phase
timings differ (per-query shares of the batch phases).
"""

import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.table.table import table_from_arrays

from scalar_query_oracle import scalar_query


@pytest.fixture(scope="module")
def world():
    """A mixed-overlap corpus plus a heterogeneous query workload (full
    overlap, partial overlap, disjoint, empty)."""
    rng = np.random.default_rng(0)
    n = 1400
    keys = [f"k{i}" for i in range(n)]
    catalog = SketchCatalog(sketch_size=96)
    base = rng.standard_normal(n)
    for t in range(9):
        rho = float(rng.uniform(-1.0, 1.0))
        vals = rho * base + math.sqrt(max(0.0, 1 - rho * rho)) * rng.standard_normal(n)
        vals[rng.uniform(size=n) < 0.1] = np.nan
        keep = rng.uniform(size=n) < rng.uniform(0.2, 1.0)
        catalog.add_table(
            table_from_arrays(
                f"tab{t:02d}", [k for k, m in zip(keys, keep) if m], vals[keep]
            )
        )
    queries = [
        CorrelationSketch.from_columns(
            keys, base, 96, hasher=catalog.hasher, name="full"
        ),
        CorrelationSketch.from_columns(
            keys[: n // 3],
            rng.standard_normal(n // 3),
            96,
            hasher=catalog.hasher,
            name="partial",
        ),
        CorrelationSketch.from_columns(
            [f"alien{i}" for i in range(200)],
            rng.standard_normal(200),
            96,
            hasher=catalog.hasher,
            name="disjoint",
        ),
        CorrelationSketch(96, hasher=catalog.hasher, name="empty"),
    ]
    return catalog, queries


def _pairs(result):
    return [(e.candidate_id, e.score) for e in result.ranked]


def _assert_batch_matches_loop(engine, queries, scorer, **kwargs):
    loop = [engine.query(q, k=8, scorer=scorer, **kwargs) for q in queries]
    batch = engine.query_batch(queries, k=8, scorer=scorer)
    assert len(batch) == len(loop)
    for a, b in zip(loop, batch):
        assert a.candidates_considered == b.candidates_considered
        assert _pairs(a) == _pairs(b), scorer
        for ea, eb in zip(a.ranked, b.ranked):
            assert ea.stats == eb.stats


@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_batch_bit_parity_every_scorer(world, scorer):
    catalog, queries = world
    _assert_batch_matches_loop(JoinCorrelationEngine(catalog), queries, scorer)


@pytest.mark.parametrize("rng_mode", RNG_MODES)
def test_batch_bit_parity_both_rng_modes(world, rng_mode):
    catalog, queries = world
    engine = JoinCorrelationEngine(catalog, rng_mode=rng_mode)
    _assert_batch_matches_loop(engine, queries, "rb_cib")


def test_batch_bit_parity_lsh_backend(world):
    catalog, queries = world
    engine = JoinCorrelationEngine(catalog, retrieval_backend="lsh")
    for scorer in ("rp", "rp_cih", "rb_cib"):
        _assert_batch_matches_loop(engine, queries, scorer)


def test_batch_with_shared_rng_matches_sequential_loop(world):
    catalog, queries = world
    engine = JoinCorrelationEngine(catalog)
    for scorer in ("rb_cib", "random"):
        loop_rng = np.random.default_rng(99)
        batch_rng = np.random.default_rng(99)
        loop = [engine.query(q, k=8, scorer=scorer, rng=loop_rng) for q in queries]
        batch = engine.query_batch(queries, k=8, scorer=scorer, rng=batch_rng)
        for a, b in zip(loop, batch):
            assert _pairs(a) == _pairs(b), scorer


def test_batch_exclude_ids_and_truths(world):
    catalog, queries = world
    engine = JoinCorrelationEngine(catalog)
    sid = next(iter(catalog))
    truths = {sid: 0.7}
    loop = [
        engine.query(q, k=8, exclude_id=sid, true_correlations=truths)
        for q in queries
    ]
    batch = engine.query_batch(
        queries,
        k=8,
        exclude_ids=[sid] * len(queries),
        true_correlations=[truths] * len(queries),
    )
    for a, b in zip(loop, batch):
        assert _pairs(a) == _pairs(b)
        assert all(e.candidate_id != sid for e in b.ranked)
        for ea, eb in zip(a.ranked, b.ranked):
            assert ea.true_correlation == eb.true_correlation or (
                math.isnan(ea.true_correlation) and math.isnan(eb.true_correlation)
            )


def test_batch_matches_scalar_oracle(world):
    catalog, queries = world
    a = [scalar_query(catalog, q, k=6, scorer="rp_cih") for q in queries]
    b = JoinCorrelationEngine(catalog).query_batch(queries, k=6, scorer="rp_cih")
    for ra, rb in zip(a, b):
        assert [e.candidate_id for e in ra.ranked] == [
            e.candidate_id for e in rb.ranked
        ]


def test_batch_validation(world):
    catalog, queries = world
    engine = JoinCorrelationEngine(catalog)
    assert engine.query_batch([]) == []
    with pytest.raises(ValueError, match="k must be positive"):
        engine.query_batch(queries, k=0)
    with pytest.raises(ValueError, match="exclude"):
        engine.query_batch(queries, exclude_ids=["x"])
    from repro.hashing import KeyHasher

    alien = CorrelationSketch.from_columns(
        ["a"], [1.0], 16, hasher=KeyHasher(seed=123)
    )
    with pytest.raises(ValueError, match="hashing scheme"):
        engine.query_batch([alien])


def test_batch_timing_fields_are_shares(world):
    catalog, queries = world
    engine = JoinCorrelationEngine(catalog)
    results = engine.query_batch(queries, k=5)
    assert len({r.retrieval_seconds for r in results}) == 1
    assert all(r.retrieval_seconds >= 0 and r.rerank_seconds >= 0 for r in results)


def test_query_table_rides_query_batch(world):
    """query_table now evaluates through query_batch; results must equal
    per-pair queries exactly (the pre-batch behavior)."""
    catalog, _ = world
    rng = np.random.default_rng(4)
    n = 700
    keys = [f"k{i}" for i in range(n)]
    from repro.table.column import CategoricalColumn, NumericColumn
    from repro.table.table import Table

    table = Table(
        "mine",
        [
            CategoricalColumn("key", keys),
            NumericColumn("a", rng.standard_normal(n)),
            NumericColumn("b", rng.standard_normal(n)),
        ],
    )
    engine = JoinCorrelationEngine(catalog)
    results = engine.query_table(table, k=5, scorer="rp_sez")
    for pair in table.column_pairs():
        sketch = CorrelationSketch(
            catalog.sketch_size,
            aggregate=catalog.aggregate,
            hasher=catalog.hasher,
            name=pair.pair_id,
        )
        keys_arr, values = table.pair_arrays(pair)
        sketch.update_array(keys_arr, values)
        single = engine.query(sketch, k=5, scorer="rp_sez", exclude_id=pair.pair_id)
        assert _pairs(results[pair.pair_id]) == _pairs(single)
