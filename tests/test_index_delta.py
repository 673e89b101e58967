"""Delta-layer parity: a mutated, uncompacted catalog must answer every
query bit-identically to a monolithic catalog rebuilt from scratch.

This is the LSM correctness contract (docs/ARCHITECTURE.md "Incremental
maintenance"): appends land in the mutable delta index, removals of
frozen entries become tombstones, and both query executors probe
``frozen + delta − tombstones``, merging per-layer hits under the
``(-overlap, id)`` total order. Because every live sketch is in exactly
one layer and the merge order equals the monolithic probe order, the
layered catalog is *indistinguishable* from a fresh rebuild — for every
scorer, rng mode, retrieval backend and shard count. ``compact()`` folds
the delta into new frozen structures without changing a single answer.

The matrix here pins that contract explicitly; the stateful harness in
``test_property_index_updates.py`` explores random mutation histories.
"""

import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.serving import ShardedCatalog, ShardRouter
from repro.table.table import table_from_arrays

from scancount_oracle import InvertedIndex


N_ROWS = 600
SKETCH_SIZE = 64
SHARD_COUNTS = (1, 2, 7)


def _corpus_tables(rng, keys, q, n_tables=10):
    """High-containment corpus tables (≥60% of the query's keys), so the
    LSH backend recovers the full exact candidate page and parity is
    bit-exact rather than recall-bounded."""
    tables = []
    for t in range(n_tables):
        rho = float(rng.uniform(-1.0, 1.0))
        vals = rho * q + math.sqrt(max(0.0, 1 - rho * rho)) * rng.standard_normal(
            len(keys)
        )
        keep = rng.uniform(size=len(keys)) < rng.uniform(0.6, 1.0)
        tables.append(
            table_from_arrays(
                f"tab{t:02d}", [k for k, m in zip(keys, keep) if m], vals[keep]
            )
        )
    return tables


def _mutate(catalog, tables):
    """The canonical mutation history applied to every catalog flavour:

    * tables[0:6] ingested, then the frozen structures warmed (compact);
    * tables[6:10] appended afterwards — they live in the delta;
    * ``tab01`` removed — a frozen entry, so it becomes a tombstone;
    * ``tab07`` removed — delta-only, so it is erased in place;
    * ``tab02`` removed and re-added — tombstone on the frozen copy plus
      a live delta copy under the same id.
    """
    catalog.add_tables(tables[:6])
    if isinstance(catalog, ShardedCatalog):
        for i in range(catalog.n_shards):
            catalog.shard(i).frozen_postings()
            catalog.shard(i).lsh_index()
    else:
        catalog.frozen_postings()
        catalog.lsh_index()
    catalog.add_tables(tables[6:])
    catalog.remove_sketch("tab01::key->value")
    catalog.remove_sketch("tab07::key->value")
    readd = catalog.get("tab02::key->value")
    catalog.remove_sketch("tab02::key->value")
    catalog.add_sketch("tab02::key->value", readd)
    return catalog


def _build_worlds():
    """(mutated monolith, oracle monolith, mutated sharded per count, query)."""
    rng = np.random.default_rng(42)
    keys = [f"k{i}" for i in range(N_ROWS)]
    q = rng.standard_normal(N_ROWS)
    tables = _corpus_tables(rng, keys, q)

    mutated = _mutate(SketchCatalog(sketch_size=SKETCH_SIZE), tables)

    # The oracle never mutates: one clean build of exactly the surviving
    # sketches, sharing the mutated catalog's hashing scheme.
    oracle = SketchCatalog(sketch_size=SKETCH_SIZE, hasher=mutated.hasher)
    for sid in sorted(mutated):
        oracle.add_sketch(sid, mutated.get(sid))

    sharded = {
        n: _mutate(
            ShardedCatalog(
                n, sketch_size=SKETCH_SIZE, hasher=mutated.hasher
            ),
            tables,
        )
        for n in SHARD_COUNTS
    }
    query = CorrelationSketch.from_columns(
        keys, q, SKETCH_SIZE, hasher=mutated.hasher, name="query"
    )
    return mutated, oracle, sharded, query


@pytest.fixture(scope="module")
def worlds():
    return _build_worlds()


def _ranking(result):
    return [(e.candidate_id, e.score) for e in result.ranked]


def _assert_identical(a, b, context=""):
    assert a.candidates_considered == b.candidates_considered, context
    assert _ranking(a) == _ranking(b), context


@pytest.mark.parametrize("scorer", SCORER_NAMES)
@pytest.mark.parametrize("backend", ("inverted", "lsh"))
def test_mutated_catalog_matches_fresh_rebuild(worlds, scorer, backend):
    """Full scorer × rng_mode × backend matrix on the uncompacted
    mutated catalog vs the rebuilt-from-scratch oracle."""
    mutated, oracle, _, query = worlds
    assert mutated.delta_size > 0 and mutated.tombstone_count > 0
    for rng_mode in RNG_MODES:
        a = JoinCorrelationEngine(
            mutated, rng_mode=rng_mode, retrieval_backend=backend
        ).query(query, k=8, scorer=scorer)
        b = JoinCorrelationEngine(
            oracle, rng_mode=rng_mode, retrieval_backend=backend
        ).query(query, k=8, scorer=scorer)
        _assert_identical(a, b, f"{scorer}/{rng_mode}/{backend}")


@pytest.mark.parametrize("scorer", SCORER_NAMES)
@pytest.mark.parametrize("backend", ("inverted", "lsh"))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_mutated_sharded_matches_fresh_rebuild(worlds, scorer, backend, n_shards):
    """The same matrix through the scatter-gather router, for shard
    counts 1, 2 and 7 — per-shard deltas merge exactly like one delta."""
    _, oracle, sharded, query = worlds
    catalog = sharded[n_shards]
    for rng_mode in RNG_MODES:
        a = ShardRouter(
            catalog, rng_mode=rng_mode, retrieval_backend=backend
        ).query(query, k=8, scorer=scorer)
        b = JoinCorrelationEngine(
            oracle, rng_mode=rng_mode, retrieval_backend=backend
        ).query(query, k=8, scorer=scorer)
        _assert_identical(a, b, f"{scorer}/{rng_mode}/{backend}/{n_shards}")


@pytest.mark.parametrize("backend", ("inverted", "lsh"))
def test_mutated_batch_matches_fresh_rebuild(worlds, backend):
    """query_batch over corpus members: the batched executors share the
    layered probe path, so parity must hold per query of the batch."""
    mutated, oracle, sharded, query = worlds
    queries = [query] + [mutated.get(sid) for sid in sorted(mutated)[:3]]
    excludes = [None] + sorted(mutated)[:3]
    a = JoinCorrelationEngine(mutated, retrieval_backend=backend).query_batch(
        queries, k=8, scorer="rp_cih", exclude_ids=excludes
    )
    b = JoinCorrelationEngine(oracle, retrieval_backend=backend).query_batch(
        queries, k=8, scorer="rp_cih", exclude_ids=excludes
    )
    for x, y in zip(a, b):
        _assert_identical(x, y, backend)
    for n_shards, catalog in sharded.items():
        c = ShardRouter(catalog, retrieval_backend=backend).query_batch(
            queries, k=8, scorer="rp_cih", exclude_ids=excludes
        )
        for x, y in zip(c, b):
            _assert_identical(x, y, f"{backend}/shards={n_shards}")


def test_compaction_changes_no_answer():
    """compact() folds the delta into fresh frozen structures; every
    ranking before == after, and the delta/tombstones are gone."""
    mutated, oracle, sharded, query = _build_worlds()
    before = [
        JoinCorrelationEngine(mutated, retrieval_backend=b).query(
            query, k=8, scorer="rp"
        )
        for b in ("inverted", "lsh")
    ]
    version = mutated.compact()
    assert version == mutated.index_version
    assert mutated.delta_size == 0 and mutated.tombstone_count == 0
    assert mutated.compact() == version  # idempotent: clean fold is free
    after = [
        JoinCorrelationEngine(mutated, retrieval_backend=b).query(
            query, k=8, scorer="rp"
        )
        for b in ("inverted", "lsh")
    ]
    for x, y in zip(before, after):
        _assert_identical(x, y)
    # Sharded compaction: only dirty shards bump their version.
    catalog = sharded[2]
    dirty = [size > 0 or t > 0 for size, t in zip(
        catalog.delta_sizes(), catalog.tombstone_counts()
    )]
    old = [catalog.shard(i).index_version for i in range(2)]
    new = catalog.compact()
    for was_dirty, o, n in zip(dirty, old, new):
        assert n == o + 1 if was_dirty else n == o
    _assert_identical(
        ShardRouter(catalog).query(query, k=8, scorer="rp"),
        JoinCorrelationEngine(oracle).query(query, k=8, scorer="rp"),
    )


def test_snapshot_round_trip_preserves_live_delta(tmp_path):
    """Persisting an uncompacted catalog keeps the delta live: the
    loaded catalog still reports pending state and answers identically,
    and compacting afterwards changes nothing either."""
    mutated, oracle, _, query = _build_worlds()
    path = tmp_path / "c.arena"
    mutated.save(path)
    loaded = SketchCatalog.load(path)
    assert loaded.delta_size == mutated.delta_size > 0
    assert loaded.tombstone_count == mutated.tombstone_count > 0
    assert loaded.index_version == mutated.index_version
    for backend in ("inverted", "lsh"):
        _assert_identical(
            JoinCorrelationEngine(loaded, retrieval_backend=backend).query(
                query, k=8, scorer="rp_cih"
            ),
            JoinCorrelationEngine(oracle, retrieval_backend=backend).query(
                query, k=8, scorer="rp_cih"
            ),
            backend,
        )
    loaded.compact()
    _assert_identical(
        JoinCorrelationEngine(loaded).query(query, k=8, scorer="rp_cih"),
        JoinCorrelationEngine(oracle).query(query, k=8, scorer="rp_cih"),
    )


# -- deletion-path backfill (PR 5 left these uncovered) ----------------------


def test_inverted_index_remove_then_readd_same_id():
    index = InvertedIndex()
    index.add("a", [1, 2, 3])
    index.add("b", [2, 3, 4])
    index.remove("a", [1, 2, 3])
    assert "a" not in index
    assert index.top_overlap([1, 2, 3], 5) == [("b", 2)]
    # Re-adding the same id with different keys must serve the new
    # postings, with no residue of the removed ones.
    index.add("a", [4, 5])
    assert "a" in index
    assert index.top_overlap([4, 5], 5) == [("a", 2), ("b", 1)]
    assert index.top_overlap([1], 5) == []
    frozen = index.freeze()
    assert sorted(frozen.docs) == ["a", "b"]


def test_remove_delta_only_id_on_snapshot_loaded_catalog(tmp_path):
    """Removing an id that only ever lived in the delta erases it in
    place — no tombstone — even after a snapshot round trip."""
    catalog = SketchCatalog(sketch_size=16)
    catalog.add_table(table_from_arrays("base", ["a", "b", "c"], [1.0, 2.0, 3.0]))
    catalog.frozen_postings()
    catalog.add_table(table_from_arrays("late", ["a", "b"], [1.0, 2.0]))
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert loaded.delta_size == 1
    loaded.remove_sketch("late::key->value")
    assert loaded.delta_size == 0
    assert loaded.tombstone_count == 0
    assert "late::key->value" not in loaded
    hits = loaded.probe_top_overlap_batch(
        [loaded.get("base::key->value").columnar().key_hashes], 5
    )[0]
    assert [sid for sid, _ in hits] == ["base::key->value"]
