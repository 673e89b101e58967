"""Binary catalog snapshots: round trip, lazy rehydration, bulk add.

The snapshot contract (docs/ARCHITECTURE.md): a catalog saved to the
binary format and to JSON must load back **array-identical** — same
per-sketch entries, columnar views, metadata and postings — while the
binary load does no per-entry work (lazy array-view sketches, warm
frozen-postings cache, deferred inverted-index rebuild).
"""

import json
import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.index.snapshot import (
    SNAPSHOT_VERSION,
    detect_format,
    load_snapshot,
    save_snapshot,
)
from repro.table.table import table_from_arrays

from scalar_query_oracle import scalar_query


def _world(seed=0, n_tables=8, n_rows=900, sketch_size=64):
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    q = rng.standard_normal(n_rows)
    catalog = SketchCatalog(sketch_size=sketch_size)
    for t in range(n_tables):
        rho = float(rng.uniform(-1.0, 1.0))
        vals = rho * q + math.sqrt(max(0.0, 1 - rho * rho)) * rng.standard_normal(
            n_rows
        )
        vals[rng.uniform(size=n_rows) < 0.1] = np.nan  # missing cells
        keep = rng.uniform(size=n_rows) < rng.uniform(0.3, 1.0)
        catalog.add_table(
            table_from_arrays(
                f"tab{t:02d}", [k for k, m in zip(keys, keep) if m], vals[keep]
            )
        )
    query = CorrelationSketch.from_columns(
        keys, q, sketch_size, hasher=catalog.hasher, name="query"
    )
    return catalog, query


def _assert_columns_equal(a, b):
    assert (a.key_hashes == b.key_hashes).all()
    assert (a.ranks == b.ranks).all()
    # Bit-equality with NaN-aware semantics (missing cells stay NaN).
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert a.saw_all_keys == b.saw_all_keys
    assert a.value_range == b.value_range or (
        all(math.isnan(v) for v in a.value_range)
        and all(math.isnan(v) for v in b.value_range)
    )


def _assert_entries_equal(a: dict, b: dict):
    assert set(a) == set(b)
    for kh, value in a.items():
        other = b[kh]
        assert value == other or (math.isnan(value) and math.isnan(other))


# -- round trip --------------------------------------------------------------


def test_json_binary_round_trip_array_equality(tmp_path):
    catalog, _ = _world()
    json_path = tmp_path / "c.json"
    npz_path = tmp_path / "c.npz"
    catalog.save(json_path)
    catalog.save(npz_path)

    from_json = SketchCatalog.load(json_path)
    from_npz = SketchCatalog.load(npz_path)
    assert list(from_json) == list(from_npz) == list(catalog)
    assert from_npz.sketch_size == catalog.sketch_size
    assert from_npz.aggregate == catalog.aggregate
    assert from_npz.hasher.scheme_id == catalog.hasher.scheme_id
    assert from_npz.vectorized == catalog.vectorized

    for sid in catalog:
        _assert_columns_equal(
            catalog.sketch_columns(sid), from_npz.sketch_columns(sid)
        )
        _assert_columns_equal(
            from_json.sketch_columns(sid), from_npz.sketch_columns(sid)
        )
        assert from_npz.sketch_meta(sid) == catalog.sketch_meta(sid)
        # Full materialization equality, down to every entry.
        _assert_entries_equal(
            from_npz.get(sid).entries(), catalog.get(sid).entries()
        )
        assert from_npz.get(sid).rows_seen == catalog.get(sid).rows_seen
        assert from_npz.get(sid).saw_all_keys == catalog.get(sid).saw_all_keys


def test_snapshot_persists_frozen_postings(tmp_path):
    catalog, _ = _world(seed=1)
    original = catalog.frozen_postings()
    path = tmp_path / "c.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    restored = loaded.frozen_postings()
    assert (restored.vocab == original.vocab).all()
    assert (restored.indptr == original.indptr).all()
    assert (restored.doc_ids == original.doc_ids).all()
    assert list(restored.docs) == list(original.docs)
    assert (restored.doc_lengths == original.doc_lengths).all()


def test_query_results_identical_across_formats(tmp_path):
    catalog, query = _world(seed=2)
    json_path, npz_path = tmp_path / "c.json", tmp_path / "c.npz"
    catalog.save(json_path)
    catalog.save(npz_path)
    engines = [
        JoinCorrelationEngine(c)
        for c in (catalog, SketchCatalog.load(json_path), SketchCatalog.load(npz_path))
    ]
    for scorer in ("rp", "rp_cih", "rb_cib", "jc_est", "random"):
        results = [e.query(query, k=6, scorer=scorer) for e in engines]
        baseline = [(e.candidate_id, e.score) for e in results[0].ranked]
        for result in results[1:]:
            assert [(e.candidate_id, e.score) for e in result.ranked] == baseline


def test_save_of_unmaterialized_snapshot_catalog(tmp_path):
    """save(npz) -> load -> save(both formats) without ever materializing."""
    catalog, query = _world(seed=3, n_tables=4)
    first = tmp_path / "a.npz"
    catalog.save(first)
    loaded = SketchCatalog.load(first)
    second_npz = tmp_path / "b.npz"
    second_json = tmp_path / "b.json"
    loaded.save(second_npz)  # lazy entries persisted from their views
    loaded.save(second_json)  # JSON save materializes on demand
    again = SketchCatalog.load(second_npz)
    for sid in catalog:
        _assert_columns_equal(
            catalog.sketch_columns(sid), again.sketch_columns(sid)
        )
    from_json = SketchCatalog.load(second_json)
    for sid in catalog:
        _assert_entries_equal(
            from_json.get(sid).entries(), catalog.get(sid).entries()
        )


def test_empty_catalog_round_trip(tmp_path):
    catalog = SketchCatalog(sketch_size=16)
    path = tmp_path / "empty.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert len(loaded) == 0
    assert loaded.sketch_size == 16
    assert len(loaded.frozen_postings()) == 0


def test_snapshot_preserves_scheme_and_flags(tmp_path):
    catalog = SketchCatalog(
        sketch_size=8, hasher=KeyHasher(bits=64, seed=5), vectorized=False,
        aggregate="sum",
    )
    catalog.add_table(table_from_arrays("t", ["a", "b", "a"], [1.0, 2.0, 3.0]))
    path = tmp_path / "c.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert loaded.hasher.scheme_id == (64, 5)
    assert loaded.vectorized is False
    assert loaded.aggregate == "sum"


def test_unknown_snapshot_version_rejected(tmp_path):
    catalog, _ = _world(seed=4, n_tables=2)
    path = tmp_path / "c.npz"
    save_snapshot(catalog, path)
    payload = dict(np.load(path))
    payload["version"] = np.asarray([SNAPSHOT_VERSION + 1], dtype=np.int64)
    np.savez(path, **payload)
    with pytest.raises(ValueError, match="snapshot version"):
        load_snapshot(path)


def test_version1_snapshot_still_loads(tmp_path):
    """Version 2 only *added* the optional LSH members, so a snapshot
    rewritten with the version-1 layout (no LSH arrays) must load."""
    catalog, query = _world(seed=4, n_tables=3)
    catalog.lsh_index()  # v2 save would persist LSH members
    path = tmp_path / "c.npz"
    save_snapshot(catalog, path)
    payload = dict(np.load(path))
    for key in ("lsh_config", "lsh_slots", "lsh_filled"):
        payload.pop(key)
    payload["version"] = np.asarray([1], dtype=np.int64)
    np.savez(path, **payload)
    loaded = load_snapshot(path)
    assert len(loaded) == len(catalog)
    assert loaded.lsh_params is None  # rebuilt lazily, like JSON catalogs
    for sid in catalog:
        _assert_columns_equal(
            catalog.sketch_columns(sid), loaded.sketch_columns(sid)
        )
    a = JoinCorrelationEngine(catalog).query(query, k=5)
    b = JoinCorrelationEngine(loaded).query(query, k=5)
    assert [(e.candidate_id, e.score) for e in a.ranked] == [
        (e.candidate_id, e.score) for e in b.ranked
    ]


def test_format_detection(tmp_path):
    catalog, _ = _world(seed=5, n_tables=2)
    npz_path = tmp_path / "c.npz"
    json_path = tmp_path / "c.json"
    catalog.save(npz_path)
    catalog.save(json_path)
    assert detect_format(npz_path) == "binary"
    assert detect_format(json_path) == "json"
    # Content sniff: a snapshot without the .npz extension still loads.
    sneaky = tmp_path / "catalog.bin"
    sneaky.write_bytes(npz_path.read_bytes())
    assert detect_format(sneaky) == "binary"
    assert len(SketchCatalog.load(sneaky)) == len(catalog)


# -- lazy rehydration --------------------------------------------------------


def test_columnar_path_never_materializes(tmp_path):
    catalog, query = _world(seed=6)
    path = tmp_path / "c.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    entries = loaded._sketches
    awake = lambda: {
        sid for sid in entries if type(dict.__getitem__(entries, sid)) is not int
    }
    assert awake() == set()  # a load allocates nothing per entry
    result = JoinCorrelationEngine(loaded, retrieval_depth=5).query(
        query, k=3, scorer="rp_cih"
    )
    touched = awake()
    assert {c.candidate_id for c in result.ranked} <= touched
    assert 0 < len(touched) <= 5 < len(loaded)
    # What woke is an ordinary (read-only) sketch over the stored slices,
    # which the scalar reference path reads like any other.
    assert all(isinstance(entries[sid], CorrelationSketch) for sid in touched)
    scalar_query(loaded, query, k=5, scorer="rp")


def test_get_materializes_once_and_caches(tmp_path):
    catalog, _ = _world(seed=7, n_tables=2)
    path = tmp_path / "c.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    sid = next(iter(loaded))
    sketch = loaded.get(sid)
    assert loaded.get(sid) is sketch
    # The sketch is a view over the snapshot's columnar arrays.
    assert loaded.sketch_columns(sid) is sketch.columnar()


def test_mutation_after_snapshot_load(tmp_path):
    catalog, query = _world(seed=8, n_tables=3)
    path = tmp_path / "c.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    frozen_before = loaded.frozen_postings()

    n = 900
    keys = [f"k{i}" for i in range(n)]
    loaded.add_table(
        table_from_arrays("late", keys, np.random.default_rng(0).standard_normal(n))
    )
    assert loaded.frozen_postings() is not frozen_before
    result = JoinCorrelationEngine(loaded).query(query, k=10, scorer="rp")
    assert any(e.candidate_id.startswith("late") for e in result.ranked)
    # The rebuilt live index covers snapshot and post-snapshot sketches.
    assert len(loaded.index) == len(loaded)


def test_scalar_index_rebuild_matches_original(tmp_path):
    catalog, query = _world(seed=9)
    path = tmp_path / "c.npz"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    a = catalog.index.top_overlap(query.key_hashes(), 10)
    b = loaded.index.top_overlap(query.key_hashes(), 10)
    assert a == b


# -- bulk registration -------------------------------------------------------


def _sketch_batch(count=4, size=16):
    rng = np.random.default_rng(0)
    hasher = KeyHasher()
    batch = []
    for i in range(count):
        keys = [f"s{i}_{j}" for j in range(40)]
        sketch = CorrelationSketch.from_columns(
            keys, rng.standard_normal(40), size, hasher=hasher, name=f"s{i}"
        )
        batch.append((f"s{i}", sketch))
    return batch, hasher


def test_add_sketches_equivalent_to_sequential():
    batch, hasher = _sketch_batch()
    bulk = SketchCatalog(sketch_size=16, hasher=hasher)
    ids = bulk.add_sketches(batch)
    sequential = SketchCatalog(sketch_size=16, hasher=hasher)
    for sid, sketch in batch:
        sequential.add_sketch(sid, sketch)
    assert ids == [sid for sid, _ in batch]
    assert list(bulk) == list(sequential)
    frozen_a, frozen_b = bulk.frozen_postings(), sequential.frozen_postings()
    assert (frozen_a.vocab == frozen_b.vocab).all()
    assert (frozen_a.doc_ids == frozen_b.doc_ids).all()


def test_add_sketches_invalidates_frozen_once(tmp_path):
    batch, hasher = _sketch_batch()
    catalog = SketchCatalog(sketch_size=16, hasher=hasher)
    catalog.add_sketches(batch[:2])
    frozen = catalog.frozen_postings()
    catalog.add_sketches(batch[2:])
    assert catalog.frozen_postings() is not frozen
    assert len(catalog.frozen_postings()) == len(batch)


def test_add_sketches_rejects_batch_atomically():
    batch, hasher = _sketch_batch()
    catalog = SketchCatalog(sketch_size=16, hasher=hasher)
    bad = batch + [batch[0]]  # duplicate id inside the batch
    with pytest.raises(ValueError, match="duplicate sketch id"):
        catalog.add_sketches(bad)
    assert len(catalog) == 0  # nothing registered

    catalog.add_sketches(batch[:1])
    with pytest.raises(ValueError, match="already in catalog"):
        catalog.add_sketches(batch)  # s0 collides with registered state
    assert len(catalog) == 1


def test_add_sketches_rejects_scheme_mismatch():
    batch, hasher = _sketch_batch(count=1)
    alien = CorrelationSketch.from_columns(
        ["a", "b"], [1.0, 2.0], 16, hasher=KeyHasher(seed=99)
    )
    catalog = SketchCatalog(sketch_size=16, hasher=hasher)
    with pytest.raises(ValueError, match="hashing scheme"):
        catalog.add_sketches(batch + [("alien", alien)])
    assert len(catalog) == 0


def test_json_save_unchanged_by_bulk_path(tmp_path):
    """JSON payload layout is stable (the portable reference format)."""
    batch, hasher = _sketch_batch(count=2)
    catalog = SketchCatalog(sketch_size=16, hasher=hasher)
    catalog.add_sketches(batch)
    path = tmp_path / "c.json"
    catalog.save(path)
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "sketch_size", "aggregate", "scheme", "vectorized", "sketches",
    }
    assert list(payload["sketches"]) == ["s0", "s1"]
