"""Unit tests for the sketch catalog."""

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.table.table import table_from_arrays
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table


def _catalog():
    catalog = SketchCatalog(sketch_size=32)
    t1 = table_from_arrays("t1", [f"k{i}" for i in range(100)], np.arange(100.0))
    t2 = table_from_arrays("t2", [f"k{i}" for i in range(50, 150)], np.arange(100.0))
    catalog.add_table(t1)
    catalog.add_table(t2)
    return catalog


def test_add_table_registers_all_pairs():
    catalog = _catalog()
    assert len(catalog) == 2
    assert "t1::key->value" in catalog
    assert "t2::key->value" in catalog


def test_multi_pair_table():
    catalog = SketchCatalog(sketch_size=16)
    t = Table(
        "multi",
        [
            CategoricalColumn("k1", ["a", "b"]),
            CategoricalColumn("k2", ["x", "y"]),
            NumericColumn("v1", [1.0, 2.0]),
            NumericColumn("v2", [3.0, 4.0]),
        ],
    )
    ids = catalog.add_table(t)
    assert len(ids) == 4


def test_duplicate_id_rejected():
    catalog = _catalog()
    sketch = CorrelationSketch(32)
    with pytest.raises(ValueError, match="already in catalog"):
        catalog.add_sketch("t1::key->value", sketch)


def test_scheme_mismatch_rejected():
    catalog = SketchCatalog(sketch_size=8)
    alien = CorrelationSketch(8, hasher=KeyHasher(seed=99))
    with pytest.raises(ValueError, match="scheme"):
        catalog.add_sketch("alien", alien)


def test_get_unknown_id():
    with pytest.raises(KeyError, match="no sketch"):
        _catalog().get("missing")


def test_index_retrieves_overlapping_sketch():
    catalog = _catalog()
    query = catalog.get("t1::key->value")
    hits = catalog.index.top_overlap(
        query.key_hashes(), 10, exclude="t1::key->value"
    )
    assert hits and hits[0][0] == "t2::key->value"


def test_iteration():
    assert set(_catalog()) == {"t1::key->value", "t2::key->value"}


def test_save_load_round_trip(tmp_path):
    catalog = _catalog()
    path = tmp_path / "catalog.json"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert len(loaded) == len(catalog)
    for sid in catalog:
        assert loaded.get(sid).entries() == catalog.get(sid).entries()
    # Index is rebuilt and functional.
    query = loaded.get("t1::key->value")
    hits = loaded.index.top_overlap(query.key_hashes(), 5, exclude="t1::key->value")
    assert hits[0][0] == "t2::key->value"


def test_loaded_catalog_preserves_scheme(tmp_path):
    catalog = SketchCatalog(sketch_size=8, hasher=KeyHasher(bits=64, seed=5))
    t = table_from_arrays("t", ["a", "b"], [1.0, 2.0])
    catalog.add_table(t)
    path = tmp_path / "c.json"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert loaded.hasher.scheme_id == (64, 5)


def test_load_legacy_payload_defaults_vectorized(tmp_path):
    """The ``"vectorized"`` key is a constant the writer keeps for byte
    stability and the reader never looks at: a payload without it, or
    with the retired row-at-a-time value, loads the same catalog, which
    builds columnar and saves the constant back."""
    import json

    catalog = SketchCatalog(sketch_size=8)
    catalog.add_table(table_from_arrays("t", ["a", "b"], [1.0, 2.0]))
    path = tmp_path / "c.json"
    catalog.save(path)
    saved = path.read_text()
    payload = json.loads(saved)
    assert payload["vectorized"] is True
    for edited in ({"vectorized": False}, None):
        if edited is None:
            del payload["vectorized"]
        else:
            payload.update(edited)
        path.write_text(json.dumps(payload))
        loaded = SketchCatalog.load(path)
        assert not hasattr(loaded, "vectorized")
        loaded.save(path)
        assert path.read_text() == saved


def test_frozen_postings_cached_and_invalidated():
    catalog = _catalog()
    frozen = catalog.frozen_postings()
    assert catalog.frozen_postings() is frozen
    catalog.add_table(
        table_from_arrays("t3", [f"k{i}" for i in range(100)], np.arange(100.0))
    )
    refrozen = catalog.frozen_postings()
    assert refrozen is not frozen
    assert len(refrozen) == len(catalog) == 3


def test_sketch_columns_matches_sketch():
    catalog = _catalog()
    cols = catalog.sketch_columns("t1::key->value")
    sketch = catalog.get("t1::key->value")
    assert cols.size == len(sketch)
    assert set(int(kh) for kh in cols.key_hashes) == sketch.key_hashes()
    entries = sketch.entries()
    for kh, value in zip(cols.key_hashes, cols.values):
        assert entries[int(kh)] == value


# -- removal (deletion path: delta erase / frozen-layer tombstone) -----------


def test_remove_sketch_tombstones_frozen_entry():
    catalog = _catalog()
    frozen = catalog.frozen_postings()
    lsh = catalog.lsh_index(bands=8, rows=2)
    vocab_before = catalog.vocabulary_size
    catalog.remove_sketch("t1::key->value")
    assert "t1::key->value" not in catalog
    assert len(catalog) == 1
    # Inverted postings dropped immediately...
    assert catalog.index.vocabulary_size < vocab_before
    assert "t1::key->value" not in catalog.index
    # ...while the frozen structures stay warm: the removed id was in
    # the frozen layer, so it is banned via a tombstone, not rebuilt
    # away.
    assert catalog._frozen_postings is frozen
    assert catalog._lsh_index is lsh
    assert catalog.tombstone_count == 1
    # Layered probes never surface the tombstoned id.
    query = catalog.get("t2::key->value")
    hits = catalog.probe_top_overlap(list(query.key_hashes()), 5)
    assert [sid for sid, _ in hits] == ["t2::key->value"]
    assert "t1::key->value" not in catalog.lsh_candidate_ids(
        query.key_hashes()
    )
    # The monolithic accessors compact: the fold drops the entry for
    # real and returns fresh structures.
    refrozen = catalog.frozen_postings()
    assert refrozen is not frozen
    assert len(refrozen) == 1
    assert catalog.tombstone_count == 0
    rebuilt = catalog.lsh_index(bands=8, rows=2)
    assert rebuilt is not lsh
    assert "t1::key->value" not in rebuilt


def test_remove_unknown_sketch_raises():
    catalog = _catalog()
    with pytest.raises(KeyError, match="no sketch"):
        catalog.remove_sketch("missing")
    assert len(catalog) == 2


def test_remove_then_readd_same_id():
    catalog = _catalog()
    sketch = catalog.get("t1::key->value")
    catalog.remove_sketch("t1::key->value")
    catalog.add_sketch("t1::key->value", sketch)
    assert len(catalog) == 2
    hits = catalog.frozen_postings().top_overlap(
        list(sketch.key_hashes()), 5
    )
    assert hits[0][0] == "t1::key->value"


def test_remove_sketches_validates_batch():
    catalog = _catalog()
    with pytest.raises(KeyError, match="no sketch"):
        catalog.remove_sketches(["t1::key->value", "missing"])
    assert len(catalog) == 2
    with pytest.raises(ValueError, match="duplicate"):
        catalog.remove_sketches(["t1::key->value", "t1::key->value"])
    assert len(catalog) == 2
    removed = catalog.remove_sketches(["t1::key->value", "t2::key->value"])
    assert removed == ["t1::key->value", "t2::key->value"]
    assert len(catalog) == 0
    assert catalog.frozen_postings().vocabulary_size == 0


def test_remove_from_snapshot_loaded_catalog(tmp_path):
    """Removal on a lazily rehydrated catalog: the stale live index is
    simply rebuilt later from the surviving entries."""
    path = tmp_path / "c.arena"
    _catalog().save(path)
    loaded = SketchCatalog.load(path)
    loaded.remove_sketch("t1::key->value")
    assert len(loaded) == 1
    assert "t1::key->value" not in loaded.index
    assert "t2::key->value" in loaded.index
    sketch = loaded.get("t2::key->value")
    hits = loaded.frozen_postings().top_overlap(list(sketch.key_hashes()), 5)
    assert [sid for sid, _ in hits] == ["t2::key->value"]
