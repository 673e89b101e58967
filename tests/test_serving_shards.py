"""Unit tests for ShardedCatalog: placement, maintenance, invalidation."""

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.hashing.murmur3 import murmur3_32
from repro.serving import ShardedCatalog
from repro.table.table import table_from_arrays


def _table(name, lo, n=80):
    return table_from_arrays(
        name, [f"k{i}" for i in range(lo, lo + n)], np.arange(float(n))
    )


def _sketch(hasher, name, seed=0, n_rows=60):
    rng = np.random.default_rng(seed)
    keys = rng.choice(1000, n_rows, replace=False)
    return CorrelationSketch.from_columns(
        keys, rng.standard_normal(n_rows), 32, hasher=hasher, name=name
    )


@pytest.fixture()
def catalog():
    return ShardedCatalog(3, sketch_size=32)


def test_hash_placement_is_deterministic(catalog):
    sketch = _sketch(catalog.hasher, "s1")
    index = catalog.add_sketch("s1", sketch)
    assert index == murmur3_32("s1") % 3
    assert catalog.owner_of("s1") == index
    # An independently built catalog agrees on the layout.
    other = ShardedCatalog(3, sketch_size=32, hasher=catalog.hasher)
    assert other.shard_of("s1") == index


def test_add_sketches_groups_by_hash_shard(catalog):
    pairs = [
        (f"s{i}", _sketch(catalog.hasher, f"s{i}", seed=i)) for i in range(12)
    ]
    catalog.add_sketches(pairs)
    assert len(catalog) == 12
    for sid, _ in pairs:
        assert sid in catalog
        assert catalog.owner_of(sid) == catalog.shard_of(sid)
        assert sid in catalog.shard(catalog.shard_of(sid))


def test_tables_route_to_least_loaded_shard(catalog):
    catalog.add_table(_table("t1", 0))
    catalog.add_table(_table("t2", 40))
    catalog.add_table(_table("t3", 80))
    catalog.add_table(_table("t4", 120))
    # One pair per table: shards fill 0,1,2 then wrap to the smallest.
    assert catalog.shard_sizes() == [2, 1, 1]
    assert catalog.owner_of("t1::key->value") == 0
    assert catalog.owner_of("t4::key->value") == 0


def test_table_mutation_lands_in_only_its_shards_delta(catalog):
    catalog.add_tables([_table(f"t{i}", 30 * i) for i in range(3)])
    # Warm every shard's frozen postings (compacts: empties the deltas).
    for i in range(3):
        catalog.shard(i).frozen_postings()
    assert catalog.delta_sizes() == [0, 0, 0]
    catalog.add_table(_table("t9", 200))
    target = catalog.owner_of("t9::key->value")
    # Every shard's frozen layer stays warm; the mutation is a delta
    # entry on exactly the owning shard.
    for i in range(3):
        assert catalog.shard(i)._frozen_postings is not None
        assert catalog.shard(i).delta_size == (1 if i == target else 0)
    # Shard-level compaction folds it in and empties the deltas again.
    versions = catalog.compact()
    assert len(versions) == 3
    assert catalog.delta_sizes() == [0, 0, 0]
    assert "t9::key->value" in catalog.shard(target).frozen_postings().docs


def test_duplicate_ids_rejected_across_shards(catalog):
    catalog.add_table(_table("t1", 0))
    # The same pair id hashes to one shard but could be routed anywhere;
    # the catalog-level check must reject it wherever it lives.
    with pytest.raises(ValueError, match="already in catalog"):
        catalog.add_table(_table("t1", 0))
    with pytest.raises(ValueError, match="already in catalog"):
        catalog.add_sketch(
            "t1::key->value", _sketch(catalog.hasher, "dup")
        )
    sketch = _sketch(catalog.hasher, "x")
    with pytest.raises(ValueError, match="duplicate sketch id"):
        catalog.add_sketches([("x", sketch), ("x", sketch)])
    assert len(catalog) == 1


def test_remove_sketch_updates_placement_and_counts(catalog):
    catalog.add_table(_table("t1", 0))
    catalog.add_table(_table("t2", 40))
    index = catalog.remove_sketch("t1::key->value")
    assert "t1::key->value" not in catalog
    assert len(catalog) == 1
    assert catalog.shard_sizes()[index] == 0
    with pytest.raises(KeyError, match="no sketch"):
        catalog.remove_sketch("t1::key->value")
    # The freed slot is the least loaded again; re-adding works.
    catalog.add_table(_table("t1", 0))
    assert catalog.owner_of("t1::key->value") == index


def test_remove_sketches_validates_before_mutating(catalog):
    catalog.add_tables([_table(f"t{i}", 30 * i) for i in range(4)])
    with pytest.raises(KeyError, match="no sketch"):
        catalog.remove_sketches(["t0::key->value", "missing"])
    assert len(catalog) == 4
    with pytest.raises(ValueError, match="duplicate"):
        catalog.remove_sketches(["t0::key->value", "t0::key->value"])
    assert len(catalog) == 4
    removed = catalog.remove_sketches(["t0::key->value", "t2::key->value"])
    assert removed == ["t0::key->value", "t2::key->value"]
    assert len(catalog) == 2


def test_get_and_columns_route_to_owner(catalog):
    catalog.add_table(_table("t1", 0))
    sid = "t1::key->value"
    assert catalog.get(sid).name == sid
    assert catalog.sketch_columns(sid).size > 0
    with pytest.raises(KeyError, match="no sketch"):
        catalog.get("missing")
    with pytest.raises(KeyError, match="no sketch"):
        catalog.owner_of("missing")


def test_add_csv_streaming_routes_least_loaded(catalog, tmp_path):
    path = tmp_path / "t.csv"
    lines = ["date,v"] + [f"d{i},{float(i)}" for i in range(50)]
    path.write_text("\n".join(lines) + "\n")
    ids = catalog.add_csv_streaming(path)
    assert len(ids) == 1
    assert catalog.owner_of(ids[0]) == 0
    # A second file lands on the next-smallest shard.
    path2 = tmp_path / "u.csv"
    path2.write_text("\n".join(lines) + "\n")
    ids2 = catalog.add_csv_streaming(path2)
    assert catalog.owner_of(ids2[0]) == 1
    # Re-streaming the same file would duplicate its pair ids — rejected
    # at the catalog level before any shard mutates.
    with pytest.raises(ValueError, match="already in catalog"):
        catalog.add_csv_streaming(path)
    assert len(catalog) == 2


def test_iteration_covers_every_shard(catalog):
    pairs = [
        (f"s{i}", _sketch(catalog.hasher, f"s{i}", seed=i)) for i in range(9)
    ]
    catalog.add_sketches(pairs)
    assert sorted(catalog) == sorted(sid for sid, _ in pairs)
    assert len(catalog) == sum(catalog.shard_sizes()) == 9


def test_shared_hasher_scheme_enforced(catalog):
    alien = CorrelationSketch(32, hasher=KeyHasher(seed=7))
    with pytest.raises(ValueError, match="scheme"):
        catalog.add_sketch("alien", alien)
