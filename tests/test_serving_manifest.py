"""Manifest persistence: round trips, every shard opened at load, stale
shards."""

import json

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.index.engine import JoinCorrelationEngine
from repro.index.catalog import SketchCatalog
from repro.serving import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ShardRouter,
    ShardedCatalog,
)


def _populate(catalog, n=12, seed=5):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        keys = rng.choice(800, 120, replace=False)
        sid = f"pair{i:03d}"
        pairs.append(
            (
                sid,
                CorrelationSketch.from_columns(
                    keys,
                    rng.standard_normal(120),
                    48,
                    hasher=catalog.hasher,
                    name=sid,
                ),
            )
        )
    catalog.add_sketches(pairs)
    return pairs


@pytest.fixture()
def saved(tmp_path):
    catalog = ShardedCatalog(3, sketch_size=48)
    pairs = _populate(catalog)
    directory = tmp_path / "catalog-dir"
    manifest_path = catalog.save(directory)
    return catalog, pairs, directory, manifest_path


def test_round_trip_preserves_every_sketch(saved):
    catalog, pairs, directory, _ = saved
    loaded = ShardedCatalog.load(directory)
    assert len(loaded) == len(catalog)
    assert loaded.n_shards == catalog.n_shards
    assert loaded.hasher.scheme_id == catalog.hasher.scheme_id
    assert sorted(loaded) == sorted(catalog)
    for sid, _ in pairs:
        a = catalog.sketch_columns(sid)
        b = loaded.sketch_columns(sid)
        assert (a.key_hashes == b.key_hashes).all()
        assert (a.ranks == b.ranks).all()
        assert (a.values == b.values).all()
        assert loaded.owner_of(sid) == catalog.owner_of(sid)


def test_round_trip_preserves_query_results(saved):
    catalog, pairs, directory, _ = saved
    rng = np.random.default_rng(9)
    keys = rng.choice(800, 200, replace=False)
    query = CorrelationSketch.from_columns(
        keys, rng.standard_normal(200), 48, hasher=catalog.hasher, name="q"
    )
    before = ShardRouter(catalog, retrieval_depth=8).query(query, k=5)
    after = ShardRouter(ShardedCatalog.load(directory), retrieval_depth=8).query(
        query, k=5
    )
    assert [(e.candidate_id, e.score) for e in before.ranked] == [
        (e.candidate_id, e.score) for e in after.ranked
    ]


def test_eager_load_materializes_everything(saved):
    catalog, _, directory, _ = saved
    loaded = ShardedCatalog.load(directory)
    assert loaded.storage_backends() == ["mmap"] * 3
    assert loaded.shard_sizes() == catalog.shard_sizes()


def test_loaded_shards_start_with_warm_postings(saved):
    """Per-shard v2 snapshots ship frozen postings, so a loaded shard
    answers its first probe without a freeze."""
    _, _, directory, _ = saved
    loaded = ShardedCatalog.load(directory)
    for i in range(3):
        assert loaded.shard(i)._frozen_postings is not None


def test_mutation_after_load_lands_in_only_target_shards_delta(saved):
    """Incremental maintenance on a loaded catalog: the append becomes a
    delta entry on exactly the owning shard — no shard is re-frozen."""
    _, _, directory, _ = saved
    loaded = ShardedCatalog.load(directory)
    from repro.table.table import table_from_arrays

    loaded.add_table(
        table_from_arrays("new", [f"n{i}" for i in range(40)], np.arange(40.0))
    )
    target = loaded.owner_of("new::key->value")
    for i in range(3):
        assert loaded.shard(i).delta_size == (1 if i == target else 0)


def test_unknown_manifest_version_refused(saved):
    _, _, directory, manifest_path = saved
    payload = json.loads(manifest_path.read_text())
    payload["version"] = MANIFEST_VERSION + 1
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported manifest version"):
        ShardedCatalog.load(directory)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"version": 1}, "versions 1 and 2 are retired"),
        ({"version": 2}, "versions 1 and 2 are retired"),
        ({"layout": "npz"}, r"\.npz shard layout is retired"),
        ({"layout": None}, r"\.npz shard layout is retired"),
    ],
)
@pytest.mark.parametrize("on_corruption", ["raise", "quarantine"])
def test_retired_manifest_generations_refused(
    saved, edit, message, on_corruption
):
    """One manifest generation is readable. An earlier version, or a
    current one recording the retired shard layout, is refused by name —
    under both corruption policies, and with nothing renamed: a refusal
    is not corruption."""
    _, _, directory, manifest_path = saved
    payload = json.loads(manifest_path.read_text())
    payload.update(edit)
    if edit.get("layout", "") is None:
        del payload["layout"]
    manifest_path.write_text(json.dumps(payload))
    before = sorted(p.name for p in directory.iterdir())
    with pytest.raises(ValueError, match=message):
        ShardedCatalog.load(directory, on_corruption=on_corruption)
    assert sorted(p.name for p in directory.iterdir()) == before


@pytest.mark.parametrize(
    "name",
    ["../x.arena", "/tmp/x.arena", "shard-0001.arena", "shard-0000.npz", None],
)
def test_shard_file_must_be_the_canonical_name(saved, tmp_path, name):
    """The shard file name is a function of the index: a manifest naming
    anything else — a path out of the directory, another shard's file —
    is refused before any path is joined."""
    _, _, directory, manifest_path = saved
    (tmp_path / "x.arena").write_bytes((directory / "shard-0000.arena").read_bytes())
    payload = json.loads(manifest_path.read_text())
    payload["shards"][0]["file"] = name
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="shard 0 must name 'shard-0000.arena'"):
        ShardedCatalog.load(directory)


def test_corrupt_manifest_json_refused(saved):
    _, _, directory, manifest_path = saved
    manifest_path.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt manifest"):
        ShardedCatalog.load(directory)


def test_missing_manifest_refused(tmp_path):
    with pytest.raises(FileNotFoundError, match=MANIFEST_NAME):
        ShardedCatalog.load(tmp_path)


def test_stale_shard_snapshot_detected(saved):
    """A shard file inconsistent with the manifest (here: swapped for a
    snapshot with a different sketch count) is recorded at load and
    raised on every touch instead of serving the wrong corpus."""
    catalog, _, directory, manifest_path = saved
    payload = json.loads(manifest_path.read_text())
    # Overwrite shard 0's snapshot with an empty catalog of the same
    # scheme — count disagrees with the manifest.
    empty = SketchCatalog(sketch_size=48, hasher=catalog.hasher)
    empty.save(directory / payload["shards"][0]["file"])
    loaded = ShardedCatalog.load(directory)
    with pytest.raises(ValueError, match="stale shard"):
        loaded.shard(0)


def test_duplicate_id_across_shards_refused(saved):
    _, _, directory, manifest_path = saved
    payload = json.loads(manifest_path.read_text())
    dup = payload["shards"][0]["ids"][0]
    payload["shards"][1]["ids"][0] = dup
    manifest_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="more than one shard"):
        ShardedCatalog.load(directory)


def test_sharded_vs_monolithic_snapshot_same_results(saved, tmp_path):
    """A sharded manifest and a monolithic arena of the same corpus serve
    identical rankings — the persistence formats agree end to end."""
    catalog, pairs, directory, _ = saved
    mono = SketchCatalog(sketch_size=48, hasher=catalog.hasher)
    mono.add_sketches(pairs)
    mono_path = tmp_path / "mono.arena"
    mono.save(mono_path)
    rng = np.random.default_rng(21)
    keys = rng.choice(800, 200, replace=False)
    query = CorrelationSketch.from_columns(
        keys, rng.standard_normal(200), 48, hasher=catalog.hasher, name="q"
    )
    a = JoinCorrelationEngine(
        SketchCatalog.load(mono_path), retrieval_depth=8
    ).query(query, k=5)
    b = ShardRouter(ShardedCatalog.load(directory), retrieval_depth=8).query(
        query, k=5
    )
    assert [(e.candidate_id, e.score) for e in a.ranked] == [
        (e.candidate_id, e.score) for e in b.ranked
    ]
