"""Binary catalog snapshots: round trip, lazy rehydration, bulk add.

The snapshot contract (docs/ARCHITECTURE.md): a catalog saved to the
binary format (the arena) and to JSON must load back **array-identical**
— same per-sketch entries, columnar views, metadata and postings — while
the binary load does no per-entry work (lazy array-view sketches, warm
frozen-postings cache). Each format is
readable in exactly one generation: the retired zip-of-``.npy`` format
is refused by name, under either corruption policy, and the bytes of a
current-generation file are pinned to recorded digests.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog, SnapshotRefused
from repro.index.engine import JoinCorrelationEngine
from repro.index.arena import ArenaReader, backing_storage, write_arena
from repro.index.snapshot import (
    ARENA_VERSION,
    QUARANTINE_SUFFIX,
    detect_format,
    load_snapshot,
    verify_snapshot,
)
from repro.serving import MANIFEST_NAME, ShardedCatalog
from repro.table.table import table_from_arrays

from scalar_query_oracle import scalar_query
from scancount_oracle import index_of
from digest import assert_states_equal, sketch_state


def _world(seed=0, n_tables=8, n_rows=900, sketch_size=64, hasher=None):
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    q = rng.standard_normal(n_rows)
    catalog = SketchCatalog(sketch_size=sketch_size, hasher=hasher)
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


def _assert_scalars_equal(a: CorrelationSketch, b: CorrelationSketch):
    """The per-sketch scalars a snapshot persists beside the arrays."""
    assert (a.n, a.aggregate, a.name) == (b.n, b.aggregate, b.name)
    assert (a.rows_seen, a.saw_all_keys) == (b.rows_seen, b.saw_all_keys)
    for x, y in ((a.value_min, b.value_min), (a.value_max, b.value_max)):
        assert x == y or (math.isnan(x) and math.isnan(y))


def _assert_entries_equal(a: dict, b: dict):
    assert set(a) == set(b)
    for kh, value in a.items():
        other = b[kh]
        assert value == other or (math.isnan(value) and math.isnan(other))


# -- round trip --------------------------------------------------------------


def test_json_binary_round_trip_array_equality(tmp_path):
    catalog, _ = _world()
    json_path = tmp_path / "c.json"
    arena_path = tmp_path / "c.arena"
    catalog.save(json_path)
    catalog.save(arena_path)

    from_json = SketchCatalog.load(json_path)
    from_arena = SketchCatalog.load(arena_path)
    assert (from_json.storage, from_arena.storage) == ("heap", "mmap")
    assert list(from_json) == list(from_arena) == list(catalog)
    assert from_arena.sketch_size == catalog.sketch_size
    assert from_arena.aggregate == catalog.aggregate
    assert from_arena.hasher.scheme_id == catalog.hasher.scheme_id

    for sid in catalog:
        _assert_columns_equal(
            catalog.sketch_columns(sid), from_arena.sketch_columns(sid)
        )
        _assert_columns_equal(
            from_json.sketch_columns(sid), from_arena.sketch_columns(sid)
        )
        assert backing_storage(from_arena.sketch_columns(sid).values) == "mmap"
        _assert_scalars_equal(from_arena.get(sid), catalog.get(sid))
        _assert_scalars_equal(from_json.get(sid), catalog.get(sid))
        # Full materialization equality, down to every entry.
        _assert_entries_equal(
            from_arena.get(sid).entries(), catalog.get(sid).entries()
        )


def _assert_postings_equal(a, b):
    for name in ("vocab", "indptr", "doc_ids", "doc_lengths"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert list(a.docs) == list(b.docs)


@pytest.mark.parametrize("bits", [32, 64])
def test_hashes_are_stored_at_the_scheme_width(tmp_path, bits):
    """A 32-bit h(k) takes 4 bytes on disk and a 64-bit one 8, in both
    vocabularies; entries store 2-byte key ids into the entry vocabulary.
    Loaded, every hash array is uint64 again and equal to the JSON round
    trip's: key hashes, vocabulary, columnar views and postings."""
    catalog, _ = _world(seed=3, hasher=KeyHasher(bits=bits, seed=5))
    catalog.save(tmp_path / "c.arena")
    catalog.save(tmp_path / "c.json")
    stored = np.dtype(np.uint32 if bits == 32 else np.uint64)
    reader = ArenaReader(tmp_path / "c.arena")
    assert reader.array("entry_vocab").dtype == stored
    assert reader.array("postings_vocab").dtype == stored
    assert reader.array("key_ids").dtype == np.uint16
    from_arena = SketchCatalog.load(tmp_path / "c.arena")
    from_json = SketchCatalog.load(tmp_path / "c.json")
    for sid in catalog:
        columns = from_arena.sketch_columns(sid)
        assert columns.key_hashes.dtype == np.uint64
        assert not columns.key_hashes.flags.writeable
        _assert_columns_equal(columns, from_json.sketch_columns(sid))
    vocab = from_arena.frozen_postings().vocab
    assert vocab.dtype == np.uint64 and not vocab.flags.writeable
    _assert_postings_equal(from_arena.frozen_postings(), from_json.frozen_postings())


def test_save_refuses_a_hash_wider_than_the_scheme(tmp_path):
    """A 32-bit-scheme hash of 2**32 cannot be stored in 4 bytes: the
    save raises instead of truncating, and writes nothing."""
    hasher = KeyHasher(bits=32)
    catalog = SketchCatalog(sketch_size=4, hasher=hasher)
    catalog.add_sketch(
        "wide",
        CorrelationSketch.from_frozen_arrays(
            np.asarray([7, 2**32], dtype=np.uint64),
            np.asarray([1.0, 2.0]),
            n=4,
            hasher=hasher,
        ),
    )
    with pytest.raises(ValueError, match="does not fit the 32-bit"):
        catalog.save(tmp_path / "c.arena")
    assert list(tmp_path.iterdir()) == []


def test_mixed_aggregate_catalog_round_trips(tmp_path):
    """Only the sketches whose aggregate differs from the catalog's are
    named in the header, and every sketch loads with its own."""
    catalog, _ = _world(seed=2, n_tables=3)
    keys = [f"k{i}" for i in range(60)]
    values = np.arange(60, dtype=np.float64)
    for aggregate in ("sum", "max"):
        catalog.add_sketch(
            aggregate,
            CorrelationSketch.from_columns(
                keys + keys, np.concatenate([values, values]), 64,
                aggregate=aggregate, hasher=catalog.hasher, name=aggregate,
            ),
        )
    path = tmp_path / "c.arena"
    catalog.save(path)
    ids = list(catalog)
    assert ArenaReader(path).meta["aggregates"] == {
        str(ids.index("sum")): "sum", str(ids.index("max")): "max"
    }
    loaded = SketchCatalog.load(path)
    for sid in catalog:
        _assert_scalars_equal(loaded.get(sid), catalog.get(sid))
        _assert_columns_equal(loaded.sketch_columns(sid), catalog.sketch_columns(sid))
    assert loaded.get("sum").aggregate == "sum"
    assert loaded.get(ids[0]).aggregate == catalog.aggregate


def test_probe_over_narrow_frozen_layer_and_wide_delta(tmp_path):
    """After load + add_table the frozen layer comes from uint32 arena
    members and the delta from uint64 heap sketches; the probe and the
    ranking equal a heap catalog's that took the same write."""
    heap, query = _world(seed=10)
    heap.compact()
    path = tmp_path / "c.arena"
    heap.save(path)
    assert ArenaReader(path).array("postings_vocab").dtype == np.uint32
    loaded = SketchCatalog.load(path)
    n = 900
    late = table_from_arrays(
        "late", [f"k{i}" for i in range(0, n, 2)],
        np.random.default_rng(4).standard_normal(n // 2),
    )
    for catalog in (heap, loaded):
        catalog.add_table(late)
    assert loaded._delta_ids and loaded.storage == "mmap"
    probe = [query.columnar().key_hashes]
    assert loaded.probe_top_overlap_batch(probe, 20) == (
        heap.probe_top_overlap_batch(probe, 20)
    )
    expected = JoinCorrelationEngine(heap).query(query, k=8, scorer="rp")
    got = JoinCorrelationEngine(loaded).query(query, k=8, scorer="rp")
    assert [(e.candidate_id, e.score) for e in got.ranked] == [
        (e.candidate_id, e.score) for e in expected.ranked
    ]


def test_snapshot_persists_frozen_postings(tmp_path):
    catalog, _ = _world(seed=1)
    original = catalog.frozen_postings()
    path = tmp_path / "c.arena"
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
    json_path, arena_path = tmp_path / "c.json", tmp_path / "c.arena"
    catalog.save(json_path)
    catalog.save(arena_path)
    engines = [
        JoinCorrelationEngine(c)
        for c in (catalog, SketchCatalog.load(json_path), SketchCatalog.load(arena_path))
    ]
    for scorer in ("rp", "rp_cih", "rb_cib", "jc_est", "random"):
        results = [e.query(query, k=6, scorer=scorer) for e in engines]
        baseline = [(e.candidate_id, e.score) for e in results[0].ranked]
        for result in results[1:]:
            assert [(e.candidate_id, e.score) for e in result.ranked] == baseline


def test_save_of_unmaterialized_snapshot_catalog(tmp_path):
    """save(arena) -> load -> save(both formats) without ever materializing."""
    catalog, query = _world(seed=3, n_tables=4)
    first = tmp_path / "a.arena"
    catalog.save(first)
    loaded = SketchCatalog.load(first)
    second_arena = tmp_path / "b.arena"
    second_json = tmp_path / "b.json"
    loaded.save(second_arena)  # lazy entries persisted from their views
    loaded.save(second_json)  # JSON save materializes on demand
    assert second_arena.read_bytes() == first.read_bytes()
    again = SketchCatalog.load(second_arena)
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
    path = tmp_path / "empty.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert len(loaded) == 0
    assert loaded.sketch_size == 16
    assert len(loaded.frozen_postings()) == 0


def test_snapshot_preserves_scheme_and_flags(tmp_path):
    catalog = SketchCatalog(
        sketch_size=8, hasher=KeyHasher(bits=64, seed=5), aggregate="sum"
    )
    catalog.add_table(table_from_arrays("t", ["a", "b", "a"], [1.0, 2.0, 3.0]))
    for name in ("c.arena", "c.json"):
        catalog.save(tmp_path / name)
        loaded = SketchCatalog.load(tmp_path / name)
        assert loaded.hasher.scheme_id == (64, 5)
        assert loaded.sketch_size == 8
        assert loaded.aggregate == "sum"


def test_unknown_snapshot_version_rejected(tmp_path):
    """Exactly one generation is readable: the one this build writes."""
    catalog, _ = _world(seed=4, n_tables=2)
    path = tmp_path / "c.arena"
    catalog.save(path)
    reader = ArenaReader(path)
    arrays = {name: reader.array(name) for name in reader.extents}
    for version in (ARENA_VERSION - 1, ARENA_VERSION + 1, None):
        meta = {
            k: v
            for k, v in reader.meta.items()
            if k not in ("arrays", "data_bytes", "payload_crc32")
        }
        meta["version"] = version
        write_arena(tmp_path / "other.arena", meta, arrays)
        with pytest.raises(ValueError, match="arena version"):
            load_snapshot(tmp_path / "other.arena")
    assert len(load_snapshot(path)) == len(catalog)


def _restamped(path, edit):
    """Rewrite the arena at ``path`` with ``edit`` applied to copies of
    its arrays. ``write_arena`` stamps a fresh ``payload_crc32``, so the
    checksum passes and only a structural check can catch the edit."""
    reader = ArenaReader(path)
    meta = {
        k: v
        for k, v in reader.meta.items()
        if k not in ("arrays", "data_bytes", "payload_crc32")
    }
    arrays = {name: np.array(reader.array(name)) for name in reader.extents}
    edit(arrays)
    write_arena(path, meta, arrays)


@pytest.mark.parametrize("position", [-1, 99])
def test_postings_doc_position_out_of_range_is_corruption(tmp_path, position):
    """A document position outside ``ids + tombstones`` is a corrupt
    file (quarantinable), never a silently wrapped or missing name."""
    catalog, _ = _world(seed=4, n_tables=2)
    path = tmp_path / "c.arena"
    catalog.save(path)
    _restamped(path, lambda arrays: arrays["postings_docs"].__setitem__(0, position))
    with pytest.raises(ValueError, match="postings document position"):
        load_snapshot(path)


def _key_id_past_vocab(arrays):
    arrays["key_ids"][arrays["entry_indptr"][1] - 1] = arrays["entry_vocab"].size


def _doc_id_past_docs(arrays):
    arrays["postings_doc_ids"][0] = arrays["postings_docs"].size


def _postings_indptr_decreases(arrays):
    arrays["postings_indptr"][1] = arrays["postings_indptr"][-1]


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_key_id_past_vocab, "key_ids holds"),
        (_doc_id_past_docs, "postings_doc_ids holds"),
        (_postings_indptr_decreases, "postings_indptr decreases"),
    ],
)
def test_restamped_range_violation_fails_verify(tmp_path, edit, problem):
    """An id past its table or offsets that decrease, under a valid
    checksum: load stays O(metadata) and accepts the file, verify reports
    it corrupt, and waking a sketch over a bad key id raises a corrupt
    arena ``ValueError``, never a bare ``IndexError``."""
    catalog, _ = _world(seed=4, n_tables=3)
    path = tmp_path / "c.arena"
    catalog.save(path)
    assert verify_snapshot(path) is True
    _restamped(path, edit)
    loaded = load_snapshot(path)
    with pytest.raises(ValueError, match=f"corrupt arena .*{problem}"):
        verify_snapshot(path)
    if edit is _key_id_past_vocab:
        with pytest.raises(ValueError, match="corrupt arena .*key id of sketch"):
            loaded.get(next(iter(loaded)))


@pytest.mark.parametrize("member", ["entry_indptr", "postings_indptr"])
def test_offsets_that_miss_their_array_end_are_quarantined(tmp_path, member):
    """An offset array that does not end at its id array's length is an
    O(1) fact, so load refuses it as corrupt: the quarantine policy
    renames the file and loads the JSON sibling, and a shard directory
    serves without the renamed shard."""
    catalog, _ = _world(seed=4, n_tables=4)

    def edit(arrays):
        arrays[member][-1] -= 1

    path = tmp_path / "c.arena"
    catalog.save(path)
    catalog.save(tmp_path / "c.json")
    _restamped(path, edit)
    with pytest.raises(ValueError, match=f"corrupt arena .*{member} does not run"):
        verify_snapshot(path)
    recovered = SketchCatalog.load(path, on_corruption="quarantine")
    assert recovered.load_recovery["loaded_from"] == str(tmp_path / "c.json")
    assert (tmp_path / ("c.arena" + QUARANTINE_SUFFIX)).exists()

    sharded = ShardedCatalog(2, sketch_size=catalog.sketch_size)
    sharded.add_sketches((sid, catalog.get(sid)) for sid in catalog)
    directory = tmp_path / "dir"
    sharded.save(directory)
    _restamped(directory / "shard-0001.arena", edit)
    loaded = ShardedCatalog.load(directory, on_corruption="quarantine")
    assert [event["shard"] for event in loaded.quarantine_events] == [1]
    assert (directory / ("shard-0001.arena" + QUARANTINE_SUFFIX)).exists()
    assert loaded.shard(0) is not None


def _as_version(path, version):
    reader = ArenaReader(path)
    meta = {
        k: v
        for k, v in reader.meta.items()
        if k not in ("arrays", "data_bytes", "payload_crc32")
    }
    meta["version"] = version
    write_arena(path, meta, {name: reader.array(name) for name in reader.extents})


@pytest.mark.parametrize("on_corruption", ["raise", "quarantine"])
def test_version_4_arena_refusal_names_the_bridge(tmp_path, on_corruption):
    """A file from the build before ranks were derived is refused with
    the way across: convert it to JSON on that build, or re-index. A
    refusal is not corruption: under either policy nothing is renamed
    and the healthy sibling JSON is not loaded in its place."""
    catalog, _ = _world(seed=4, n_tables=2)
    path = tmp_path / "c.arena"
    catalog.save(path)
    catalog.save(tmp_path / "c.json")
    _as_version(path, 4)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SnapshotRefused) as excinfo:
        SketchCatalog.load(path, on_corruption=on_corruption)
    message = str(excinfo.value)
    assert "arena version 4" in message
    assert f"reads version {ARENA_VERSION}" in message
    assert "catalog convert" in message and "re-index" in message
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_version_4_shard_is_refused_not_quarantined(tmp_path):
    """A shard directory whose shard files predate version 5 raises the
    refusal on first touch under the quarantine policy too, instead of
    serving degraded with the shard renamed aside."""
    catalog, _ = _world(seed=4, n_tables=4)
    sharded = ShardedCatalog(2, sketch_size=catalog.sketch_size)
    sharded.add_sketches((sid, catalog.get(sid)) for sid in catalog)
    directory = tmp_path / "dir"
    sharded.save(directory)
    for shard_file in sorted(directory.glob("shard-*.arena")):
        _as_version(shard_file, 4)
    before = sorted(p.name for p in directory.iterdir())
    loaded = ShardedCatalog.load(directory, on_corruption="quarantine")
    with pytest.raises(SnapshotRefused, match="catalog convert"):
        loaded.shard(0)
    assert loaded.quarantine_events == []
    assert sorted(p.name for p in directory.iterdir()) == before


@pytest.mark.parametrize("on_corruption", ["raise", "quarantine"])
def test_version_5_arena_is_refused_not_quarantined(tmp_path, on_corruption):
    """A file from the build that stored every hash in 8 bytes is refused
    by version, naming the ``catalog convert`` bridge; nothing is renamed
    and the healthy sibling JSON is not loaded in its place."""
    catalog, _ = _world(seed=4, n_tables=2)
    path = tmp_path / "c.arena"
    catalog.save(path)
    catalog.save(tmp_path / "c.json")
    _as_version(path, 5)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SnapshotRefused) as excinfo:
        SketchCatalog.load(path, on_corruption=on_corruption)
    message = str(excinfo.value)
    assert "arena version 5" in message
    assert f"reads version {ARENA_VERSION}" in message
    assert "catalog convert" in message
    # verify refuses what load refuses, with the same message.
    with pytest.raises(SnapshotRefused) as verified:
        verify_snapshot(path)
    assert str(verified.value) == message
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("on_corruption", ["raise", "quarantine"])
def test_version_6_arena_is_refused_not_quarantined(tmp_path, on_corruption):
    """A file from the build that stored every entry's key hash and
    32-bit doc ids is refused by version, naming the ``catalog convert``
    bridge, under either policy; verify refuses it with the same message
    and nothing is renamed."""
    catalog, _ = _world(seed=4, n_tables=2)
    path = tmp_path / "c.arena"
    catalog.save(path)
    catalog.save(tmp_path / "c.json")
    _as_version(path, 6)
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SnapshotRefused) as excinfo:
        SketchCatalog.load(path, on_corruption=on_corruption)
    message = str(excinfo.value)
    assert "arena version 6" in message
    assert f"reads version {ARENA_VERSION}" in message
    assert "catalog convert" in message
    with pytest.raises(SnapshotRefused) as verified:
        verify_snapshot(path)
    assert str(verified.value) == message
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("name", ["c.npz", "c.bin", "c.json", "c.arena"])
@pytest.mark.parametrize("on_corruption", ["raise", "quarantine"])
def test_retired_npz_snapshot_refused_not_quarantined(
    tmp_path, name, on_corruption
):
    """A file in the retired format — by extension or by zip magic — is
    refused by name. A refusal is not corruption: it raises under both
    policies, renames nothing and never reaches a healthy sibling."""
    catalog, _ = _world(seed=4, n_tables=2)
    catalog.save(tmp_path / ("c.arena" if name == "c.json" else "c.json"))
    path = tmp_path / name
    # The zip magic, or (for the extension case) bytes that are not even that.
    path.write_bytes(b"not a zip" if name == "c.npz" else b"PK\x03\x04 members")
    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(ValueError, match=r"retired \.npz snapshot format"):
        SketchCatalog.load(path, on_corruption=on_corruption)
    with pytest.raises(ValueError, match=r"retired \.npz snapshot format"):
        verify_snapshot(path)
    with pytest.raises(ValueError, match=r"retired \.npz snapshot format"):
        load_snapshot(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not (tmp_path / (name + QUARANTINE_SUFFIX)).exists()


def test_save_refuses_the_retired_extension(tmp_path):
    catalog, _ = _world(seed=4, n_tables=2)
    with pytest.raises(ValueError, match=r"retired \.npz snapshot format"):
        catalog.save(tmp_path / "c.npz")
    assert list(tmp_path.iterdir()) == []


def _fixed_tables():
    tables = []
    for t in range(5):
        rows = 40 + 17 * t
        keys = [f"k{(7 * i + 3 * t) % 97}" for i in range(rows)]
        values = np.asarray(
            [((i * i + 5 * t) % 23) / 4.0 - t for i in range(rows)], dtype=np.float64
        )
        values[t::9] = np.nan
        tables.append(table_from_arrays(f"fixed{t}", keys, values))
    return tables


def test_current_generation_files_are_byte_identical_to_pr21(tmp_path):
    """A fixed catalog — frozen layer, one delta sketch, one tombstone —
    and its sharded twin hash to recorded constants. The JSON catalog
    and the manifest still hash to what commit 1e139e2 wrote (their
    constant keys included): no arena change may move them. The three
    ``.arena`` digests pin arena version 7's layout: entries ``⟨h(k), x_k⟩``
    without ranks, each key as its position in a sorted entry vocabulary
    stored at the scheme's hash width, key ids and posting doc ids in 2
    bytes while they fit, 4-byte postings offsets, a three-slot
    ``catalog_config``, no names equal to their id, postings docs as
    positions into ``ids + tombstones``, aggregates named only where
    they differ from the catalog's."""
    tables = _fixed_tables()
    catalog = SketchCatalog(sketch_size=16)
    catalog.add_tables(tables[:4])
    catalog.compact()
    catalog.add_table(tables[4])
    catalog.remove_sketch(next(iter(catalog)))
    catalog.save(tmp_path / "c.arena")
    catalog.save(tmp_path / "c.json")
    sharded = ShardedCatalog(2, sketch_size=16)
    sharded.add_tables(tables)
    sharded.save(tmp_path / "dir")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (
            "c.arena", "c.json", f"dir/{MANIFEST_NAME}",
            "dir/shard-0000.arena", "dir/shard-0001.arena",
        )
    }
    assert digests == {
        "c.arena": "5356c763b33689f3597b05687769f0c88949f6d26e31fca2552e62e29cebaaf5",
        "c.json": "2212f75b750122694e9adb0e7e67004f7eccc6d5bc2cf509e6727eb5c1f2cb81",
        "dir/manifest.json": "614ea182ce9637a4d3521af36884ee48d7a153a46e9b54b07fb6c4f91460594a",
        "dir/shard-0000.arena": "018ad2d30cad4a761b3db2d9d478a4a4281c2e3fa6e112021871fa50d3f89977",
        "dir/shard-0001.arena": "38322a2e5b400bcb78b9eb54f247113451c723174d2c0d73e873cc996e4a70df",
    }


def test_format_detection(tmp_path):
    catalog, _ = _world(seed=5, n_tables=2)
    arena_path = tmp_path / "c.arena"
    json_path = tmp_path / "c.json"
    catalog.save(arena_path)
    catalog.save(json_path)
    assert detect_format(arena_path) == "arena"
    assert detect_format(json_path) == "json"
    # Content sniff: a snapshot without the .arena extension still loads.
    sneaky = tmp_path / "catalog.bin"
    sneaky.write_bytes(arena_path.read_bytes())
    assert detect_format(sneaky) == "arena"
    assert len(SketchCatalog.load(sneaky)) == len(catalog)


# -- lazy rehydration --------------------------------------------------------


def test_columnar_path_never_materializes(tmp_path):
    catalog, query = _world(seed=6)
    path = tmp_path / "c.arena"
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
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    sid = next(iter(loaded))
    sketch = loaded.get(sid)
    assert loaded.get(sid) is sketch
    # The sketch is a view over the snapshot's columnar arrays.
    assert loaded.sketch_columns(sid) is sketch.columnar()


def test_mutation_after_snapshot_load(tmp_path):
    catalog, query = _world(seed=8, n_tables=3)
    path = tmp_path / "c.arena"
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
    # The refrozen postings cover snapshot and post-snapshot sketches.
    assert len(loaded.frozen_postings()) == len(loaded)


def test_scalar_index_rebuild_matches_original(tmp_path):
    catalog, query = _world(seed=9)
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    a = index_of(catalog).top_overlap(query.key_hashes(), 10)
    b = index_of(loaded).top_overlap(query.key_hashes(), 10)
    assert a == b
    assert loaded.probe_top_overlap_batch([query.columnar().key_hashes], 10)[0] == a


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


# -- stored id widths --------------------------------------------------------


def _wire(result) -> dict:
    return {k: v for k, v in result.to_dict().items() if not k.endswith("_seconds")}


def _assert_loads_back_equal(catalog, path, query):
    """Every sketch's full state and the engine's answer survive the
    save unchanged."""
    loaded = SketchCatalog.load(path)
    for sid in catalog:
        state = {
            k: v for k, v in sketch_state(catalog.get(sid)).items()
            if not k.startswith("slot:")
        }
        assert_states_equal(sketch_state(loaded.get(sid)), state)
    for scorer in ("rp", "rp_cih"):
        assert _wire(JoinCorrelationEngine(loaded).query(query, k=3, scorer=scorer)) == (
            _wire(JoinCorrelationEngine(catalog).query(query, k=3, scorer=scorer))
        )


@pytest.mark.parametrize("keys, stored", [(65_536, np.uint16), (66_000, np.uint32)])
def test_key_ids_widen_past_65536_distinct_hashes(tmp_path, keys, stored):
    """One sketch of ``keys`` distinct 64-bit key hashes: 65 536 of them
    still fit 2-byte key ids, 66 000 take 4; both load back equal."""
    hasher = KeyHasher(bits=64)
    rng = np.random.default_rng(11)
    catalog = SketchCatalog(sketch_size=keys, hasher=hasher)
    universe = np.arange(keys)
    catalog.add_sketch(
        "wide", CorrelationSketch.from_columns(
            universe, rng.standard_normal(keys), keys, hasher=hasher, name="wide"
        )
    )
    catalog.add_sketch(
        "narrow", CorrelationSketch.from_columns(
            universe[::7], rng.standard_normal(universe[::7].size), keys,
            hasher=hasher, name="narrow",
        )
    )
    query = CorrelationSketch.from_columns(
        universe[::3], rng.standard_normal(universe[::3].size), keys, hasher=hasher
    )
    path = tmp_path / "c.arena"
    catalog.save(path)
    reader = ArenaReader(path)
    assert reader.array("entry_vocab").shape == (keys,)
    assert reader.array("key_ids").dtype == stored
    assert reader.array("postings_doc_ids").dtype == np.uint16
    _assert_loads_back_equal(catalog, path, query)


@pytest.mark.parametrize("docs, stored", [(8, np.uint16), (9, np.uint32)])
def test_doc_ids_widen_past_the_narrow_row_limit(tmp_path, monkeypatch, docs, stored):
    """Doc ids follow the same rule as key ids, from the postings'
    document count. Building 65 537 sketches is too slow for tier 1, so
    the 65 536-row limit is lowered to 8: 8 documents keep 2-byte doc
    ids, 9 take 4; both load back equal."""
    import repro.index.snapshot as snapshot

    monkeypatch.setattr(snapshot, "_NARROW_ID_ROWS", 8)
    catalog, query = _world(seed=12, n_tables=docs, n_rows=300, sketch_size=4)
    path = tmp_path / "c.arena"
    catalog.save(path)
    reader = ArenaReader(path)
    assert len(catalog.frozen_postings().docs) == docs
    assert reader.array("postings_doc_ids").dtype == stored
    # Bottom-k samples of one key universe share their smallest hashes.
    narrow_keys = reader.array("entry_vocab").size <= 8
    assert reader.array("key_ids").dtype == (np.uint16 if narrow_keys else np.uint32)
    _assert_loads_back_equal(catalog, path, query)
