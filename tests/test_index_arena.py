"""Zero-copy arena snapshots: format, mapping lifecycle, bit parity.

The arena contract (docs/ARCHITECTURE.md "Zero-copy serving"): a
catalog saved to an ``.arena`` loads back as read-only views into one
shared mapping — array-identical to the JSON round trip
(``test_index_snapshot.py``), query-bit-identical to the heap-backed
catalog across every scorer,
rng mode and retrieval backend — while mutations never touch the
mapping (delta/tombstone heap structures, copy-on-compact) and the
mapping survives ``os.replace`` / ``os.unlink`` of the snapshot file.
"""

import ctypes
import gc
import json
import math
import multiprocessing
import os
import struct

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.arena import (
    ALIGNMENT,
    MAGIC,
    ArenaReader,
    atomic_write,
    atomic_write_text,
    backing_storage,
    has_arena_magic,
    write_arena,
)
from repro.index.catalog import SketchCatalog, _DeferredEntryDict
from repro.index.engine import JoinCorrelationEngine
from repro.index.snapshot import ARENA_VERSION, detect_format, load_snapshot
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.serving import (
    MANIFEST_NAME,
    ShardRouter,
    ShardedCatalog,
)

# -- arena container ----------------------------------------------------------


def _sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "u64": rng.integers(0, 2**63, 100, dtype=np.uint64),
        "f64": rng.standard_normal(57),
        "flags": rng.uniform(size=31) < 0.5,
        "empty": np.empty(0, dtype=np.int64),
        "matrix": rng.standard_normal((7, 5)),
    }


def test_write_read_round_trip_and_alignment(tmp_path):
    path = tmp_path / "t.arena"
    arrays = _sample_arrays()
    write_arena(path, {"version": 9, "label": "x"}, arrays)
    reader = ArenaReader(path)
    assert reader.meta["version"] == 9
    assert reader.meta["label"] == "x"
    for name, array in arrays.items():
        assert name in reader
        view = reader.array(name)
        assert view.dtype == array.dtype
        assert view.shape == array.shape
        assert np.array_equal(view, array)
        assert reader.owns(view)
        # Every payload offset (and the data start itself) is aligned.
        assert reader.extents[name]["offset"] % ALIGNMENT == 0
    assert reader._data_start % ALIGNMENT == 0
    assert "nope" not in reader


def test_views_are_zero_copy_and_read_only(tmp_path):
    path = tmp_path / "t.arena"
    write_arena(path, {}, _sample_arrays())
    reader = ArenaReader(path)
    view = reader.array("f64")
    assert not view.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        view[0] = 1.0
    # Slices of views stay inside the mapping; copies leave it.
    assert reader.owns(view[3:9])
    assert not reader.owns(np.array(view))


def test_meta_reserved_keys_rejected(tmp_path):
    for key in ("arrays", "data_bytes"):
        with pytest.raises(ValueError, match="arrays.*data_bytes"):
            write_arena(tmp_path / "t.arena", {key: 1}, {})


def test_unknown_array_name_raises_keyerror(tmp_path):
    path = tmp_path / "t.arena"
    write_arena(path, {}, {"only": np.arange(3)})
    with pytest.raises(KeyError, match=r"no array 'missing'.*'only'"):
        ArenaReader(path).array("missing")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.arena"
    path.write_bytes(b"NOTARENA" + b"\0" * 64)
    assert not has_arena_magic(path)
    with pytest.raises(ValueError, match="not an arena snapshot"):
        ArenaReader(path)
    assert not has_arena_magic(tmp_path / "does-not-exist")


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "t.arena"
    # A length the file cannot hold — plausible, or eight bytes of junk
    # that would otherwise size the read — is refused before reading.
    for length in (1000, int.from_bytes(b" garbage", "little")):
        path.write_bytes(MAGIC + struct.pack("<Q", length) + b'{"version"')
        with pytest.raises(ValueError, match="truncated arena header"):
            ArenaReader(path)


def test_corrupt_header_json_rejected(tmp_path):
    path = tmp_path / "t.arena"
    garbage = b"this is not json"
    path.write_bytes(MAGIC + struct.pack("<Q", len(garbage)) + garbage)
    with pytest.raises(ValueError, match="corrupt arena header"):
        ArenaReader(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.arena"
    write_arena(path, {}, {"a": np.arange(64, dtype=np.int64)})
    data = path.read_bytes()
    path.write_bytes(data[:-32])  # chop the tail of the last array
    with pytest.raises(ValueError, match="truncated arena"):
        ArenaReader(path)


def test_backing_storage_classification(tmp_path):
    path = tmp_path / "t.arena"
    write_arena(path, {}, {"a": np.arange(10, dtype=np.float64)})
    view = ArenaReader(path).array("a")
    heap = np.arange(10.0)
    assert backing_storage(heap) == "heap"
    assert backing_storage(view) == "mmap"
    assert backing_storage(view[2:5]) == "mmap"
    assert backing_storage(None, heap, view) == "mmap"
    assert backing_storage(None, heap) == "heap"
    assert backing_storage() == "heap"
    # A numpy.memmap anywhere along the chain also counts as mapped.
    raw = tmp_path / "raw.bin"
    raw.write_bytes(np.arange(6, dtype=np.float64).tobytes())
    mapped = np.memmap(raw, dtype=np.float64, mode="r")
    assert backing_storage(mapped) == "mmap"
    assert backing_storage(mapped[1:4]) == "mmap"


# -- atomic writes ------------------------------------------------------------


def test_atomic_write_failure_leaves_original_intact(tmp_path):
    path = tmp_path / "payload.bin"
    atomic_write(path, lambda handle: handle.write(b"original"))

    def _exploding(handle):
        handle.write(b"partial garbage")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError, match="disk on fire"):
        atomic_write(path, _exploding)
    assert path.read_bytes() == b"original"
    # No temp-file litter either (mkstemp names start with a dot).
    assert [p.name for p in tmp_path.iterdir()] == ["payload.bin"]

    atomic_write_text(path, "replaced")
    assert path.read_text() == "replaced"


@pytest.mark.parametrize("suffix", (".json", ".arena"))
def test_interrupted_snapshot_save_keeps_old_snapshot(
    tmp_path, monkeypatch, suffix
):
    """A crash between temp-file write and publish (os.replace) must
    leave the existing snapshot loadable and the directory clean."""
    catalog = _corpus_catalog(n=6)
    path = tmp_path / f"c{suffix}"
    catalog.save(path)

    bigger = _corpus_catalog(n=9)

    def _crash(src, dst):
        raise OSError("simulated crash before publish")

    monkeypatch.setattr("repro.index.arena.os.replace", _crash)
    with pytest.raises(OSError, match="simulated crash"):
        bigger.save(path)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert len(SketchCatalog.load(path)) == 6


# -- catalog round trip -------------------------------------------------------

SKETCH_SIZE = 64
N_SKETCHES = 36
ROWS = 250
UNIVERSE = 1500
LSH = {"lsh_bands": 32, "lsh_rows": 1}


def _sketch(rng, hasher, name, n_rows=ROWS):
    keys = rng.choice(UNIVERSE, n_rows, replace=False)
    values = rng.standard_normal(n_rows)
    values[rng.uniform(size=n_rows) < 0.05] = np.nan  # missing cells
    return CorrelationSketch.from_columns(
        keys, values, SKETCH_SIZE, hasher=hasher, name=name
    )


def _corpus_catalog(n=N_SKETCHES, seed=11):
    rng = np.random.default_rng(seed)
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
    catalog.add_sketches(
        [
            (f"pair{i:03d}", _sketch(rng, catalog.hasher, f"pair{i:03d}"))
            for i in range(n)
        ]
    )
    return catalog


def _query(catalog, seed=90):
    rng = np.random.default_rng(seed)
    return _sketch(rng, catalog.hasher, "query", n_rows=400)


def _assert_columns_equal(a, b):
    assert (a.key_hashes == b.key_hashes).all()
    assert (a.ranks == b.ranks).all()
    assert np.array_equal(a.values, b.values, equal_nan=True)
    assert a.saw_all_keys == b.saw_all_keys
    assert a.value_range == b.value_range or (
        all(math.isnan(v) for v in a.value_range)
        and all(math.isnan(v) for v in b.value_range)
    )


def test_arena_round_trips_lsh_delta_and_tombstones(tmp_path):
    catalog = _corpus_catalog()
    catalog.lsh_index(bands=LSH["lsh_bands"], rows=LSH["lsh_rows"])
    catalog.compact()
    rng = np.random.default_rng(77)
    catalog.add_sketches(
        [(f"late{i}", _sketch(rng, catalog.hasher, f"late{i}")) for i in range(3)]
    )
    catalog.remove_sketch("pair000")
    path = tmp_path / "c.arena"
    catalog.save(path)

    loaded = SketchCatalog.load(path)
    assert loaded.storage == "mmap"
    assert loaded.index_version == catalog.index_version
    assert sorted(loaded._tombstones) == sorted(catalog._tombstones)
    # The delta ids survive the round trip, and so does what they index.
    assert loaded.delta_size == catalog.delta_size == 3
    a, b = loaded._delta_postings(), catalog._delta_postings()
    assert list(a.docs) == list(b.docs) == ["late0", "late1", "late2"]
    assert (a.vocab == b.vocab).all() and (a.doc_ids == b.doc_ids).all()
    assert loaded.lsh_params == catalog.lsh_params
    query = _query(catalog)
    for backend in ("inverted", "lsh"):
        expected = JoinCorrelationEngine(
            catalog, retrieval_backend=backend, **LSH
        ).query(query, k=8)
        got = JoinCorrelationEngine(
            loaded, retrieval_backend=backend, **LSH
        ).query(query, k=8)
        assert [(e.candidate_id, e.score) for e in got.ranked] == [
            (e.candidate_id, e.score) for e in expected.ranked
        ]
    assert loaded.lsh_params == catalog.lsh_params  # probe expanded it
    assert "pair000" not in {
        e.candidate_id for e in got.ranked
    }


def test_loaded_views_reject_writes(tmp_path):
    catalog = _corpus_catalog(n=4)
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    columns = loaded.sketch_columns(next(iter(loaded)))
    for array in (columns.key_hashes, columns.values):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # Ranks are derived, not stored: each access is a private heap array
    # that writing to cannot reach the mapping.
    ranks = columns.ranks
    assert not loaded._arena.owns(ranks)
    ranks[0] = 2.0
    assert columns.ranks[0] != 2.0
    frozen = loaded.frozen_postings()
    with pytest.raises(ValueError, match="read-only"):
        frozen.doc_ids[0] = 0


def test_empty_catalog_arena_round_trip(tmp_path):
    catalog = SketchCatalog(sketch_size=16)
    path = tmp_path / "empty.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert len(loaded) == 0
    assert loaded.storage == "mmap"
    assert len(loaded.frozen_postings()) == 0


def test_unknown_arena_version_rejected(tmp_path):
    catalog = _corpus_catalog(n=4)
    path = tmp_path / "c.arena"
    catalog.save(path)
    reader = ArenaReader(path)
    meta = {
        k: v
        for k, v in reader.meta.items()
        if k not in ("arrays", "data_bytes", "payload_crc32")
    }
    meta["version"] = ARENA_VERSION + 1
    arrays = {name: reader.array(name) for name in reader.extents}
    write_arena(tmp_path / "next.arena", meta, arrays)
    with pytest.raises(ValueError, match="arena version"):
        load_snapshot(tmp_path / "next.arena")


def test_arena_format_detection(tmp_path):
    catalog = _corpus_catalog(n=3)
    path = tmp_path / "c.arena"
    catalog.save(path)
    assert detect_format(path) == "arena"
    # Content sniff: an arena without the extension still loads.
    sneaky = tmp_path / "catalog.bin"
    sneaky.write_bytes(path.read_bytes())
    assert detect_format(sneaky) == "arena"
    assert SketchCatalog.load(sneaky).storage == "mmap"
    # Extension fallback for files that do not exist yet.
    assert detect_format(tmp_path / "future.arena") == "arena"


def test_save_of_mapped_catalog_round_trips(tmp_path):
    """arena -> load -> save (both formats) without materializing."""
    catalog = _corpus_catalog(n=6)
    first = tmp_path / "a.arena"
    catalog.save(first)
    loaded = SketchCatalog.load(first)
    loaded.save(tmp_path / "b.arena")
    loaded.save(tmp_path / "b.json")
    for again in (
        SketchCatalog.load(tmp_path / "b.arena"),
        SketchCatalog.load(tmp_path / "b.json"),
    ):
        for sid in catalog:
            _assert_columns_equal(
                catalog.sketch_columns(sid), again.sketch_columns(sid)
            )


# -- query bit parity: mmap- vs heap-backed -----------------------------------


@pytest.fixture(scope="module")
def parity_world(tmp_path_factory):
    """The heap catalog, its arena-mapped twin, and query sketches."""
    catalog = _corpus_catalog()
    path = tmp_path_factory.mktemp("arena") / "c.arena"
    catalog.save(path)
    mapped = SketchCatalog.load(path)
    assert mapped.storage == "mmap"
    rng = np.random.default_rng(90)
    queries = [
        _sketch(rng, catalog.hasher, f"query{j}", n_rows=400) for j in range(3)
    ]
    return catalog, mapped, queries


def _key(result):
    """Everything bit-parity covers: ids, exact scores, order, counts."""
    return (
        [(e.candidate_id, e.score, e.stats.sample_size) for e in result.ranked],
        result.candidates_considered,
    )


@pytest.mark.parametrize("backend", ("inverted", "lsh"))
@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_query_parity_mmap_vs_heap(parity_world, scorer, backend):
    """The acceptance matrix: scorer x rng mode x backend, single+batch."""
    heap, mapped, queries = parity_world
    for rng_mode in RNG_MODES:
        engines = [
            JoinCorrelationEngine(
                c,
                retrieval_depth=10,
                rng_mode=rng_mode,
                retrieval_backend=backend,
                **LSH,
            )
            for c in (heap, mapped)
        ]
        for query in queries[:2]:
            expected = _key(engines[0].query(query, k=8, scorer=scorer))
            assert _key(engines[1].query(query, k=8, scorer=scorer)) == expected
        expected_batch = [
            _key(r) for r in engines[0].query_batch(queries, k=8, scorer=scorer)
        ]
        got_batch = engines[1].query_batch(queries, k=8, scorer=scorer)
        assert [_key(r) for r in got_batch] == expected_batch


# -- multi-process residency: the mapping is shared between processes -------

#: Physical memory a second process may add by loading a catalog another
#: process already serves (PSS summed over both, MB). The arena below is
#: ~4.2 MB and the second process adds 2.6–2.8 MB on Linux, so the bound
#: leaves 3.2–3.4 MB of headroom yet fails a process that also copies the
#: arena into its heap (6.9 MB); the heap-resident JSON load of the same
#: catalog adds ~52 MB.
SECOND_PROCESS_MAX_MB = 6.0


def _pss_bytes() -> int:
    with open("/proc/self/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no Pss line in /proc/self/smaps_rollup")


def _trim_heap() -> None:
    """Hand freed allocator pages back to the OS (glibc ``malloc_trim``),
    so a reading counts what a process holds, not what it freed."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _serve_and_touch(path, query):
    """Load ``path``, answer one query and read every mapped page."""
    catalog = SketchCatalog.load(path)
    JoinCorrelationEngine(catalog).query(query, k=10)
    arena = getattr(catalog, "_arena", None)
    if arena is not None:
        arena.verify_payload()
    _trim_heap()
    return catalog


def _residency_worker(role, path, query, barrier, readings):
    """Process 0 loads first, process 1 loads second; both read their PSS
    before and after each load while both are alive, so every reading
    divides shared pages between the same processes."""
    held = []  # the loaded catalog stays resident through every later reading
    pss = []
    for loader in (None, 0, 1):
        if loader == role:
            held.append(_serve_and_touch(path, query))
        barrier.wait()
        pss.append(_pss_bytes())
        barrier.wait()
    readings.put((role, pss))


def _second_process_mb(path, query) -> float:
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2, timeout=60)
    readings = ctx.Queue()
    workers = [
        ctx.Process(
            target=_residency_worker, args=(role, path, query, barrier, readings)
        )
        for role in (0, 1)
    ]
    for worker in workers:
        worker.start()
    pss = [readings.get(timeout=60)[1] for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    return sum(p[2] - p[1] for p in pss) / 2**20


@pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps_rollup"),
    reason="needs Linux PSS accounting (/proc/self/smaps_rollup)",
)
def test_second_serving_process_shares_the_arena(tmp_path):
    """Two forked processes load one 1 024-sketch catalog and touch every
    page: from the ``.arena`` the second adds at most
    ``SECOND_PROCESS_MAX_MB``, because both map the same file pages; from
    the ``.json`` (each process builds the catalog in its own heap) the
    second adds more than that."""
    rng = np.random.default_rng(3)
    catalog = SketchCatalog(sketch_size=256)

    def sketch(name, n_rows):
        keys = rng.choice(20_000, n_rows, replace=False)
        return CorrelationSketch.from_columns(
            keys, rng.standard_normal(n_rows), 256, hasher=catalog.hasher, name=name
        )

    catalog.add_sketches(
        (f"pair{i:05d}", sketch(f"pair{i:05d}", 600)) for i in range(1024)
    )
    query = sketch("query", 1200)
    for suffix in ("arena", "json"):
        catalog.save(tmp_path / f"c.{suffix}")
    # What a first query imports and caches is inherited by both
    # processes instead of read as catalog cost; the build heap is
    # returned to the OS before the fork.
    JoinCorrelationEngine(catalog).query(query, k=10)
    del catalog
    gc.collect()
    _trim_heap()
    arena_mb = _second_process_mb(tmp_path / "c.arena", query)
    json_mb = _second_process_mb(tmp_path / "c.json", query)
    assert arena_mb <= SECOND_PROCESS_MAX_MB, (arena_mb, json_mb)
    assert json_mb > SECOND_PROCESS_MAX_MB, (arena_mb, json_mb)


# -- mutation + mapping lifecycle ---------------------------------------------


def test_mutations_stay_on_heap_and_match_heap_catalog(tmp_path):
    heap = _corpus_catalog()
    path = tmp_path / "c.arena"
    heap.save(path)
    mapped = SketchCatalog.load(path)

    rng = np.random.default_rng(55)
    late = [(f"late{i}", _sketch(rng, heap.hasher, f"late{i}")) for i in range(4)]
    for catalog in (heap, mapped):
        catalog.add_sketches(late)
        catalog.remove_sketch("pair001")
    assert mapped.storage == "mmap"  # mutations never touch the mapping

    query = _query(heap)
    expected = _key(JoinCorrelationEngine(heap).query(query, k=10))
    assert _key(JoinCorrelationEngine(mapped).query(query, k=10)) == expected
    assert "pair001" not in [cid for cid, _, _ in expected[0]]


def test_compact_folds_mapped_catalog_onto_heap(tmp_path):
    heap = _corpus_catalog()
    path = tmp_path / "c.arena"
    heap.save(path)
    mapped = SketchCatalog.load(path)
    rng = np.random.default_rng(56)
    for catalog in (heap, mapped):
        catalog.add_sketch("extra", _sketch(rng, heap.hasher, "extra"))
        catalog.remove_sketch("pair002")
    heap.compact()
    version = mapped.compact()
    assert version == heap.index_version
    # The fold allocated fresh heap arrays; the mapping is no longer
    # behind the frozen layer (entry views may still reference it).
    frozen = mapped._frozen_postings
    assert backing_storage(frozen.vocab, frozen.doc_ids) == "heap"
    query = _query(heap)
    assert _key(JoinCorrelationEngine(mapped).query(query, k=10)) == _key(
        JoinCorrelationEngine(heap).query(query, k=10)
    )


def test_mapping_survives_replace_and_unlink(tmp_path):
    catalog = _corpus_catalog()
    path = tmp_path / "c.arena"
    catalog.save(path)
    live = SketchCatalog.load(path)
    query = _query(catalog)
    before = _key(JoinCorrelationEngine(live).query(query, k=8))

    # os.replace a different snapshot over the live mapping: POSIX keeps
    # the mapped inode alive, so the old catalog serves its old bytes.
    smaller = _corpus_catalog(n=5, seed=99)
    smaller.save(path)
    assert _key(JoinCorrelationEngine(live).query(query, k=8)) == before
    assert len(SketchCatalog.load(path)) == 5  # new readers see new data

    os.unlink(path)
    assert _key(JoinCorrelationEngine(live).query(query, k=8)) == before


def test_storage_info_accounting(tmp_path):
    catalog = _corpus_catalog(n=8)
    path = tmp_path / "c.arena"
    catalog.save(path)
    heap_info = catalog.storage_info()
    assert heap_info["backend"] == "heap"
    assert heap_info["mapped_bytes"] == 0
    assert heap_info["materialized_bytes"] > 0

    loaded = SketchCatalog.load(path)
    info = loaded.storage_info()
    assert info["backend"] == "mmap"
    assert info["mapped_bytes"] > 0
    assert info["arena"]["path"] == str(path)
    assert info["arena"]["arrays"] >= 12
    assert info["arena"]["header_bytes"] > 16
    before = info["materialized_bytes"]
    # A heap mutation shows up as materialized bytes; mapped stay put.
    loaded.add_sketch(
        "extra", _sketch(np.random.default_rng(1), loaded.hasher, "extra")
    )
    loaded.frozen_postings()
    after = loaded.storage_info()
    assert after["mapped_bytes"] == info["mapped_bytes"]
    assert after["materialized_bytes"] > before


def test_storage_info_counts_widened_hash_copies(tmp_path):
    """What load and waking widen into heap copies — both 32-bit-scheme
    vocabularies and the 4-byte postings offsets at load, a sketch's key
    hashes gathered from the entry vocabulary when it wakes — and
    storage_info counts exactly those."""
    catalog = _corpus_catalog(n=8)
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    postings = loaded.frozen_postings()
    entry_vocab = loaded._sketches._source.entry_vocab
    widened_at_load = (postings.vocab, postings.indptr, entry_vocab)
    for array in widened_at_load:
        assert array.dtype in (np.uint64, np.int64)
        assert not loaded._arena.owns(array) and not array.flags.writeable
    assert loaded._arena.owns(postings.doc_ids)
    at_load = sum(array.nbytes for array in widened_at_load)
    assert loaded.storage_info()["materialized_bytes"] == at_load
    woken = [loaded.get(sid) for sid in list(loaded)[:3]]
    widened = sum(s.columnar().key_hashes.nbytes for s in woken)
    assert widened == 8 * sum(len(s) for s in woken)
    assert loaded.storage_info()["materialized_bytes"] == at_load + widened


# -- deferred entry dict ------------------------------------------------------


def test_deferred_entries_wake_lazily(tmp_path):
    catalog = _corpus_catalog(n=6)
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    entries = loaded._sketches
    assert isinstance(entries, _DeferredEntryDict)
    # Key-only operations never build an entry object.
    assert len(entries) == 6
    assert list(entries) == list(catalog)
    assert "pair000" in entries
    assert all(type(dict.__getitem__(entries, sid)) is int for sid in entries)
    # Access through any read path wakes the placeholder exactly once,
    # into a sketch around the mapped values and its key hashes gathered
    # from the entry vocabulary into a read-only uint64 copy; the rest
    # stay asleep.
    woken = entries["pair000"]
    assert isinstance(woken, CorrelationSketch)
    columns = woken.columnar()
    assert loaded._arena.owns(columns.values)
    assert not loaded._arena.owns(columns.key_hashes)
    assert columns.key_hashes.dtype == np.uint64
    assert not columns.key_hashes.flags.writeable
    assert entries.get("pair000") is woken is loaded.get("pair000")
    assert entries.get("missing") is None
    asleep = [sid for sid in entries if type(dict.__getitem__(entries, sid)) is int]
    assert asleep == [sid for sid in catalog if sid != "pair000"]
    assert all(isinstance(e, CorrelationSketch) for e in entries.values())
    assert all(isinstance(e, CorrelationSketch) for _, e in entries.items())


# -- sharded catalogs: manifest v3 + per-shard arenas -------------------------


@pytest.fixture(scope="module")
def sharded_world(tmp_path_factory):
    rng = np.random.default_rng(11)
    hasher = KeyHasher()
    pairs = [
        (f"pair{i:03d}", _sketch(rng, hasher, f"pair{i:03d}"))
        for i in range(N_SKETCHES)
    ]
    queries = [_sketch(rng, hasher, f"query{j}", n_rows=400) for j in range(2)]
    base = tmp_path_factory.mktemp("sharded")
    dirs = {}
    for count in (1, 2, 7):
        catalog = ShardedCatalog(count, sketch_size=SKETCH_SIZE, hasher=hasher)
        catalog.add_sketches(pairs)
        directory = base / f"shards-{count}"
        catalog.save(directory)
        dirs[count] = (catalog, directory)
    return dirs, queries


@pytest.mark.parametrize("n_shards", (1, 2, 7))
def test_arena_manifest_round_trip(sharded_world, n_shards):
    dirs, queries = sharded_world
    catalog, directory = dirs[n_shards]
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    assert manifest["version"] == 3
    assert manifest["layout"] == "arena"
    assert all(
        entry["file"].endswith(".arena") for entry in manifest["shards"]
    )
    loaded = ShardedCatalog.load(directory)
    assert sorted(loaded) == sorted(catalog)
    for query in queries:
        expected = _key(ShardRouter(catalog, retrieval_depth=10).query(query, k=8))
        got = ShardRouter(loaded, retrieval_depth=10).query(query, k=8)
        assert _key(got) == expected
    assert loaded.storage_backends() == ["mmap"] * n_shards


def test_sharded_load_maps_every_shard(sharded_world):
    dirs, _ = sharded_world
    _, directory = dirs[2]
    loaded = ShardedCatalog.load(directory)
    assert loaded.storage_backends() == ["mmap", "mmap"]
    assert loaded.warm() == {}


def test_router_warm_maps_shards_and_answers_unchanged(sharded_world):
    """A warmed router has mapped every arena shard before its first
    query, and answers exactly as the in-memory sharded router."""
    dirs, queries = sharded_world
    catalog, directory = dirs[2]
    loaded = ShardedCatalog.load(directory)
    router = ShardRouter(loaded, retrieval_depth=10)
    router.warm()
    assert loaded.storage_backends() == ["mmap", "mmap"]
    expected = [
        _key(r)
        for r in ShardRouter(catalog, retrieval_depth=10).query_batch(
            queries, k=8
        )
    ]
    assert [_key(r) for r in router.query_batch(queries, k=8)] == expected


def test_unknown_layout_rejected(sharded_world, tmp_path):
    """On the read side too: a manifest recording any layout but the one
    this build writes is refused before a shard file is opened."""
    import shutil

    _, source = sharded_world[0][2]
    directory = tmp_path / "d"
    shutil.copytree(source, directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["layout"] = "tar"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="records shard layout 'tar'"):
        ShardedCatalog.load(directory)


def test_sharded_save_rejects_unknown_layout(tmp_path):
    """``layout`` survives only as the one value the frozen benchmark
    fixture passes; it selects nothing and accepts nothing else."""
    catalog = ShardedCatalog(2, sketch_size=SKETCH_SIZE)
    for layout in ("tar", "npz"):
        with pytest.raises(ValueError, match="unknown shard layout"):
            catalog.save(tmp_path / "d", layout=layout)
    assert not (tmp_path / "d").exists()
    catalog.save(tmp_path / "d", layout="arena")
    assert (tmp_path / "d" / "shard-0001.arena").exists()
