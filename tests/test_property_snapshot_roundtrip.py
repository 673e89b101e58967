"""Hypothesis round trip of the arena snapshot, 32- and 64-bit hashers.

A persisted entry is ``⟨h(k), x_k⟩``: ranks are derived from the key
hashes on read. Over drawn catalogs — empty sketches, all-NaN value
columns, unnamed sketches, sketches named after their id, renamed ones,
a pending delta, tombstones (one of them re-added under the same id),
monolithic and two-shard — three things must hold:

* ``load(save(c))`` reads back as ``c``: every sketch's full state
  (``sketch_state``, less the aggregator slots a snapshot never keeps),
  each (shard) catalog's order, and the frozen and delta CSR arrays'
  values, with every member stored at its narrow width;
* saving the loaded catalog again writes the same bytes;
* every loaded sketch's derived ranks equal
  ``hasher.unit_hash_batch(key_hashes)`` bit for bit, and that equals
  the scalar ``h_u`` of each hash.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.arena import ArenaReader
from repro.index.catalog import SketchCatalog
from repro.serving import ShardedCatalog
from digest import assert_states_equal, sketch_state

NAMINGS = ("id", "none", "renamed", "empty")


@st.composite
def sketch_specs(draw, index: int):
    rows = draw(st.integers(0, 24))
    keys = draw(st.lists(st.integers(0, 30), min_size=rows, max_size=rows))
    filling = draw(st.sampled_from(["finite", "nan", "mixed"]))
    values = np.asarray(
        draw(st.lists(st.floats(-1e3, 1e3), min_size=rows, max_size=rows)),
        dtype=np.float64,
    )
    if filling == "nan":
        values[:] = np.nan
    elif filling == "mixed":
        values[::3] = np.nan
    sid = f"s{index:02d}"
    name = {"id": sid, "none": None, "renamed": f"other{index}", "empty": ""}[
        draw(st.sampled_from(NAMINGS))
    ]
    return sid, [f"k{key}" for key in keys], values, name


@st.composite
def scenarios(draw):
    n = draw(st.integers(0, 7))
    return {
        "bits": draw(st.sampled_from([32, 64])),
        "seed": draw(st.integers(0, 2)),
        "size": draw(st.integers(1, 10)),
        "specs": [draw(sketch_specs(i)) for i in range(n)],
        "frozen": draw(st.integers(0, n)),
        "removed": draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=3, unique=True)),
        "readd": draw(st.booleans()),
        "shards": draw(st.sampled_from([None, 2])),
    }


def _build(scenario):
    """The scenario's catalog: the first ``frozen`` sketches compacted,
    the rest pending in the delta, then removals (a tombstone for a
    frozen sketch, an erase for a delta one) and optionally a re-add of
    the first removed id."""
    hasher = KeyHasher(bits=scenario["bits"], seed=scenario["seed"])
    size = scenario["size"]
    if scenario["shards"] is None:
        catalog = SketchCatalog(sketch_size=size, hasher=hasher)
    else:
        catalog = ShardedCatalog(scenario["shards"], sketch_size=size, hasher=hasher)

    def sketch(keys, values, name):
        return CorrelationSketch.from_columns(
            keys, values, size, hasher=hasher, name=name
        )

    specs = scenario["specs"]
    split = scenario["frozen"]
    catalog.add_sketches((sid, sketch(k, v, name)) for sid, k, v, name in specs[:split])
    catalog.compact()
    catalog.add_sketches((sid, sketch(k, v, name)) for sid, k, v, name in specs[split:])
    removed = [specs[i][0] for i in scenario["removed"] if i < len(specs)]
    catalog.remove_sketches(removed)
    if removed and scenario["readd"]:
        sid, keys, values, _ = specs[scenario["removed"][0]]
        catalog.add_sketch(sid, sketch(keys[::-1], values[::-1], "readded"))
    return catalog


def _layers(catalog):
    if isinstance(catalog, ShardedCatalog):
        return [catalog.shard(i) for i in range(catalog.n_shards)]
    return [catalog]


def _state(sketch) -> dict:
    # Aggregator slots are live-sketch state no snapshot keeps.
    return {k: v for k, v in sketch_state(sketch).items() if not k.startswith("slot:")}


def _assert_postings_equal(a, b) -> None:
    """Equal CSR values. Dtypes may differ: a loaded catalog's doc ids
    are the stored 2-byte view, a built one's ``int32``."""
    assert list(a.docs) == list(b.docs)
    for field in ("vocab", "indptr", "doc_ids", "doc_lengths"):
        have, want = getattr(a, field), getattr(b, field)
        assert have.shape == want.shape, field
        np.testing.assert_array_equal(have, want, err_msg=field)


def _assert_stored_widths(path: Path, bits: int) -> None:
    """Both vocabularies at the scheme's hash width, key ids and doc ids
    in 2 bytes (every drawn catalog is far below 65 536 of either),
    postings offsets in 4."""
    paths = sorted(path.glob("*.arena")) if path.is_dir() else [path]
    for arena_path in paths:
        reader = ArenaReader(arena_path)
        stored = {name: reader.array(name).dtype for name in reader.extents}
        hash_dtype = np.dtype(np.uint32 if bits == 32 else np.uint64)
        assert stored["entry_vocab"] == stored["postings_vocab"] == hash_dtype
        assert stored["key_ids"] == stored["postings_doc_ids"] == np.uint16
        assert stored["postings_indptr"] == np.uint32
        assert "key_hashes" not in stored


def _files(path: Path) -> dict[str, bytes]:
    if path.is_dir():
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    return {path.name: path.read_bytes()}


def _load(catalog, path: Path):
    if isinstance(catalog, ShardedCatalog):
        return ShardedCatalog.load(path)
    return SketchCatalog.load(path)


@given(scenario=scenarios())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_arena_round_trip_is_exact_and_ranks_are_derived(scenario):
    catalog = _build(scenario)
    hasher = catalog.hasher
    name = "c.arena" if scenario["shards"] is None else "dir"
    with tempfile.TemporaryDirectory() as tmp:
        first = Path(tmp) / name
        catalog.save(first)
        _assert_stored_widths(first, scenario["bits"])
        loaded = _load(catalog, first)
        # Each shard keeps its order; the manifest lists ids shard by shard.
        assert sorted(loaded) == sorted(catalog)
        for sid in catalog:
            assert_states_equal(_state(loaded.get(sid)), _state(catalog.get(sid)))
        for got, want in zip(_layers(loaded), _layers(catalog)):
            assert got.storage == "mmap"
            assert list(got) == list(want)
            assert got.index_version == want.index_version
            assert got._tombstones == want._tombstones
            # Persisted sorted: the delta CSR is built in id order anyway.
            assert sorted(got._delta_ids) == sorted(want._delta_ids)
            _assert_postings_equal(got._frozen_postings, want._frozen_postings)
            _assert_postings_equal(got._delta_postings(), want._delta_postings())

        again = Path(tmp) / "again" / name
        again.parent.mkdir()
        loaded.save(again)
        assert _files(again) == _files(first)

        for sid in loaded:
            columns = loaded.sketch_columns(sid)
            ranks = columns.ranks
            expected = hasher.unit_hash_batch(columns.key_hashes)
            assert ranks.dtype == np.float64
            np.testing.assert_array_equal(ranks.view(np.uint64), expected.view(np.uint64))
            scalar = [hasher.unit_hash_of_key_hash(int(h)) for h in columns.key_hashes]
            assert ranks.tolist() == scalar
