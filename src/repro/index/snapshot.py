"""Binary catalog snapshots: the offline-build / online-serve formats.

The JSON catalog format (:meth:`repro.index.catalog.SketchCatalog.save`)
is the portable reference: readable, diffable, and slow — every sketch
round-trips through per-entry Python lists and the inverted index is
rebuilt entry by entry on every cold start. This module holds the two
serving formats, which persist the same members:

* the **concatenated columnar sketch arrays** — all sketches' sorted
  key hashes, unit-hash ranks and aggregated values laid end to end with
  one CSR-style ``entry_indptr`` delimiting each sketch's slice, plus
  per-sketch scalar columns (capacity, rows seen, overflow flag, value
  min/max, names);
* the **frozen CSR postings** of the inverted index
  (:class:`repro.index.inverted.ColumnarPostings` — vocabulary,
  ``indptr``, doc ids, doc table), persisted verbatim;
* the **LSH signature arrays** — the catalog's MinHash-LSH index
  (:class:`repro.index.lsh.LshIndex`), when one was built before
  saving: per-sketch slot/filled matrices plus the ``(bands, rows,
  bits)`` config and the exact id list they cover. Catalogs that never
  probed the LSH backend write no LSH members and rebuild lazily after
  load, exactly like the JSON reference format always does;
* the **delta-layer state** — the catalog's ``index_version``
  compaction counter, the ids still in the mutable delta layer, and the
  tombstone set. The frozen CSR is persisted verbatim, tombstoned
  postings included — a snapshot save is never an implicit compaction;
  the delta's CSR is derived state, frozen from the delta sketches'
  stored key-hash slices on the first probe after a load.

**Layouts** (``save_snapshot(..., layout=...)``):

* ``"npz"`` — one versioned ``.npz`` file (uncompressed zip of ``.npy``
  members). Loading copies every array into the process heap: cost
  O(catalog bytes), paid per process.
* ``"arena"`` — one contiguous 64-byte-aligned arena file
  (:mod:`repro.index.arena`): a small JSON header of (name, dtype,
  shape, offset) extents followed by the packed array payloads.
  Loading ``np.memmap``'s the file read-only and rehydrates the
  catalog as **zero-copy views into the mapping**: no decompression,
  no copy, load time O(metadata) — and N processes serving the same
  arena share one set of physical pages through the page cache.

Loading does no per-entry work at all in either layout: an entry is
an integer position until first touched, when it wakes — in O(1) — into
a read-only :class:`~repro.core.sketch.CorrelationSketch` whose columns
are zero-copy slices of the stored arrays (one type for fresh, loaded
and query-side sketches; only aggregator state is not persisted, so a
loaded sketch rejects further rows). The postings snapshot is
reconstructed directly from its stored arrays (the catalog's
``frozen_postings`` cache starts warm), and persisted LSH signatures
are kept as a deferred pending payload that expands into bucket state
only if an LSH probe happens.

Format contract:

* ``version`` gates compatibility — loading a snapshot with an unknown
  version raises ``ValueError`` rather than guessing. The npz layout is
  version 3 (versions 1–2 still load: every older member kept its name
  and meaning, each newer version only *adds* members); the arena
  layout is version 4 (arena files always carry the full v3 member
  set, so there is nothing older to read);
* array-level equality across every format: a catalog saved to JSON,
  npz and arena loads back with identical per-sketch entries, columnar
  views and postings (the snapshot test suites pin this);
* writes are **atomic**: both layouts write a temp file in the target
  directory and ``os.replace`` it into place
  (:func:`repro.index.arena.atomic_write`), so a crash mid-save can
  never corrupt an existing catalog;
* mutation after load behaves exactly like a JSON-loaded catalog:
  appends and removals land in heap-native delta/tombstone structures,
  and a compaction folds into fresh heap arrays — an arena-mapped
  catalog never writes to (and cannot write to — views are read-only)
  the shared mapping.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.arena import (
    ArenaReader,
    _fault,
    atomic_write,
    has_arena_magic,
    write_arena,
)
from repro.index.catalog import (
    SketchCatalog,
    _DeferredEntryDict,
    _has_zip_magic,
)
from repro.index.inverted import ColumnarPostings

#: Bump on any npz layout change; load_snapshot refuses unknown versions.
#: v1: sketch arrays + frozen postings. v2: adds optional LSH members.
#: v3: adds delta-layer state (index_version, delta ids, tombstones,
#: lsh_ids).
SNAPSHOT_VERSION = 3

#: npz versions this build can read (each a strict superset of the last).
_READABLE_VERSIONS = (1, 2, 3)

#: The arena layout's format version (the v3 member set, packed
#: mmap-able). Recorded in the arena header; unknown versions refuse.
ARENA_VERSION = 4

#: Arena versions this build can read.
_ARENA_READABLE_VERSIONS = (4,)

#: Layouts save_snapshot accepts.
SNAPSHOT_LAYOUTS = ("npz", "arena")

#: Suffix appended (to the full file name) when a corrupt snapshot is
#: quarantined: ``shard-0001.arena`` → ``shard-0001.arena.quarantined``.
QUARANTINE_SUFFIX = ".quarantined"


def quarantine_file(path: str | Path) -> Path:
    """Move a corrupt snapshot aside as ``<name>.quarantined``.

    The rename keeps the bad bytes around for post-mortem while taking
    the file out of every load/fallback path (no loader matches the
    suffix). An existing quarantined file of the same name is
    overwritten — the freshest corruption is the interesting one.
    Returns the quarantine path.
    """
    path = Path(path)
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    os.replace(path, target)
    return target


def detect_format(path: str | Path) -> str:
    """``"binary"`` for npz snapshots, ``"arena"`` for arena snapshots,
    ``"json"`` otherwise.

    Decided the same way :meth:`SketchCatalog.load` dispatches: content
    magic first (zip or arena bytes), extension as the fallback for
    paths that cannot be read yet.
    """
    path = Path(path)
    if has_arena_magic(path):
        return "arena"
    if path.suffix == ".npz" or _has_zip_magic(path):
        return "binary"
    if path.suffix == ".arena":
        return "arena"
    return "json"


def _collect_members(catalog: SketchCatalog):
    """Gather the persisted member set, shared by both layouts.

    Returns ``(config, strings, numeric, lsh)``: the scalar config
    values, the string-list members, the numeric-array members, and the
    optional LSH payload ``(ids, slots, filled, bands, rows, bits)``.
    """
    if catalog._frozen_postings is None:
        catalog.compact()
    ids = list(catalog)
    sketches = [catalog.get(sid) for sid in ids]
    columns = [sketch.columnar() for sketch in sketches]
    postings = catalog._frozen_postings

    lengths = np.asarray([c.size for c in columns], dtype=np.int64)
    entry_indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lengths, out=entry_indptr[1:])

    def _concat(arrays, dtype):
        arrays = [np.asarray(a) for a in arrays if np.asarray(a).size]
        if not arrays:
            return np.empty(0, dtype=dtype)
        return np.concatenate(arrays).astype(dtype, copy=False)

    bits, seed = catalog.hasher.scheme_id
    config = {
        "sketch_size": catalog.sketch_size,
        "bits": bits,
        "seed": seed,
        "vectorized": int(catalog.vectorized),
        "aggregate": catalog.aggregate,
        "index_version": catalog.index_version,
    }
    strings = {
        "ids": ids,
        "names": [s.name or "" for s in sketches],
        "aggregates": [s.aggregate for s in sketches],
        "postings_docs": list(postings.docs),
        "delta_ids": sorted(catalog._delta_ids),
        "tombstones": sorted(catalog._tombstones),
    }
    numeric = {
        "has_name": np.asarray([s.name is not None for s in sketches], dtype=bool),
        "capacities": np.asarray([s.n for s in sketches], dtype=np.int64),
        "rows_seen": np.asarray([s.rows_seen for s in sketches], dtype=np.int64),
        "overflowed": np.asarray([not s.saw_all_keys for s in sketches], dtype=bool),
        "value_min": np.asarray([s.value_min for s in sketches], dtype=np.float64),
        "value_max": np.asarray([s.value_max for s in sketches], dtype=np.float64),
        "entry_indptr": entry_indptr,
        "key_hashes": _concat([c.key_hashes for c in columns], np.uint64),
        "ranks": _concat([c.ranks for c in columns], np.float64),
        "values": _concat([c.values for c in columns], np.float64),
        "postings_vocab": postings.vocab,
        "postings_indptr": postings.indptr,
        "postings_doc_ids": postings.doc_ids,
        "postings_doc_lengths": postings.doc_lengths,
    }
    # The LSH index rides along whenever the catalog built (or loaded)
    # one. Between compactions it covers the frozen layer rather than
    # the whole catalog (and may still physically contain tombstoned
    # rows), so the exact id list it covers is persisted alongside the
    # signatures. _lsh_arrays never expands deferred bucket state.
    return config, strings, numeric, catalog._lsh_arrays()


def save_snapshot(
    catalog: SketchCatalog, path: str | Path, *, layout: str = "npz"
) -> None:
    """Write ``catalog`` as a versioned binary snapshot (atomically).

    A catalog that has never frozen (fresh or JSON-loaded) is compacted
    here — freezing is an offline (save-time) cost in this format, never
    an online one. A catalog that *has* a frozen layer is persisted
    exactly as layered: the frozen CSR verbatim (tombstoned postings
    included), plus the delta ids and tombstone set — saving never
    forces a fold. Works on any catalog, including one that was itself
    snapshot-loaded (its entries' columns are the stored array slices,
    mapped or not).

    Args:
        layout: ``"npz"`` (the default) or ``"arena"`` (the zero-copy
            mmap-able layout, see the module docs).
    """
    if layout not in SNAPSHOT_LAYOUTS:
        raise ValueError(
            f"unknown snapshot layout {layout!r} (choose from "
            f"{SNAPSHOT_LAYOUTS})"
        )
    config, strings, numeric, lsh = _collect_members(catalog)
    if layout == "arena":
        _save_arena(path, config, strings, numeric, lsh)
    else:
        _save_npz(path, config, strings, numeric, lsh)


def _save_npz(path, config, strings, numeric, lsh) -> None:
    lsh_members = {}
    if lsh is not None:
        lsh_ids, lsh_slots, lsh_filled, bands, rows, bits = lsh
        lsh_members = {
            "lsh_config": np.asarray([bands, rows, bits], dtype=np.int64),
            "lsh_slots": lsh_slots,
            "lsh_filled": lsh_filled,
            "lsh_ids": np.asarray(lsh_ids, dtype=str),
        }
    members = {
        "version": np.asarray([SNAPSHOT_VERSION], dtype=np.int64),
        "catalog_config": np.asarray(
            [
                config["sketch_size"],
                config["bits"],
                config["seed"],
                config["vectorized"],
            ],
            dtype=np.int64,
        ),
        "catalog_aggregate": np.asarray([config["aggregate"]]),
        "ids": np.asarray(strings["ids"], dtype=str),
        "names": np.asarray(strings["names"], dtype=str),
        "aggregates": np.asarray(strings["aggregates"], dtype=str),
        "postings_docs": np.asarray(strings["postings_docs"], dtype=str),
        "index_version": np.asarray([config["index_version"]], dtype=np.int64),
        "delta_ids": np.asarray(strings["delta_ids"], dtype=str),
        "tombstones": np.asarray(strings["tombstones"], dtype=str),
        **numeric,
        **lsh_members,
    }
    members["payload_crc32"] = np.asarray(
        [_npz_members_crc32(members)], dtype=np.int64
    )
    # A file handle (not a path) keeps np.savez from appending ".npz"
    # behind the caller's back — the snapshot lands exactly where asked,
    # whatever the extension (load sniffs the zip magic anyway). The
    # handle is the atomic-write temp file; os.replace publishes it.
    atomic_write(path, lambda handle: np.savez(handle, **members))


def _npz_members_crc32(members: dict) -> int:
    """CRC32 over every npz member's name + raw bytes, sorted by name.

    ``payload_crc32`` itself is excluded, so the same function computes
    the checksum at save time and recomputes it at verify time from the
    loaded members — .npy round-trips preserve dtype and value bytes
    exactly.
    """
    crc = 0
    for name in sorted(members):
        if name == "payload_crc32":
            continue
        array = np.ascontiguousarray(members[name])
        crc = zlib.crc32(name.encode("utf-8"), crc)
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


def _save_arena(path, config, strings, numeric, lsh) -> None:
    meta = {
        "format": "correlation-sketches-arena",
        "version": ARENA_VERSION,
        "catalog_config": [
            config["sketch_size"],
            config["bits"],
            config["seed"],
            config["vectorized"],
        ],
        "catalog_aggregate": config["aggregate"],
        "index_version": config["index_version"],
        **strings,
        "lsh": None,
    }
    arrays = dict(numeric)
    if lsh is not None:
        lsh_ids, lsh_slots, lsh_filled, bands, rows, bits = lsh
        meta["lsh"] = {
            "bands": bands, "rows": rows, "bits": bits, "ids": list(lsh_ids)
        }
        arrays["lsh_slots"] = lsh_slots
        arrays["lsh_filled"] = lsh_filled
    write_arena(path, meta, arrays)


class _EntrySource:
    """Shared backing store behind deferred snapshot entries.

    One instance per loaded snapshot holds the concatenated arrays (heap
    arrays for npz, read-only mapped views for arenas) plus the
    per-sketch scalar columns; the catalog's entry map
    (:class:`~repro.index.catalog._DeferredEntryDict`) keeps only a
    position per entry and asks for the sketch on first touch. This is
    what makes snapshot loads O(metadata): no per-entry objects are
    built at load time at all.
    """

    __slots__ = (
        "entry_indptr", "key_hashes", "ranks", "values",
        "names", "has_name", "aggregates", "capacities",
        "rows_seen", "overflowed", "value_min", "value_max",
    )

    def __init__(self, **members) -> None:
        for name in self.__slots__:
            setattr(self, name, members[name])

    def sketch_of(self, position: int, hasher: KeyHasher) -> CorrelationSketch:
        """The sketch at ``position``, around its slices of the arrays."""
        start = int(self.entry_indptr[position])
        end = int(self.entry_indptr[position + 1])
        return CorrelationSketch.from_frozen_arrays(
            self.key_hashes[start:end],
            self.ranks[start:end],
            self.values[start:end],
            n=int(self.capacities[position]),
            aggregate=str(self.aggregates[position]),
            hasher=hasher,
            name=(
                str(self.names[position])
                if bool(self.has_name[position])
                else None
            ),
            rows_seen=int(self.rows_seen[position]),
            overflowed=bool(self.overflowed[position]),
            value_min=float(self.value_min[position]),
            value_max=float(self.value_max[position]),
        )


def _rehydrate(
    catalog: SketchCatalog,
    ids: list[str],
    source: _EntrySource,
    postings: ColumnarPostings,
    *,
    index_version: int,
    delta_ids: list[str],
    tombstones: list[str],
    lsh_pending: tuple | None,
) -> SketchCatalog:
    """Install the loaded members into ``catalog`` (both layouts)."""
    catalog._sketches = _DeferredEntryDict(ids, source, catalog.hasher)
    catalog._frozen_postings = postings
    catalog.index_version = index_version
    catalog._tombstones = set(tombstones)
    catalog._delta_ids = dict.fromkeys(delta_ids)
    catalog._lsh_pending = lsh_pending
    return catalog


def verify_snapshot(path: str | Path) -> bool | None:
    """Checksum a snapshot file against its recorded CRC32.

    Returns ``True`` (checksum matches), ``False`` (payload corrupt),
    or ``None`` for files written before checksums existed — those load
    unchecked by contract. Reads every payload byte, so this is the
    explicit verification step behind ``catalog verify`` /
    ``shard verify``, never part of load (arena loads stay O(metadata)).

    Raises:
        ValueError: when the file is too mangled to parse at all (bad
            header, truncated payload, unreadable zip) — structural
            corruption, as opposed to the bit-rot ``False`` reports.
    """
    path = Path(path)
    if has_arena_magic(path):
        return ArenaReader(path).verify_payload()
    if not _has_zip_magic(path):
        if path.suffix in (".npz", ".arena"):
            raise ValueError(
                f"unreadable snapshot {path}: no recognizable snapshot magic"
            )
        return None  # JSON catalogs carry no checksum
    try:
        with np.load(path, allow_pickle=False) as payload:
            members = {name: payload[name] for name in payload.files}
    except Exception as exc:
        raise ValueError(f"unreadable snapshot {path}: {exc}") from exc
    recorded = members.get("payload_crc32")
    if recorded is None:
        return None
    return _npz_members_crc32(members) == int(recorded[0])


def load_snapshot(path: str | Path) -> SketchCatalog:
    """Load a binary snapshot (either layout) into a lazily rehydrated
    catalog.

    npz snapshots copy their arrays to the heap; arena snapshots come
    back memory-mapped (``catalog.storage == "mmap"``) with every array
    a read-only view into the shared mapping.

    Raises:
        ValueError: for snapshots written by an unknown format version.
    """
    _fault("snapshot_read", path=str(path))
    if has_arena_magic(path):
        return _load_arena(path)
    return _load_npz(path)


def _load_npz(path: str | Path) -> SketchCatalog:
    with np.load(path, allow_pickle=False) as payload:
        version = int(payload["version"][0])
        if version not in _READABLE_VERSIONS:
            raise ValueError(
                f"unsupported catalog snapshot version {version} "
                f"(this build reads versions {_READABLE_VERSIONS})"
            )
        sketch_size, bits, seed, vectorized = (
            int(v) for v in payload["catalog_config"]
        )
        catalog = SketchCatalog(
            sketch_size=sketch_size,
            aggregate=str(payload["catalog_aggregate"][0]),
            hasher=KeyHasher(bits=bits, seed=seed),
            vectorized=bool(vectorized),
        )
        ids = [str(sid) for sid in payload["ids"]]
        source = _EntrySource(
            entry_indptr=payload["entry_indptr"],
            key_hashes=payload["key_hashes"],
            ranks=payload["ranks"],
            values=payload["values"],
            names=payload["names"].tolist(),
            has_name=payload["has_name"],
            aggregates=payload["aggregates"].tolist(),
            capacities=payload["capacities"],
            rows_seen=payload["rows_seen"],
            overflowed=payload["overflowed"],
            value_min=payload["value_min"],
            value_max=payload["value_max"],
        )
        postings = ColumnarPostings(
            payload["postings_vocab"],
            payload["postings_indptr"],
            payload["postings_doc_ids"],
            payload["postings_docs"].tolist(),
            payload["postings_doc_lengths"],
        )
        if version >= 3:
            index_version = int(payload["index_version"][0])
            delta_ids = [str(sid) for sid in payload["delta_ids"]]
            tombstones = [str(sid) for sid in payload["tombstones"]]
        else:
            index_version, delta_ids, tombstones = 0, [], []
        lsh_pending = None
        if "lsh_slots" in payload:
            lsh_bands, lsh_rows, lsh_bits = (
                int(v) for v in payload["lsh_config"]
            )
            # v2 snapshots persisted the LSH only when it covered the
            # whole catalog; v3 records the covered ids explicitly (the
            # frozen layer, between compactions). Bucket expansion is
            # deferred until an LSH probe happens.
            if "lsh_ids" in payload:
                lsh_ids = [str(sid) for sid in payload["lsh_ids"]]
            else:
                lsh_ids = list(ids)
            lsh_pending = (
                lsh_ids,
                payload["lsh_slots"],
                payload["lsh_filled"],
                lsh_bands,
                lsh_rows,
                lsh_bits,
            )
    return _rehydrate(
        catalog,
        ids,
        source,
        postings,
        index_version=index_version,
        delta_ids=delta_ids,
        tombstones=tombstones,
        lsh_pending=lsh_pending,
    )


def _load_arena(path: str | Path) -> SketchCatalog:
    arena = ArenaReader(path)
    meta = arena.meta
    version = meta.get("version")
    if version not in _ARENA_READABLE_VERSIONS:
        raise ValueError(
            f"unsupported catalog arena version {version!r} "
            f"(this build reads versions {_ARENA_READABLE_VERSIONS})"
        )
    sketch_size, bits, seed, vectorized = meta["catalog_config"]
    catalog = SketchCatalog(
        sketch_size=int(sketch_size),
        aggregate=str(meta["catalog_aggregate"]),
        hasher=KeyHasher(bits=int(bits), seed=int(seed)),
        vectorized=bool(vectorized),
    )
    ids = list(meta["ids"])
    source = _EntrySource(
        entry_indptr=arena.array("entry_indptr"),
        key_hashes=arena.array("key_hashes"),
        ranks=arena.array("ranks"),
        values=arena.array("values"),
        names=meta["names"],
        has_name=arena.array("has_name"),
        aggregates=meta["aggregates"],
        capacities=arena.array("capacities"),
        rows_seen=arena.array("rows_seen"),
        overflowed=arena.array("overflowed"),
        value_min=arena.array("value_min"),
        value_max=arena.array("value_max"),
    )
    postings = ColumnarPostings(
        arena.array("postings_vocab"),
        arena.array("postings_indptr"),
        arena.array("postings_doc_ids"),
        list(meta["postings_docs"]),
        arena.array("postings_doc_lengths"),
    )
    lsh_pending = None
    lsh_meta = meta.get("lsh")
    if lsh_meta:
        lsh_pending = (
            list(lsh_meta["ids"]),
            arena.array("lsh_slots"),
            arena.array("lsh_filled"),
            int(lsh_meta["bands"]),
            int(lsh_meta["rows"]),
            int(lsh_meta["bits"]),
        )
    _rehydrate(
        catalog,
        ids,
        source,
        postings,
        index_version=int(meta["index_version"]),
        delta_ids=list(meta["delta_ids"]),
        tombstones=list(meta["tombstones"]),
        lsh_pending=lsh_pending,
    )
    # The reader owns the single read-only mapping every view above
    # slices into; pinning it on the catalog keeps the mapping (and the
    # file's inode, even across an os.replace or unlink) alive for the
    # catalog's lifetime.
    catalog._arena = arena
    return catalog
