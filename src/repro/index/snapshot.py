"""Binary catalog snapshots: the offline-build / online-serve format.

The JSON catalog format (:meth:`repro.index.catalog.SketchCatalog.save`)
is the portable interchange format: readable, diffable, and slow — every
sketch round-trips through per-entry Python lists and the inverted index
is rebuilt on every cold start. This module holds the one serving
format, the **arena**, which persists:

* the **concatenated columnar sketch arrays** — all sketches' sorted
  key hashes and aggregated values laid end to end with one CSR-style
  ``entry_indptr`` delimiting each sketch's slice, plus per-sketch
  scalar columns (capacity, rows seen, overflow flag, value min/max,
  names). A persisted entry is Section 3.1's ``⟨h(k), x_k⟩``: the unit
  rank ``h_u(h(k))`` is Fibonacci hashing of the stored key hash, so it
  is derived on read (:attr:`repro.core.sketch.SketchColumns.ranks`),
  never stored. The key hash is stored at the hashing scheme's width —
  4 bytes under the 32-bit scheme, 8 under the 64-bit one;
* the **frozen CSR postings** of the inverted index
  (:class:`repro.index.inverted.ColumnarPostings` — vocabulary,
  ``indptr``, doc ids, doc table), persisted verbatim;
* the **LSH signature arrays** — the catalog's MinHash-LSH index
  (:class:`repro.index.lsh.LshIndex`), when one was built before
  saving: per-sketch slot/filled matrices plus the ``(bands, rows,
  bits)`` config and the exact id list they cover. Catalogs that never
  probed the LSH backend write no LSH members and rebuild lazily after
  load, exactly like the JSON format always does;
* the **delta-layer state** — the catalog's ``index_version``
  compaction counter, the ids still in the mutable delta layer, and the
  tombstone set. The frozen CSR is persisted verbatim, tombstoned
  postings included — a snapshot save is never an implicit compaction;
  the delta's CSR is derived state, frozen from the delta sketches'
  stored key-hash slices on the first probe after a load.

An arena is one contiguous 64-byte-aligned file
(:mod:`repro.index.arena`): a small JSON header of (name, dtype, shape,
offset) extents followed by the packed array payloads. Version 6 holds,
for ``S`` sketches, ``E`` retained entries in all, ``V`` vocabulary
hashes, ``P`` postings and ``D`` frozen documents (``hash`` is
``uint32`` when ``catalog_config`` records 32 hash bits, ``uint64`` at
64):

========================  ===========  =====================================
header key                JSON         meaning
========================  ===========  =====================================
``catalog_config``        3 ints       sketch size, hash bits, hash seed
``catalog_aggregate``     str          the catalog's aggregate
``index_version``         int          compaction counter
``ids``                   S strs       sketch ids, in catalog order
``names``                 object       ``{position: name}`` for named
                                       sketches whose name is not their id
``aggregates``            object       ``{position: aggregate}`` for
                                       sketches whose aggregate is not
                                       ``catalog_aggregate``
``delta_ids``             strs         ids still in the delta layer
``tombstones``            strs         ids banned from the frozen layer
``lsh``                   object/null  LSH config and covered ids
========================  ===========  =====================================

========================  =========  =====================================
array member              dtype      shape / meaning
========================  =========  =====================================
``has_name``              bool       S; False for an unnamed sketch
``capacities``            int64      S; each sketch's ``n``
``rows_seen``             int64      S
``overflowed``            bool       S
``value_min``             float64    S; ``±inf`` when no finite value
``value_max``             float64    S
``entry_indptr``          int64      S + 1; sketch ``i`` owns entries
                                     ``[indptr[i], indptr[i + 1])``
``key_hashes``            hash       E; ascending within each sketch
``values``                float64    E; aligned with ``key_hashes``
``postings_vocab``        hash       V
``postings_indptr``       int64      V + 1
``postings_doc_ids``      int32      P; positions into the documents
``postings_docs``         int32      D; each document's position in
                                     ``ids + tombstones``
``postings_doc_lengths``  int64      D
``lsh_slots``             uint64     (L, slots); only with ``lsh``
``lsh_filled``            bool       (L, slots); only with ``lsh``
========================  =========  =====================================

(``L`` is the number of sketches the LSH index covers.) A frozen
document is either a live id or a tombstoned one, so its position in
``ids + tombstones`` always exists; a live id takes the first match.

Loading maps the file read-only and rehydrates the catalog as
**zero-copy views into the mapping**: no decompression, no copy, load
time O(metadata) — and N processes serving the same arena share one set
of physical pages through the page cache.

Loading does no per-entry work at all: an entry is an integer position
until first touched, when it wakes into a read-only
:class:`~repro.core.sketch.CorrelationSketch` (one type for fresh,
loaded and query-side sketches; only aggregator state is not persisted,
so a loaded sketch rejects further rows). In memory every key-hash
array is ``uint64``, whatever width it was stored at: a woken sketch's
values are a zero-copy slice of the stored array, and so are its key
hashes under the 64-bit scheme; under the 32-bit scheme waking widens
its slice into a read-only ``uint64`` copy, O(n) for that sketch alone.
The postings snapshot is reconstructed directly from its stored arrays
(the catalog's ``frozen_postings`` cache starts warm) — its 32-bit
vocabulary widened once at load, in O(V), so no probe ever casts it —
and persisted LSH signatures are kept as a deferred pending payload
that expands into bucket state only if an LSH probe happens.

Format contract:

* exactly one generation is readable: the header's ``version`` must
  equal :data:`ARENA_VERSION`, anything else raises ``ValueError``
  rather than guessing — naming the bridge from an older file: convert
  it to JSON with ``catalog convert`` on the build that wrote it (the
  JSON interchange has not changed), then back with this one, or
  re-index. The earlier binary format — a zip of ``.npy``
  members — is retired: such a file is refused by name
  (:func:`repro.index.catalog._refuse_retired_snapshot`), never parsed,
  and never treated as a corrupt arena;
* array-level equality across both formats: a catalog saved to JSON and
  to an arena loads back with identical per-sketch entries, columnar
  views and postings (the snapshot test suites pin this);
* writes are **atomic**: a temp file in the target directory is
  ``os.replace``d into place (:func:`repro.index.arena.atomic_write`),
  so a crash mid-save can never corrupt an existing catalog;
* mutation after load behaves exactly like a JSON-loaded catalog:
  appends and removals land in heap-native delta/tombstone structures,
  and a compaction folds into fresh heap arrays — an arena-mapped
  catalog never writes to (and cannot write to — views are read-only)
  the shared mapping.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.arena import ArenaReader, _fault, has_arena_magic, write_arena
from repro.index.catalog import (
    SketchCatalog,
    SnapshotRefused,
    _DeferredEntryDict,
    _refuse_retired_snapshot,
)
from repro.index.inverted import ColumnarPostings

#: The arena's format version, recorded in its header. Bump on any
#: member change; load_snapshot reads exactly this version.
ARENA_VERSION = 6

#: The stored dtype of key hashes and vocabulary per hash width (bits).
_HASH_DTYPES = {32: np.dtype(np.uint32), 64: np.dtype(np.uint64)}

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
    """``"arena"`` for arena snapshots, ``"json"`` otherwise.

    Decided the same way :meth:`SketchCatalog.load` dispatches: content
    magic first, extension as the fallback for paths that cannot be
    read yet.
    """
    path = Path(path)
    if has_arena_magic(path) or path.suffix == ".arena":
        return "arena"
    return "json"


def save_snapshot(catalog: SketchCatalog, path: str | Path) -> None:
    """Write ``catalog`` as an arena snapshot (atomically).

    A catalog that has never frozen (fresh or JSON-loaded) is compacted
    here — freezing is an offline (save-time) cost in this format, never
    an online one. A catalog that *has* a frozen layer is persisted
    exactly as layered: the frozen CSR verbatim (tombstoned postings
    included), plus the delta ids and tombstone set — saving never
    forces a fold. Works on any catalog, including one that was itself
    snapshot-loaded (its entries' columns are the stored array slices,
    mapped or not).

    Raises:
        ValueError: when a key hash does not fit the width of the
            catalog's hashing scheme (it is never truncated).
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
    hash_dtype = _HASH_DTYPES[bits]
    tombstones = sorted(catalog._tombstones)
    # A frozen document's position in ids + tombstones; a live id wins
    # over a tombstoned copy of itself (a re-add).
    doc_position = {sid: i for i, sid in enumerate(ids + tombstones)}
    doc_position.update(zip(ids, range(len(ids))))
    meta = {
        "format": "correlation-sketches-arena",
        "version": ARENA_VERSION,
        "catalog_config": [catalog.sketch_size, bits, seed],
        "catalog_aggregate": catalog.aggregate,
        "index_version": catalog.index_version,
        "ids": ids,
        "names": {
            position: s.name
            for position, (sid, s) in enumerate(zip(ids, sketches))
            if s.name is not None and s.name != sid
        },
        "aggregates": {
            position: s.aggregate
            for position, s in enumerate(sketches)
            if s.aggregate != catalog.aggregate
        },
        "delta_ids": sorted(catalog._delta_ids),
        "tombstones": tombstones,
        "lsh": None,
    }
    arrays = {
        "has_name": np.asarray([s.name is not None for s in sketches], dtype=bool),
        "capacities": np.asarray([s.n for s in sketches], dtype=np.int64),
        "rows_seen": np.asarray([s.rows_seen for s in sketches], dtype=np.int64),
        "overflowed": np.asarray([not s.saw_all_keys for s in sketches], dtype=bool),
        "value_min": np.asarray([s.value_min for s in sketches], dtype=np.float64),
        "value_max": np.asarray([s.value_max for s in sketches], dtype=np.float64),
        "entry_indptr": entry_indptr,
        "key_hashes": _narrowed(
            _concat([c.key_hashes for c in columns], np.uint64), hash_dtype
        ),
        "values": _concat([c.values for c in columns], np.float64),
        "postings_vocab": _narrowed(postings.vocab, hash_dtype),
        "postings_indptr": postings.indptr,
        "postings_doc_ids": postings.doc_ids,
        "postings_docs": np.fromiter(
            (doc_position[doc] for doc in postings.docs),
            np.int32,
            len(postings.docs),
        ),
        "postings_doc_lengths": postings.doc_lengths,
    }
    # The LSH index rides along whenever the catalog built (or loaded)
    # one. Between compactions it covers the frozen layer rather than
    # the whole catalog (and may still physically contain tombstoned
    # rows), so the exact id list it covers is persisted alongside the
    # signatures. _lsh_arrays never expands deferred bucket state.
    lsh = catalog._lsh_arrays()
    if lsh is not None:
        lsh_ids, lsh_slots, lsh_filled, bands, rows, lsh_bits = lsh
        meta["lsh"] = {
            "bands": bands, "rows": rows, "bits": lsh_bits, "ids": list(lsh_ids)
        }
        arrays["lsh_slots"] = lsh_slots
        arrays["lsh_filled"] = lsh_filled
    write_arena(path, meta, arrays)


def _narrowed(hashes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``hashes`` cast to the stored ``dtype``, refusing (never
    truncating) a value that does not fit it."""
    if hashes.dtype == dtype:
        return hashes
    if hashes.size and int(hashes.max()) > np.iinfo(dtype).max:
        raise ValueError(
            f"key hash {int(hashes.max())} does not fit the {dtype.itemsize * 8}"
            f"-bit hashing scheme's stored width"
        )
    return hashes.astype(dtype)


def _widened(hashes: np.ndarray) -> np.ndarray:
    """A stored hash array as the ``uint64`` every in-memory hash array
    is: a ``uint64`` view as is, a ``uint32`` one as a read-only copy."""
    if hashes.dtype == np.uint64:
        return hashes
    wide = hashes.astype(np.uint64)
    wide.flags.writeable = False
    return wide


class _EntrySource:
    """Shared backing store behind deferred snapshot entries.

    One instance per loaded snapshot holds the concatenated arrays
    (read-only mapped views) plus the per-sketch scalar columns; the
    catalog's entry map
    (:class:`~repro.index.catalog._DeferredEntryDict`) keeps only a
    position per entry and asks for the sketch on first touch. This is
    what makes snapshot loads O(metadata): no per-entry objects are
    built at load time at all.
    """

    __slots__ = (
        "entry_indptr", "key_hashes", "values",
        "ids", "names", "has_name", "aggregate", "aggregates", "capacities",
        "rows_seen", "overflowed", "value_min", "value_max",
    )

    def __init__(self, **members) -> None:
        for name in self.__slots__:
            setattr(self, name, members[name])

    def sketch_of(self, position: int, hasher: KeyHasher) -> CorrelationSketch:
        """The sketch at ``position``, around its slices of the arrays
        (the key-hash slice widened to ``uint64``)."""
        start = int(self.entry_indptr[position])
        end = int(self.entry_indptr[position + 1])
        return CorrelationSketch.from_frozen_arrays(
            _widened(self.key_hashes[start:end]),
            self.values[start:end],
            n=int(self.capacities[position]),
            aggregate=self.aggregates.get(position, self.aggregate),
            hasher=hasher,
            name=(
                self.names.get(position, self.ids[position])
                if bool(self.has_name[position])
                else None
            ),
            rows_seen=int(self.rows_seen[position]),
            overflowed=bool(self.overflowed[position]),
            value_min=float(self.value_min[position]),
            value_max=float(self.value_max[position]),
        )


def verify_snapshot(path: str | Path) -> bool | None:
    """Checksum a snapshot file against its recorded CRC32.

    Returns ``True`` (checksum matches), ``False`` (payload corrupt),
    or ``None`` for files that carry no checksum (JSON catalogs, and
    arenas written before checksums existed — those load unchecked by
    contract). Reads every payload byte, so this is the explicit
    verification step behind ``catalog verify`` / ``shard verify``,
    never part of load (arena loads stay O(metadata)).

    Raises:
        ValueError: when the file is too mangled to parse at all (bad
            header, truncated payload) — structural corruption, as
            opposed to the bit-rot ``False`` reports — or is in the
            retired binary format.
    """
    path = Path(path)
    if has_arena_magic(path):
        return ArenaReader(path).verify_payload()
    _refuse_retired_snapshot(path)
    if path.suffix == ".arena":
        raise ValueError(
            f"unreadable snapshot {path}: no recognizable snapshot magic"
        )
    return None  # JSON catalogs carry no checksum


def load_snapshot(path: str | Path) -> SketchCatalog:
    """Load an arena snapshot into a lazily rehydrated catalog.

    The catalog comes back memory-mapped (``catalog.storage == "mmap"``)
    with every array read-only: a view into the shared mapping, except
    32-bit-scheme hashes, which are widened to ``uint64`` copies (the
    vocabulary here, a sketch's key hashes when it wakes).

    Raises:
        SnapshotRefused: (a ``ValueError``) for a file in the retired
            binary format or written by another arena version.
        ValueError: for a file that is not an arena or is corrupt.
    """
    _fault("snapshot_read", path=str(path))
    try:
        arena = ArenaReader(path)
    except ValueError:
        _refuse_retired_snapshot(Path(path))  # named as retired, not as a bad arena
        raise
    meta = arena.meta
    version = meta.get("version")
    if version != ARENA_VERSION:
        raise SnapshotRefused(
            f"unsupported catalog arena version {version!r} "
            f"(this build reads version {ARENA_VERSION}): convert it to "
            f"JSON with `catalog convert` on the build that wrote it and "
            f"back to .arena with this one, or re-index the source CSVs"
        )
    sketch_size, bits, seed = meta["catalog_config"]
    catalog = SketchCatalog(
        sketch_size=int(sketch_size),
        aggregate=str(meta["catalog_aggregate"]),
        hasher=KeyHasher(bits=int(bits), seed=int(seed)),
    )
    key_hashes = arena.array("key_hashes")
    vocab = arena.array("postings_vocab")
    hash_dtype = _HASH_DTYPES[catalog.hasher.bits]
    if key_hashes.dtype != hash_dtype or vocab.dtype != hash_dtype:
        raise ValueError(
            f"corrupt arena {path}: {catalog.hasher.bits}-bit hashes stored "
            f"as {key_hashes.dtype} / {vocab.dtype}, not {hash_dtype}"
        )
    ids = list(meta["ids"])
    tombstones = list(meta["tombstones"])
    source = _EntrySource(
        entry_indptr=arena.array("entry_indptr"),
        key_hashes=key_hashes,
        values=arena.array("values"),
        ids=ids,
        names={int(position): name for position, name in meta["names"].items()},
        has_name=arena.array("has_name"),
        aggregate=catalog.aggregate,
        aggregates={
            int(position): aggregate
            for position, aggregate in meta["aggregates"].items()
        },
        capacities=arena.array("capacities"),
        rows_seen=arena.array("rows_seen"),
        overflowed=arena.array("overflowed"),
        value_min=arena.array("value_min"),
        value_max=arena.array("value_max"),
    )
    catalog._sketches = _DeferredEntryDict(ids, source, catalog.hasher)
    doc_names = ids + tombstones
    doc_positions = arena.array("postings_docs").tolist()
    if doc_positions and not (
        0 <= min(doc_positions) and max(doc_positions) < len(doc_names)
    ):
        raise ValueError(
            f"corrupt arena {path}: a postings document position lies "
            f"outside its {len(doc_names)} ids and tombstones"
        )
    catalog._frozen_postings = ColumnarPostings(
        _widened(vocab),
        arena.array("postings_indptr"),
        arena.array("postings_doc_ids"),
        [doc_names[i] for i in doc_positions],
        arena.array("postings_doc_lengths"),
    )
    catalog.index_version = int(meta["index_version"])
    catalog._tombstones = set(tombstones)
    catalog._delta_ids = dict.fromkeys(meta["delta_ids"])
    lsh_meta = meta.get("lsh")
    if lsh_meta:
        catalog._lsh_pending = (
            list(lsh_meta["ids"]),
            arena.array("lsh_slots"),
            arena.array("lsh_filled"),
            int(lsh_meta["bands"]),
            int(lsh_meta["rows"]),
            int(lsh_meta["bits"]),
        )
    # The reader owns the single read-only mapping every view above
    # slices into; pinning it on the catalog keeps the mapping (and the
    # file's inode, even across an os.replace or unlink) alive for the
    # catalog's lifetime.
    catalog._arena = arena
    return catalog
