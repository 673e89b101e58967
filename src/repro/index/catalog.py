"""Sketch catalog: the persistent store behind the query engine.

A :class:`SketchCatalog` maps column-pair identifiers to their correlation
sketches and maintains the retrieval indexes over key hashes — the exact
inverted index (always) and the approximate MinHash-LSH index (lazily,
on first :meth:`SketchCatalog.lsh_index` use). It is the
"index for a large number of tables" the paper's introduction promises:
sketches are built offline per column pair (one pass each), added here,
and queried at interactive latency without touching the original data.

Two persistence formats, one readable generation each, share
:meth:`SketchCatalog.save` / :meth:`SketchCatalog.load` (dispatched on
the ``.arena`` extension, with a content sniff on load):

* **JSON** — the portable, human-inspectable interchange format: every
  sketch round-trips through ``to_dict``/``from_dict`` and the inverted
  index is rebuilt from scratch;
* **arena snapshot** (:mod:`repro.index.snapshot`) — the serving format:
  the concatenated columnar sketch arrays plus the frozen CSR postings
  are persisted verbatim, so loading is array reads and nothing per
  sketch: an entry wakes, on first touch, into a (read-only)
  :class:`~repro.core.sketch.CorrelationSketch` around its slices of
  the stored arrays — the same type, with the same layout, as a
  freshly built one.

The catalog keeps no per-key Python structure: a sketch's postings are
its own sorted key-hash column, and every CSR is built from those
columns by concatenate + sort (:meth:`SketchCatalog._freeze`). Every
overlap probe is the stacked batch probe
(:meth:`SketchCatalog.probe_top_overlap_batch`; a single query is a
batch of one). The dict-of-lists index that freeze and probe are held
to is a test oracle, ``tests/scancount_oracle.py``.

Index maintenance is LSM-style. The frozen CSR postings and the
frozen-layer LSH index are immutable between compactions: appends land
in a small **delta** (an ordered id set, frozen to its own CSR on the
first probe after a write, plus an LSH delta ring), removals of frozen
entries go to a **tombstone** set, and the
layered probes (:meth:`SketchCatalog.probe_top_overlap_batch`,
:meth:`SketchCatalog.lsh_candidate_ids`) answer from
``frozen + delta − tombstones``, merging per-layer hits under the shared
``(−overlap, id)`` total order — bit-identical to a freshly rebuilt
monolithic index. :meth:`SketchCatalog.compact` folds the delta and
tombstones into new frozen structures and bumps
:attr:`SketchCatalog.index_version`; it runs on demand, at the
``compact_threshold`` delta size, or via the CLI's ``catalog compact``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.sketch import CorrelationSketch, SketchColumns
from repro.hashing import KeyHasher
from repro.index.inverted import ColumnarPostings, merge_hits
from repro.index.lsh import DEFAULT_BANDS, DEFAULT_ROWS, LshIndex
from repro.table.table import ColumnPair, Table


class _DeferredEntryDict(dict):
    """Entry map for snapshot-loaded catalogs: values start as integer
    positions into an entry source and wake into
    :class:`~repro.core.sketch.CorrelationSketch` objects around the
    source's array slices on first access.

    Populating a plain dict with one sketch object per entry is the
    only O(n) step left in an arena load; seeding integer placeholders
    instead is a single C-speed ``dict(zip(...))``, so load cost stays
    O(metadata) and a query allocates sketches for exactly the entries
    it touches. Every value read goes through the overridden accessors
    below, so callers only ever see sketches; key-only operations
    (``len``/``in``/``iter``/``del``) need no override. Mutations
    (``add_sketch``) assign real sketches over the placeholders and
    behave exactly as on a plain dict.
    """

    __slots__ = ("_source", "_hasher")

    def __init__(self, ids, source, hasher: KeyHasher) -> None:
        super().__init__(zip(ids, range(len(ids))))
        self._source = source
        self._hasher = hasher

    def _wake(self, sketch_id: str, position: int) -> CorrelationSketch:
        entry = self._source.sketch_of(position, self._hasher)
        dict.__setitem__(self, sketch_id, entry)
        return entry

    def __getitem__(self, sketch_id: str):
        entry = dict.__getitem__(self, sketch_id)
        if type(entry) is int:
            entry = self._wake(sketch_id, entry)
        return entry

    def get(self, sketch_id: str, default=None):
        entry = dict.get(self, sketch_id, default)
        if type(entry) is int:
            entry = self._wake(sketch_id, entry)
        return entry

    def values(self):
        return [self[sid] for sid in self]

    def items(self):
        return [(sid, self[sid]) for sid in self]


def check_scheme(catalog, sketch: CorrelationSketch, role: str) -> None:
    """Raise ``ValueError`` unless ``sketch`` hashes keys with the scheme
    of ``catalog`` (a :class:`SketchCatalog` or a sharded one): only then
    do its hashes join the catalog's. ``role`` names the sketch in the
    message."""
    if sketch.hasher.scheme_id != catalog.hasher.scheme_id:
        raise ValueError(
            f"{role} hashing scheme {sketch.hasher!r} differs from "
            f"catalog scheme {catalog.hasher!r}"
        )


class SketchCatalog:
    """Keyed store of correlation sketches plus the overlap index.

    Args:
        sketch_size: bottom-``n`` size for sketches built by this catalog.
        aggregate: aggregate function for repeated keys.
        hasher: hashing scheme shared by every sketch in the catalog
            (sketches from different schemes cannot be joined).
        compact_threshold: fold the delta layer into the frozen
            structures automatically once it holds this many sketches
            (``None``, the default, compacts only on demand — see
            :meth:`compact`).
    """

    def __init__(
        self,
        sketch_size: int = 256,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        *,
        compact_threshold: int | None = None,
    ) -> None:
        if compact_threshold is not None and compact_threshold <= 0:
            raise ValueError(
                f"compact_threshold must be positive, got {compact_threshold}"
            )
        self.sketch_size = sketch_size
        self.aggregate = aggregate
        self.hasher = hasher if hasher is not None else KeyHasher()
        self.compact_threshold = compact_threshold
        #: id -> CorrelationSketch (insertion-ordered).
        self._sketches: dict[str, CorrelationSketch] = {}
        self._frozen_postings: ColumnarPostings | None = None
        self._lsh_index: LshIndex | None = None
        #: Frozen-layer LSH signatures restored by a snapshot load but
        #: not yet expanded into bucket state:
        #: ``(ids, slots, filled, bands, rows, bits)``. The expansion is
        #: O(n·bands) Python work, so it is deferred until something
        #: actually probes the LSH — a cold start of the inverted
        #: backend never pays it. Exactly one of ``_lsh_index`` /
        #: ``_lsh_pending`` is non-None at a time.
        self._lsh_pending: tuple | None = None
        #: The arena mapping backing this catalog's arrays after a
        #: snapshot load
        #: (:class:`repro.index.arena.ArenaReader`); None for heap
        #: catalogs. Held so the mapping outlives any view handed out.
        self._arena = None
        #: Monotone compaction counter: bumped whenever :meth:`compact`
        #: folds actual work (non-empty delta or tombstones) into the
        #: frozen layer. Persisted by snapshots and manifests; the
        #: sharded-catalog loader uses it for stale-shard detection.
        self.index_version = 0
        #: The delta layer: ids of every append since the last
        #: compaction, in arrival order (their postings are the
        #: sketches' own key-hash columns). Probed alongside the frozen
        #: CSR, never instead of it.
        self._delta_ids: dict[str, None] = {}
        self._delta_frozen: ColumnarPostings | None = None
        self._delta_lsh: LshIndex | None = None
        #: Frozen-layer ids removed since the last compaction. Their
        #: postings stay physically present in the frozen CSR (and
        #: possibly the frozen-layer LSH) until compaction; probes ban
        #: them instead.
        self._tombstones: set[str] = set()
        self._banned_cache: np.ndarray | None = None
        #: Recovery report when this catalog came back through the
        #: ``on_corruption="quarantine"`` fallback chain of :meth:`load`:
        #: ``{"quarantined": [paths], "errors": [messages],
        #: "loaded_from": path}``. ``None`` for a clean load.
        self.load_recovery: dict | None = None

    # -- population ---------------------------------------------------------

    def _validate_new(self, sketch_id: str, sketch: CorrelationSketch) -> None:
        if sketch_id in self._sketches:
            raise ValueError(f"sketch id {sketch_id!r} already in catalog")
        check_scheme(self, sketch, "sketch")

    def add_sketch(self, sketch_id: str, sketch: CorrelationSketch) -> None:
        """Register an externally built sketch under ``sketch_id``.

        Raises:
            ValueError: on duplicate ids or hashing-scheme mismatch.
        """
        self.add_sketches([(sketch_id, sketch)])

    def add_sketches(
        self, sketches: Iterable[tuple[str, CorrelationSketch]]
    ) -> list[str]:
        """Bulk :meth:`add_sketch`: validate everything, then commit once.

        All ``(sketch_id, sketch)`` pairs are validated up front (so a
        bad entry rejects the whole batch before any mutation) and the
        delta caches are invalidated (and the compaction threshold
        consulted) a single time. Appends land in the delta layer: the
        frozen CSR and the frozen-layer LSH stay warm, and the layered
        probes merge frozen + delta − tombstones until the next
        compaction. This is the registration path of :meth:`add_tables`,
        :meth:`add_csv_streaming` and the JSON loader.
        """
        batch: dict[str, CorrelationSketch] = {}
        for sid, sketch in sketches:
            self._validate_new(sid, sketch)
            if sid in batch:
                raise ValueError(f"duplicate sketch id {sid!r} in batch")
            batch[sid] = sketch
        if not batch:
            return []
        self._sketches.update(batch)
        self._delta_ids.update(dict.fromkeys(batch))
        self._delta_frozen = None
        self._delta_lsh = None
        self._maybe_autocompact()
        return list(batch)

    def _build_pair_sketch(
        self, table: Table, pair: ColumnPair, *, sketch_id: str | None = None
    ) -> tuple[str, CorrelationSketch]:
        """Build (but do not register) the sketch for one column pair."""
        sid = sketch_id if sketch_id is not None else pair.pair_id
        sketch = CorrelationSketch(
            self.sketch_size,
            aggregate=self.aggregate,
            hasher=self.hasher,
            name=sid,
        )
        sketch.update_array(*table.pair_arrays(pair))
        return sid, sketch

    def add_column_pair(
        self, table: Table, pair: ColumnPair, *, sketch_id: str | None = None
    ) -> str:
        """Build and register the sketch for one ``⟨K, X⟩`` column pair."""
        sid, sketch = self._build_pair_sketch(table, pair, sketch_id=sketch_id)
        self.add_sketch(sid, sketch)
        return sid

    def _build_table_sketches(
        self, table: Table
    ) -> Iterator[tuple[str, CorrelationSketch]]:
        """Build (but do not register) the sketch of every column pair of
        ``table``, in :meth:`~repro.table.table.Table.column_pairs` order;
        each key column is hashed and grouped once for all its pairs."""
        value_names = table.numeric_names()
        for key in table.categorical_names():
            ids = [ColumnPair(table.name, key, v).pair_id for v in value_names]
            keys, columns = table.key_column_arrays(key, value_names)
            yield from zip(
                ids,
                CorrelationSketch.from_key_column(
                    keys,
                    columns,
                    self.sketch_size,
                    aggregate=self.aggregate,
                    hasher=self.hasher,
                    names=ids,
                ),
            )

    def add_table(self, table: Table) -> list[str]:
        """Sketch and register every column pair of ``table``."""
        return self.add_sketches(self._build_table_sketches(table))

    def add_tables(self, tables: Iterable[Table]) -> list[str]:
        """Sketch and register every column pair of every table."""
        return self.add_sketches(
            built for table in tables for built in self._build_table_sketches(table)
        )

    def add_csv_streaming(self, path: str | Path, **kwargs) -> list[str]:
        """Sketch a CSV file in one streaming pass and register the result.

        Unlike ``read_csv`` + :meth:`add_table`, the file is never
        materialized in memory — only a type-inference prefix plus the
        sketches themselves are held (see
        :func:`repro.table.streaming.stream_sketch_csv`, which receives
        ``kwargs``).
        """
        from repro.table.streaming import stream_sketch_csv

        sketches = stream_sketch_csv(
            path,
            self.sketch_size,
            aggregate=self.aggregate,
            hasher=self.hasher,
            **kwargs,
        )
        return self.add_sketches(sketches.items())

    # -- removal -------------------------------------------------------------

    def remove_sketch(self, sketch_id: str) -> None:
        """Delete a sketch; the frozen structures stay warm.

        What happens to the layered indexes depends on where the sketch
        lives: an entry still in the delta is erased from it outright,
        while a frozen-layer entry is *tombstoned* — its CSR/LSH postings
        remain physically present but every probe bans it, until the next
        :meth:`compact` drops it for real. Either way nothing frozen is
        invalidated, and the id is free for re-registration immediately
        (a re-add lands in the delta; the kept tombstone keeps banning
        the old frozen copy).

        Raises:
            KeyError: if ``sketch_id`` is not in the catalog.
        """
        if sketch_id not in self._sketches:
            raise KeyError(
                f"no sketch {sketch_id!r} in catalog ({len(self)} sketches)"
            )
        if sketch_id in self._delta_ids:
            del self._delta_ids[sketch_id]
            self._delta_frozen = None
            self._delta_lsh = None
        else:
            self._tombstones.add(sketch_id)
            self._banned_cache = None
        del self._sketches[sketch_id]

    def remove_sketches(self, sketch_ids: Iterable[str]) -> list[str]:
        """Bulk :meth:`remove_sketch`: validate everything, then commit.

        All ids are checked up front so an unknown (or duplicated) id
        rejects the whole batch before any mutation; each entry then
        takes its per-entry delta-erase or tombstone path.
        """
        ids = list(sketch_ids)
        seen: set[str] = set()
        for sid in ids:
            if sid not in self._sketches:
                raise KeyError(
                    f"no sketch {sid!r} in catalog ({len(self)} sketches)"
                )
            if sid in seen:
                raise ValueError(f"duplicate sketch id {sid!r} in batch")
            seen.add(sid)
        for sid in ids:
            self.remove_sketch(sid)
        return ids

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._sketches)

    def __contains__(self, sketch_id: str) -> bool:
        return sketch_id in self._sketches

    def __iter__(self) -> Iterator[str]:
        return iter(self._sketches)

    def get(self, sketch_id: str) -> CorrelationSketch:
        """Fetch a sketch by id (KeyError with context if absent).

        A snapshot-loaded sketch is a read-only view over the stored
        (possibly memory-mapped) arrays, built on first access.
        """
        try:
            return self._sketches[sketch_id]
        except KeyError:
            raise KeyError(
                f"no sketch {sketch_id!r} in catalog ({len(self)} sketches)"
            ) from None

    @property
    def vocabulary_size(self) -> int:
        """Distinct key hashes with postings over the *live* sketch set.

        A clean catalog (no pending delta or tombstones) answers from
        the frozen CSR without forcing a freeze; a dirty one counts the
        distinct values over the live sketches' key-hash columns, since
        the frozen vocabulary may count tombstoned-only hashes or miss
        delta-only ones."""
        if (
            self._frozen_postings is not None
            and not self._tombstones
            and not self._delta_ids
        ):
            return self._frozen_postings.vocabulary_size
        return int(np.unique(self._key_hash_columns(self)[0]).shape[0])

    def _key_hash_columns(self, ids) -> tuple[np.ndarray, np.ndarray]:
        """``(concatenated key hashes, per-sketch lengths)`` of ``ids``'
        sorted key-hash columns, in the order given."""
        columns = [self._sketches[sid].columnar().key_hashes for sid in ids]
        lengths = np.fromiter(
            (column.shape[0] for column in columns), np.int64, len(columns)
        )
        if not columns:
            return np.empty(0, dtype=np.uint64), lengths
        return np.concatenate(columns), lengths

    def _freeze(self, ids) -> ColumnarPostings:
        """The canonical CSR over ``ids`` (ascending vocabulary,
        ascending doc id per slice, docs sorted by id), straight from
        the sketches' key-hash columns — bit-identical to the
        dict-of-lists freeze of ``tests/scancount_oracle.py`` over the
        same sketches.

        Documents are laid end to end in id order, so a *stable* sort
        of the concatenated hashes leaves every vocabulary slice in
        ascending doc order.
        """
        docs = sorted(ids)
        hashes, lengths = self._key_hash_columns(docs)
        order = np.argsort(hashes, kind="stable")
        hashes = hashes[order]
        # Each vocabulary slice starts where the sorted hash changes.
        first = np.ones(hashes.size, dtype=bool)
        first[1:] = hashes[1:] != hashes[:-1]
        starts = np.flatnonzero(first)
        indptr = np.append(starts, hashes.size).astype(np.int64, copy=False)
        doc_of = np.repeat(np.arange(len(docs), dtype=np.int32), lengths)
        return ColumnarPostings(hashes[starts], indptr, doc_of[order], docs, lengths)

    def frozen_postings(self) -> ColumnarPostings:
        """The *monolithic* frozen CSR over every live sketch.

        Compacts first (:meth:`compact` is a no-op on a clean catalog),
        so the returned snapshot always covers exactly the live sketch
        set — a stable catalog keeps returning the same cached object
        while a mutated one folds and re-freezes. Binary snapshots
        persist the frozen arrays, so a loaded catalog starts with this
        cache already warm. The serving path never calls this: the
        layered :meth:`probe_top_overlap_batch` answers from frozen +
        delta − tombstones without folding.
        """
        self.compact()
        assert self._frozen_postings is not None
        return self._frozen_postings

    def _build_lsh(self, ids: list[str], *, bands: int, rows: int) -> LshIndex:
        """Vectorized LSH build over ``ids``: every sketch's columnar
        ``key_hashes`` view is concatenated CSR-style and bucketed by one
        :meth:`LshIndex.add_batch` scatter."""
        index = LshIndex(bands=bands, rows=rows, bits=self.hasher.bits)
        concat, lengths = self._key_hash_columns(ids)
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        index.add_batch(ids, concat, indptr)
        return index

    def lsh_index(
        self, *, bands: int | None = None, rows: int | None = None
    ) -> LshIndex:
        """The *monolithic* MinHash-LSH index over every live sketch.

        Same lifecycle contract as :meth:`frozen_postings`: compacts
        first (a no-op on a clean catalog), so the returned index covers
        exactly the live sketch set — mutations fold into it at the next
        call instead of forcing a from-scratch rebuild. Binary snapshots
        persist the signature arrays, so a loaded catalog that had an
        LSH index starts with this cache warm. The serving path never
        calls this: the layered :meth:`lsh_candidate_ids` probes
        frozen-layer and delta signatures without folding.

        ``bands``/``rows`` semantics: ``None`` (the default) means "use
        whatever index is cached, else build with the module defaults" —
        so a serving process that loaded a warm snapshot keeps its
        persisted banding whatever shape it was built with. Passing
        explicit values pins the shape: a cached index of a different
        ``(bands, rows)`` is discarded and rebuilt (and re-cached).
        """
        self.compact()
        cached_params = self.lsh_params
        if cached_params is not None:
            want = (
                bands if bands is not None else cached_params[0],
                rows if rows is not None else cached_params[1],
            )
            if cached_params == want:
                return self._lsh_cached()
        bands = DEFAULT_BANDS if bands is None else bands
        rows = DEFAULT_ROWS if rows is None else rows
        index = self._build_lsh(list(self), bands=bands, rows=rows)
        self._lsh_index = index
        self._lsh_pending = None
        return index

    def _lsh_cached(self) -> LshIndex | None:
        """The frozen-layer LSH index, expanding deferred snapshot
        signatures into bucket state on first use (see
        :attr:`_lsh_pending`)."""
        if self._lsh_index is None and self._lsh_pending is not None:
            ids, slots, filled, bands, rows, bits = self._lsh_pending
            self._lsh_index = LshIndex.from_arrays(
                ids, slots, filled, bands=bands, rows=rows, bits=bits
            )
            self._lsh_pending = None
        return self._lsh_index

    def _lsh_arrays(self) -> tuple | None:
        """``(ids, slots, filled, bands, rows, bits)`` of the
        frozen-layer LSH without expanding bucket state — what the
        snapshot writer persists and :meth:`_fold_lsh` folds. None when
        no frozen-layer LSH exists in either form."""
        if self._lsh_index is not None:
            lsh = self._lsh_index
            slots, filled = lsh.export_arrays()
            return (
                list(lsh.ids), slots, filled, lsh.bands, lsh.rows, lsh.bits
            )
        return self._lsh_pending

    @property
    def lsh_params(self) -> tuple[int, int] | None:
        """``(bands, rows)`` of the cached frozen-layer LSH index
        (materialized or still deferred from a snapshot load), or None
        when none has been built yet. Never triggers a build or a
        compaction — ``catalog info`` uses this to report whether a
        snapshot shipped a warm LSH index."""
        if self._lsh_index is not None:
            return (self._lsh_index.bands, self._lsh_index.rows)
        if self._lsh_pending is not None:
            return (self._lsh_pending[3], self._lsh_pending[4])
        return None

    def sketch_columns(self, sketch_id: str) -> SketchColumns:
        """Columnar (sorted key-hash / value / range) view of a sketch:
        :meth:`repro.core.sketch.CorrelationSketch.columnar`, which is
        the sketch's stored state (snapshot-loaded sketches serve slices
        of the stored arrays; ranks are derived from the key hashes)."""
        return self.get(sketch_id).columnar()

    # -- delta layer (LSM-style incremental maintenance) ----------------------

    @property
    def delta_size(self) -> int:
        """Sketches in the mutable delta layer (appends since the last
        compaction)."""
        return len(self._delta_ids)

    @property
    def tombstone_count(self) -> int:
        """Frozen-layer ids banned since the last compaction."""
        return len(self._tombstones)

    def _delta_postings(self) -> ColumnarPostings:
        """Frozen CSR view of the delta layer (cached per delta state)."""
        if self._delta_frozen is None:
            self._delta_frozen = self._freeze(self._delta_ids)
        return self._delta_frozen

    def _banned_doc_indices(self) -> np.ndarray | None:
        """Frozen-layer doc indices of the tombstoned ids (sorted), or
        None when there is nothing to ban — the ``banned`` argument of
        the frozen-layer CSR probes."""
        if not self._tombstones or self._frozen_postings is None:
            return None
        if self._banned_cache is None:
            doc_index = self._frozen_postings._doc_index
            self._banned_cache = np.asarray(
                sorted(
                    doc_index[sid]
                    for sid in self._tombstones
                    if sid in doc_index
                ),
                dtype=np.int64,
            )
        return self._banned_cache

    def posting_layers(
        self,
    ) -> list[tuple[ColumnarPostings, np.ndarray | None]]:
        """The live postings as ``(CSR, banned doc indices)`` layers:
        the frozen CSR behind its tombstone ban, then the delta freeze.
        Each live sketch is in exactly one layer; a layer that holds
        nothing is left out."""
        layers: list[tuple[ColumnarPostings, np.ndarray | None]] = []
        frozen = self._frozen_postings
        if frozen is not None and len(frozen):
            layers.append((frozen, self._banned_doc_indices()))
        if self._delta_ids:
            layers.append((self._delta_postings(), None))
        return layers

    def probe_top_overlap_batch(
        self,
        queries,
        depth: int,
        *,
        excludes=None,
        min_overlap: int = 1,
    ) -> list[list[tuple[str, int]]]:
        """Layered top-``depth`` overlap probe: frozen + delta − tombstones.

        Each layer answers the whole batch from its own stacked CSR
        probe (:meth:`~repro.index.inverted.ColumnarPostings.top_overlap_batch`),
        without folding anything; a single query is a batch of one. Row
        ``q`` is bit-identical to :meth:`frozen_postings`' probe on a
        freshly rebuilt monolithic index: each live sketch lives in
        exactly one layer (appends in the delta, frozen survivors behind
        the tombstone ban), each layer's list is already sorted under the
        ``(−overlap, id)`` total order, and any candidate in the global
        top-``depth`` is necessarily in its own layer's top-``depth`` —
        so :func:`~repro.index.inverted.merge_hits` over the per-layer
        lists reproduces the monolithic cutoff exactly. This is the
        inverted-backend retrieval probe of
        :func:`repro.index.engine.retrieve_candidates_batch`.
        """
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        queries = list(queries)
        if excludes is not None and len(excludes) != len(queries):
            raise ValueError(
                f"{len(queries)} queries but {len(excludes)} excludes"
            )
        parts = [
            postings.top_overlap_batch(
                queries,
                depth,
                excludes=excludes,
                min_overlap=min_overlap,
                banned=banned,
            )
            for postings, banned in self.posting_layers()
        ]
        if not parts:
            return [[] for _ in queries]
        if len(parts) == 1:
            return parts[0]
        return [merge_hits(list(layers), depth) for layers in zip(*parts)]

    def lsh_candidate_ids(
        self,
        key_hashes,
        *,
        exclude: str | None = None,
        bands: int | None = None,
        rows: int | None = None,
    ) -> list[str]:
        """Layered LSH probe: frozen-layer ∪ delta collisions − tombstones.

        Identical to :meth:`lsh_index`'s
        :meth:`~repro.index.lsh.LshIndex.candidate_ids` on a monolithic
        rebuild, without folding: band collision is a pairwise predicate
        between the query signature and one sketch signature, so the
        union of per-layer collision sets *is* the monolithic collision
        set, and the sorted-ids output order is recovered by sorting the
        union. Tombstoned ids are filtered from the frozen-layer hits
        only (the frozen signatures may still physically contain them);
        a tombstoned-then-re-added id surfaces from its live delta copy.

        ``bands``/``rows``: same pinning contract as :meth:`lsh_index` —
        ``None`` keeps whichever shape is already built (frozen layer
        first, then delta, then the module defaults); explicit values
        discard mismatching cached layers.
        """
        frozen_params = self.lsh_params
        if frozen_params is not None:
            anchor = frozen_params
        elif self._delta_lsh is not None:
            anchor = (self._delta_lsh.bands, self._delta_lsh.rows)
        else:
            anchor = None
        if anchor is not None:
            want = (
                bands if bands is not None else anchor[0],
                rows if rows is not None else anchor[1],
            )
        else:
            want = (
                DEFAULT_BANDS if bands is None else bands,
                DEFAULT_ROWS if rows is None else rows,
            )
        bands, rows = want
        if frozen_params is not None and frozen_params != want:
            self._lsh_index = None
            self._lsh_pending = None
        delta_lsh = self._delta_lsh
        if delta_lsh is not None and (delta_lsh.bands, delta_lsh.rows) != want:
            self._delta_lsh = None
        hits: set[str] = set()
        frozen = self._frozen_postings
        if frozen is not None and len(frozen):
            if self._lsh_cached() is None:
                # Lazy frozen-layer build covers the frozen survivors
                # only — tombstoned sketches are gone from the catalog,
                # so their signatures cannot be (re)built; later
                # tombstones are handled by the hit filter below.
                self._lsh_index = self._build_lsh(
                    [
                        sid
                        for sid in frozen.docs
                        if sid not in self._tombstones
                    ],
                    bands=bands,
                    rows=rows,
                )
            frozen_hits = self._lsh_index.candidate_ids(
                key_hashes, exclude=exclude
            )
            # Tombstones ban *frozen* hits only: a tombstoned-then-re-added
            # id is live again in the delta, and that copy must surface.
            if self._tombstones:
                frozen_hits = [
                    sid for sid in frozen_hits
                    if sid not in self._tombstones
                ]
            hits.update(frozen_hits)
        if self._delta_ids:
            if self._delta_lsh is None:
                self._delta_lsh = self._build_lsh(
                    list(self._delta_postings().docs), bands=bands, rows=rows
                )
            hits.update(
                self._delta_lsh.candidate_ids(key_hashes, exclude=exclude)
            )
        return sorted(hits)

    def _maybe_autocompact(self) -> None:
        if (
            self.compact_threshold is not None
            and len(self._delta_ids) >= self.compact_threshold
        ):
            self.compact()

    def compact(self) -> int:
        """Fold the delta and tombstones into new frozen structures.

        Three cases:

        * **clean** (warm frozen CSR, empty delta, no tombstones) — a
          no-op; the version does not move;
        * **promotion** (no frozen CSR yet — a fresh or JSON-loaded
          catalog) — the delta freeze *becomes* the frozen layer (this
          is exactly the old lazy full-freeze cost, paid once);
        * **fold** — surviving frozen postings and the delta postings
          are merged array-wise into a fresh canonical CSR (ascending
          vocabulary, ascending doc id per slice — bit-identical to
          freezing a from-scratch rebuild), and the frozen-layer LSH, if
          one is built, absorbs the delta signatures row-wise with the
          tombstoned rows dropped.

        Afterwards the delta and tombstone set are empty and
        :attr:`index_version` has been bumped iff anything was folded.
        Returns the resulting version.
        """
        dirty = bool(self._delta_ids or self._tombstones)
        if self._frozen_postings is None:
            self._frozen_postings = self._delta_postings()
            if self._lsh_index is None:
                self._lsh_index = self._delta_lsh
        elif dirty:
            new_frozen = ColumnarPostings.merged(self.posting_layers())
            if self._lsh_index is not None or self._lsh_pending is not None:
                self._lsh_index = self._fold_lsh()
                self._lsh_pending = None
            self._frozen_postings = new_frozen
        else:
            return self.index_version
        self._delta_ids = {}
        self._delta_frozen = None
        self._delta_lsh = None
        self._tombstones.clear()
        self._banned_cache = None
        if dirty:
            self.index_version += 1
        return self.index_version

    def _fold_lsh(self) -> LshIndex:
        """Merge the frozen-layer LSH with the delta signatures.

        Row surgery on the exported signature matrices: tombstoned rows
        drop, delta rows append (reusing the cached delta ring when its
        shape matches, else re-signing the delta), and
        :meth:`LshIndex.from_arrays` rebuilds the buckets. Collision
        sets are unchanged versus a from-scratch build — bucketing is
        per-row and order-free.
        """
        ids, slots, filled, bands, rows, bits = self._lsh_arrays()
        tombs = self._tombstones
        surviving = [i for i, sid in enumerate(ids) if sid not in tombs]
        new_ids = [ids[i] for i in surviving]
        # Fancy indexing copies — the fold's output is always fresh heap
        # arrays, even when the inputs are read-only arena views (the
        # copy-on-mutation rule for the LSH layer).
        new_slots = slots[surviving]
        new_filled = filled[surviving]
        delta_ids = list(self._delta_postings().docs)
        if delta_ids:
            delta_lsh = self._delta_lsh
            if delta_lsh is None or (delta_lsh.bands, delta_lsh.rows) != (
                bands,
                rows,
            ):
                delta_lsh = self._build_lsh(delta_ids, bands=bands, rows=rows)
            d_slots, d_filled = delta_lsh.export_arrays()
            new_ids = new_ids + list(delta_lsh.ids)
            new_slots = np.concatenate([new_slots, d_slots])
            new_filled = np.concatenate([new_filled, d_filled])
        return LshIndex.from_arrays(
            new_ids,
            new_slots,
            new_filled,
            bands=bands,
            rows=rows,
            bits=bits,
        )

    # -- storage backend (heap vs mmap arena) ---------------------------------

    @property
    def storage(self) -> str:
        """``"mmap"`` while this catalog serves off an arena mapping
        (a snapshot load), ``"heap"`` otherwise.

        A mapped catalog is fully mutable: the copy-on-mutation rules
        mean appends and removals only ever touch heap-native delta and
        tombstone structures, and :meth:`compact` folds into fresh heap
        arrays — nothing ever writes to the mapping. The flag flips to
        ``"heap"`` only via :meth:`detach`.
        """
        return "mmap" if self._arena is not None else "heap"

    def storage_info(self) -> dict:
        """Storage accounting for ``catalog info`` and the benchmarks.

        Returns a dict with the backend name, ``mapped_bytes`` (the
        arena's packed array payload; 0 for heap catalogs),
        ``materialized_bytes`` (heap-resident numeric array bytes across
        the frozen/delta/LSH structures and every entry whose columnar
        views exist — an estimate: buffers shared between views count
        once per view) and, for mapped catalogs, an ``arena`` summary of
        the header (path, array count, header bytes).
        """
        arena = self._arena
        heap_bytes = 0

        def _add(*arrays) -> None:
            nonlocal heap_bytes
            for array in arrays:
                if array is None or (arena is not None and arena.owns(array)):
                    continue
                heap_bytes += array.nbytes

        for postings in (self._frozen_postings, self._delta_frozen):
            if postings is not None:
                _add(
                    postings.vocab,
                    postings.indptr,
                    postings.doc_ids,
                    postings.doc_lengths,
                )
        for lsh in (self._lsh_index, self._delta_lsh):
            if lsh is not None:
                _add(*lsh._slots, *lsh._filled)
        if self._lsh_pending is not None:
            _add(self._lsh_pending[1], self._lsh_pending[2])
        for entry in dict.values(self._sketches):
            if type(entry) is not int:  # not asleep in the snapshot
                columns = entry.columnar()
                _add(columns.key_hashes, columns.values)
        info = {
            "backend": self.storage,
            "mapped_bytes": arena.data_bytes if arena is not None else 0,
            "materialized_bytes": heap_bytes,
            "arena": None,
        }
        if arena is not None:
            info["arena"] = {
                "path": str(arena.path),
                "arrays": len(arena.extents),
                "header_bytes": arena.header_bytes,
            }
        return info

    def detach(self) -> None:
        """Copy every arena-backed array to a private heap copy and
        release the mapping.

        Serving never requires this — queries read the mapping directly
        and mutations are heap-native by construction (appends land in
        the delta, removals in the tombstone set, and :meth:`compact`'s
        folds allocate fresh arrays). Detach exists for processes that
        want to outlive the snapshot file's *contents*: after it, the
        catalog holds no reference into the file and :attr:`storage`
        reports ``"heap"``. Queries are bit-identical before and after.
        """
        arena = self._arena
        if arena is None:
            return
        for entry in self._sketches.values():
            columns = entry.columnar()
            # Values are always a view (32-bit-scheme hashes were widened
            # into a heap copy when the entry woke).
            if arena.owns(columns.values):
                entry._freeze_to(
                    np.array(columns.key_hashes), np.array(columns.values)
                )
        # Every entry is awake now; a plain dict lets go of the source.
        self._sketches = dict(self._sketches)
        frozen = self._frozen_postings
        if frozen is not None and arena.owns(frozen.indptr):
            self._frozen_postings = ColumnarPostings(
                np.array(frozen.vocab),
                np.array(frozen.indptr),
                np.array(frozen.doc_ids),
                frozen.docs,
                np.array(frozen.doc_lengths),
                frozen._doc_index_cache,
            )
            self._banned_cache = None
        if self._lsh_pending is not None:
            ids, slots, filled, bands, rows, bits = self._lsh_pending
            self._lsh_pending = (
                ids, np.array(slots), np.array(filled), bands, rows, bits
            )
        elif self._lsh_index is not None and self._lsh_index.storage == "mmap":
            lsh = self._lsh_index
            slots, filled = lsh.export_arrays()  # np.stack: already a copy
            self._lsh_index = LshIndex.from_arrays(
                list(lsh.ids),
                slots,
                filled,
                bands=lsh.bands,
                rows=lsh.rows,
                bits=lsh.bits,
            )
        self._arena = None

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialize the catalog; format chosen by extension.

        ``.arena`` writes the binary snapshot
        (:func:`repro.index.snapshot.save_snapshot` — sketch arrays plus
        the frozen postings in one contiguous mmap-able arena, loaded
        zero-copy, see :mod:`repro.index.arena`); anything else writes
        the portable JSON interchange format (sketches only; the index
        is rebuilt on load). Both writes are atomic (temp file +
        ``os.replace``).

        Raises:
            ValueError: for a path naming the retired binary format.
        """
        path = Path(path)
        if path.suffix == ".arena":
            from repro.index.snapshot import save_snapshot

            save_snapshot(self, path)
            return
        _refuse_retired_snapshot(path, sniff=False)
        payload = {
            "sketch_size": self.sketch_size,
            "aggregate": self.aggregate,
            "scheme": list(self.hasher.scheme_id),
            # The retired row-at-a-time construction flag: written as a
            # constant so the file's bytes do not move, never read.
            "vectorized": True,
            "sketches": {sid: self.get(sid).to_dict() for sid in self},
        }
        from repro.index.arena import atomic_write_text

        atomic_write_text(path, json.dumps(payload))

    #: Exceptions the quarantine path treats as a corrupt snapshot file
    #: (truncation, mangled headers, checksum-shaped parse errors,
    #: missing members, injected read faults — all surface as one of
    #: these from the loaders).
    _CORRUPTION_ERRORS = (OSError, ValueError, KeyError, EOFError)

    @classmethod
    def load(
        cls, path: str | Path, *, on_corruption: str = "raise"
    ) -> "SketchCatalog":
        """Load a catalog written by :meth:`save`, either format.

        Arena snapshots are detected by the ``.arena`` extension or the
        arena magic bytes; everything else parses as JSON. Arena
        snapshots come back memory-mapped (``storage == "mmap"``) —
        read-only views, no array data copied.

        Args:
            on_corruption: ``"raise"`` (default) propagates load errors
                unchanged. ``"quarantine"`` renames an unreadable file
                to ``*.quarantined`` and walks the fallback chain —
                sibling ``.arena``, then the portable ``.json`` source —
                returning the first that loads, with
                :attr:`load_recovery` on the result describing exactly
                what was skipped. Raises ``ValueError`` only when every
                candidate fails.

        Raises:
            SnapshotRefused: under either policy, for a file in the
                retired binary format or of another arena version — a
                refusal, not corruption: nothing is renamed and no
                fallback is tried.
        """
        path = Path(path)
        if on_corruption not in ("raise", "quarantine"):
            raise ValueError(
                f"on_corruption must be 'raise' or 'quarantine', "
                f"got {on_corruption!r}"
            )
        _refuse_retired_snapshot(path)
        try:
            return cls._load_file(path)
        except SnapshotRefused:
            raise
        except cls._CORRUPTION_ERRORS as exc:
            if on_corruption != "quarantine":
                raise
            from repro.index.snapshot import quarantine_file

            quarantined: list[str] = []
            errors = [f"{path.name}: {exc}"]
            try:
                quarantined.append(str(quarantine_file(path)))
            except OSError:
                pass  # e.g. the path never existed — nothing to move
            for ext in (".arena", ".json"):
                candidate = path.with_suffix(ext)
                if candidate == path or not candidate.exists():
                    continue
                try:
                    catalog = cls._load_file(candidate)
                except cls._CORRUPTION_ERRORS as sibling_exc:
                    errors.append(f"{candidate.name}: {sibling_exc}")
                    try:
                        quarantined.append(str(quarantine_file(candidate)))
                    except OSError:
                        pass
                    continue
                catalog.load_recovery = {
                    "quarantined": quarantined,
                    "errors": errors,
                    "loaded_from": str(candidate),
                }
                return catalog
            raise ValueError(
                f"catalog {path} is corrupt and no fallback candidate "
                f"loaded: " + "; ".join(errors)
            ) from exc

    @classmethod
    def _load_file(cls, path: Path) -> "SketchCatalog":
        """One load attempt against one concrete file (no fallbacks)."""
        from repro.index.arena import has_arena_magic

        if path.suffix == ".arena" or has_arena_magic(path):
            from repro.index.snapshot import load_snapshot

            return load_snapshot(path)
        payload = json.loads(path.read_text())
        bits, seed = payload["scheme"]
        catalog = cls(
            sketch_size=payload["sketch_size"],
            aggregate=payload["aggregate"],
            hasher=KeyHasher(bits=bits, seed=seed),
        )
        catalog.add_sketches(
            (sid, CorrelationSketch.from_dict(sketch_payload))
            for sid, sketch_payload in payload["sketches"].items()
        )
        return catalog


class SnapshotRefused(ValueError):
    """A catalog file of a generation this build does not read (the
    retired ``.npz`` format, another arena version). A refusal, not
    corruption: no ``on_corruption`` policy renames it or walks past it
    to a fallback."""


def _refuse_retired_snapshot(path: Path, *, sniff: bool = True) -> None:
    """Raise for the retired binary snapshot format (a zip of ``.npy``
    members, conventionally ``.npz``), recognised by extension or — with
    ``sniff`` — by the zip magic bytes. ``.arena`` replaced it; nothing
    reads it any more, and it must not be mistaken for a corrupt file of
    a current format."""
    retired = path.suffix == ".npz"
    if not retired and sniff:
        try:
            with open(path, "rb") as handle:
                retired = handle.read(4) == b"PK\x03\x04"
        except OSError:
            pass
    if retired:
        raise SnapshotRefused(
            f"{path}: the retired .npz snapshot format is no longer read "
            "or written by this build; rebuild the catalog from its CSVs "
            "with an .arena output (`index -o catalog.arena`, `shard build`)"
        )
