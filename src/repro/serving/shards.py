"""Horizontally partitioned sketch catalogs.

A :class:`ShardedCatalog` splits one logical catalog across ``n_shards``
independent :class:`~repro.index.catalog.SketchCatalog` partitions, all
sharing one hashing scheme. Shards are a storage layout: each has its
own inverted index, frozen CSR postings, LSH index and LSM delta layer
(maintained and compacted independently — one ingest dirties exactly
one shard's delta and invalidates no frozen structure anywhere) and its
own arena snapshot in the manifest directory, and is the unit the
router checks for availability. Queries run over all of them at once:
one stacked CSR (:meth:`ShardedCatalog.stacked_postings`) and one
candidate page read from each candidate's owner.

Placement is two-tier, trading determinism against locality:

* **hash-by-sketch-id** (``add_sketch`` / ``add_sketches``): the owning
  shard is ``murmur3_32(sketch_id) % n_shards`` — deterministic across
  processes and runs, so independently built catalogs agree on layout;
* **least-loaded routing** (``add_table`` / ``add_tables`` /
  ``add_csv_streaming``): a whole table's sketches land together on the
  currently smallest shard (ties to the lowest index), so incremental
  ingest touches exactly one shard's delta per table while keeping
  shards balanced.

Either way the catalog tracks ``sketch_id → shard`` in an in-memory
placement map (persisted in the manifest), so lookups, removals and the
router's page assembly never scan shards.

Shards rehydrate lazily after :meth:`ShardedCatalog.load`: the manifest
carries enough metadata (ids, counts, config) that only the shards an
operation actually touches are materialized from their snapshots — a
targeted ``get`` loads one shard; per-shard stats (``catalog info``) load
none.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from repro.core.sketch import CorrelationSketch, SketchColumns
from repro.hashing import KeyHasher
from repro.hashing.murmur3 import murmur3_32
from repro.index.catalog import SketchCatalog, SnapshotRefused
from repro.index.inverted import ColumnarPostings
from repro.table.table import Table


class ShardUnavailable(RuntimeError):
    """A shard's snapshot is quarantined with no loadable fallback.

    Raised by :meth:`ShardedCatalog.shard` under
    ``on_corruption="quarantine"`` once a shard's whole fallback chain
    failed. Sticky: every later touch of the shard re-raises without
    re-attempting the load, so the router's ``on_shard_error="partial"``
    policy can keep dropping the shard at probe cost, not load cost.
    """


class ShardedCatalog:
    """``n_shards`` independent :class:`SketchCatalog` partitions behind
    one catalog-shaped interface.

    Args:
        n_shards: number of partitions (fixed for the catalog's life —
            resharding is a rebuild, as for any hash-partitioned store).
        sketch_size / aggregate / hasher: shared
            :class:`SketchCatalog` configuration, applied to every shard.
        compact_threshold: per-shard delta-size compaction trigger,
            passed through to every :class:`SketchCatalog` partition
            (``None`` compacts only on demand).

    Raises:
        ValueError: if ``n_shards`` is not positive.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        sketch_size: int = 256,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        compact_threshold: int | None = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        self.n_shards = n_shards
        self.sketch_size = sketch_size
        self.aggregate = aggregate
        self.hasher = hasher if hasher is not None else KeyHasher()
        self.compact_threshold = compact_threshold
        self._shards: list[SketchCatalog | None] = [
            self._new_shard() for _ in range(n_shards)
        ]
        #: Snapshot path per shard; set by the manifest loader, consumed
        #: by lazy materialization.
        self._shard_paths: list[Path | None] = [None] * n_shards
        #: sketch_id -> shard index, for every sketch in the catalog.
        self._placement: dict[str, int] = {}
        self._counts: list[int] = [0] * n_shards
        #: Manifest-recorded compaction version per shard (None when the
        #: catalog was built in memory); checked against each
        #: materialized snapshot.
        self._shard_versions: list[int | None] = [None] * n_shards
        #: Corruption policy for lazy shard materialization: ``"raise"``
        #: (default) or ``"quarantine"`` (see :meth:`shard`); set by the
        #: manifest loader.
        self.on_corruption = "raise"
        #: shard index -> failure message, for shards whose snapshot
        #: was quarantined with no loadable fallback (sticky).
        self._unavailable: dict[int, str] = {}
        #: Audit log of quarantine/fallback events, in occurrence order:
        #: dicts with ``shard``, ``path`` and either ``error`` (shard
        #: unavailable) or ``recovery`` (loaded through a fallback).
        self.quarantine_events: list[dict] = []
        #: :meth:`stacked_postings` per shard set, while no write has
        #: cleared it.
        self._stacks: dict[tuple[int, ...], ColumnarPostings] = {}

    def _new_shard(self) -> SketchCatalog:
        return SketchCatalog(
            sketch_size=self.sketch_size,
            aggregate=self.aggregate,
            hasher=self.hasher,
            compact_threshold=self.compact_threshold,
        )

    # -- shard access --------------------------------------------------------

    def shard(self, index: int) -> SketchCatalog:
        """The shard at ``index``, materializing it from its snapshot if
        the catalog was manifest-loaded and this shard is still cold.

        Under ``on_corruption="quarantine"`` an unreadable snapshot is
        renamed to ``*.quarantined`` and the fallback chain is walked
        (:meth:`SketchCatalog.load`); if nothing loads, the shard is
        marked unavailable (sticky — recorded in
        :attr:`quarantine_events`) and :class:`ShardUnavailable` is
        raised here and on every later touch.

        Raises:
            ValueError: when a lazily loaded shard's snapshot disagrees
                with the manifest (stale or swapped file), under the
                default ``on_corruption="raise"`` policy.
            ShardUnavailable: under ``"quarantine"``, when the shard's
                whole fallback chain failed.
        """
        shard = self._shards[index]
        if shard is None:
            if index in self._unavailable:
                raise ShardUnavailable(
                    f"shard {index} is quarantined: "
                    f"{self._unavailable[index]}"
                )
            path = self._shard_paths[index]
            try:
                shard = self._materialize(index, path)
            except SnapshotRefused:
                raise
            except (OSError, ValueError, KeyError, EOFError) as exc:
                if self.on_corruption != "quarantine":
                    raise
                self._unavailable[index] = str(exc)
                self.quarantine_events.append(
                    {"shard": index, "path": str(path), "error": str(exc)}
                )
                raise ShardUnavailable(
                    f"shard {index} is quarantined: {exc}"
                ) from exc
            if shard.load_recovery is not None:
                self.quarantine_events.append(
                    {
                        "shard": index,
                        "path": str(path),
                        "recovery": shard.load_recovery,
                    }
                )
            self._shards[index] = shard
        return shard

    def _materialize(self, index: int, path: Path | None) -> SketchCatalog:
        """One manifest-checked load of a cold shard's snapshot."""
        shard = SketchCatalog.load(path, on_corruption=self.on_corruption)
        if shard.hasher.scheme_id != self.hasher.scheme_id:
            raise ValueError(
                f"shard snapshot {path} hashing scheme {shard.hasher!r} "
                f"differs from manifest scheme {self.hasher!r}"
            )
        if len(shard) != self._counts[index]:
            raise ValueError(
                f"shard snapshot {path} holds {len(shard)} sketches but "
                f"the manifest records {self._counts[index]} — stale "
                "shard file; rebuild the manifest directory"
            )
        recorded = self._shard_versions[index]
        if shard.index_version != recorded:
            raise ValueError(
                f"shard snapshot {path} is at compaction version "
                f"{shard.index_version} but the manifest records "
                f"{recorded} — stale shard file; rebuild the manifest "
                "directory"
            )
        return shard

    @property
    def loaded_shards(self) -> list[bool]:
        """Which shards are materialized (cold shards cost no memory)."""
        return [shard is not None for shard in self._shards]

    def warm(self) -> dict[int, Exception]:
        """Materialize every shard now (cold shards load their snapshots).

        This maps every cold shard's arena — cheap (O(metadata) per
        shard), so a service pays it at start-up rather than on its
        first queries.

        A shard that fails to load — quarantined
        (:class:`ShardUnavailable`), truncated, stale or refused — is
        skipped: warming is best-effort over whatever the catalog can
        still serve. The failures come back as shard index → error, for
        the caller's policy to judge as a query's shard check would.
        """
        failures = {}
        for index in range(self.n_shards):
            try:
                self.shard(index)
            except Exception as exc:  # noqa: BLE001 — the caller's policy decides
                failures[index] = exc
        self.stacked_postings(
            index for index in range(self.n_shards) if index not in failures
        )
        return failures

    def stacked_postings(self, shards: Iterable[int]) -> ColumnarPostings:
        """One CSR over the live postings of ``shards`` — the retrieval
        index of :class:`~repro.serving.router.ShardRouter`.

        Documents are in global id order, so a top-``depth`` probe of
        the stack *is* the monolithic probe over those shards' union,
        ``(−overlap, id)`` tie-break included. Built from the shards'
        frozen − tombstones + delta CSR arrays
        (:meth:`ColumnarPostings.merged`; no sketch is read, so no arena
        entry wakes) and kept until the next write: the catalog owns
        placement and every write path, so every ``add_*`` / ``remove_*``
        here drops it. Compaction moves postings between a shard's
        layers, never in or out of the live set, and leaves it valid.
        A degraded catalog's survivor set is stable (a quarantined shard
        is sticky), so beside the full stack one degraded stack is kept.

        Raises what :meth:`shard` raises for a shard that cannot load.
        """
        key = tuple(shards)
        stack = self._stacks.get(key)
        if stack is None:
            if len(key) < self.n_shards:
                self._stacks = {
                    held: built
                    for held, built in self._stacks.items()
                    if len(held) == self.n_shards
                }
            stack = self._stacks[key] = ColumnarPostings.merged(
                [
                    layer
                    for index in key
                    for layer in self.shard(index).posting_layers()
                ]
            )
        return stack

    def storage_backends(self) -> list[str | None]:
        """Per-shard storage backend (``"heap"`` / ``"mmap"``; None for
        shards not yet materialized)."""
        return [
            None if shard is None else shard.storage
            for shard in self._shards
        ]

    def shard_sizes(self) -> list[int]:
        """Sketch count per shard, without materializing any shard."""
        return list(self._counts)

    def shard_of(self, sketch_id: str) -> int:
        """Deterministic hash placement for ``sketch_id`` (murmur3)."""
        return murmur3_32(sketch_id) % self.n_shards

    def least_loaded(self) -> int:
        """Smallest shard (ties to the lowest index) — the ingest target."""
        return min(range(self.n_shards), key=lambda i: (self._counts[i], i))

    def owner_of(self, sketch_id: str) -> int:
        """The shard index holding ``sketch_id``.

        Raises:
            KeyError: if the id is not in the catalog.
        """
        try:
            return self._placement[sketch_id]
        except KeyError:
            raise KeyError(
                f"no sketch {sketch_id!r} in catalog ({len(self)} sketches)"
            ) from None

    # -- population ----------------------------------------------------------

    def _check_new_ids(self, sketch_ids: Iterable[str]) -> list[str]:
        ids = list(sketch_ids)
        seen: set[str] = set()
        for sid in ids:
            if sid in self._placement:
                raise ValueError(f"sketch id {sid!r} already in catalog")
            if sid in seen:
                raise ValueError(f"duplicate sketch id {sid!r} in batch")
            seen.add(sid)
        return ids

    def _record(self, shard_index: int, sketch_ids: Iterable[str]) -> list[str]:
        ids = list(sketch_ids)
        for sid in ids:
            self._placement[sid] = shard_index
        self._counts[shard_index] += len(ids)
        self._stacks.clear()
        return ids

    def _forget(self, shard_index: int, sketch_ids: list[str]) -> None:
        for sid in sketch_ids:
            del self._placement[sid]
        self._counts[shard_index] -= len(sketch_ids)
        self._stacks.clear()

    def add_sketch(self, sketch_id: str, sketch: CorrelationSketch) -> int:
        """Register one sketch on its hash-placed shard; returns the
        shard index (only that shard's delta layer is touched)."""
        self._check_new_ids([sketch_id])
        index = self.shard_of(sketch_id)
        self.shard(index).add_sketch(sketch_id, sketch)
        self._record(index, [sketch_id])
        return index

    def add_sketches(
        self, sketches: Iterable[tuple[str, CorrelationSketch]]
    ) -> list[str]:
        """Bulk hash-placed registration: validate across every shard,
        then one bulk add per touched shard."""
        batch = list(sketches)
        self._check_new_ids(sid for sid, _ in batch)
        by_shard: dict[int, list[tuple[str, CorrelationSketch]]] = {}
        for sid, sketch in batch:
            by_shard.setdefault(self.shard_of(sid), []).append((sid, sketch))
        for index, group in sorted(by_shard.items()):
            self.shard(index).add_sketches(group)
            self._record(index, (sid for sid, _ in group))
        return [sid for sid, _ in batch]

    def add_table(self, table: Table) -> list[str]:
        """Sketch every column pair of ``table`` onto the least-loaded
        shard (one shard's delta touched, sketches kept together)."""
        self._check_new_ids(pair.pair_id for pair in table.column_pairs())
        index = self.least_loaded()
        return self._record(index, self.shard(index).add_table(table))

    def add_tables(self, tables: Iterable[Table]) -> list[str]:
        """Route each table, in order, to the then-least-loaded shard."""
        out: list[str] = []
        for table in tables:
            out.extend(self.add_table(table))
        return out

    def add_csv_streaming(self, path: str | Path, **kwargs) -> list[str]:
        """Stream-sketch a CSV and register it on the least-loaded shard.

        The streaming pass runs before any placement decision so the
        resulting ids can be validated against the whole catalog (not
        just one shard) without partial mutation on failure.
        """
        from repro.table.streaming import stream_sketch_csv

        sketches = stream_sketch_csv(
            path,
            self.sketch_size,
            aggregate=self.aggregate,
            hasher=self.hasher,
            **kwargs,
        )
        self._check_new_ids(sketches.keys())
        index = self.least_loaded()
        return self._record(index, self.shard(index).add_sketches(sketches.items()))

    # -- removal -------------------------------------------------------------

    def remove_sketch(self, sketch_id: str) -> int:
        """Delete one sketch from its owning shard; returns the shard
        index. Only that shard's delta/tombstone state is touched.

        Raises:
            KeyError: if the id is not in the catalog.
        """
        index = self.owner_of(sketch_id)
        self.shard(index).remove_sketch(sketch_id)
        self._forget(index, [sketch_id])
        return index

    def remove_sketches(self, sketch_ids: Iterable[str]) -> list[str]:
        """Bulk removal: validate every id first, then remove per shard."""
        ids = list(sketch_ids)
        seen: set[str] = set()
        for sid in ids:
            self.owner_of(sid)  # raises KeyError with context if absent
            if sid in seen:
                raise ValueError(f"duplicate sketch id {sid!r} in batch")
            seen.add(sid)
        by_shard: dict[int, list[str]] = {}
        for sid in ids:
            by_shard.setdefault(self.owner_of(sid), []).append(sid)
        for index, group in sorted(by_shard.items()):
            self.shard(index).remove_sketches(group)
            self._forget(index, group)
        return ids

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return sum(self._counts)

    def __contains__(self, sketch_id: str) -> bool:
        return sketch_id in self._placement

    def __iter__(self) -> Iterator[str]:
        return iter(self._placement)

    def get(self, sketch_id: str) -> CorrelationSketch:
        """Fetch a sketch, materializing only its owning shard."""
        return self.shard(self.owner_of(sketch_id)).get(sketch_id)

    def sketch_columns(self, sketch_id: str) -> SketchColumns:
        """Columnar view of a sketch, from its owning shard."""
        return self.shard(self.owner_of(sketch_id)).sketch_columns(sketch_id)

    # -- incremental maintenance ---------------------------------------------

    def compact(self) -> list[int]:
        """Fold every shard's delta layer
        (:meth:`SketchCatalog.compact`); returns the per-shard
        compaction versions. Materializes every shard — compaction is a
        maintenance operation, not a serving-path one."""
        return [self.shard(i).compact() for i in range(self.n_shards)]

    def delta_sizes(self) -> list[int]:
        """Per-shard delta-layer sketch counts (materialized shards
        only answer live; cold shards answer 0 — a cold shard's pending
        delta, if any, is whatever its snapshot persisted)."""
        return [
            0 if shard is None else shard.delta_size
            for shard in self._shards
        ]

    def tombstone_counts(self) -> list[int]:
        """Per-shard tombstone counts (cold shards report 0, as for
        :meth:`delta_sizes`)."""
        return [
            0 if shard is None else shard.tombstone_count
            for shard in self._shards
        ]

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path, *, layout: str = "arena") -> Path:
        """Write the manifest directory: one arena snapshot per shard
        plus a versioned ``manifest.json``
        (:func:`repro.serving.manifest.save_sharded`).

        ``layout`` selects nothing: arena is the only shard layout. The
        keyword survives because ``benchmarks/record/fixtures.py`` —
        frozen outside ``[benchmark]`` PRs — passes ``layout="arena"``;
        it goes when that call drops the argument.
        """
        from repro.serving.manifest import save_sharded

        if layout != "arena":
            raise ValueError(
                f"unknown shard layout {layout!r}: 'arena' is the only one"
            )
        return save_sharded(self, directory)

    @classmethod
    def load(
        cls,
        directory: str | Path,
        *,
        lazy: bool = True,
        on_corruption: str = "raise",
    ) -> "ShardedCatalog":
        """Load a manifest directory written by :meth:`save`.

        With ``lazy`` (default) shards stay cold until first touched —
        see :func:`repro.serving.manifest.load_sharded`.
        ``on_corruption="quarantine"`` makes shard materialization move
        unreadable snapshots aside and serve degraded (see
        :meth:`shard`).
        """
        from repro.serving.manifest import load_sharded

        return load_sharded(directory, lazy=lazy, on_corruption=on_corruption)
