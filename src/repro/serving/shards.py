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

:meth:`ShardedCatalog.load` opens every shard snapshot a manifest
directory names, once, when it opens the catalog; a shard that fails to
open is recorded then and stays down for the catalog's life
(:meth:`ShardedCatalog.shard` raises its recorded error).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from repro.core.sketch import CorrelationSketch, SketchColumns
from repro.hashing import KeyHasher
from repro.hashing.murmur3 import murmur3_32
from repro.index.catalog import SketchCatalog, SnapshotRefused
from repro.index.inverted import ColumnarPostings
from repro.serving.manifest import MANIFEST_NAME, read_manifest, save_sharded
from repro.table.table import Table


class ShardUnavailable(RuntimeError):
    """A shard's snapshot is quarantined with no loadable fallback.

    Recorded by :meth:`ShardedCatalog.load` under
    ``on_corruption="quarantine"`` once a shard's whole fallback chain
    failed, and raised by :meth:`ShardedCatalog.shard` on every touch of
    that shard — like any shard that failed to open, it is never
    re-read, so the router's ``on_shard_error="partial"`` policy keeps
    dropping it at probe cost, not load cost.
    """


class ShardedCatalog:
    """``n_shards`` independent :class:`SketchCatalog` partitions behind
    one catalog-shaped interface.

    Args:
        n_shards: number of partitions (fixed for the catalog's life —
            resharding is a rebuild, as for any hash-partitioned store).
        sketch_size / aggregate / hasher: shared
            :class:`SketchCatalog` configuration, applied to every shard.

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
    ) -> None:
        if n_shards <= 0:
            raise ValueError(f"n_shards must be positive, got {n_shards}")
        hasher = hasher if hasher is not None else KeyHasher()
        self._setup(
            sketch_size,
            aggregate,
            hasher,
            [
                SketchCatalog(
                    sketch_size=sketch_size, aggregate=aggregate, hasher=hasher
                )
                for _ in range(n_shards)
            ],
            {},
            {},
            [],
        )

    def _setup(
        self,
        sketch_size: int,
        aggregate: str,
        hasher: KeyHasher,
        shards: list[SketchCatalog | None],
        placement: dict[str, int],
        failures: dict[int, Exception],
        quarantine_events: list[dict],
    ) -> None:
        """Every field, set once: by :meth:`__init__` for an empty
        catalog, by :meth:`load` for one opened from disk."""
        self.n_shards = len(shards)
        self.sketch_size = sketch_size
        self.aggregate = aggregate
        self.hasher = hasher
        #: One catalog per shard; None only where :attr:`_failures` holds
        #: the shard's error.
        self._shards = shards
        #: sketch_id -> shard index, for every sketch in the catalog.
        self._placement = placement
        self._counts = [0] * self.n_shards
        for index in placement.values():
            self._counts[index] += 1
        #: shard index -> the error that shard failed to open with, once,
        #: at :meth:`load`; :meth:`shard` raises it on every touch.
        self._failures = failures
        #: Audit log of quarantine/fallback events, in occurrence order:
        #: dicts with ``shard``, ``path`` and either ``error`` (shard
        #: unavailable) or ``recovery`` (loaded through a fallback).
        self.quarantine_events = quarantine_events
        #: :meth:`stacked_postings` per shard set, while no write has
        #: cleared it.
        self._stacks: dict[tuple[int, ...], ColumnarPostings] = {}

    # -- shard access --------------------------------------------------------

    def shard(self, index: int) -> SketchCatalog:
        """The shard at ``index``.

        Raises:
            Exception: the error the shard failed to open with at
                :meth:`load` — a stale or truncated snapshot under
                ``on_corruption="raise"``, :class:`ShardUnavailable`
                under ``"quarantine"`` — on every touch, the same object
                each time (its traceback starts afresh at each raise).
        """
        error = self._failures.get(index)
        if error is not None:
            raise error.with_traceback(None)
        return self._shards[index]

    def warm(self) -> dict[int, Exception]:
        """Build the surviving shards' stacked CSR now, so a service's
        first query does not pay for it; returns the shards that failed
        to open (index → error), for the caller's policy to judge as a
        query's shard check would."""
        self.stacked_postings(
            index for index in range(self.n_shards) if index not in self._failures
        )
        return dict(self._failures)

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
        A degraded catalog's survivor set is stable (a shard that failed
        to open stays down), so beside the full stack one degraded stack
        is kept.

        Raises what :meth:`shard` raises for a shard that failed to open.
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

    def storage_backends(self) -> list[str]:
        """Per-shard storage backend (``"heap"`` / ``"mmap"``)."""
        return [self.shard(i).storage for i in range(self.n_shards)]

    def shard_sizes(self) -> list[int]:
        """Sketch count per shard, from the placement map."""
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
        """Fetch a sketch from its owning shard."""
        return self.shard(self.owner_of(sketch_id)).get(sketch_id)

    def sketch_columns(self, sketch_id: str) -> SketchColumns:
        """Columnar view of a sketch, from its owning shard."""
        return self.shard(self.owner_of(sketch_id)).sketch_columns(sketch_id)

    # -- incremental maintenance ---------------------------------------------

    def compact(self) -> list[int]:
        """Fold every shard's delta layer
        (:meth:`SketchCatalog.compact`); returns the per-shard
        compaction versions."""
        return [self.shard(i).compact() for i in range(self.n_shards)]

    def delta_sizes(self) -> list[int]:
        """Per-shard delta-layer sketch counts."""
        return [self.shard(i).delta_size for i in range(self.n_shards)]

    def tombstone_counts(self) -> list[int]:
        """Per-shard tombstone counts."""
        return [self.shard(i).tombstone_count for i in range(self.n_shards)]

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
        if layout != "arena":
            raise ValueError(
                f"unknown shard layout {layout!r}: 'arena' is the only one"
            )
        return save_sharded(self, directory)

    @classmethod
    def load(
        cls, directory: str | Path, *, on_corruption: str = "raise"
    ) -> "ShardedCatalog":
        """Open a manifest directory written by :meth:`save`, and every
        shard snapshot it names, once.

        Each shard is loaded (:meth:`SketchCatalog.load` under
        ``on_corruption``) and checked against its manifest entry —
        hashing scheme, sketch count and compaction version — so a stale
        or swapped shard file is caught here. A shard that fails is
        recorded (:meth:`shard` raises its error, :meth:`warm` returns
        it) and stays down for the catalog's life; the others serve.
        Under ``"quarantine"`` an unreadable snapshot is renamed to
        ``*.quarantined`` and its fallback chain walked first; a shard
        with nothing loadable is recorded as :class:`ShardUnavailable`,
        and every quarantine or fallback lands in
        :attr:`quarantine_events`.

        Raises:
            FileNotFoundError / ValueError: for a missing or bad manifest
                (:func:`repro.serving.manifest.read_manifest`, ids that
                disagree with the counts or repeat across shards) or an
                unknown ``on_corruption``; never for a shard.
        """
        if on_corruption not in ("raise", "quarantine"):
            raise ValueError(
                f"on_corruption must be 'raise' or 'quarantine', "
                f"got {on_corruption!r}"
            )
        directory = Path(directory)
        manifest = read_manifest(directory)
        placement: dict[str, int] = {}
        recorded: list[tuple[Path, int, int]] = []
        for index, entry in enumerate(manifest["shards"]):
            count, version = int(entry["sketches"]), int(entry["index_version"])
            recorded.append((directory / entry["file"], count, version))
            if len(entry["ids"]) != count:
                raise ValueError(
                    f"corrupt manifest {directory / MANIFEST_NAME}: shard "
                    f"{index} lists {len(entry['ids'])} ids but records "
                    f"{entry['sketches']} sketches"
                )
            for sid in entry["ids"]:
                if sid in placement:
                    raise ValueError(
                        f"corrupt manifest {directory / MANIFEST_NAME}: "
                        f"sketch id {sid!r} appears in more than one shard"
                    )
                placement[sid] = index
        bits, seed = manifest["scheme"]
        hasher = KeyHasher(bits=bits, seed=seed)
        shards: list[SketchCatalog | None] = []
        failures: dict[int, Exception] = {}
        events: list[dict] = []
        for index, (path, count, version) in enumerate(recorded):
            try:
                shard = _open_shard(
                    index, path, count, version, hasher, on_corruption, events
                )
            except Exception as exc:  # noqa: BLE001 — recorded; the policy decides
                shard, failures[index] = None, exc
            shards.append(shard)
        catalog = cls.__new__(cls)
        catalog._setup(
            manifest["sketch_size"],
            manifest["aggregate"],
            hasher,
            shards,
            placement,
            failures,
            events,
        )
        return catalog


def _open_shard(
    index: int,
    path: Path,
    count: int,
    version: int,
    hasher: KeyHasher,
    on_corruption: str,
    events: list[dict],
) -> SketchCatalog:
    """One load of shard ``index``'s snapshot, checked against the
    manifest's scheme, sketch ``count`` and compaction ``version``;
    logs any quarantine or fallback to ``events``."""
    try:
        shard = SketchCatalog.load(path, on_corruption=on_corruption)
        if shard.hasher.scheme_id != hasher.scheme_id:
            raise ValueError(
                f"shard snapshot {path} hashing scheme {shard.hasher!r} "
                f"differs from manifest scheme {hasher!r}"
            )
        if len(shard) != count:
            raise ValueError(
                f"shard snapshot {path} holds {len(shard)} sketches but "
                f"the manifest records {count} — stale shard file; rebuild "
                "the manifest directory"
            )
        if shard.index_version != version:
            raise ValueError(
                f"shard snapshot {path} is at compaction version "
                f"{shard.index_version} but the manifest records {version} "
                "— stale shard file; rebuild the manifest directory"
            )
    except SnapshotRefused:
        raise
    except (OSError, ValueError, KeyError, EOFError) as exc:
        if on_corruption != "quarantine":
            raise
        events.append({"shard": index, "path": str(path), "error": str(exc)})
        raise ShardUnavailable(f"shard {index} is quarantined: {exc}") from exc
    if shard.load_recovery is not None:
        events.append(
            {"shard": index, "path": str(path), "recovery": shard.load_recovery}
        )
    return shard
