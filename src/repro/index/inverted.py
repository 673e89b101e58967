"""Inverted index over sketch key hashes (the Lucene stand-in).

Section 4 notes that because a sketch stores discrete key hashes ``h(k)``,
off-the-shelf inverted indexes support the candidate-retrieval step of
query evaluation: find the corpus sketches sharing the most key hashes
with the query sketch. This module implements exactly that primitive:

* posting lists: ``key_hash → [sketch ids containing it]``;
* :meth:`InvertedIndex.top_overlap` — scan the query's posting lists,
  accumulate per-candidate overlap counts, return the top-``k`` by count
  (a textbook ScanCount set-overlap search; JOSIE/ppjoin+ are optimized
  variants of the same computation).

Two physical layouts implement the same logical index:

* :class:`InvertedIndex` — the mutable dict-of-lists build used while a
  catalog is being populated, probed one posting list at a time (the
  scalar reference);
* :class:`ColumnarPostings` — a frozen CSR-style snapshot
  (:meth:`InvertedIndex.freeze`): the sorted key-hash vocabulary plus one
  contiguous ``int32`` doc-id array, probed with ``np.searchsorted`` +
  ``np.bincount`` and top-``k``-selected with ``np.argpartition``. Its
  :meth:`~ColumnarPostings.top_overlap` returns exactly the scalar
  result, including the ``(−overlap, sketch_id)`` tie-break; the
  multi-query :meth:`~ColumnarPostings.top_overlap_batch` answers a
  whole query batch from one stacked probe over the concatenated query
  hashes (the retrieval phase of ``JoinCorrelationEngine.query_batch``).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import islice
from typing import Iterable

import numpy as np

#: Posting entries gathered per chunk of the stacked batch probe — keeps
#: the per-entry int64 temporaries around 1 MB (L2-resident) however
#: large the query batch grows.
_PROBE_CHUNK_ENTRIES = 131_072

#: Cells of the dense (queries x docs) ScanCount matrix a single
#: top_overlap_batch selection round is allowed to hold (~32 MB of
#: int64) — query batches are processed in row chunks under this bound,
#: so batch memory never scales with batch_size x corpus_size.
_PROBE_MATRIX_CELLS = 4_194_304


class InvertedIndex:
    """Posting-list index from key hashes to sketch identifiers."""

    def __init__(self) -> None:
        self._postings: dict[int, list[str]] = defaultdict(list)
        self._doc_keys: dict[str, int] = {}

    def __len__(self) -> int:
        """Number of indexed sketches."""
        return len(self._doc_keys)

    def __contains__(self, sketch_id: str) -> bool:
        return sketch_id in self._doc_keys

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct key hashes with postings."""
        return len(self._postings)

    def add(self, sketch_id: str, key_hashes: Iterable[int]) -> None:
        """Index a sketch's key hashes under ``sketch_id``.

        Raises:
            ValueError: if ``sketch_id`` is already indexed (re-indexing
                would duplicate postings; :meth:`remove` first for
                catalog churn).
        """
        if sketch_id in self._doc_keys:
            raise ValueError(f"sketch id {sketch_id!r} is already indexed")
        count = 0
        for kh in key_hashes:
            self._postings[kh].append(sketch_id)
            count += 1
        self._doc_keys[sketch_id] = count

    def remove(self, sketch_id: str, key_hashes: Iterable[int]) -> None:
        """Drop a sketch's postings (the catalog deletion path).

        Args:
            sketch_id: the indexed sketch to remove.
            key_hashes: exactly the key hashes the sketch was added
                under — the catalog owns the sketch, so it always has
                them; passing them in keeps the index from storing a
                per-document hash copy.

        Posting lists that become empty are deleted so
        :attr:`vocabulary_size` reflects live postings only; after
        removal the same id can be re-indexed with :meth:`add`.

        Raises:
            KeyError: if ``sketch_id`` is not indexed.
        """
        if sketch_id not in self._doc_keys:
            raise KeyError(f"sketch id {sketch_id!r} is not indexed")
        for kh in key_hashes:
            postings = self._postings.get(kh)
            if postings is None:
                continue
            try:
                postings.remove(sketch_id)
            except ValueError:
                continue
            if not postings:
                del self._postings[kh]
        del self._doc_keys[sketch_id]

    def overlap_counts(
        self, key_hashes: Iterable[int], *, exclude: str | None = None
    ) -> dict[str, int]:
        """Count shared key hashes per indexed sketch (ScanCount)."""
        counts: dict[str, int] = defaultdict(int)
        for kh in key_hashes:
            postings = self._postings.get(kh)
            if not postings:
                continue
            for sid in postings:
                counts[sid] += 1
        if exclude is not None:
            counts.pop(exclude, None)
        return dict(counts)

    def top_overlap(
        self,
        key_hashes: Iterable[int],
        k: int,
        *,
        exclude: str | None = None,
        min_overlap: int = 1,
    ) -> list[tuple[str, int]]:
        """Top-``k`` indexed sketches by key-hash overlap with the query.

        Args:
            key_hashes: the query sketch's key hashes.
            k: number of candidates to return.
            exclude: optional sketch id to omit (typically the query
                itself when it is part of the corpus).
            min_overlap: drop candidates sharing fewer hashes than this.

        Returns:
            ``(sketch_id, overlap)`` pairs, descending by overlap with id
            as the deterministic tie-break.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        counts = self.overlap_counts(key_hashes, exclude=exclude)
        candidates = [
            (sid, c) for sid, c in counts.items() if c >= min_overlap
        ]
        candidates.sort(key=lambda t: (-t[1], t[0]))
        return candidates[:k]

    def freeze(self) -> "ColumnarPostings":
        """Snapshot the current postings into a :class:`ColumnarPostings`.

        The snapshot does not track later :meth:`add` calls — callers that
        mutate the index must re-freeze (the catalog does this
        automatically; see :meth:`repro.index.catalog.SketchCatalog.frozen_postings`).
        """
        return ColumnarPostings._from_index(self)


class ColumnarPostings:
    """Frozen CSR layout of an :class:`InvertedIndex`.

    Three parallel arrays hold the whole index:

    * ``vocab`` — the distinct key hashes, sorted ascending (``uint64``);
    * ``indptr`` — ``indptr[i]:indptr[i+1]`` delimits the postings of
      ``vocab[i]`` (``int64``, length ``len(vocab) + 1``);
    * ``doc_ids`` — the concatenated posting lists as integer document
      ids (``int32``).

    Document ids are positions into ``docs``, which is sorted
    lexicographically so the integer order *is* the sketch-id order —
    the scalar path's ``(−overlap, sketch_id)`` tie-break becomes a
    plain integer comparison.

    Build once with :meth:`InvertedIndex.freeze`; instances are
    immutable.
    """

    __slots__ = (
        "vocab",
        "indptr",
        "doc_ids",
        "docs",
        "_doc_index_cache",
        "_doc_lengths",
    )

    def __init__(
        self,
        vocab: np.ndarray,
        indptr: np.ndarray,
        doc_ids: np.ndarray,
        docs: list[str],
        doc_lengths: np.ndarray,
        doc_index: dict[str, int] | None = None,
    ) -> None:
        self.vocab = vocab
        self.indptr = indptr
        self.doc_ids = doc_ids
        self.docs = docs
        self._doc_index_cache = doc_index
        self._doc_lengths = doc_lengths

    @property
    def _doc_index(self) -> dict[str, int]:
        """sketch id -> document position, built on first use.

        Only the reverse lookups need it (exclude-id probes, tombstone
        bans); plain top-k probes never do, so snapshot loads stay
        O(metadata) instead of paying an O(docs) dict build up front.
        """
        if self._doc_index_cache is None:
            self._doc_index_cache = {
                sid: i for i, sid in enumerate(self.docs)
            }
        return self._doc_index_cache

    @classmethod
    def _from_index(cls, index: InvertedIndex) -> "ColumnarPostings":
        docs = sorted(index._doc_keys)
        doc_index = {sid: i for i, sid in enumerate(docs)}
        doc_lengths = np.asarray(
            [index._doc_keys[sid] for sid in docs], dtype=np.int64
        )
        items = sorted(index._postings.items())
        vocab = np.asarray([kh for kh, _ in items], dtype=np.uint64)
        lengths = np.asarray([len(p) for _, p in items], dtype=np.int64)
        indptr = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        doc_ids = np.empty(int(indptr[-1]), dtype=np.int32)
        pos = 0
        # Postings are stored in canonical order: ascending doc id within
        # each vocabulary slice. Probes are order-insensitive (bincount),
        # but the canonical layout makes a freeze reproducible from *any*
        # insertion history — a compaction fold of frozen + delta layers
        # (repro.index.catalog.SketchCatalog.compact) is bit-identical to
        # freezing a from-scratch rebuild.
        for _, postings in items:
            for did in sorted(doc_index[sid] for sid in postings):
                doc_ids[pos] = did
                pos += 1
        return cls(vocab, indptr, doc_ids, docs, doc_lengths, doc_index)

    @classmethod
    def merged(
        cls, layers: list[tuple["ColumnarPostings", np.ndarray | None]]
    ) -> "ColumnarPostings":
        """One canonical CSR over the live documents of several layers.

        ``layers`` are ``(postings, banned)`` pairs — ``banned`` the doc
        indices of that layer to leave out (None: none) — whose live
        documents are disjoint. Pure array surgery: every layer expands
        to ``(hash, doc)`` pairs, banned pairs drop, and one sort on
        ``(hash, doc)`` rebuilds the canonical layout (ascending
        vocabulary, ascending doc id per slice, docs sorted by id) —
        what :meth:`InvertedIndex.freeze` produces from a from-scratch
        rebuild over the same documents, so the merge is bit-identical
        to one. No sketch is read: the layers' arrays are the input.
        """
        kept = []  # per layer: live doc indices and their ids
        for postings, banned in layers:
            live = np.ones(len(postings.docs), dtype=bool)
            if banned is not None:
                live[banned] = False
            alive = np.flatnonzero(live)
            kept.append((alive, [postings.docs[i] for i in alive.tolist()]))
        docs = sorted(sid for _, ids in kept for sid in ids)
        doc_index = {sid: i for i, sid in enumerate(docs)}
        lengths = np.zeros(len(docs), dtype=np.int64)
        vocab = np.unique(
            np.concatenate(
                [np.empty(0, dtype=np.uint64)] + [p.vocab for p, _ in layers]
            )
        )
        # A pair is one int64, ``vocabulary slot * n_docs + doc``, so
        # the (hash, doc) order is a plain in-place sort with nothing
        # to gather; a dropped pair is -1 and sorts to the front.
        n_docs = max(len(docs), 1)
        pairs = np.empty(sum(p.doc_ids.size for p, _ in layers), dtype=np.int64)
        filled = 0
        for (postings, _), (alive, ids) in zip(layers, kept):
            # A banned id may be live again in another layer (removed,
            # then re-added): only this layer's copy maps to "dropped".
            remap = np.full(len(postings.docs), -1, dtype=np.int64)
            remap[alive] = [doc_index[sid] for sid in ids]
            lengths[remap[alive]] = postings.doc_lengths[alive]
            mapped = remap[postings.doc_ids]
            layer = pairs[filled : filled + mapped.size]
            filled += mapped.size
            layer[:] = np.repeat(
                np.searchsorted(vocab, postings.vocab), np.diff(postings.indptr)
            )
            layer *= n_docs
            layer += mapped
            if alive.size < remap.size:
                layer[mapped < 0] = -1
        pairs.sort()
        pairs = pairs[np.searchsorted(pairs, 0) :]
        doc_ids = (pairs % n_docs).astype(np.int32)
        pairs //= n_docs
        # A hash only banned documents carried has no postings left.
        counts = np.bincount(pairs, minlength=vocab.size)
        used = counts > 0
        indptr = np.zeros(int(used.sum()) + 1, dtype=np.int64)
        np.cumsum(counts[used], out=indptr[1:])
        return cls(vocab[used], indptr, doc_ids, docs, lengths, doc_index)

    def __len__(self) -> int:
        """Number of indexed sketches."""
        return len(self.docs)

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct key hashes with postings."""
        return int(self.vocab.shape[0])

    @property
    def doc_lengths(self) -> np.ndarray:
        """Per-document key-hash counts, aligned with :attr:`docs`.

        Part of the persisted snapshot layout (:mod:`repro.index.snapshot`).
        """
        return self._doc_lengths

    @property
    def nbytes(self) -> int:
        """Total bytes of the numeric CSR arrays (vocab, indptr, doc
        ids, doc lengths) — the ``docs`` string table is excluded."""
        return (
            self.vocab.nbytes
            + self.indptr.nbytes
            + self.doc_ids.nbytes
            + self._doc_lengths.nbytes
        )

    @property
    def storage(self) -> str:
        """``"mmap"`` when the CSR arrays are views into a memory-mapped
        arena snapshot (:mod:`repro.index.arena`), else ``"heap"``."""
        from repro.index.arena import backing_storage

        return backing_storage(
            self.vocab, self.indptr, self.doc_ids, self._doc_lengths
        )

    def overlap_counts_array(self, key_hashes) -> np.ndarray:
        """Per-document shared-key-hash counts for one query (ScanCount).

        Args:
            key_hashes: the query's key hashes — any iterable of ints or
                an integer array. Duplicates count once per occurrence,
                exactly like the scalar ScanCount (sketch queries pass
                hash sets, so multiplicity is 1 in practice).

        Returns:
            ``int64`` array of length ``len(self)``; element ``d`` is the
            number of query hashes indexed under document ``d``.
        """
        if isinstance(key_hashes, np.ndarray):
            q_arr = key_hashes.astype(np.uint64, copy=False)
        else:
            q_arr = np.fromiter(key_hashes, dtype=np.uint64)
        n_docs = len(self.docs)
        if q_arr.size == 0 or self.vocab.size == 0:
            return np.zeros(n_docs, dtype=np.int64)
        q, mult = np.unique(q_arr, return_counts=True)
        pos = np.searchsorted(self.vocab, q)
        in_range = pos < self.vocab.size
        pos = pos[in_range]
        matched = self.vocab[pos] == q[in_range]
        pos = pos[matched]
        mult = mult[in_range][matched]
        starts = self.indptr[pos]
        ends = self.indptr[pos + 1]
        lens = ends - starts
        total = int(lens.sum())
        if total == 0:
            return np.zeros(n_docs, dtype=np.int64)
        # Gather all matched posting slices with one fancy index: for each
        # slice, generate its absolute positions via the repeat/cumsum
        # trick (no Python-level loop over posting lists).
        shifts = np.repeat(starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens)
        flat = np.arange(total, dtype=np.int64) + shifts
        weights = np.repeat(mult, lens)
        # Float weights are exact for any realistic count (< 2**53).
        return np.bincount(
            self.doc_ids[flat], weights=weights, minlength=n_docs
        ).astype(np.int64)

    def _select_top(
        self,
        counts: np.ndarray,
        k: int,
        exclude: str | None,
        min_overlap: int,
        banned: np.ndarray | None = None,
    ) -> list[tuple[str, int]]:
        """Top-``k`` selection over one per-document ScanCount row.

        The shared tail of :meth:`top_overlap` and
        :meth:`top_overlap_batch`: zero the excluded doc and any banned
        docs (tombstoned entries of a delta-layered catalog), threshold,
        then ``np.argpartition`` on a composite ``(overlap, doc)`` key
        that reproduces the scalar ``(−overlap, sketch_id)`` tie-break.
        Mutates ``counts`` (callers pass a fresh probe result).
        """
        if exclude is not None:
            excl = self._doc_index.get(exclude)
            if excl is not None:
                counts[excl] = 0
        if banned is not None and banned.size:
            counts[banned] = 0
        threshold = max(1, min_overlap)
        cand = np.nonzero(counts >= threshold)[0]
        if cand.size == 0:
            return []
        n_docs = len(self.docs)
        if cand.size > k:
            # Composite selection key: maximize overlap, then minimize the
            # (lexicographically ordered) doc id. Overlaps are bounded by
            # the query size and doc ids by the corpus size, so the
            # product stays well inside int64.
            composite = counts[cand] * np.int64(n_docs) + (
                np.int64(n_docs - 1) - cand
            )
            sel = np.argpartition(composite, cand.size - k)[cand.size - k:]
            sel = sel[np.argsort(composite[sel])[::-1]]
            cand = cand[sel]
        else:
            order = np.lexsort((cand, -counts[cand]))
            cand = cand[order]
        return [(self.docs[int(d)], int(counts[d])) for d in cand]

    def top_overlap(
        self,
        key_hashes,
        k: int,
        *,
        exclude: str | None = None,
        min_overlap: int = 1,
        banned: np.ndarray | None = None,
    ) -> list[tuple[str, int]]:
        """Top-``k`` sketches by key-hash overlap; scalar-parity output.

        Same contract and same result as
        :meth:`InvertedIndex.top_overlap` — descending overlap, sketch id
        as tie-break — computed columnarly: one ScanCount via
        :meth:`overlap_counts_array`, then an ``np.argpartition``
        selection on a composite ``(overlap, doc)`` key. ``banned``
        optionally drops a set of doc indices from consideration (the
        catalog's tombstone filter).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return self._select_top(
            self.overlap_counts_array(key_hashes), k, exclude, min_overlap,
            banned,
        )

    def overlap_counts_batch(
        self, concat_hashes: np.ndarray, q_indptr: np.ndarray
    ) -> np.ndarray:
        """Stacked ScanCount: per-document overlaps for many queries at once.

        Args:
            concat_hashes: the queries' key hashes concatenated CSR-style
                (``uint64``-compatible). Each query's hashes must be
                duplicate-free — sketch hash *sets* always are; this is
                the one contract :meth:`overlap_counts_array`'s
                ``np.unique`` multiplicity handling relaxes.
            q_indptr: ``int64`` of length ``n_queries + 1`` delimiting
                each query's slice.

        Returns:
            ``int64`` matrix of shape ``(n_queries, len(self))``; row
            ``q`` is bit-identical to
            ``overlap_counts_array(concat_hashes[q_indptr[q]:q_indptr[q+1]])``.
            The matrix is dense — callers with large batches against
            large corpora should go through :meth:`top_overlap_batch`,
            which bounds the live matrix by processing query row chunks.

        The whole batch costs one ``np.searchsorted`` over the
        concatenated hashes, one gather of every matched posting slice
        and a single ``np.bincount`` keyed on the composite
        ``query · n_docs + doc`` bin — this is the "single stacked CSR
        probe" behind :meth:`JoinCorrelationEngine.query_batch
        <repro.index.engine.JoinCorrelationEngine.query_batch>`.
        """
        q_indptr = np.asarray(q_indptr, dtype=np.int64)
        n_queries = q_indptr.shape[0] - 1
        n_docs = len(self.docs)
        q_arr = np.asarray(concat_hashes).astype(np.uint64, copy=False)
        out = np.zeros((n_queries, n_docs), dtype=np.int64)
        if q_arr.size == 0 or self.vocab.size == 0:
            return out
        rows = np.repeat(
            np.arange(n_queries, dtype=np.int64), np.diff(q_indptr)
        )
        pos = np.searchsorted(self.vocab, q_arr)
        pos_clipped = np.minimum(pos, self.vocab.size - 1)
        matched = (pos < self.vocab.size) & (self.vocab[pos_clipped] == q_arr)
        pos = pos_clipped[matched]
        rows = rows[matched]
        starts = self.indptr[pos]
        lens = self.indptr[pos + 1] - starts
        total = int(lens.sum())
        if total == 0:
            return out
        # Same repeat/cumsum slice gather as overlap_counts_array, with
        # the owning query riding along so bincount fills the matrix.
        # Processed in query-aligned chunks of bounded posting entries:
        # the per-entry temporaries (shifts / flat / bins) stay
        # cache-sized, and each chunk's bincount covers only its own
        # queries' rows of `out` — total cost stays proportional to the
        # entries gathered plus one pass over `out`, whatever the batch
        # and catalog sizes. A single query exceeding the budget forms
        # its own chunk (no worse than its standalone probe).
        per_query_entries = np.bincount(rows, weights=lens, minlength=n_queries)
        query_entry_ends = np.cumsum(per_query_entries)
        # Query boundaries where the cumulative entry count crosses each
        # budget multiple; dedup collapses over-budget queries into
        # singleton chunks.
        cuts = np.searchsorted(
            query_entry_ends,
            np.arange(0, total, _PROBE_CHUNK_ENTRIES)[1:],
            side="left",
        )
        q_bounds = np.unique(np.concatenate(([0], cuts + 1, [n_queries])))
        entry_csum = np.concatenate(([0], np.cumsum(lens)))
        row_csum = np.searchsorted(rows, np.arange(n_queries + 1))
        for q_lo, q_hi in zip(q_bounds[:-1], q_bounds[1:]):
            a, b = int(row_csum[q_lo]), int(row_csum[q_hi])
            if a >= b:
                continue
            c_lens = lens[a:b]
            c_starts = starts[a:b]
            shifts = np.repeat(
                c_starts - (entry_csum[a:b] - entry_csum[a]), c_lens
            )
            flat = np.arange(int(entry_csum[b] - entry_csum[a]), dtype=np.int64) + shifts
            bins = (rows[a:b] - q_lo).repeat(c_lens) * np.int64(n_docs) + self.doc_ids[
                flat
            ]
            out[q_lo:q_hi] += np.bincount(
                bins, minlength=int(q_hi - q_lo) * n_docs
            ).reshape(int(q_hi - q_lo), n_docs)
        return out

    def top_overlap_batch(
        self,
        queries,
        k: int,
        *,
        excludes=None,
        min_overlap: int = 1,
        banned: np.ndarray | None = None,
    ) -> list[list[tuple[str, int]]]:
        """:meth:`top_overlap` for many queries off one stacked probe.

        Args:
            queries: per-query key-hash arrays (duplicate-free, as sketch
                hash sets are).
            k: candidates per query.
            excludes: optional per-query exclude ids (None entries allowed).
            min_overlap: joinability floor, shared by all queries.
            banned: optional doc indices dropped for every query (the
                catalog's tombstone filter).

        Returns:
            One :meth:`top_overlap`-identical result list per query.

        Memory stays bounded for any batch size: queries are probed in
        row chunks holding at most :data:`_PROBE_MATRIX_CELLS` dense
        ScanCount cells at a time, and only the selected top-``k`` per
        query survives a chunk.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = [np.asarray(q).astype(np.uint64, copy=False) for q in queries]
        if excludes is None:
            excludes = [None] * len(queries)
        if len(excludes) != len(queries):
            raise ValueError(
                f"{len(queries)} queries but {len(excludes)} excludes"
            )
        rows_per_chunk = max(1, _PROBE_MATRIX_CELLS // max(1, len(self.docs)))
        out: list[list[tuple[str, int]]] = []
        for lo in range(0, len(queries), rows_per_chunk):
            chunk = queries[lo : lo + rows_per_chunk]
            q_indptr = np.zeros(len(chunk) + 1, dtype=np.int64)
            sizes = np.asarray([q.size for q in chunk], dtype=np.int64)
            np.cumsum(sizes, out=q_indptr[1:])
            concat = (
                np.concatenate(chunk) if chunk else np.empty(0, dtype=np.uint64)
            )
            counts = self.overlap_counts_batch(concat, q_indptr)
            out.extend(
                self._select_top(
                    counts[i], k, excludes[lo + i], min_overlap, banned
                )
                for i in range(len(chunk))
            )
        return out


def merge_hits(
    per_layer_hits: list[list[tuple[str, int]]], depth: int
) -> list[tuple[str, int]]:
    """Merge sorted hits lists into the global top-``depth``.

    A deterministic heap merge under the shared ``(−overlap, id)`` total
    order: inputs are already sorted (the probe contract of
    :meth:`ColumnarPostings.top_overlap` and friends), so ``heapq.merge``
    recovers the global order without re-sorting, and truncation to
    ``depth`` reproduces the monolithic probe's cutoff. This is the one
    merge primitive behind both horizontal partitioning (the LSH
    backend of :class:`repro.serving.router.ShardRouter`) and
    vertical layering (frozen + delta probes,
    :meth:`repro.index.catalog.SketchCatalog.probe_top_overlap`): any
    candidate in the global top-``depth`` is in its own layer's
    top-``depth`` under the same total order, so merging per-layer lists
    and re-truncating is exact.
    """
    return list(
        islice(
            heapq.merge(*per_layer_hits, key=lambda t: (-t[1], t[0])),
            depth,
        )
    )
