"""Inverted index over sketch key hashes (the Lucene stand-in).

Section 4 notes that because a sketch stores discrete key hashes ``h(k)``,
off-the-shelf inverted indexes support the candidate-retrieval step of
query evaluation: find the corpus sketches sharing the most key hashes
with the query sketch — scan the query's posting lists, accumulate
per-candidate overlap counts, return the top-``k`` by count (a textbook
ScanCount set-overlap search; JOSIE/ppjoin+ are optimized variants of
the same computation).

:class:`ColumnarPostings` holds the posting lists as a frozen CSR: the
sorted key-hash vocabulary plus one contiguous ``int32`` doc-id array.
Its one ScanCount, :meth:`~ColumnarPostings.overlap_counts_batch`,
answers a whole query batch from one stacked ``np.searchsorted`` +
``np.bincount`` probe over the concatenated query hashes, and
:meth:`~ColumnarPostings.top_overlap_batch` selects each query's
top-``k`` with ``np.argpartition`` under the ``(−overlap, sketch_id)``
order — the retrieval phase of ``JoinCorrelationEngine.query_batch``,
and a single query is a batch of one. The dict-of-lists index these
kernels replaced is their test oracle (``tests/scancount_oracle.py``).
"""

from __future__ import annotations

import heapq
from itertools import islice

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


class ColumnarPostings:
    """Frozen CSR layout of the key-hash posting lists.

    Three parallel arrays hold the whole index:

    * ``vocab`` — the distinct key hashes, sorted ascending (``uint64``);
    * ``indptr`` — ``indptr[i]:indptr[i+1]`` delimits the postings of
      ``vocab[i]`` (``int64``, length ``len(vocab) + 1``);
    * ``doc_ids`` — the concatenated posting lists as integer document
      ids (``int32``).

    Document ids are positions into ``docs``, which is sorted
    lexicographically so the integer order *is* the sketch-id order —
    the ``(−overlap, sketch_id)`` tie-break becomes a plain integer
    comparison.

    Built by :meth:`repro.index.catalog.SketchCatalog._freeze` (from the
    sketches' key-hash columns) or :meth:`merged` (from other layers);
    instances are immutable.
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
        what :meth:`repro.index.catalog.SketchCatalog._freeze` produces
        from a from-scratch rebuild over the same documents, so the merge
        is bit-identical to one. No sketch is read: the layers' arrays
        are the input.
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

    def _select_top(
        self,
        counts: np.ndarray,
        k: int,
        exclude: str | None,
        min_overlap: int,
        banned: np.ndarray | None = None,
    ) -> list[tuple[str, int]]:
        """Top-``k`` selection over one per-document ScanCount row.

        The per-query tail of :meth:`top_overlap_batch`: zero the
        excluded doc and any banned docs (tombstoned entries of a
        delta-layered catalog), threshold, then ``np.argpartition`` on a
        composite ``(overlap, doc)`` key that reproduces the
        ``(−overlap, sketch_id)`` order. Mutates ``counts`` (a row of a
        fresh probe result).
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

    def overlap_counts_batch(
        self, concat_hashes: np.ndarray, q_indptr: np.ndarray
    ) -> np.ndarray:
        """Stacked ScanCount: per-document overlaps for many queries at once.

        Args:
            concat_hashes: the queries' key hashes concatenated CSR-style
                (``uint64``-compatible). A hash repeated within one query
                counts once per occurrence (sketch hash sets repeat
                none).
            q_indptr: ``int64`` of length ``n_queries + 1`` delimiting
                each query's slice.

        Returns:
            ``int64`` matrix of shape ``(n_queries, len(self))``; element
            ``(q, d)`` is the number of query ``q``'s hashes indexed
            under document ``d``. The matrix is dense — callers with large batches against
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
        # Gather every matched posting slice with one fancy index (each
        # slice's absolute positions come from the repeat/cumsum trick),
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
        """Top-``k`` documents by key-hash overlap, for many queries off
        one stacked probe.

        Args:
            queries: per-query key-hash arrays (a single query is a batch
                of one).
            k: candidates per query.
            excludes: optional per-query exclude ids (None entries allowed).
            min_overlap: joinability floor, shared by all queries.
            banned: optional doc indices dropped for every query (the
                catalog's tombstone filter).

        Returns:
            One ``(sketch_id, overlap)`` list per query, descending by
            overlap with the sketch id as tie-break.

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
    :meth:`ColumnarPostings.top_overlap_batch`), so ``heapq.merge``
    recovers the global order without re-sorting, and truncation to
    ``depth`` reproduces the monolithic probe's cutoff. This is the one
    merge primitive behind both horizontal partitioning (the LSH
    backend of :class:`repro.serving.router.ShardRouter`) and
    vertical layering (frozen + delta probes,
    :meth:`repro.index.catalog.SketchCatalog.probe_top_overlap_batch`): any
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
