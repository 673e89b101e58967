"""Dict-of-lists inverted index: the ScanCount and freeze reference.

The textbook form of the retrieval phase's set-overlap search: posting
lists ``key_hash → [sketch ids]``, a probe that walks the query's lists
and counts hits per sketch (ScanCount), a sort on ``(−overlap, id)``,
and a freeze that lays the lists out as the canonical CSR. It was
``repro.index.inverted.InvertedIndex`` until the stacked probe
(``ColumnarPostings.overlap_counts_batch`` → ``top_overlap_batch`` →
``SketchCatalog.probe_top_overlap_batch``) became the one ScanCount in
``src/``; it lives here as the oracle that probe and the catalog's
array freeze (``SketchCatalog._freeze``, ``ColumnarPostings.merged``)
are held to.
"""

from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.index.inverted import ColumnarPostings


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
            ValueError: if ``sketch_id`` is already indexed.
        """
        if sketch_id in self._doc_keys:
            raise ValueError(f"sketch id {sketch_id!r} is already indexed")
        count = 0
        for kh in key_hashes:
            self._postings[kh].append(sketch_id)
            count += 1
        self._doc_keys[sketch_id] = count

    def remove(self, sketch_id: str, key_hashes: Iterable[int]) -> None:
        """Drop a sketch's postings (``key_hashes``: exactly the hashes it
        was added under). Posting lists that become empty are deleted, so
        :attr:`vocabulary_size` counts live postings only; the id can be
        re-indexed afterwards.

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
        """Count shared key hashes per indexed sketch (ScanCount); a hash
        repeated in the query counts once per occurrence."""
        counts: dict[str, int] = defaultdict(int)
        for kh in key_hashes:
            for sid in self._postings.get(kh, ()):
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
        """Top-``k`` ``(sketch_id, overlap)`` pairs, descending by overlap
        with the id as tie-break; candidates below ``min_overlap`` (and
        ``exclude``) are dropped."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        counts = self.overlap_counts(key_hashes, exclude=exclude)
        candidates = [(sid, c) for sid, c in counts.items() if c >= min_overlap]
        candidates.sort(key=lambda t: (-t[1], t[0]))
        return candidates[:k]

    def freeze(self) -> ColumnarPostings:
        """The canonical CSR of the current postings: ascending
        vocabulary, docs sorted by id, ascending doc id within each
        vocabulary slice — the layout any insertion history freezes to."""
        docs = sorted(self._doc_keys)
        doc_index = {sid: i for i, sid in enumerate(docs)}
        doc_lengths = np.asarray(
            [self._doc_keys[sid] for sid in docs], dtype=np.int64
        )
        items = sorted(self._postings.items())
        vocab = np.asarray([kh for kh, _ in items], dtype=np.uint64)
        lengths = np.asarray([len(p) for _, p in items], dtype=np.int64)
        indptr = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        doc_ids = np.asarray(
            [
                did
                for _, postings in items
                for did in sorted(doc_index[sid] for sid in postings)
            ],
            dtype=np.int32,
        )
        return ColumnarPostings(vocab, indptr, doc_ids, docs, doc_lengths, doc_index)


def index_of(catalog) -> InvertedIndex:
    """A dict-of-lists index over a catalog's live sketches, built from
    their key-hash columns."""
    index = InvertedIndex()
    for sid in catalog:
        index.add(sid, catalog.get(sid).columnar().key_hashes.tolist())
    return index
