"""Set-overlap retrieval: the dict-of-lists ScanCount oracle, and the
stacked columnar probe held to it.

The first half pins the oracle itself (``scancount_oracle.py``); the
second holds ``ColumnarPostings.overlap_counts_batch`` /
``top_overlap_batch`` to the oracle's per-query answers.
"""

import pytest

from scancount_oracle import InvertedIndex


def _index():
    idx = InvertedIndex()
    idx.add("s1", [1, 2, 3, 4])
    idx.add("s2", [3, 4, 5])
    idx.add("s3", [100, 101])
    return idx


def test_membership_and_len():
    idx = _index()
    assert len(idx) == 3
    assert "s1" in idx
    assert "nope" not in idx
    assert idx.vocabulary_size == 7  # distinct hashes across all postings


def test_duplicate_id_rejected():
    idx = _index()
    with pytest.raises(ValueError, match="already indexed"):
        idx.add("s1", [7])


def test_overlap_counts():
    idx = _index()
    counts = idx.overlap_counts([2, 3, 4, 5])
    assert counts == {"s1": 3, "s2": 3}


def test_overlap_counts_exclude():
    idx = _index()
    counts = idx.overlap_counts([3, 4], exclude="s1")
    assert counts == {"s2": 2}


def test_top_overlap_ordering():
    idx = _index()
    hits = idx.top_overlap([1, 2, 3, 4, 5], k=10)
    assert hits == [("s1", 4), ("s2", 3)]


def test_top_overlap_k_truncates():
    idx = _index()
    hits = idx.top_overlap([3, 4, 5], k=1)
    assert len(hits) == 1
    assert hits[0][0] in ("s1", "s2")


def test_top_overlap_tie_break_deterministic():
    idx = InvertedIndex()
    idx.add("b", [1, 2])
    idx.add("a", [1, 2])
    assert idx.top_overlap([1, 2], k=2) == [("a", 2), ("b", 2)]


def test_min_overlap_filter():
    idx = _index()
    hits = idx.top_overlap([4, 5, 6], k=10, min_overlap=2)
    assert hits == [("s2", 2)]


def test_no_hits():
    idx = _index()
    assert idx.top_overlap([999], k=5) == []


def test_invalid_k():
    with pytest.raises(ValueError):
        _index().top_overlap([1], k=0)


def test_scales_to_many_documents():
    idx = InvertedIndex()
    for d in range(500):
        idx.add(f"doc{d:03d}", range(d, d + 10))
    hits = idx.top_overlap(range(100, 110), k=3)
    assert hits[0] == ("doc100", 10)
    assert hits[1][1] == 9  # doc099 / doc101 overlap by 9


# -- batched (stacked) columnar probe ----------------------------------------


def _random_index(seed=0, n_docs=60, universe=400):
    import numpy as np

    rng = np.random.default_rng(seed)
    idx = InvertedIndex()
    for d in range(n_docs):
        size = int(rng.integers(1, 60))
        hashes = rng.choice(universe, size=size, replace=False)
        idx.add(f"doc{d:03d}", (int(h) for h in hashes))
    return idx, rng


def _frozen_random(seed=0, n_docs=60, universe=400):
    idx, rng = _random_index(seed, n_docs, universe)
    return idx.freeze(), rng


def test_overlap_counts_batch_rows_match_single_probe():
    """Row ``q`` of the stacked ScanCount equals the oracle's probe of
    query ``q`` alone, a query with repeated hashes included."""
    import numpy as np

    idx, rng = _random_index()
    frozen = idx.freeze()
    queries = [
        np.unique(rng.choice(400, size=int(rng.integers(0, 80)), replace=False))
        for _ in range(12)
    ]
    queries.append(np.concatenate([queries[0], queries[0][:5]]))
    q_indptr = np.zeros(len(queries) + 1, dtype=np.int64)
    np.cumsum(np.asarray([q.size for q in queries]), out=q_indptr[1:])
    concat = np.concatenate(queries).astype(np.uint64)
    counts = frozen.overlap_counts_batch(concat, q_indptr)
    assert counts.shape == (len(queries), len(frozen))
    for q, query in enumerate(queries):
        expected = idx.overlap_counts(query.tolist())
        got = {frozen.docs[d]: int(c) for d, c in enumerate(counts[q]) if c}
        assert got == expected


def test_top_overlap_batch_matches_single_calls():
    """Each row of the batch equals the oracle's single-query call."""
    import numpy as np

    idx, rng = _random_index(seed=3)
    frozen = idx.freeze()
    queries = [
        np.unique(rng.choice(400, size=int(rng.integers(0, 80)), replace=False))
        for _ in range(10)
    ]
    excludes = [None, "doc001", None, "doc999", None, "doc010", None, None, None, None]
    batch = frozen.top_overlap_batch(queries, 7, excludes=excludes, min_overlap=2)
    for q, query in enumerate(queries):
        single = idx.top_overlap(
            query.tolist(), 7, exclude=excludes[q], min_overlap=2
        )
        assert batch[q] == single


def test_top_overlap_batch_empty_and_validation():
    import numpy as np

    frozen, _ = _frozen_random(seed=5)
    assert frozen.top_overlap_batch([], 5) == []
    empty = np.empty(0, dtype=np.uint64)
    assert frozen.top_overlap_batch([empty], 5) == [[]]
    with pytest.raises(ValueError, match="k must be positive"):
        frozen.top_overlap_batch([empty], 0)
    with pytest.raises(ValueError, match="excludes"):
        frozen.top_overlap_batch([empty, empty], 3, excludes=["x"])


def test_top_overlap_batch_row_chunking_parity(monkeypatch):
    """Tiny row-chunk budgets (forcing one query per selection round)
    must not change any result — batch memory is bounded, output isn't."""
    import numpy as np

    import repro.index.inverted as inverted_mod

    frozen, rng = _frozen_random(seed=7)
    queries = [
        np.unique(rng.choice(400, size=int(rng.integers(0, 80)), replace=False))
        for _ in range(9)
    ]
    expected = frozen.top_overlap_batch(queries, 6, min_overlap=2)
    monkeypatch.setattr(inverted_mod, "_PROBE_MATRIX_CELLS", 1)
    assert frozen.top_overlap_batch(queries, 6, min_overlap=2) == expected


# -- removal (the catalog deletion path) -------------------------------------


def test_remove_drops_postings_and_allows_readd():
    idx = _index()
    idx.remove("s2", [3, 4, 5])
    assert "s2" not in idx
    assert len(idx) == 2
    assert idx.top_overlap([3, 4, 5], 5) == [("s1", 2)]
    # Empty posting lists are deleted, shrinking the vocabulary.
    assert 5 not in idx._postings
    assert idx.vocabulary_size == 6
    idx.add("s2", [3, 4, 5])
    assert idx.top_overlap([3, 4, 5], 5) == [("s2", 3), ("s1", 2)]


def test_remove_unknown_id_raises():
    idx = _index()
    with pytest.raises(KeyError, match="not indexed"):
        idx.remove("missing", [1, 2])
    assert len(idx) == 3


def test_remove_then_freeze_matches_fresh_index():
    idx = _index()
    idx.remove("s1", [1, 2, 3, 4])
    frozen = idx.freeze()
    fresh = InvertedIndex()
    fresh.add("s2", [3, 4, 5])
    fresh.add("s3", [100, 101])
    expected = fresh.freeze()
    assert frozen.docs == expected.docs
    assert (frozen.vocab == expected.vocab).all()
    assert (frozen.doc_ids == expected.doc_ids).all()
