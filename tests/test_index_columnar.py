"""Parity tests: the stacked columnar probe vs the ScanCount reference.

``ColumnarPostings.top_overlap_batch`` — a single query being a batch
of one — must return *exactly* what the dict-of-lists
``InvertedIndex.top_overlap`` of ``scancount_oracle.py`` returns — same
candidates, same counts, same ``(−overlap, sketch_id)`` tie-break — on
any catalog. The suite drives both through randomized catalogs
(hypothesis-generated posting sets, queries with repeated hashes) plus
the edge cases the engine exercises: overlap ties, ``exclude``,
``min_overlap``, and empty queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scancount_oracle import InvertedIndex


def _build(posting_sets: list[list[int]]) -> InvertedIndex:
    index = InvertedIndex()
    for d, hashes in enumerate(posting_sets):
        index.add(f"doc{d:03d}", hashes)
    return index


def _top(frozen, query, k, **kwargs):
    """One query through the stacked probe: a batch of one."""
    excludes = [kwargs.pop("exclude")] if "exclude" in kwargs else None
    return frozen.top_overlap_batch([query], k, excludes=excludes, **kwargs)[0]


def _counts(frozen, query) -> np.ndarray:
    """One query's ScanCount row from the stacked probe."""
    query = np.asarray(query, dtype=np.uint64)
    return frozen.overlap_counts_batch(query, np.array([0, query.size]))[0]


hash_sets = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=60), min_size=1, max_size=25, unique=True
    ),
    min_size=1,
    max_size=30,
)
# Not unique: a repeated query hash counts once per occurrence in both
# kernels.
queries = st.lists(st.integers(min_value=0, max_value=70), min_size=0, max_size=40)


@given(
    posting_sets=hash_sets,
    query=queries,
    k=st.integers(min_value=1, max_value=12),
    min_overlap=st.integers(min_value=0, max_value=4),
    exclude_doc=st.one_of(st.none(), st.integers(min_value=0, max_value=35)),
)
@settings(max_examples=200, deadline=None)
def test_top_overlap_matches_scancount_reference(
    posting_sets, query, k, min_overlap, exclude_doc
):
    """The frozen probe equals the scalar reference on random catalogs.

    The small hash universe (≤ 61 values) makes overlap ties frequent, so
    the ``(−overlap, sketch_id)`` tie-break is exercised constantly; the
    exclude id may or may not name an indexed document.
    """
    index = _build(posting_sets)
    frozen = index.freeze()
    exclude = None if exclude_doc is None else f"doc{exclude_doc:03d}"
    expected = index.top_overlap(query, k, exclude=exclude, min_overlap=min_overlap)
    got = _top(frozen, query, k, exclude=exclude, min_overlap=min_overlap)
    assert got == expected


@given(posting_sets=hash_sets, query=queries)
@settings(max_examples=100, deadline=None)
def test_overlap_counts_match_reference(posting_sets, query):
    index = _build(posting_sets)
    frozen = index.freeze()
    expected = index.overlap_counts(query)
    counts = _counts(frozen, query)
    got = {
        frozen.docs[d]: int(c) for d, c in enumerate(counts) if c > 0
    }
    assert got == expected


def test_empty_query_returns_nothing():
    index = _build([[1, 2, 3], [2, 3, 4]])
    frozen = index.freeze()
    assert _top(frozen, [], 5) == [] == index.top_overlap([], 5)
    assert _counts(frozen, np.array([], dtype=np.uint64)).sum() == 0


def test_unindexed_hashes_are_ignored():
    index = _build([[1, 2, 3]])
    frozen = index.freeze()
    assert _top(frozen, [99, 100], 5) == []
    assert _top(frozen, [1, 99], 5) == [("doc000", 1)]


def test_overlap_tie_break_is_lexicographic():
    """Equal overlaps must rank by sketch id, matching the scalar sort."""
    index = InvertedIndex()
    # Deliberately register ids out of lexicographic order.
    index.add("zeta", [1, 2, 3])
    index.add("alpha", [1, 2, 4])
    index.add("mid", [1, 2, 5])
    frozen = index.freeze()
    got = _top(frozen, [1, 2], 2)
    assert got == [("alpha", 2), ("mid", 2)]
    assert got == index.top_overlap([1, 2], 2)


def test_k_validation_matches_reference():
    index = _build([[1]])
    frozen = index.freeze()
    for probe in (frozen.top_overlap_batch, index.top_overlap):
        with pytest.raises(ValueError, match="k must be positive"):
            probe([1], 0)


def test_min_overlap_zero_behaves_like_reference():
    """min_overlap ≤ 1 cannot admit untouched documents (counts dict
    semantics: only probed postings produce entries)."""
    index = _build([[1, 2], [3, 4]])
    frozen = index.freeze()
    for mo in (0, 1):
        assert _top(frozen, [1], 5, min_overlap=mo) == index.top_overlap(
            [1], 5, min_overlap=mo
        )


def test_freeze_is_a_snapshot():
    """A frozen probe reflects the index at freeze time, not later adds."""
    index = _build([[1, 2]])
    frozen = index.freeze()
    index.add("doc999", [1, 2])
    assert _top(frozen, [1, 2], 5) == [("doc000", 2)]
    assert len(frozen) == 1
    refrozen = index.freeze()
    assert _top(refrozen, [1, 2], 5) == [("doc000", 2), ("doc999", 2)]


def test_csr_layout_invariants():
    index = _build([[5, 1, 9], [1, 9], [42]])
    frozen = index.freeze()
    assert frozen.vocabulary_size == index.vocabulary_size == 4
    assert list(frozen.vocab) == sorted(frozen.vocab)
    assert frozen.indptr[0] == 0
    assert frozen.indptr[-1] == frozen.doc_ids.shape[0] == 6
    assert frozen.docs == sorted(frozen.docs)
    assert frozen.doc_ids.dtype == np.int32
