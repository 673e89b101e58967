"""Per-candidate reference for the candidate-page kernels.

The sketch join and the Eq. 1 combined-bottom-k statistics, one
candidate at a time: a membership probe, an ``argsort`` of the matched
ranks, one ``np.partition`` over the concatenated union ranks. This is
the code ``CandidatePage.assemble`` replaced with page-level passes; it
lives here — not in ``src/`` — as the oracle the differential tests
compare the page kernels against, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.joined_sample import JoinedSample
from repro.core.sketch import SketchColumns

from sketch_join_oracle import drop_nan


@dataclass(frozen=True)
class UnionStats:
    """Per-candidate combined-bottom-k statistics for Eq. 1.

    ``k_len``/``kth``/``k_inter`` describe the first ``combined_k``
    entries of the rank-ordered union of query and candidate hashes;
    ``exact`` marks the both-sketches-saw-everything shortcut where the
    raw overlap count is the exact intersection size.
    """

    k_len: int
    kth: float
    k_inter: int
    exact: bool


def candidate_membership(
    query: SketchColumns, candidate: SketchColumns
) -> tuple[np.ndarray, np.ndarray]:
    """Probe the candidate's hashes against the query's sorted hashes.

    Returns ``(in_query, positions)``: a boolean membership mask over the
    candidate's entries and, for members, their index in the query's
    arrays.
    """
    pos = np.searchsorted(query.key_hashes, candidate.key_hashes)
    pos_clipped = np.minimum(pos, max(query.size - 1, 0))
    if query.size:
        in_query = query.key_hashes[pos_clipped] == candidate.key_hashes
    else:
        in_query = np.zeros(candidate.size, dtype=bool)
    return in_query, pos_clipped


def union_stats_from_membership(
    query: SketchColumns, candidate: SketchColumns, in_query: np.ndarray
) -> UnionStats:
    """Combined-bottom-k statistics given a precomputed membership mask.

    Mirrors the sorted-union step of
    :func:`scalar_query_oracle.containment_estimate` without re-sorting
    hash sets per candidate: dedup via the mask, then the ``k``-th union
    rank from one ``np.partition`` over cached ranks.
    """
    if query.saw_all_keys and candidate.saw_all_keys:
        return UnionStats(k_len=0, kth=1.0, k_inter=0, exact=True)
    union_ranks = np.concatenate([query.ranks, candidate.ranks[~in_query]])
    combined_k = min(query.size, candidate.size)
    k_len = min(combined_k, union_ranks.size)
    if k_len == 0:
        return UnionStats(k_len=0, kth=1.0, k_inter=0, exact=False)
    if k_len == union_ranks.size:
        kth = float(union_ranks.max())
    else:
        kth = float(np.partition(union_ranks, k_len - 1)[k_len - 1])
    # Ranks are injective over key hashes, so "within the first k_len of
    # the union" is exactly "rank <= kth".
    k_inter = int(np.count_nonzero(candidate.ranks[in_query] <= kth))
    return UnionStats(k_len=k_len, kth=kth, k_inter=k_inter, exact=False)


def union_stats(query: SketchColumns, candidate: SketchColumns) -> UnionStats:
    """Combined-bottom-k statistics from two cached columnar views."""
    return union_stats_from_membership(
        query, candidate, candidate_membership(query, candidate)[0]
    )


def join_from_membership(
    query: SketchColumns,
    candidate: SketchColumns,
    in_query: np.ndarray,
    positions: np.ndarray,
) -> JoinedSample:
    """Materialize the sketch join from a precomputed membership probe.

    Bit-identical to ``sketch_join_oracle.join_sketches`` (both
    sides store the same rank for a shared hash, so ordering by the
    candidate's ranks reproduces the canonical ascending-rank order).
    """
    cand_idx = np.nonzero(in_query)[0]
    query_idx = positions[cand_idx]
    order = np.argsort(candidate.ranks[cand_idx])
    cand_idx = cand_idx[order]
    query_idx = query_idx[order]
    return JoinedSample(
        key_hashes=candidate.key_hashes[cand_idx],
        x=query.values[query_idx],
        y=candidate.values[cand_idx],
        x_range=query.value_range,
        y_range=candidate.value_range,
    )


def join(query: SketchColumns, candidate: SketchColumns) -> JoinedSample:
    """The NaN-filtered join a candidate page holds for one candidate."""
    return drop_nan(
        join_from_membership(
            query, candidate, *candidate_membership(query, candidate)
        )
    )
