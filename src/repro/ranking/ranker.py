"""Turning scored candidates into ranked result lists.

Connects the scoring functions (:mod:`repro.ranking.scoring`) to concrete
candidate lists: rank by descending score with a deterministic tie-break
(candidate id), carry the per-candidate ground truth through for the
evaluation metrics, and produce the relevance sequences
:mod:`repro.ranking.metrics` consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ranking.scoring import (
    CandidateScores,
    ScoreColumns,
    json_float,
    score_candidates,
    unjson_float,
)


@dataclass(frozen=True)
class RankedCandidate:
    """One entry of a ranked result list.

    Attributes:
        candidate_id: stable identifier of the candidate column pair.
        score: value assigned by the scoring function.
        stats: the per-candidate scoring statistics.
        true_correlation: after-join correlation on the complete data
            (NaN when unknown — e.g. in production use).
    """

    candidate_id: str
    score: float
    stats: CandidateScores
    true_correlation: float

    def to_dict(self) -> dict:
        """Strict-JSON representation (inverse of :meth:`from_dict`);
        floats round-trip bit-for-bit, NaN encodes as ``null``."""
        return {
            "candidate_id": self.candidate_id,
            "score": json_float(self.score),
            "stats": self.stats.to_dict(),
            "true_correlation": json_float(self.true_correlation),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RankedCandidate":
        return cls(
            candidate_id=payload["candidate_id"],
            score=unjson_float(payload["score"]),
            stats=CandidateScores.from_dict(payload["stats"]),
            true_correlation=unjson_float(payload["true_correlation"]),
        )


def rank_candidates(
    candidate_ids: list[str],
    stats: ScoreColumns,
    scorer: str,
    *,
    true_correlations: list[float] | None = None,
    rng: np.random.Generator | None = None,
    k: int | None = None,
) -> list[RankedCandidate]:
    """Score and sort a candidate list with one scoring function.

    Ties break on candidate id so rankings are reproducible across runs
    (important when a scorer collapses many candidates to score 0).
    With ``k`` only the first ``k`` entries of the ranking are built —
    the same entries ``rank_candidates(...)[:k]`` returns, without a
    record per candidate that did not make the cut. The two halves are
    :func:`top_rows` and :func:`ranked_entries`, for a caller that fills
    in statistics of the returned rows in between.
    """
    if true_correlations is not None and len(true_correlations) != len(
        candidate_ids
    ):
        raise ValueError(
            f"{len(candidate_ids)} ids but {len(true_correlations)} truths"
        )
    top, scores = top_rows(candidate_ids, stats, scorer, rng=rng, k=k)
    return ranked_entries(candidate_ids, stats, top, scores, true_correlations)


def top_rows(
    candidate_ids: list[str],
    stats: ScoreColumns,
    scorer: str,
    *,
    rng: np.random.Generator | None = None,
    k: int | None = None,
) -> tuple[list[int], list[float]]:
    """The rows of the ranking's first ``k`` entries (all when None),
    best first, and every candidate's score."""
    if len(candidate_ids) != len(stats):
        raise ValueError(
            f"{len(candidate_ids)} ids but {len(stats)} stat records"
        )
    scores = score_candidates(stats, scorer, rng=rng)
    order = sorted(
        range(len(candidate_ids)), key=lambda i: (-scores[i], candidate_ids[i])
    )
    return order[:k], scores


def ranked_entries(
    candidate_ids: list[str],
    stats: ScoreColumns,
    rows: list[int],
    scores: list[float],
    true_correlations: list[float] | None = None,
) -> list[RankedCandidate]:
    """The ranked entries of ``rows`` (from :func:`top_rows`), reading
    ``stats`` at those rows only."""
    return [
        RankedCandidate(
            candidate_ids[i],
            scores[i],
            record,
            math.nan if true_correlations is None else true_correlations[i],
        )
        for i, record in zip(rows, stats.records(rows))
    ]


def relevance_flags(
    ranked: list[RankedCandidate], threshold: float
) -> list[bool]:
    """Binary relevance: ``|true r| > threshold`` (NaN → irrelevant)."""
    return [
        (not math.isnan(e.true_correlation))
        and abs(e.true_correlation) > threshold
        for e in ranked
    ]


def relevance_gains(ranked: list[RankedCandidate]) -> list[float]:
    """Graded relevance for nDCG: ``|true r|`` (NaN → 0)."""
    return [
        0.0 if math.isnan(e.true_correlation) else abs(e.true_correlation)
        for e in ranked
    ]
