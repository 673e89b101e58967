"""Ranking correlated columns under estimation uncertainty (Section 4).

Implements the risk-averse scoring framework (Eq. 5), the paper's four
scoring functions and three baselines, deterministic ranked-list
construction, and the MAP / nDCG evaluation metrics of Section 5.4.
"""

from repro.ranking.metrics import (
    average_precision,
    dcg_at,
    mean_average_precision,
    mean_ndcg_at,
    ndcg_at,
    precision_at,
)
from repro.ranking.ranker import (
    RankedCandidate,
    rank_candidates,
    relevance_flags,
    relevance_gains,
)
from repro.ranking.scoring import (
    RNG_MODES,
    SCORER_NAMES,
    CandidateScores,
    ScoreColumns,
    apply_bootstrap,
    candidate_scores_batch,
    score_candidates,
)

__all__ = [
    "CandidateScores",
    "RNG_MODES",
    "RankedCandidate",
    "SCORER_NAMES",
    "ScoreColumns",
    "apply_bootstrap",
    "average_precision",
    "candidate_scores_batch",
    "dcg_at",
    "mean_average_precision",
    "mean_ndcg_at",
    "ndcg_at",
    "precision_at",
    "rank_candidates",
    "relevance_flags",
    "relevance_gains",
    "score_candidates",
]
