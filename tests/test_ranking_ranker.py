"""Unit tests for ranked-list construction."""

import math

import numpy as np
import pytest

from repro.ranking.ranker import rank_candidates, relevance_flags, relevance_gains
from repro.ranking.scoring import CandidateScores

from scalar_query_oracle import score_columns


def _stats(r_p, n=100, hfd_len=1.0):
    return CandidateScores(
        r_pearson=r_p,
        r_bootstrap=r_p,
        sample_size=n,
        sez_factor=0.9,
        cib_factor=0.9,
        hfd_ci_length=hfd_len,
        containment_est=0.5,
        containment_true=0.5,
    )


def test_sorted_descending_by_score():
    ids = ["a", "b", "c"]
    stats = score_columns([_stats(0.2), _stats(0.9), _stats(0.5)])
    ranked = rank_candidates(ids, stats, "rp")
    assert [e.candidate_id for e in ranked] == ["b", "c", "a"]


def test_deterministic_tie_break_by_id():
    ids = ["z", "a", "m"]
    stats = score_columns([_stats(0.5), _stats(0.5), _stats(0.5)])
    ranked = rank_candidates(ids, stats, "rp")
    assert [e.candidate_id for e in ranked] == ["a", "m", "z"]


def test_length_mismatches_rejected():
    with pytest.raises(ValueError, match="stat records"):
        rank_candidates(["a"], score_columns([]), "rp")
    with pytest.raises(ValueError, match="truths"):
        rank_candidates(
            ["a"], score_columns([_stats(0.1)]), "rp", true_correlations=[0.1, 0.2]
        )


def test_truths_carried_through():
    ranked = rank_candidates(
        ["a", "b"],
        score_columns([_stats(0.9), _stats(0.1)]),
        "rp",
        true_correlations=[0.8, 0.05],
    )
    assert ranked[0].true_correlation == 0.8
    assert ranked[1].true_correlation == 0.05


def test_default_truths_nan():
    ranked = rank_candidates(["a"], score_columns([_stats(0.5)]), "rp")
    assert math.isnan(ranked[0].true_correlation)


def test_relevance_flags_threshold():
    ranked = rank_candidates(
        ["a", "b", "c"],
        score_columns([_stats(0.9), _stats(0.6), _stats(0.2)]),
        "rp",
        true_correlations=[0.8, -0.6, 0.1],
    )
    assert relevance_flags(ranked, 0.75) == [True, False, False]
    assert relevance_flags(ranked, 0.50) == [True, True, False]


def test_relevance_flags_nan_is_irrelevant():
    ranked = rank_candidates(
        ["a"], score_columns([_stats(0.9)]), "rp", true_correlations=[math.nan]
    )
    assert relevance_flags(ranked, 0.5) == [False]


def test_relevance_gains_absolute():
    ranked = rank_candidates(
        ["a", "b"],
        score_columns([_stats(0.9), _stats(0.1)]),
        "rp",
        true_correlations=[-0.7, math.nan],
    )
    assert relevance_gains(ranked) == [0.7, 0.0]


def test_random_scorer_uses_rng():
    ids = [f"c{i}" for i in range(10)]
    stats = score_columns([_stats(0.5) for _ in ids])
    r1 = rank_candidates(ids, stats, "random", rng=np.random.default_rng(1))
    r2 = rank_candidates(ids, stats, "random", rng=np.random.default_rng(1))
    assert [e.candidate_id for e in r1] == [e.candidate_id for e in r2]
