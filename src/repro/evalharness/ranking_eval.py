"""Ranking-quality evaluation (Table 1 and Figure 5).

The protocol of Section 5.4: for each query column pair in the collection,
retrieve all other joinable column pairs, rank them with each scoring
function, and measure MAP (binary relevance via |r| thresholds) and
nDCG@k (graded relevance = |r|) against ground truth computed on the
complete data.

The expensive part — the per-(query, candidate) sketch statistics and
full-join ground truth — is computed once per query and shared by all
scoring functions, exactly as the paper compares rankers on the same
retrieved lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.data.workloads import PairRef
from repro.index.catalog import SketchCatalog
from repro.index.engine import CandidatePage
from repro.ranking.metrics import average_precision, ndcg_at
from repro.ranking.ranker import rank_candidates, relevance_flags, relevance_gains
from repro.ranking.scoring import CandidateScores, candidate_scores
from repro.table.join import jaccard_containment, join_tables, true_correlation
from repro.correlation.pearson import pearson


@dataclass
class QueryEvaluation:
    """Per-query candidate statistics shared across scoring functions."""

    query_id: str
    candidate_ids: list[str]
    stats: list[CandidateScores]
    truths: list[float]


@dataclass
class RankingEvalReport:
    """Aggregated ranking metrics per scorer (the four Table 1 panels).

    ``per_query`` holds the raw per-query metric values per scorer, from
    which Figure 5's histograms are drawn.
    """

    map_75: dict[str, float] = field(default_factory=dict)
    map_50: dict[str, float] = field(default_factory=dict)
    ndcg_5: dict[str, float] = field(default_factory=dict)
    ndcg_10: dict[str, float] = field(default_factory=dict)
    per_query: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    queries_evaluated: int = 0

    def relative_improvement(self, table: dict[str, float], baseline: str = "jc") -> dict[str, float]:
        """Per-scorer relative improvement over ``baseline`` (Table 1's %)."""
        base = table.get(baseline)
        if base is None or base == 0:
            return {}
        return {name: (score - base) / base for name, score in table.items()}


def build_catalog(
    refs: list[PairRef], sketch_size: int, *, aggregate: str = "mean"
) -> tuple[SketchCatalog, dict[str, PairRef]]:
    """Sketch every column pair and index it; returns catalog + id map."""
    catalog = SketchCatalog(sketch_size=sketch_size, aggregate=aggregate)
    by_id: dict[str, PairRef] = {}
    for ref in refs:
        sid = ref.pair_id
        if sid in catalog:
            continue
        catalog.add_column_pair(ref.table, ref.pair, sketch_id=sid)
        by_id[sid] = ref
    return catalog, by_id


def evaluate_query(
    query_ref: PairRef,
    query_sketch: CorrelationSketch,
    catalog: SketchCatalog,
    by_id: dict[str, PairRef],
    *,
    aggregate: str = "mean",
    retrieval_depth: int = 100,
    rng: np.random.Generator | None = None,
) -> QueryEvaluation:
    """Retrieve and fully evaluate all joinable candidates for one query.

    Candidate statistics come from sketches; ground-truth correlation and
    exact containment come from complete-data joins.
    """
    if rng is None:
        rng = np.random.default_rng(13)
    hits = catalog.probe_top_overlap_batch(
        [query_sketch.columnar().key_hashes],
        retrieval_depth,
        excludes=[query_ref.pair_id],
    )[0]
    # Never rank another column of the very same table: trivially
    # joinable and not a discovery.
    hits = [
        hit for hit in hits if by_id[hit[0]].table.name != query_ref.table.name
    ]
    page = CandidatePage.assemble(catalog, query_sketch.columnar(), hits)
    containments = page.containments(query_sketch.distinct_keys()).tolist()
    query_keys = list(query_ref.table.categorical(query_ref.pair.key).values)

    ids: list[str] = []
    stats: list[CandidateScores] = []
    truths: list[float] = []
    for sid, sample, containment_est in zip(page.ids, page.samples, containments):
        cand_ref = by_id[sid]
        containment_true = jaccard_containment(
            query_keys, list(cand_ref.table.categorical(cand_ref.pair.key).values)
        )
        stat = candidate_scores(
            sample,
            containment_est=containment_est,
            containment_true=containment_true,
            rng=rng,
        )
        join = join_tables(
            query_ref.table, query_ref.pair, cand_ref.table, cand_ref.pair,
            aggregate=aggregate,
        )
        truth = true_correlation(join, pearson)
        ids.append(sid)
        stats.append(stat)
        truths.append(truth)
    return QueryEvaluation(
        query_id=query_ref.pair_id, candidate_ids=ids, stats=stats, truths=truths
    )


def evaluate_ranking(
    refs: list[PairRef],
    *,
    sketch_size: int = 256,
    scorers: tuple[str, ...] = ("rp", "rp_sez", "rb_cib", "rp_cih", "jc", "jc_est", "random"),
    max_queries: int | None = None,
    min_candidates: int = 3,
    retrieval_depth: int = 100,
    aggregate: str = "mean",
    seed: int = 0,
) -> RankingEvalReport:
    """Run the full Table 1 / Figure 5 protocol over a collection.

    Args:
        refs: all column pairs in the collection (each also acts as a
            query, as in the paper).
        sketch_size: bottom-``n`` size (paper: 256 for ranking quality).
        scorers: scoring functions to compare.
        max_queries: cap on the number of query pairs (None = all).
        min_candidates: skip queries retrieving fewer joinable candidates.
        retrieval_depth: overlap-retrieval depth per query.
        aggregate: aggregate function for repeated keys.
        seed: seed for bootstrap/random-scorer randomness.
    """
    catalog, by_id = build_catalog(refs, sketch_size, aggregate=aggregate)
    rng = np.random.default_rng(seed)

    report = RankingEvalReport()
    report.per_query = {s: {"map75": [], "map50": [], "ndcg5": [], "ndcg10": []} for s in scorers}

    queries = refs if max_queries is None else refs[:max_queries]
    for query_ref in queries:
        query_sketch = catalog.get(query_ref.pair_id)
        evaluation = evaluate_query(
            query_ref, query_sketch, catalog, by_id,
            aggregate=aggregate, retrieval_depth=retrieval_depth, rng=rng,
        )
        if len(evaluation.candidate_ids) < min_candidates:
            continue
        # A query teaches nothing if no candidate is even weakly relevant.
        if not any(
            (not math.isnan(t)) and abs(t) > 0.5 for t in evaluation.truths
        ):
            continue
        report.queries_evaluated += 1
        for scorer in scorers:
            ranked = rank_candidates(
                evaluation.candidate_ids,
                evaluation.stats,
                scorer,
                true_correlations=evaluation.truths,
                rng=rng,
            )
            flags75 = relevance_flags(ranked, 0.75)
            flags50 = relevance_flags(ranked, 0.50)
            gains = relevance_gains(ranked)
            pq = report.per_query[scorer]
            if any(flags75):
                pq["map75"].append(average_precision(flags75))
            if any(flags50):
                pq["map50"].append(average_precision(flags50))
            pq["ndcg5"].append(ndcg_at(gains, 5))
            pq["ndcg10"].append(ndcg_at(gains, 10))

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else math.nan

    for scorer in scorers:
        pq = report.per_query[scorer]
        report.map_75[scorer] = _mean(pq["map75"])
        report.map_50[scorer] = _mean(pq["map50"])
        report.ndcg_5[scorer] = _mean(pq["ndcg5"])
        report.ndcg_10[scorer] = _mean(pq["ndcg10"])
    return report


def score_histogram(
    values: list[float], *, bins: int = 10
) -> list[tuple[float, float, int]]:
    """Bucket metric values into [0,1] slices of width 1/bins (Figure 5)."""
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    counts = [0] * bins
    width = 1.0 / bins
    for v in values:
        if math.isnan(v):
            continue
        idx = min(bins - 1, int(v / width))
        counts[idx] += 1
    return [(i * width, (i + 1) * width, c) for i, c in enumerate(counts)]
