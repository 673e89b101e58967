"""Unit + integration tests for the ranking evaluation harness (Table 1)."""

import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from repro.data.opendata import make_nyc_like_collection
from repro.data.workloads import collection_column_pairs
from repro.evalharness.ranking_eval import (
    build_catalog,
    evaluate_query,
    evaluate_ranking,
    score_histogram,
)
from repro.index.engine import CandidatePage, retrieve_candidates
from repro.ranking.scoring import ScoreColumns, candidate_scores_batch


@pytest.fixture(scope="module")
def small_report():
    collection = make_nyc_like_collection(n_tables=25, seed=11, key_universe=250)
    refs = collection_column_pairs(collection)
    return evaluate_ranking(
        refs,
        sketch_size=128,
        max_queries=25,
        min_candidates=2,
        seed=0,
    )


def test_build_catalog_covers_all_refs():
    collection = make_nyc_like_collection(n_tables=10, seed=12)
    refs = collection_column_pairs(collection)
    catalog, by_id = build_catalog(refs, sketch_size=64)
    assert len(catalog) == len(by_id) == len(refs)


def test_report_contains_all_scorers(small_report):
    for table in (
        small_report.map_75,
        small_report.map_50,
        small_report.ndcg_5,
        small_report.ndcg_10,
    ):
        assert set(table) == {"rp", "rp_sez", "rb_cib", "rp_cih", "jc", "jc_est", "random"}


def test_some_queries_evaluated(small_report):
    assert small_report.queries_evaluated > 0


def test_metric_ranges(small_report):
    for table in (
        small_report.map_75,
        small_report.map_50,
        small_report.ndcg_5,
        small_report.ndcg_10,
    ):
        for value in table.values():
            if not math.isnan(value):
                assert 0.0 <= value <= 1.0


def test_correlation_scorers_beat_jc_baseline(small_report):
    """The paper's headline: correlation-aware rankers >> containment."""
    assert small_report.ndcg_10["rp"] > small_report.ndcg_10["jc"]
    assert small_report.ndcg_10["rp_cih"] > small_report.ndcg_10["jc"]


def test_evaluate_query_grades_the_served_page():
    """Table 1 grades what is served: a query's statistics are the served
    candidate page run through ``candidate_scores_batch`` (PM1 bootstrap
    under ``rng_mode="compat"``), column for column and bit for bit."""
    collection = make_nyc_like_collection(n_tables=25, seed=11, key_universe=250)
    refs = collection_column_pairs(collection)
    catalog, by_id = build_catalog(refs, sketch_size=128)
    for query_ref in refs:
        query_sketch = catalog.get(query_ref.pair_id)
        evaluation = evaluate_query(
            query_ref, query_sketch, catalog, by_id,
            rng=np.random.default_rng(5),
        )
        if len(evaluation.candidate_ids) >= 5:
            break
    else:
        pytest.fail("no query with 5 candidates")

    cols = query_sketch.columnar()
    hits = retrieve_candidates(
        catalog, cols, depth=100, exclude=query_ref.pair_id
    )
    page = CandidatePage.assemble(
        catalog,
        cols,
        [hit for hit in hits if by_id[hit[0]].table.name != query_ref.table.name],
    )
    truth = [s.containment_true for s in evaluation.stats]
    served = candidate_scores_batch(
        page.samples,
        containment_ests=page.containments(query_sketch.distinct_keys()),
        containment_trues=truth,
        rng=np.random.default_rng(5),
        rng_mode="compat",
    )

    def bits(values) -> list:
        return [
            "nan" if v != v else struct.pack("<d", v)
            for v in np.asarray(values, dtype=np.float64).tolist()
        ]

    assert evaluation.candidate_ids == page.ids
    for field in fields(ScoreColumns):
        got = [getattr(s, field.name) for s in evaluation.stats]
        want = getattr(served, field.name)
        assert bits(got) == bits(want), field.name


def test_relative_improvement_table(small_report):
    rel = small_report.relative_improvement(small_report.ndcg_10, baseline="jc")
    assert rel["jc"] == 0.0
    assert rel["rp"] > 0.0


def test_relative_improvement_missing_baseline():
    report_table = {"rp": 0.5}
    from repro.evalharness.ranking_eval import RankingEvalReport

    assert RankingEvalReport().relative_improvement(report_table) == {}


class TestScoreHistogram:
    def test_bucketing(self):
        hist = score_histogram([0.05, 0.05, 0.95, 1.0], bins=10)
        assert len(hist) == 10
        assert hist[0][2] == 2
        assert hist[9][2] == 2  # 1.0 lands in the last bucket

    def test_nan_skipped(self):
        hist = score_histogram([math.nan, 0.5], bins=10)
        assert sum(c for _lo, _hi, c in hist) == 1

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            score_histogram([0.5], bins=0)
