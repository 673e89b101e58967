"""The paper's section 5 as one seeded scorecard.

    python benchmarks/scorecard.py [--quick] [--bench-file PATH]

Every row runs once per seed of :data:`SEEDS` and reports each metric
per seed and as a spread (min, max). The rows:

* ``quality`` — the record's corpus at its ``RECORD`` scale (300 tables,
  100 held-out queries, sketch 256): one depth-100 pool per query served
  through ``QuerySession`` (opened with ``rb_cib``, so every statistic is
  on the page), re-ranked offline by all seven ``SCORER_NAMES``. nDCG@5/10
  and MAP at |r| > .5 / .75 per scorer (Table 1), estimate RMSE over the
  pool, the ``rp_cih`` top-10 and n ≥ 100, Fisher-z 95 % coverage, ĵc
  RMSE against exact containment split by whether exactly one sketch of
  the pair saw all its keys, and Figure 5's per-query histograms. Truth
  comes from ``benchmarks/record/groundtruth.py``; its ``quality_metrics``
  must give the ``rp_cih`` nDCG@10 and top-10 RMSE bit for bit.
* ``figure3`` — estimate vs truth: SBN pairs, the WBF-like corpus
  (``make_wbf_like_collection``) and the record's corpus at n ≥ 3 and
  n ≥ 20. ``figure4`` — RMSE per estimator and sketch size by join-sample
  bucket (< 10, 10–30, 30–100, ≥ 100).
* Ablations and extensions: ``bounds`` (the vacuous share of the true
  Hoeffding interval per sample size, the first size where it informs,
  coverage there), ``sketch_size``, ``hash_width``, ``aggregates``,
  ``joinability`` (§3.3's KMV statistics) and ``statistics`` (mutual
  information).

Wall-clock numbers (Table 2's sketch vs full-join times, the bounds row's
Hoeffding vs PM1 cost, sketch build times) go in a separate ``timed``
block; the ``scorecard`` block is deterministic, so two runs of the same
tree print it identically. Each paper claim is a named check; the script
prints the document as JSON on stdout, a summary on stderr, and exits 1
when a check fails. ``--quick`` runs every row and check at toy scale.
``--bench-file PATH`` also writes the document with the git sha, the
``src/`` and ``tests/`` line counts and the collected tier-1 test count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "record")]

import fixtures  # noqa: E402
import groundtruth  # noqa: E402
from repro.core.estimation import estimate, estimate_statistics  # noqa: E402
from repro.core.joined_sample import join_pair  # noqa: E402
from repro.core.sketch import CorrelationSketch  # noqa: E402
from repro.core.statistics import sample_mutual_information  # noqa: E402
from repro.correlation import pearson, spearman  # noqa: E402
from repro.correlation.bootstrap import pm1_interval  # noqa: E402
from repro.correlation.estimators import (  # noqa: E402
    ESTIMATORS,
    get_estimator,
    population_reference,
)
from repro.correlation.fisher import fisher_interval  # noqa: E402
from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals  # noqa: E402
from repro.correlation.pearson import page_moments  # noqa: E402
from repro.core.aggregators import AGGREGATORS  # noqa: E402
from repro.data.keygen import random_string_keys, zipf_multiplicities  # noqa: E402
from repro.data.opendata import make_wbf_like_collection  # noqa: E402
from repro.data.sbn import generate_sbn_collection, generate_sbn_pair  # noqa: E402
from repro.data.workloads import PairRef, sample_combinations  # noqa: E402
from repro.hashing import KeyHasher  # noqa: E402
from repro.index.catalog import SketchCatalog  # noqa: E402
from repro.index.options import QueryOptions  # noqa: E402
from repro.ranking.metrics import average_precision, ndcg_at  # noqa: E402
from repro.ranking.ranker import rank_candidates  # noqa: E402
from repro.ranking.scoring import SCORER_NAMES, ScoreColumns  # noqa: E402
from repro.serving.session import QuerySession  # noqa: E402
from repro.table.join import jaccard_containment, join_columns, join_tables  # noqa: E402

#: Every row runs once per seed; the first is the record's own seed.
SEEDS = (42, 7, 1)

CORRELATION_SCORERS = ("rp", "rp_sez", "rb_cib", "rp_cih")
BASELINE_SCORERS = ("jc", "jc_est", "random")
TABLE1_PANELS = ("map75", "map50", "ndcg5", "ndcg10")
FIGURE4_BUCKETS = ((3, 10), (10, 30), (30, 100), (100, None))
FIGURE4_SKETCH_SIZES = (64, 256, 1024)
ESTIMATOR_NAMES = tuple(sorted(ESTIMATORS))


@dataclass(frozen=True)
class Size:
    """The workload sizes of one scale; ``min_*`` are the fewest pairs a
    row's statistics may rest on."""

    name: str
    corpus: fixtures.Scale
    sbn_pairs: int
    sbn_max_rows: int
    combos: int
    figure4_combos: int
    min_sbn: int
    min_wbf: int
    min_nyc: int
    min_nyc20: int
    min_queries: int
    min_joinability: int
    timing_pairs: int
    timing_max_rows: int
    bounds_sizes: tuple[int, ...]
    bounds_trials: int
    sweep_pairs: int
    sweep_rows: int
    hash_pairs: int
    hash_rows: int
    collision_keys: int
    aggregate_keys: int
    mi_rows: int


RECORD = Size(
    "record", fixtures.RECORD, sbn_pairs=120, sbn_max_rows=20_000,
    combos=250, figure4_combos=150, min_sbn=50, min_wbf=30, min_nyc=50,
    min_nyc20=20, min_queries=10, min_joinability=60, timing_pairs=60,
    timing_max_rows=120_000, bounds_sizes=(256, 1024, 4096, 16_384),
    bounds_trials=200, sweep_pairs=40, sweep_rows=20_000, hash_pairs=15,
    hash_rows=30_000, collision_keys=300_000, aggregate_keys=4000,
    mi_rows=30_000,
)
QUICK = Size(
    "quick", replace(fixtures.SMOKE, corpus_tables=80, query_tables=24, quality_ops=30),
    sbn_pairs=30, sbn_max_rows=5000, combos=80, figure4_combos=40,
    min_sbn=15, min_wbf=10, min_nyc=15, min_nyc20=5, min_queries=10,
    min_joinability=20, timing_pairs=12, timing_max_rows=30_000,
    bounds_sizes=(256, 1024, 4096, 16_384), bounds_trials=30, sweep_pairs=12,
    sweep_rows=8000, hash_pairs=6, hash_rows=10_000, collision_keys=300_000,
    aggregate_keys=2000, mi_rows=10_000,
)


class Card:
    """Rows (per seed, deterministic or timed) and the named checks."""

    def __init__(self) -> None:
        self.rows: dict[str, dict] = {}
        self.timed: dict[str, dict] = {}
        self.checks: list[dict] = []
        self.timed_checks: list[dict] = []

    def row(self, name: str, seed: int, metrics: dict, *, timed: bool = False) -> None:
        (self.timed if timed else self.rows).setdefault(name, {})[str(seed)] = metrics

    def check(
        self, row: str, seed: int, claim: str, ok: bool, value, *, timed: bool = False
    ) -> None:
        (self.timed_checks if timed else self.checks).append(
            {"row": row, "seed": seed, "claim": claim, "ok": bool(ok), "value": value}
        )

    def document(self, size: Size) -> dict:
        def block(rows, checks):
            return {
                "rows": {
                    name: {"per_seed": per_seed, "spread": _spread(per_seed)}
                    for name, per_seed in rows.items()
                },
                "checks": checks,
                "failed": sum(not c["ok"] for c in checks),
            }

        untimed = {"seeds": list(SEEDS), "scale": size.name}
        untimed.update(block(self.rows, self.checks))
        return {"scorecard": untimed, "timed": block(self.timed, self.timed_checks)}


def _leaves(metrics: dict, prefix: str = ""):
    for key, value in metrics.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix + key, value


def _spread(per_seed: dict) -> dict:
    """``{metric: [min, max]}`` over the seeds, NaN-free values only."""
    values: dict[str, list] = {}
    for metrics in per_seed.values():
        for key, value in _leaves(metrics):
            if value is not None and math.isfinite(value):
                values.setdefault(key, []).append(value)
    return {key: [min(v), max(v)] for key, v in values.items()}


def _rmse(errors) -> float:
    errors = np.asarray(errors, dtype=np.float64)
    return float(np.sqrt(np.mean(np.square(errors)))) if errors.size else math.nan


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _sketch(ref: PairRef, size: int) -> CorrelationSketch:
    return CorrelationSketch.from_columns(
        ref.table.categorical(ref.pair.key).values,
        ref.table.numeric(ref.pair.value).values,
        size,
    )


def _sbn_arrays(pair):
    return (
        pair.table_x.categorical("k").values, pair.table_x.numeric("x").values,
        pair.table_y.categorical("k").values, pair.table_y.numeric("y").values,
    )


# -- the record corpus --------------------------------------------------------


@dataclass
class Corpus:
    """One seed's record corpus: tables, the served catalog, the held-out
    query pairs and the exact-truth oracle."""

    seed: int
    tables: list
    refs: list[PairRef]
    catalog: SketchCatalog
    queries: list
    oracle: groundtruth.TruthOracle

    def keys(self, pair_id: str) -> list:
        name, key, _ = groundtruth.split_pair_id(pair_id)
        return self.by_name[name].categorical(key).values

    def __post_init__(self) -> None:
        self.by_name = {t.name: t for t in self.tables}


def record_corpus(seed: int, scale: fixtures.Scale) -> Corpus:
    """The tables, catalog and query pairs ``point_query`` builds."""
    tables = fixtures.shaped_tables(seed, scale.corpus_tables + scale.query_tables)
    corpus, held_out = tables[: scale.corpus_tables], tables[scale.corpus_tables:]
    refs = [PairRef(t, pair) for t in corpus for pair in t.column_pairs()]
    queries = fixtures.query_refs(held_out, scale.quality_ops)
    return Corpus(
        seed, tables, refs, fixtures.build_catalog(corpus), queries,
        groundtruth.TruthOracle(tables),
    )


# -- quality, Table 1 and Figure 5 ---------------------------------------------


def quality_row(card: Card, corpus: Corpus, size: Size) -> None:
    seed = corpus.seed
    query_catalog = SketchCatalog(sketch_size=fixtures.SKETCH_SIZE)
    query_ids = [query_catalog.add_column_pair(t, pair) for t, pair in corpus.queries]
    options = QueryOptions(k=fixtures.DEPTH, depth=fixtures.DEPTH, scorer="rb_cib")
    per_query = {s: {panel: [] for panel in TABLE1_PANELS} for s in SCORER_NAMES}
    pool_err, top_err, big_err, bias, fisher = [], [], [], [], []
    jc_err = {"one_side_exact": [], "rest": []}
    small_n = pool_size = 0
    records = []
    with QuerySession.for_catalog(corpus.catalog, options) as session:
        for q, qid in enumerate(query_ids):
            query = query_catalog.get(qid)
            pool = session.submit_one(query).ranked
            ids = [c.candidate_id for c in pool]
            truth = corpus.oracle.correlations(qid, ids)
            query_keys = corpus.keys(qid)
            columns = {
                name: np.array([getattr(c.stats, name) for c in pool])
                for name in ScoreColumns.__dataclass_fields__
            }
            columns["containment_true"] = np.array(
                [jaccard_containment(query_keys, corpus.keys(cid)) for cid in ids]
            )
            stats = ScoreColumns(**columns)
            gain = {cid: 0.0 if math.isnan(r) else abs(r) for cid, r in truth.items()}
            for scorer in SCORER_NAMES:
                ranked = rank_candidates(
                    ids, stats, scorer, rng=np.random.default_rng([seed, q])
                )
                order = [c.candidate_id for c in ranked]
                if scorer == "rp_cih":
                    top = [(c.candidate_id, c.stats.r_pearson) for c in ranked[: fixtures.K]]
                    records.append({"query": qid, "top": top, "pool": ids})
                    for cid, r in top:
                        if not (math.isnan(r) or math.isnan(truth[cid])):
                            top_err.append(r - truth[cid])
                            bias.append(abs(r) - abs(truth[cid]))
                if not any(g > 0 for g in gain.values()):
                    continue
                gains = [gain[cid] for cid in order]
                metrics = per_query[scorer]
                metrics["ndcg5"].append(ndcg_at(gains, 5))
                metrics["ndcg10"].append(ndcg_at(gains, 10))
                for panel, threshold in (("map75", 0.75), ("map50", 0.5)):
                    flags = [g > threshold for g in gains]
                    if any(flags):
                        metrics[panel].append(average_precision(flags))
            cand_exact = [corpus.catalog.get(cid).saw_all_keys for cid in ids]
            for c, exact, jc_true in zip(pool, cand_exact, columns["containment_true"]):
                stratum = "one_side_exact" if exact != query.saw_all_keys else "rest"
                jc_err[stratum].append(c.stats.containment_est - jc_true)
                pool_size += 1
                small_n += c.stats.sample_size < 10
                r, t, n = c.stats.r_pearson, truth[c.candidate_id], c.stats.sample_size
                if math.isnan(r) or math.isnan(t):
                    continue
                pool_err.append(r - t)
                if n >= 100:
                    big_err.append(r - t)
                if n > 3:
                    ci = fisher_interval(r, n, 0.05)
                    fisher.append(ci.low <= t <= ci.high)

    table1 = {
        panel: {s: _mean(per_query[s][panel]) for s in SCORER_NAMES}
        for panel in TABLE1_PANELS
    }
    record = groundtruth.quality_metrics(corpus.oracle, records, k=fixtures.K)
    metrics = {
        "queries": len(query_ids),
        "ndcg_queries": len(per_query["rp"]["ndcg10"]),
        "ndcg_at_10": table1["ndcg10"],
        "map": {"r>.75": table1["map75"], "r>.50": table1["map50"]},
        "estimate_rmse": {
            "whole_pool": _rmse(pool_err),
            "top10_rp_cih": _rmse(top_err),
            "n>=100": _rmse(big_err),
        },
        "top10_mean_abs_est_minus_abs_true": _mean(bias),
        "fisher_z_coverage_95": _mean(fisher),
        "jc_est_rmse": {k: _rmse(v) for k, v in jc_err.items()},
        "jc_est_pairs": {k: len(v) for k, v in jc_err.items()},
        "pool_share_n_below_10": small_n / max(1, pool_size),
        "record_quality_metrics": {
            k: record[k] for k in ("ndcg_at_10", "estimate_rmse", "crosscheck_mismatches")
        },
    }
    card.row("quality", seed, metrics)
    card.row("table1", seed, table1)
    card.check(
        "quality", seed, "rp_cih nDCG@10 and top-10 RMSE equal groundtruth.quality_metrics",
        record["ndcg_at_10"] == table1["ndcg10"]["rp_cih"]
        and record["estimate_rmse"] == metrics["estimate_rmse"]["top10_rp_cih"],
        [record["ndcg_at_10"], record["estimate_rmse"]],
    )
    card.check(
        "quality", seed, "vectorised truth agrees with join_tables",
        record["crosscheck_mismatches"] == 0, record["crosscheck_mismatches"],
    )
    card.check(
        "table1", seed, f"queries evaluated >= {size.min_queries}",
        metrics["ndcg_queries"] >= size.min_queries, metrics["ndcg_queries"],
    )
    for panel, scores in table1.items():
        worst = min(scores[s] for s in CORRELATION_SCORERS)
        best = max(scores[s] for s in BASELINE_SCORERS)
        card.check(
            "table1", seed, f"{panel}: every correlation scorer > every baseline",
            worst > best, [worst, best],
        )
    figure5 = {}
    for scorer in ("jc", "rp_cih"):
        figure5[scorer] = {
            panel: np.histogram(np.clip(v, 0.0, 1.0), bins=10, range=(0.0, 1.0))[0].tolist()
            for panel, v in per_query[scorer].items()
        }
    for panel in TABLE1_PANELS:
        card.check(
            "figure5", seed, f"{panel}: rp_cih mass right of jc",
            table1[panel]["rp_cih"] > table1[panel]["jc"],
            [table1[panel]["rp_cih"], table1[panel]["jc"]],
        )
    top_share = _mean([v >= 0.7 for v in per_query["rp_cih"]["ndcg10"]])
    figure5["rp_cih_share_ndcg10_at_least_0.7"] = top_share
    card.row("figure5", seed, figure5)
    card.check("figure5", seed, "rp_cih nDCG@10 >= 0.7 on > 50 % of queries",
               top_share > 0.5, top_share)


# -- Figure 3 and Figure 4 ------------------------------------------------------


def _accuracy(records: list[tuple[float, float, int]]) -> dict:
    """Figure 3's summary of ``(estimate, truth, n)`` records."""
    errors = [e - t for e, t, _ in records]
    return {
        "count": len(records),
        "rmse": _rmse(errors),
        "mean_abs_error": _mean(np.abs(errors)),
        "max_abs_error": float(np.max(np.abs(errors))) if errors else math.nan,
        "overestimates_at_zero": sum(abs(t) < 0.1 and abs(e) > 0.5 for e, t, _ in records),
    }


def _estimate_vs_truth(left, right, truth_join, *, min_sample: int = 3):
    sample = join_pair(left, right).samples[0]
    if sample.size < min_sample:
        return None
    clean = truth_join.drop_nan()
    est = pearson(sample.x, sample.y)
    truth = pearson(clean.x, clean.y) if clean.size >= 2 else math.nan
    if math.isnan(est) or math.isnan(truth):
        return None
    return est, truth, sample.size


def figure3_row(card: Card, corpus: Corpus, size: Size) -> None:
    seed, sketch = corpus.seed, fixtures.SKETCH_SIZE
    panels: dict[str, list] = {"sbn": [], "wbf": [], "nyc": []}
    for pair in generate_sbn_collection(
        pairs=size.sbn_pairs, max_rows=size.sbn_max_rows, seed=seed, min_rows=64
    ):
        lk, lv, rk, rv = _sbn_arrays(pair)
        rec = _estimate_vs_truth(
            CorrelationSketch.from_columns(lk, lv, sketch),
            CorrelationSketch.from_columns(rk, rv, sketch),
            join_columns(lk, lv, rk, rv),
        )
        panels["sbn"].append(rec)
    wbf = make_wbf_like_collection(
        n_tables=64, seed=seed, key_universe=800, key_fraction_range=(0.03, 0.8)
    )
    wbf_refs = [PairRef(t, pair) for t in wbf.tables for pair in t.column_pairs()]
    for left, right in sample_combinations(wbf_refs, size.combos, seed=seed):
        panels["wbf"].append(_estimate_vs_truth(
            _sketch(left, sketch), _sketch(right, sketch),
            join_tables(left.table, left.pair, right.table, right.pair),
        ))
    for left, right in sample_combinations(corpus.refs, size.combos, seed=seed):
        panels["nyc"].append(_estimate_vs_truth(
            corpus.catalog.get(left.pair_id), corpus.catalog.get(right.pair_id),
            join_tables(left.table, left.pair, right.table, right.pair),
        ))
    records = {name: [r for r in recs if r is not None] for name, recs in panels.items()}
    records["nyc_n>=20"] = [r for r in records["nyc"] if r[2] >= 20]
    summary = {name: _accuracy(recs) for name, recs in records.items()}
    card.row("figure3", seed, summary)
    for name, least, bound in (
        ("sbn", size.min_sbn, 0.3), ("wbf", size.min_wbf, 0.6), ("nyc", size.min_nyc, 0.6)
    ):
        s = summary[name]
        card.check("figure3", seed, f"{name}: >= {least} pairs", s["count"] >= least, s["count"])
        card.check("figure3", seed, f"{name}: RMSE < {bound}", s["rmse"] < bound, s["rmse"])
    s20 = summary["nyc_n>=20"]
    card.check("figure3", seed, f"nyc n>=20: >= {size.min_nyc20} pairs",
               s20["count"] >= size.min_nyc20, s20["count"])
    card.check("figure3", seed, "nyc: RMSE at n>=20 < RMSE at n>=3",
               s20["rmse"] < summary["nyc"]["rmse"], [s20["rmse"], summary["nyc"]["rmse"]])


def _bucket(n: int) -> str:
    for low, high in FIGURE4_BUCKETS:
        if n >= low and (high is None or n < high):
            return f"{low}-{high}" if high else f">={low}"
    return "<3"


def figure4_row(card: Card, corpus: Corpus, size: Size) -> None:
    seed = corpus.seed
    #: ``(sample size, estimate − truth)`` per sketch size and estimator.
    records = {(k, name): [] for k in FIGURE4_SKETCH_SIZES for name in ESTIMATOR_NAMES}
    combos = sample_combinations(corpus.refs, size.figure4_combos, seed=seed + 1)
    for left, right in combos:
        clean = join_tables(left.table, left.pair, right.table, right.pair).drop_nan()
        if clean.size < 3:
            continue
        truths = {name: population_reference(name)(clean.x, clean.y) for name in ESTIMATOR_NAMES}
        for k in FIGURE4_SKETCH_SIZES:
            a, b = _sketch(left, k), _sketch(right, k)
            if a.saw_all_keys and b.saw_all_keys:
                # The "estimate" would be the exact full-join value.
                continue
            sample = join_pair(a, b).samples[0]
            if sample.size < 3:
                continue
            for name in ESTIMATOR_NAMES:
                est = get_estimator(name)(sample.x, sample.y)
                if not (math.isnan(est) or math.isnan(truths[name])):
                    records[(k, name)].append((sample.size, est - truths[name]))

    def buckets(recs):
        out = {}
        for n, error in recs:
            out.setdefault(_bucket(n), []).append(error)
        return {b: {"count": len(v), "rmse": _rmse(v)} for b, v in sorted(out.items())}

    rows = {
        f"k={k}": {
            name: {"overall": _rmse([e for _, e in records[(k, name)]]),
                   **buckets(records[(k, name)])}
            for name in ESTIMATOR_NAMES
        }
        for k in FIGURE4_SKETCH_SIZES
    }
    card.row("figure4", seed, rows)
    # Both regimes are required where the figure has them. A 1024-sketch
    # of these tables rarely joins on fewer than 30 keys (0-2 samples a
    # seed; none in the legacy benchmark's run), so k=1024 has no shape
    # check, only the convergence one.
    small_buckets, large_buckets = ("3-10", "10-30"), ("30-100", ">=100")
    for k in (64, 256):
        pearson_row = rows[f"k={k}"]["pearson"]
        small = [pearson_row[b]["rmse"] for b in small_buckets if b in pearson_row]
        large = [pearson_row[b]["rmse"] for b in large_buckets if b in pearson_row]
        card.check("figure4", seed, f"k={k}: pearson RMSE falls from n<30 to n>=30",
                   bool(small and large) and _mean(large) < _mean(small),
                   [_mean(small), _mean(large)])
    for name in ESTIMATOR_NAMES:
        big = [e for n, e in records[(1024, name)] if n >= 89]
        # NaN (no sample at n >= 89) fails the check.
        card.check("figure4", seed, f"k=1024 {name}: RMSE at n>=89 < 0.25",
                   _rmse(big) < 0.25, [_rmse(big), len(big)])
    qn, rp = rows["k=256"]["qn"]["overall"], rows["k=256"]["pearson"]["overall"]
    card.check("figure4", seed, "k=256: qn RMSE >= 0.8 x pearson RMSE", qn >= 0.8 * rp, [qn, rp])


# -- Table 2 (timed) ---------------------------------------------------------------


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def table2_row(card: Card, seed: int, size: Size) -> None:
    rng = np.random.default_rng([seed, 2])
    columns = ("full_join", "full_pearson", "full_spearman",
               "sketch_join", "sketch_pearson", "sketch_spearman")
    times = {c: [] for c in columns}
    sizes = np.exp(rng.uniform(np.log(500), np.log(size.timing_max_rows), size.timing_pairs))
    for i, rows in enumerate(sizes.astype(int)):
        lk, lv, rk, rv = _sbn_arrays(generate_sbn_pair(
            rng, rows=int(rows), correlation=float(rng.uniform(-1, 1)),
            join_fraction=float(rng.uniform(0.2, 1.0)), pair_id=i,
        ))
        join, t = _timed(lambda: join_columns(lk, lv, rk, rv).drop_nan())
        times["full_join"].append(t)
        times["full_pearson"].append(_timed(lambda: pearson(join.x, join.y))[1])
        times["full_spearman"].append(_timed(lambda: spearman(join.x, join.y))[1])
        left = CorrelationSketch.from_columns(lk, lv, 1024)
        right = CorrelationSketch.from_columns(rk, rv, 1024)
        sample, t = _timed(lambda: join_pair(left, right).samples[0])
        times["sketch_join"].append(t)
        times["sketch_pearson"].append(_timed(lambda: pearson(sample.x, sample.y))[1])
        times["sketch_spearman"].append(_timed(lambda: spearman(sample.x, sample.y))[1])
    ms = {c: np.asarray(v) * 1e3 for c, v in times.items()}
    summary = {
        "mean": {c: float(v.mean()) for c, v in ms.items()},
        "std": {c: float(v.std(ddof=1)) for c, v in ms.items()},
        **{f"p{p:g}": {c: float(np.percentile(v, p)) for c, v in ms.items()}
           for p in (75, 90, 99, 99.9)},
    }
    summary["full_over_sketch_join"] = {
        stat: summary[stat]["full_join"] / summary[stat]["sketch_join"]
        for stat in ("mean", "p99")
    }
    card.row("table2", seed, summary, timed=True)
    ratio = summary["full_over_sketch_join"]
    card.check("table2", seed, "full join > 10 x sketch join (mean)", ratio["mean"] > 10,
               ratio["mean"], timed=True)
    card.check("table2", seed, "full join > 20 x sketch join (p99)", ratio["p99"] > 20,
               ratio["p99"], timed=True)
    card.check("table2", seed, "sketch join std < full join std",
               summary["std"]["sketch_join"] < summary["std"]["full_join"],
               [summary["std"]["sketch_join"], summary["std"]["full_join"]], timed=True)
    card.check("table2", seed, "sketch spearman p99 < full spearman p99",
               summary["p99"]["sketch_spearman"] < summary["p99"]["full_spearman"],
               [summary["p99"]["sketch_spearman"], summary["p99"]["full_spearman"]],
               timed=True)


# -- ablations and extensions ------------------------------------------------------


def bounds_row(card: Card, seed: int, size: Size) -> None:
    """The §4.3 intervals on repeated draws from a bounded population
    with known ρ, at growing sample sizes: the true Hoeffding interval is
    the vacuous [-1, 1] until n is in the thousands, so its coverage is
    checked at the first size where no draw is vacuous."""
    rng = np.random.default_rng([seed, 3])
    n_pop = 4 * max(size.bounds_sizes)
    latent = rng.uniform(0, 1, n_pop)
    x = 0.7 * latent + 0.3 * rng.uniform(0, 1, n_pop)
    y = 0.7 * latent + 0.3 * rng.uniform(0, 1, n_pop)
    true_r = pearson(x, y)
    c_low = np.array([min(x.min(), y.min())])
    c_high = np.array([max(x.max(), y.max())])
    per_n = {}
    for n in size.bounds_sizes:
        indptr = np.array([0, n])
        stats = {m: {"covered": [], "width": []} for m in ("hoeffding", "hfd", "fisher")}
        vacuous = []
        for _ in range(size.bounds_trials):
            idx = rng.choice(n_pop, size=n, replace=False)
            moments = page_moments(x[idx], y[idx], indptr)
            h_low, h_high = (v[0] for v in hoeffding_intervals(moments, c_low, c_high))
            d_low, d_high = (v[0] for v in hfd_intervals(moments, c_low, c_high))
            ci = fisher_interval(float(moments.pearson()[0]), n)
            vacuous.append(h_low <= -1.0 and h_high >= 1.0)
            for m, (low, high) in (
                ("hoeffding", (h_low, h_high)), ("hfd", (d_low, d_high)),
                ("fisher", (ci.low, ci.high)),
            ):
                stats[m]["covered"].append(low <= true_r <= high)
                stats[m]["width"].append(high - low)
        per_n[str(n)] = {
            "hoeffding_vacuous_share": _mean(vacuous),
            **{
                m: {"coverage": _mean(s["covered"]), "mean_width": _mean(s["width"])}
                for m, s in stats.items()
            },
        }
    informative = [n for n in size.bounds_sizes if per_n[str(n)]["hoeffding_vacuous_share"] == 0]
    first = informative[0] if informative else None
    card.row("bounds", seed, {"true_r": true_r, "first_informative_n": first, "by_n": per_n})
    card.check("bounds", seed, "the true Hoeffding interval informs at some n",
               first is not None, first)
    for n, s in per_n.items():
        card.check("bounds", seed, f"n={n}: Fisher z coverage >= 0.85",
                   s["fisher"]["coverage"] >= 0.85, s["fisher"]["coverage"])
    if first is not None:
        s = per_n[str(first)]
        card.check("bounds", seed, f"n={first}: Hoeffding coverage >= 0.95",
                   s["hoeffding"]["coverage"] >= 0.95, s["hoeffding"]["coverage"])
        card.check("bounds", seed, f"n={first}: Hoeffding width >= Fisher width",
                   s["hoeffding"]["mean_width"] >= s["fisher"]["mean_width"],
                   [s["hoeffding"]["mean_width"], s["fisher"]["mean_width"]])
    # Cost at the smallest size: the closed form against the bootstrap,
    # interleaved per draw with the other two methods as a query mixes
    # them.
    n = size.bounds_sizes[0]
    indptr = np.array([0, n])
    cost = {"hoeffding": [], "pm1": []}
    for trial in range(60):
        idx = rng.choice(n_pop, size=n, replace=False)
        sx, sy = x[idx], y[idx]
        _, t = _timed(lambda: hoeffding_intervals(page_moments(sx, sy, indptr), c_low, c_high))
        cost["hoeffding"].append(t)
        fisher_interval(pearson(sx, sy), n)
        _, t = _timed(lambda: pm1_interval(sx, sy, rng=np.random.default_rng(trial)))
        cost["pm1"].append(t)
        hfd_intervals(page_moments(sx, sy, indptr), c_low, c_high)
    us = {m: _mean(v) * 1e6 for m, v in cost.items()}
    card.row("bounds", seed, {"n": n, "mean_us": us}, timed=True)
    card.check("bounds", seed, "Hoeffding costs < 1/20 of PM1",
               us["hoeffding"] * 20 < us["pm1"], [us["hoeffding"], us["pm1"]], timed=True)


def _sbn_pairs(rng, count: int, rows: int):
    """``count`` SBN pairs with their full-join Pearson truth."""
    out = []
    for i in range(count):
        lk, lv, rk, rv = _sbn_arrays(generate_sbn_pair(
            rng, rows=rows,
            correlation=float(rng.uniform(-1, 1)),
            join_fraction=float(rng.uniform(0.3, 1.0)), pair_id=i,
        ))
        join = join_columns(lk, lv, rk, rv)
        out.append((lk, lv, rk, rv, pearson(join.x, join.y)))
    return out


def sketch_size_row(card: Card, seed: int, size: Size) -> None:
    rng = np.random.default_rng([seed, 4])
    pairs = _sbn_pairs(rng, size.sweep_pairs, size.sweep_rows)
    rows = []
    for n in (16, 32, 64, 128, 256, 512, 1024):
        joins, errors = [], []
        for lk, lv, rk, rv, truth in pairs:
            sample = join_pair(
                CorrelationSketch.from_columns(lk, lv, n),
                CorrelationSketch.from_columns(rk, rv, n),
            ).samples[0]
            joins.append(sample.size)
            est = pearson(sample.x, sample.y)
            if not (math.isnan(est) or math.isnan(truth)):
                errors.append(est - truth)
        rows.append({"n": n, "mean_join": _mean(joins), "rmse": _rmse(errors),
                     "pairs": len(errors)})
    card.row("sketch_size", seed, {str(r["n"]): r for r in rows})
    joins = [r["mean_join"] for r in rows]
    card.check("sketch_size", seed, "mean join sample grows with n", joins == sorted(joins), joins)
    card.check("sketch_size", seed, "RMSE at n=1024 < RMSE at n=16",
               rows[-1]["rmse"] < rows[0]["rmse"], [rows[-1]["rmse"], rows[0]["rmse"]])
    card.check("sketch_size", seed, "RMSE at n=1024 < 0.15", rows[-1]["rmse"] < 0.15,
               rows[-1]["rmse"])


def hash_width_row(card: Card, seed: int, size: Size) -> None:
    rng = np.random.default_rng([seed, 5])
    errors = {32: [], 64: []}
    build_s = {32: [], 64: []}
    for i in range(size.hash_pairs):
        keys = [f"pair{i}-key{j}" for j in range(size.hash_rows)]
        rho = float(rng.uniform(-0.95, 0.95))
        x = rng.standard_normal(size.hash_rows)
        y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(size.hash_rows)
        truth = pearson(x, y)
        for bits in (32, 64):
            hasher = KeyHasher(bits=bits, seed=i)
            (left, right), t = _timed(lambda: (
                CorrelationSketch.from_columns(keys, x, 256, hasher=hasher),
                CorrelationSketch.from_columns(keys, y, 256, hasher=hasher),
            ))
            build_s[bits].append(t)
            sample = join_pair(left, right).samples[0]
            est = pearson(sample.x, sample.y)
            if not math.isnan(est):
                errors[bits].append(est - truth)
    probe = [f"probe-{j}" for j in range(size.collision_keys)]
    collisions = {
        bits: size.collision_keys - len(np.unique(KeyHasher(bits=bits).hash_batch(probe)))
        for bits in (32, 64)
    }
    rmse = {bits: _rmse(e) for bits, e in errors.items()}
    card.row("hash_width", seed, {
        "rmse": {str(b): v for b, v in rmse.items()},
        f"collisions_in_{size.collision_keys}_keys": {str(b): v for b, v in collisions.items()},
    })
    card.row("hash_width", seed, {"build_ms_mean": {str(b): _mean(v) * 1e3
                                                    for b, v in build_s.items()}}, timed=True)
    card.check("hash_width", seed, "|RMSE(32) - RMSE(64)| < 0.05",
               abs(rmse[32] - rmse[64]) < 0.05, [rmse[32], rmse[64]])
    card.check("hash_width", seed, "no 64-bit collision", collisions[64] == 0, collisions[64])
    card.check("hash_width", seed, "32-bit collisions < 100 (birthday bound ~10)",
               collisions[32] < 100, collisions[32])


def aggregates_row(card: Card, seed: int, size: Size) -> None:
    """§3.1's repeated keys: the sketch tracks the aggregate-specific
    truth, and the aggregate changes that truth."""
    rng = np.random.default_rng([seed, 6])
    keys = random_string_keys(size.aggregate_keys, rng)
    latent = rng.standard_normal(size.aggregate_keys)

    def expand(loading):
        mult = zipf_multiplicities(size.aggregate_keys, rng, max_repeat=8)
        rows = np.repeat(np.arange(size.aggregate_keys), mult)
        noise = rng.standard_normal(rows.size)
        values = loading * latent[rows] + math.sqrt(1 - loading**2) * noise
        return [keys[r] for r in rows], values

    (lk, lv), (rk, rv) = expand(0.9), expand(0.9)
    rows = {}
    for agg in sorted(AGGREGATORS):
        join = join_columns(lk, lv, rk, rv, aggregate=agg).drop_nan()
        sample = join_pair(
            CorrelationSketch.from_columns(lk, lv, 256, aggregate=agg),
            CorrelationSketch.from_columns(rk, rv, 256, aggregate=agg),
        ).samples[0]
        rows[agg] = {"truth": pearson(join.x, join.y), "estimate": pearson(sample.x, sample.y),
                     "sample": sample.size}
    card.row("aggregates", seed, rows)
    for agg, r in rows.items():
        if not math.isnan(r["truth"]):
            card.check("aggregates", seed, f"{agg}: |estimate - truth| < 0.15",
                       abs(r["estimate"] - r["truth"]) < 0.15, [r["estimate"], r["truth"]])
    card.check("aggregates", seed, "mean: |truth| > 0.5",
               abs(rows["mean"]["truth"]) > 0.5, rows["mean"]["truth"])
    card.check("aggregates", seed, "count: |truth| < 0.4",
               abs(rows["count"]["truth"]) < 0.4, rows["count"]["truth"])


def joinability_row(card: Card, corpus: Corpus, size: Size) -> None:
    """§3.3's KMV statistics of the served sketches against exact values."""
    seed = corpus.seed
    card_err, join_err, jc_err = [], [], []
    combos = sample_combinations(corpus.refs, size.combos // 2, seed=seed + 2)
    for left, right in combos:
        a, b = corpus.catalog.get(left.pair_id), corpus.catalog.get(right.pair_id)
        left_keys = corpus.keys(left.pair_id)
        true_keys = {k for k in left_keys if k is not None}
        card_err.append(abs(a.distinct_keys() - len(true_keys)) / max(1, len(true_keys)))
        result = estimate(a, b)
        true_join = join_tables(left.table, left.pair, right.table, right.pair).size
        if true_join > 0:
            join_err.append(abs(result.join_size_est - true_join) / true_join)
        jc_err.append(abs(result.containment_est
                          - jaccard_containment(left_keys, corpus.keys(right.pair_id))))
    stats = {
        "pairs": len(combos),
        "cardinality_mean_rel_err": _mean(card_err),
        "join_size_mean_rel_err": _mean(join_err),
        "join_size_p90_rel_err": float(np.percentile(join_err, 90)),
        "containment_mean_abs_err": _mean(jc_err),
        "containment_p90_abs_err": float(np.percentile(jc_err, 90)),
    }
    card.row("joinability", seed, stats)
    card.check("joinability", seed, f">= {size.min_joinability} pairs",
               stats["pairs"] >= size.min_joinability, stats["pairs"])
    for key, bound in (("cardinality_mean_rel_err", 0.15), ("join_size_mean_rel_err", 0.35),
                       ("containment_mean_abs_err", 0.15)):
        card.check("joinability", seed, f"{key} < {bound}", stats[key] < bound, stats[key])


def statistics_row(card: Card, seed: int, size: Size) -> None:
    """§3.3's "any sample statistic": mutual information from the sketch
    join tracks the full data and finds a non-linear dependence."""
    rng = np.random.default_rng([seed, 7])
    rows = size.mi_rows
    keys = [f"k{i}" for i in range(rows)]
    sweep = {}
    for rho in (0.0, 0.3, 0.6, 0.9):
        x = rng.standard_normal(rows)
        y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(rows)
        stats = estimate_statistics(
            CorrelationSketch.from_columns(keys, x, 1024),
            CorrelationSketch.from_columns(keys, y, 1024), bins=8,
        )
        sweep[f"rho={rho}"] = {"full_mi": sample_mutual_information(x, y, bins=8),
                                "sketch_mi": stats.mutual_information}
    q = rng.standard_normal(rows)
    query = CorrelationSketch.from_columns(keys, q, 1024)
    discovery = {}
    for name, values in (
        ("quadratic", q * q + 0.1 * rng.standard_normal(rows)),
        ("weak_linear", 0.3 * q + 0.95 * rng.standard_normal(rows)),
        ("noise", rng.standard_normal(rows)),
    ):
        s = estimate_statistics(query, CorrelationSketch.from_columns(keys, values, 1024), bins=8)
        discovery[name] = {"abs_pearson": abs(s.pearson), "mi": s.mutual_information}
    card.row("statistics", seed, {"mi_sweep": sweep, "discovery": discovery})
    mis = [r["sketch_mi"] for r in sweep.values()]
    card.check("statistics", seed, "sketch MI grows with rho", mis == sorted(mis), mis)
    for name, r in list(sweep.items())[1:]:
        card.check("statistics", seed, f"{name}: 0.3 full MI < sketch MI < 3 full MI + 0.1",
                   0.3 * r["full_mi"] < r["sketch_mi"] < 3.0 * r["full_mi"] + 0.1,
                   [r["sketch_mi"], r["full_mi"]])
    d = discovery
    card.check("statistics", seed, "quadratic |pearson| < weak linear + 0.1",
               d["quadratic"]["abs_pearson"] < d["weak_linear"]["abs_pearson"] + 0.1,
               [d["quadratic"]["abs_pearson"], d["weak_linear"]["abs_pearson"]])
    for other in ("weak_linear", "noise"):
        card.check("statistics", seed, f"quadratic MI > 2 x {other} MI",
                   d["quadratic"]["mi"] > 2 * d[other]["mi"],
                   [d["quadratic"]["mi"], d[other]["mi"]])


# -- driver ----------------------------------------------------------------------------


def run(size: Size) -> dict:
    card = Card()
    for seed in SEEDS:
        print(f"seed {seed}: record corpus", file=sys.stderr)
        corpus = record_corpus(seed, size.corpus)
        for row in (quality_row, figure3_row, figure4_row, joinability_row):
            print(f"seed {seed}: {row.__name__}", file=sys.stderr)
            row(card, corpus, size)
        for row in (table2_row, bounds_row, sketch_size_row, hash_width_row,
                    aggregates_row, statistics_row):
            print(f"seed {seed}: {row.__name__}", file=sys.stderr)
            row(card, seed, size)
    return card.document(size)


def _strict(value):
    """The document as strict JSON: NaN and the infinities become null."""
    if isinstance(value, dict):
        return {str(k): _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _lines(root: str) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / root).rglob("*.py"))


def _tier1_collected() -> int:
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "tests"],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    return sum(1 for line in out.splitlines() if "::" in line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="toy scale, every check")
    parser.add_argument("--bench-file", type=Path, help="also write the document here, "
                        "with the git sha, line counts and tier-1 test count")
    args = parser.parse_args(argv)
    document = _strict(run(QUICK if args.quick else RECORD))
    for block in ("scorecard", "timed"):
        for c in document[block]["checks"]:
            if not c["ok"]:
                print(f"FAILED {block} {c['row']} seed {c['seed']}: {c['claim']} "
                      f"({c['value']})", file=sys.stderr)
        print(f"{block}: {len(document[block]['checks']) - document[block]['failed']}/"
              f"{len(document[block]['checks'])} checks hold", file=sys.stderr)
    text = json.dumps(document, indent=1, sort_keys=True, allow_nan=False)
    print(text)
    if args.bench_file is not None:
        # A tree with uncommitted changes reads "<sha>-dirty".
        sha = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, capture_output=True, text=True).stdout.strip()
        bench = {
            **document,
            "git_sha": sha,
            "lines": {"src": _lines("src"), "tests": _lines("tests")},
            "tier1_tests_collected": _tier1_collected(),
        }
        args.bench_file.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 1 if document["scorecard"]["failed"] or document["timed"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
