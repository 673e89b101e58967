"""Section 5.5 — end-to-end query-evaluation latency and bootstrap speedup.

Two benchmarks cover the online path:

* ``test_query_evaluation_latency`` reproduces the paper's
  query-evaluation experiment: split the collection's column pairs into
  a corpus set (indexed, sketch size 1024) and a query set; evaluate
  every query through the full engine path — overlap retrieval of the
  top-100 candidates, sketch joins, correlation estimation,
  risk-penalized re-ranking — and report the latency distribution,
  now broken down into the retrieval and re-rank phases.

  The paper reports 94% of queries under 100 ms and ~98.5% under 200 ms
  on their corpus; the expected *shape* here is the same: a large
  majority of queries at interactive latency, with a short tail.

* ``test_bootstrap_rerank_speedup`` measures the ``rb_cib`` scorer — the
  paper's most expensive, most accurate ranking — on a 2048-sketch
  catalog under both bootstrap contracts: ``rng_mode="compat"`` (one
  599-replicate PM1 run per candidate) vs ``rng_mode="batched"`` (the
  cross-candidate engine: shared draws per stopping round, adaptive
  early stopping, chunked tensor arithmetic), asserting the batched
  engine re-ranks ≥5x faster.

Both write their tables into ``benchmarks/results/`` and shrink to a
CI-sized smoke run under ``--quick`` (absolute-performance assertions
are skipped there).
"""

from __future__ import annotations

import numpy as np

from conftest import write_result
from repro.core.sketch import CorrelationSketch
from repro.data.workloads import split_query_workload
from repro.evalharness.ranking_eval import build_catalog
from repro.evalharness.timing import LatencyReport
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine

SKETCH_SIZE = 1024
RETRIEVAL_DEPTH = 100

#: Synthetic catalog scale for the bootstrap-contract comparison.
SPEEDUP_CATALOG_SKETCHES = 2048
SPEEDUP_QUICK_SKETCHES = 160

#: Queries for the bootstrap-contract comparison (each costs hundreds of
#: milliseconds on the compat path — 599 resamples x ~100 candidates) and
#: repetitions per (query, mode): the best-of-N re-rank time filters
#: scheduler/throttling noise out of a sustained-CPU comparison.
BOOTSTRAP_QUERIES = 3
BOOTSTRAP_QUICK_QUERIES = 1
BOOTSTRAP_REPEATS = 3


def _run_queries(nyc_refs, max_queries=None):
    workload = split_query_workload(nyc_refs, query_fraction=0.3, seed=9)
    catalog, _by_id = build_catalog(workload.corpus, SKETCH_SIZE)
    engine = JoinCorrelationEngine(catalog, retrieval_depth=RETRIEVAL_DEPTH)

    total = LatencyReport()
    retrieval = LatencyReport()
    rerank = LatencyReport()
    answered = 0
    queries = workload.queries
    if max_queries is not None:
        queries = queries[:max_queries]
    for query_ref in queries:
        sketch = CorrelationSketch.from_columns(
            *query_ref.table.pair_arrays(query_ref.pair),
            SKETCH_SIZE,
            hasher=catalog.hasher,
            name=query_ref.pair_id,
        )
        result = engine.query(sketch, k=10, scorer="rp_cih")
        total.add(result.total_seconds)
        retrieval.add(result.retrieval_seconds)
        rerank.add(result.rerank_seconds)
        if result.ranked:
            answered += 1
    return total, retrieval, rerank, answered


def test_query_evaluation_latency(benchmark, nyc_refs, quick):
    max_queries = 8 if quick else None
    total, retrieval, rerank, answered = benchmark.pedantic(
        lambda: _run_queries(nyc_refs, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    phase_split = "\n".join(
        [
            "",
            "-- phase split (columnar executor) --",
            "retrieval:",
            retrieval.format(thresholds_ms=(1.0, 10.0)),
            "re-rank:",
            rerank.format(thresholds_ms=(10.0, 50.0)),
        ]
    )
    write_result(
        "query_eval_latency.txt",
        total.format(thresholds_ms=(10.0, 50.0, 100.0, 200.0))
        + f"\nqueries with non-empty results: {answered}"
        + phase_split,
    )
    if quick:
        return
    assert len(total.latencies_seconds) >= 20
    # Interactive-latency claim: the overwhelming majority under 200 ms.
    assert total.fraction_under(200.0) > 0.9
    assert total.fraction_under(100.0) > 0.5


def _build_speedup_catalog(n_sketches: int, seed: int = 1):
    """A catalog of ``n_sketches`` column-pair sketches over one shared
    key universe, so overlap retrieval always finds a full candidate
    page (the paper's serving regime, not the sparse-join edge case)."""
    rng = np.random.default_rng(seed)
    universe = np.array([f"key{i:06d}" for i in range(12_000)])
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
    for i in range(n_sketches):
        m = int(rng.integers(1_200, 2_500))
        idx = rng.choice(universe.shape[0], m, replace=False)
        catalog.add_sketch(
            f"pair{i:05d}",
            CorrelationSketch.from_columns(
                universe[idx], rng.standard_normal(m), SKETCH_SIZE,
                hasher=catalog.hasher, name=f"pair{i:05d}",
            ),
        )
    queries = []
    for q in range(BOOTSTRAP_QUERIES):
        m = int(rng.integers(1_800, 2_500))
        idx = rng.choice(universe.shape[0], m, replace=False)
        queries.append(
            CorrelationSketch.from_columns(
                universe[idx], rng.standard_normal(m), SKETCH_SIZE,
                hasher=catalog.hasher, name=f"query{q}",
            )
        )
    return catalog, queries


def test_bootstrap_rerank_speedup(quick):
    """rb_cib re-rank: per-candidate PM1 (compat) vs the batched engine."""
    n_sketches = SPEEDUP_QUICK_SKETCHES if quick else SPEEDUP_CATALOG_SKETCHES
    n_queries = BOOTSTRAP_QUICK_QUERIES if quick else BOOTSTRAP_QUERIES
    repeats = 1 if quick else BOOTSTRAP_REPEATS
    catalog, queries = _build_speedup_catalog(n_sketches)
    queries = queries[:n_queries]

    compat = JoinCorrelationEngine(
        catalog, retrieval_depth=RETRIEVAL_DEPTH, rng_mode="compat"
    )
    batched = JoinCorrelationEngine(
        catalog, retrieval_depth=RETRIEVAL_DEPTH, rng_mode="batched"
    )

    # Steady-state serving regime: the frozen postings snapshot and the
    # per-sketch columnar views are one-time costs paid at catalog load
    # — prewarm them so the measured phase compares per-query work.
    catalog.frozen_postings()
    for sid in catalog:
        catalog.sketch_columns(sid)
    compat.query(queries[0], k=10, scorer="rb_cib")
    batched.query(queries[0], k=10, scorer="rb_cib")

    rerank = {"compat": 0.0, "batched": 0.0}
    candidates = 0
    for query in queries:
        a = compat.query(query, k=10, scorer="rb_cib")
        b = batched.query(query, k=10, scorer="rb_cib")
        # Both contracts must re-rank the identical candidate page; the
        # rankings themselves are equivalent-but-not-identical on this
        # near-tied synthetic corpus (different rng streams), which the
        # parity suite covers on separated candidates.
        assert a.candidates_considered == b.candidates_considered
        candidates += a.candidates_considered
        for name, engine, first in (("compat", compat, a), ("batched", batched, b)):
            best = first.rerank_seconds
            for _ in range(repeats - 1):
                best = min(
                    best,
                    engine.query(query, k=10, scorer="rb_cib").rerank_seconds,
                )
            rerank[name] += best

    rerank_speedup = rerank["compat"] / rerank["batched"]
    lines = [
        f"catalog sketches        : {len(catalog)}",
        f"sketch size             : {SKETCH_SIZE}",
        f"scorer                  : rb_cib (PM1 bootstrap + CI penalty)",
        f"queries                 : {len(queries)} "
        f"({candidates} candidates re-ranked, best of {repeats} runs each)",
        f"compat   re-rank        : {rerank['compat'] * 1000:9.2f} ms "
        "(per-candidate PM1, 599 replicates each)",
        f"batched  re-rank        : {rerank['batched'] * 1000:9.2f} ms "
        "(cross-candidate engine, adaptive stopping)",
        f"re-rank speedup         : {rerank_speedup:9.2f}x",
        f"compat   ms/candidate   : {rerank['compat'] * 1000 / candidates:9.3f}",
        f"batched  ms/candidate   : {rerank['batched'] * 1000 / candidates:9.3f}",
    ]
    if quick:
        lines.append("(quick mode: CI smoke scale, speedup assertion skipped)")
    write_result("bootstrap_rerank_speedup.txt", "\n".join(lines))

    if quick:
        return
    # Acceptance bar: >=5x rb_cib re-rank throughput at the 2048-sketch scale.
    assert len(catalog) >= 2000
    assert rerank_speedup >= 5.0
