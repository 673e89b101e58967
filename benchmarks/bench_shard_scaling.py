"""Sharded serving: single-query latency vs shard count.

The sharding tentpole's acceptance benchmark, at the 4096-sketch scale
the catalog-io bench established: **single-query p50 latency** across
shard counts {1, 2, 4} — the scatter-gather merge must not tax latency
relative to the monolithic engine (per-shard probes shrink as shards
multiply; the merge is a ``heapq`` pass over ≤ depth·shards pairs).
Every shard count must rank the probe queries identically (the router
is bit-identical to the monolithic engine) before any timing is
trusted. Results land in ``benchmarks/results/shard_scaling.txt``;
``--quick`` shrinks to a CI smoke (256 sketches).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from conftest import write_result
from memprof import fmt_bytes, peak_rss_bytes
from repro.core.sketch import CorrelationSketch
from repro.serving import ShardRouter, ShardedCatalog

CATALOG_SKETCHES = 4096
QUICK_SKETCHES = 256
SKETCH_SIZE = 256
ROWS_PER_SKETCH = 600
KEY_UNIVERSE = 20_000
N_QUERIES = 64
QUICK_QUERIES = 8
LATENCY_PROBES = 12
SHARD_COUNTS = (1, 2, 4)
DEPTH = 100


def _build(n_sketches: int, n_shards: int, seed: int = 3):
    """The bench corpus, hash-partitioned across ``n_shards`` shards."""
    rng = np.random.default_rng(seed)
    catalog = ShardedCatalog(n_shards, sketch_size=SKETCH_SIZE)
    batch = []
    for i in range(n_sketches):
        keys = rng.choice(KEY_UNIVERSE, ROWS_PER_SKETCH, replace=False)
        sid = f"pair{i:05d}"
        batch.append(
            (
                sid,
                CorrelationSketch.from_columns(
                    keys,
                    rng.standard_normal(ROWS_PER_SKETCH),
                    SKETCH_SIZE,
                    hasher=catalog.hasher,
                    name=sid,
                ),
            )
        )
    catalog.add_sketches(batch)
    return catalog


def _queries(catalog, n_queries: int, seed: int = 17):
    rng = np.random.default_rng(seed)
    out = []
    for j in range(n_queries):
        keys = rng.choice(KEY_UNIVERSE, 2 * ROWS_PER_SKETCH, replace=False)
        out.append(
            CorrelationSketch.from_columns(
                keys,
                rng.standard_normal(keys.shape[0]),
                SKETCH_SIZE,
                hasher=catalog.hasher,
                name=f"query{j}",
            )
        )
    return out


def _ranking_key(results):
    return [[(e.candidate_id, e.score) for e in r.ranked] for r in results]


def test_shard_scaling(quick):
    n_sketches = QUICK_SKETCHES if quick else CATALOG_SKETCHES
    n_queries = QUICK_QUERIES if quick else N_QUERIES

    lines = [
        f"sketches                  : {n_sketches} "
        f"(size {SKETCH_SIZE}, {ROWS_PER_SKETCH} rows each)",
        f"queries                   : {n_queries} (retrieval depth {DEPTH})",
    ]

    # -- p50 latency vs shard count (sequential scatter) -------------------
    latency_queries = None
    rankings = []
    for n_shards in SHARD_COUNTS:
        catalog = _build(n_sketches, n_shards)
        if latency_queries is None:
            latency_queries = _queries(catalog, n_queries)
        router = ShardRouter(catalog, retrieval_depth=DEPTH)
        router.query(latency_queries[0], k=10)  # warm postings everywhere
        samples = []
        results = []
        for query in latency_queries[:LATENCY_PROBES]:
            t0 = time.perf_counter()
            results.append(router.query(query, k=10))
            samples.append((time.perf_counter() - t0) * 1000)
        rankings.append(_ranking_key(results))
        p50 = statistics.median(samples)
        lines.append(
            f"p50 latency, {n_shards} shard(s)   : {p50:9.2f} ms "
            "(sequential scatter-gather)"
        )
    # Exact-parity sanity: the shard count never changes an answer.
    assert all(ranking == rankings[0] for ranking in rankings)

    lines.append(f"router peak RSS           : {fmt_bytes(peak_rss_bytes())}")
    if quick:
        lines.append("(quick mode: CI smoke scale)")
    write_result("shard_scaling.txt", "\n".join(lines))
