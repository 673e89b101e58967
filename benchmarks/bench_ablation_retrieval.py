"""Ablation — candidate retrieval: exact ScanCount vs MinHash-LSH.

Section 4 lists the set-overlap search methods that can serve the
candidate-retrieval phase. This ablation compares the two implemented
backends on the NYC-like corpus:

* **exact inverted index** (ScanCount): scans every posting list of the
  query's key hashes — exact overlaps, cost grows with postings;
* **MinHash-LSH** (``retrieval_backend="lsh"``): probes ``b`` buckets —
  cost independent of posting lengths, but recall < 1 for low-overlap
  candidates.

The LSH index is the catalog-managed one (vectorized batch build) and —
matching the serving deployment — is round-tripped through a binary
``.arena`` snapshot before being probed, so the reported numbers cover the
persisted index a cold-started server would use. Reported per query:
retrieval latency, recall@10 and recall@25 of the LSH hits against the
exact top-k by overlap, and recall restricted to ≥50%-overlap
candidates (the joinable ones that matter). Results land in
``benchmarks/results/ablation_retrieval.txt``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_result
from repro.evalharness.ranking_eval import build_catalog
from repro.index.catalog import SketchCatalog

TOP_K = 25
RECALL_KS = (10, 25)
BANDS = 32
ROWS = 2


def _snapshot_round_trip(catalog, tmp_dir) -> SketchCatalog:
    """Persist catalog + LSH index to an arena and reload (the serving path)."""
    catalog.lsh_index(bands=BANDS, rows=ROWS)
    path = tmp_dir / "ablation_catalog.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    assert loaded.lsh_params == (BANDS, ROWS)  # came back warm
    return loaded

def _run(nyc_refs, tmp_dir) -> dict:
    catalog, _by_id = build_catalog(nyc_refs, sketch_size=256)
    serving = _snapshot_round_trip(catalog, tmp_dir)
    lsh = serving.lsh_index(bands=BANDS, rows=ROWS)
    frozen = serving.frozen_postings()

    rng = np.random.default_rng(1)
    query_ids = list(serving)
    rng.shuffle(query_ids)
    query_ids = query_ids[:60]

    exact_times, lsh_times = [], []
    recalls = {k: [] for k in RECALL_KS}
    for qid in query_ids:
        hashes = serving.sketch_columns(qid).key_hashes

        t0 = time.perf_counter()
        exact = frozen.top_overlap(hashes, TOP_K, exclude=qid)
        t1 = time.perf_counter()
        approx = lsh.top_candidates(hashes, TOP_K, exclude=qid)
        t2 = time.perf_counter()

        exact_times.append(t1 - t0)
        lsh_times.append(t2 - t1)
        got = {sid for sid, _ in approx}
        for k in RECALL_KS:
            exact_set = {sid for sid, _ in exact[:k]}
            if exact_set:
                recalls[k].append(len(exact_set & got) / len(exact_set))

    return {
        "queries": len(query_ids),
        "exact_mean_ms": float(np.mean(exact_times)) * 1000,
        "lsh_mean_ms": float(np.mean(lsh_times)) * 1000,
        "recall": {
            k: {
                "mean": float(np.mean(v)),
                "min": float(np.min(v)),
            }
            for k, v in recalls.items()
        },
        "high_overlap_recall": None,  # filled below
    }


def _high_overlap_recall(nyc_refs) -> float:
    """Recall restricted to candidates sharing >= 50% of the query's
    retained keys — the joinable candidates that actually matter."""
    catalog, _by_id = build_catalog(nyc_refs, sketch_size=256)
    lsh = catalog.lsh_index(bands=BANDS, rows=ROWS)

    hits = 0
    total = 0
    for qid in list(catalog)[:60]:
        hashes = catalog.get(qid).key_hashes()
        if not hashes:
            continue
        exact = catalog.index.top_overlap(hashes, 100, exclude=qid)
        strong = {sid for sid, ov in exact if ov >= 0.5 * len(hashes)}
        if not strong:
            continue
        got = set(lsh.candidates(hashes, exclude=qid))
        hits += len(strong & got)
        total += len(strong)
    return hits / total if total else float("nan")


def test_ablation_retrieval_methods(benchmark, nyc_refs, tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("ablation_retrieval")
    stats = benchmark.pedantic(
        lambda: {
            **_run(nyc_refs, tmp_dir),
            "high_overlap_recall": _high_overlap_recall(nyc_refs),
        },
        rounds=1,
        iterations=1,
    )
    lines = [
        f"queries              : {stats['queries']}",
        f"banding              : {BANDS} bands x {ROWS} rows "
        "(catalog-managed, arena snapshot round trip)",
        f"exact retrieval mean : {stats['exact_mean_ms']:.3f} ms",
        f"LSH retrieval mean   : {stats['lsh_mean_ms']:.3f} ms",
    ]
    for k in RECALL_KS:
        r = stats["recall"][k]
        lines.append(
            f"LSH recall@{k:<2} (mean)  : {r['mean']:.3f}  (min {r['min']:.3f})"
        )
    lines.append(
        f"recall on >=50%-overlap candidates: {stats['high_overlap_recall']:.3f}"
    )
    write_result("ablation_retrieval.txt", "\n".join(lines))

    # High-overlap candidates — the ones join-correlation queries need —
    # must be found nearly always.
    assert stats["high_overlap_recall"] > 0.9
    # Overall recall includes marginal-overlap candidates and may dip,
    # but must stay useful.
    assert stats["recall"][10]["mean"] > 0.5
    assert stats["recall"][25]["mean"] > 0.5
