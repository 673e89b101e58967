"""A miniature dataset search engine over a synthetic open-data portal.

Demonstrates the production deployment pattern the paper targets:

1. **offline**: generate an NYC-Open-Data-shaped collection, sketch every
   ⟨key, numeric⟩ column pair, persist the catalog to disk;
2. **online**: load the catalog, answer top-k join-correlation queries
   with different scoring functions, and report per-query latency;
3. **verification**: for the top hit of each query, compute the true
   after-join correlation on the full data to show the estimates are
   trustworthy.

Run with:  python examples/dataset_search_engine.py

With ``--http``, step 2 serves the catalog through the long-lived HTTP
query service instead of in-process calls: queries go over the wire as
JSON ``POST /query`` requests against a coalescing
:class:`repro.serving.QueryService`, and responses are bit-identical to
the in-process path (the example asserts it on the estimates shown).
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
import urllib.request
from pathlib import Path

from repro import JoinCorrelationEngine, SketchCatalog
from repro.correlation import pearson
from repro.data.opendata import make_nyc_like_collection
from repro.data.workloads import collection_column_pairs, split_query_workload
from repro.table.join import join_tables, true_correlation

SKETCH_SIZE = 512


def _query_http(service_url: str, query_ref, k: int, scorer: str) -> dict:
    """One ranked query over the wire: the service sketches the posted
    raw columns exactly like the in-process path does."""
    keys, values = query_ref.table.pair_arrays(query_ref.pair)
    request = urllib.request.Request(
        service_url + "/query",
        data=json.dumps(
            {
                "keys": keys.tolist(),
                "values": values.tolist(),
                "k": k,
                "scorer": scorer,
            }
        ).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--http",
        action="store_true",
        help="serve queries through the HTTP query service instead of "
        "in-process engine calls (same results, over the wire)",
    )
    args = parser.parse_args()

    print("generating a synthetic open-data portal (60 tables)...")
    collection = make_nyc_like_collection(
        n_tables=60, seed=3, key_universe=1200, key_fraction_range=(0.1, 0.9)
    )
    refs = collection_column_pairs(collection)
    workload = split_query_workload(refs, query_fraction=0.2, max_queries=5, seed=1)
    by_id = {r.pair_id: r for r in refs}

    with tempfile.TemporaryDirectory() as tmp:
        catalog_path = Path(tmp) / "catalog.json"

        # ---- offline indexing --------------------------------------------
        t0 = time.perf_counter()
        catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
        for ref in workload.corpus:
            catalog.add_column_pair(ref.table, ref.pair)
        catalog.save(catalog_path)
        t1 = time.perf_counter()
        size_kb = catalog_path.stat().st_size / 1024
        print(
            f"  indexed {len(catalog)} column pairs in {t1 - t0:.2f}s; "
            f"catalog file: {size_kb:,.0f} KiB"
        )

        # ---- online serving ----------------------------------------------
        served = SketchCatalog.load(catalog_path)
        engine = JoinCorrelationEngine(served, retrieval_depth=100)

        service = None
        if args.http:
            from repro.serving import QueryService, QuerySession

            service = QueryService(
                QuerySession.open(catalog_path)
            ).start()
            print(f"  query service listening on {service.url}")

        from repro.core.sketch import CorrelationSketch

        try:
            for query_ref in workload.queries:
                query_sketch = CorrelationSketch.from_columns(
                    *query_ref.table.pair_arrays(query_ref.pair),
                    SKETCH_SIZE,
                    hasher=served.hasher,
                )

                print(f"\nquery: {query_ref.pair_id}")
                for scorer in ("rp", "rp_cih"):
                    t0 = time.perf_counter()
                    result = engine.query(query_sketch, k=3, scorer=scorer)
                    if service is not None:
                        body = _query_http(service.url, query_ref, 3, scorer)
                        wire_ms = (time.perf_counter() - t0) * 1000
                        # The wire answer IS the in-process answer.
                        assert [e["candidate_id"] for e in body["ranked"]] == [
                            e.candidate_id for e in result.ranked
                        ]
                        assert [e["score"] for e in body["ranked"]] == [
                            e.score for e in result.ranked
                        ]
                        latency = f"{wire_ms:6.1f} ms over HTTP"
                    else:
                        latency = f"{result.total_seconds * 1000:6.1f} ms"
                    print(
                        f"  scorer {scorer:<7} "
                        f"({latency}, "
                        f"{result.candidates_considered} candidates):"
                    )
                    for entry in result.ranked:
                        truth_str = ""
                        cand_ref = by_id.get(entry.candidate_id)
                        if cand_ref is not None:
                            join = join_tables(
                                query_ref.table, query_ref.pair,
                                cand_ref.table, cand_ref.pair,
                            )
                            truth = true_correlation(join, pearson)
                            truth_str = f"  true r = {truth:+.3f}"
                        print(
                            f"    {entry.candidate_id:<42} "
                            f"est r = {entry.stats.r_pearson:+.3f} "
                            f"(n = {entry.stats.sample_size}){truth_str}"
                        )
        finally:
            if service is not None:
                service.stop()
                print("\nquery service drained and stopped")


if __name__ == "__main__":
    main()
