"""Ranking digest of the benchmark's ``batch_bootstrap`` operations.

Not a test file. The batched PM1 kernel is held to "same draws, same
replicate counts, estimates within float32 reassociation noise", so a
change to it must leave every served top-10 list where it was while the
bootstrap columns may move in their sixth digit. This tool makes both
readable across two checkouts:

* ``PYTHONPATH=<checkout>/src python tests/bootstrap_ranking_digest.py
  SEED OUT.json`` builds the seed-``SEED`` ``batch_bootstrap`` fixture of
  ``benchmarks/record/fixtures.py`` (300-table corpus, 200 held-out
  queries in batches of 2), replays the operations through
  ``QuerySession.submit`` under ``rb_cib``, prints one SHA-256 over all
  top-10 id lists and writes the lists with their ``score`` /
  ``r_bootstrap`` / ``cib_factor`` columns to ``OUT.json``. Two checkouts
  that print the same line rank identically.
* ``python tests/bootstrap_ranking_digest.py --compare A.json B.json``
  lists every query whose top-10 ids differ (both sides' ids and scores)
  and prints the largest absolute difference per column over the rest.

The fixture code is read from this checkout's ``benchmarks/record``; the
program under test is whatever ``PYTHONPATH`` points at.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

COLUMNS = ("score", "r_bootstrap", "cib_factor")


def replay(seed: int) -> list[dict]:
    """One record per query of the seed's operations, in op order."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks/record"))
    import fixtures
    import wl_query
    from repro.index.catalog import SketchCatalog
    from repro.index.options import QueryOptions
    from repro.serving.session import QuerySession

    with tempfile.TemporaryDirectory() as work:
        spec, _ = wl_query.prepare(
            "batch_bootstrap", seed, fixtures.RUN_SECONDS, fixtures.RECORD,
            Path(work), False,
        )
        queries = SketchCatalog.load(spec["queries"])
        sketches = [queries.get(sid) for sid in spec["query_ids"]]
        options = QueryOptions(k=fixtures.K, depth=fixtures.DEPTH, scorer=spec["scorer"])
        records = []
        with QuerySession.open(spec["arena"], options) as session:
            for i in range(0, len(sketches), spec["batch"]):
                results = session.submit(sketches[i : i + spec["batch"]])
                for query_id, result in zip(spec["query_ids"][i:], results):
                    ranked = result.ranked
                    records.append(
                        {
                            "query": query_id,
                            "ids": [e.candidate_id for e in ranked],
                            "score": [e.score for e in ranked],
                            "r_bootstrap": [e.stats.r_bootstrap for e in ranked],
                            "cib_factor": [e.stats.cib_factor for e in ranked],
                        }
                    )
    return records


def ids_digest(records: list[dict]) -> str:
    lists = [[record["query"], record["ids"]] for record in records]
    return hashlib.sha256(json.dumps(lists).encode()).hexdigest()


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        records_a, records_b = json.load(a), json.load(b)
    if [r["query"] for r in records_a] != [r["query"] for r in records_b]:
        print("the two files hold different queries")
        return 2
    differing = 0
    largest = dict.fromkeys(COLUMNS, 0.0)
    for ra, rb in zip(records_a, records_b):
        if ra["ids"] != rb["ids"]:
            differing += 1
            print(f"{ra['query']}: top-10 ids differ")
            for side, record in ((path_a, ra), (path_b, rb)):
                print(f"  {side}: {list(zip(record['ids'], record['score']))}")
            continue
        for name in COLUMNS:
            for va, vb in zip(ra[name], rb[name]):
                if va != va and vb != vb:  # NaN on both sides is agreement
                    continue
                delta = abs(va - vb)
                largest[name] = max(largest[name], delta if delta == delta else math.inf)
    print(f"{len(records_a)} queries, {differing} with different top-10 ids")
    for name, value in largest.items():
        print(f"max |delta {name}| over identical lists: {value:.3e}")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__)
        return 2
    records = replay(int(argv[0]))
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    print(f"seed {argv[0]}: {len(records)} queries, top-10 sha256 {ids_digest(records)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
