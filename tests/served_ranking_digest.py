"""Ranking digest of the benchmark's ``http_serve`` queries, router against
monolithic engine.

Not a test file. ``http_serve``'s own check compares each response with
the in-process *router*, so it cannot see a router that stopped agreeing
with the monolithic engine; and a change to the router must leave every
served list where it was. This tool makes both readable, within one
checkout and across two:

* ``PYTHONPATH=<checkout>/src python tests/served_ranking_digest.py SEED
  OUT.json`` builds the seed-``SEED`` ``http_serve`` fixture of
  ``benchmarks/record/fixtures.py`` (300-table corpus over 4 arena
  shards, 100 held-out request bodies), answers every request through
  ``ShardRouter`` over the shard directory and through
  ``JoinCorrelationEngine`` over the monolithic catalog — all seven
  ``SCORER_NAMES`` under both rng modes — prints one SHA-256 per side
  over every ranked entry (id, score, statistics) and writes the entries
  to ``OUT.json``. The two lines must be equal; two checkouts that print
  the same lines serve identically. Exit status 1 when the sides differ.
* ``python tests/served_ranking_digest.py --compare A.json B.json`` lists
  every (side, scorer, rng mode, query) whose ids differ and the largest
  score movement over the rest.
* ``python tests/served_ranking_digest.py --selfcheck`` runs the router
  against the engine at the benchmark's smoke scale (seconds; the CI
  step).

The fixture code is read from this checkout's ``benchmarks/record``; the
program under test is whatever ``PYTHONPATH`` points at.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

SIDES = ("router", "monolithic")


def replay(seed: int, scale_name: str = "record") -> dict[str, list]:
    """Per side, one ``[scorer, rng mode, query, ranked entries]`` record
    per (scorer, rng mode, request), in a fixed order."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks/record"))
    import fixtures
    from repro.index.engine import JoinCorrelationEngine
    from repro.index.options import QueryOptions
    from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
    from repro.serving.router import ShardRouter
    from repro.serving.session import QuerySession
    from repro.serving.shards import ShardedCatalog

    scale = fixtures.SCALES[scale_name]
    tables = fixtures.shaped_tables(seed, scale.corpus_tables + scale.query_tables)
    corpus, held_out = tables[: scale.corpus_tables], tables[scale.corpus_tables:]
    catalog = fixtures.build_catalog(corpus)
    light = [t for t in held_out if not fixtures.repeats_keys(t)]
    requests = [
        json.loads(fixtures.request_body(table, pair))
        for table, pair in fixtures.query_refs(light, scale.http_ops)
    ]
    records: dict[str, list] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as work:
        fixtures.write_sharded(catalog, scale.http_shards, Path(work))
        # The served path's own sketching of the request columns.
        with QuerySession.open(Path(work), QueryOptions(depth=fixtures.DEPTH)) as session:
            sketches = [
                session.query_sketch(r["keys"], r["values"], name=r["name"])
                for r in requests
            ]
        for rng_mode in RNG_MODES:
            sharded = ShardedCatalog.load(Path(work))
            backends = {
                "router": ShardRouter(
                    sharded, retrieval_depth=fixtures.DEPTH, rng_mode=rng_mode
                ),
                "monolithic": JoinCorrelationEngine(
                    catalog, retrieval_depth=fixtures.DEPTH, rng_mode=rng_mode
                ),
            }
            for scorer in SCORER_NAMES:
                for side, backend in backends.items():
                    # One query per call, as the service submits them.
                    records[side].extend(
                        [scorer, rng_mode, request["name"],
                         [entry.to_dict() for entry in backend.query(
                             sketch, k=fixtures.K, scorer=scorer
                         ).ranked]]
                        for request, sketch in zip(requests, sketches)
                    )
    return records


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def report(label: str, records: dict[str, list]) -> int:
    hashes = {side: digest(records[side]) for side in SIDES}
    for side in SIDES:
        print(f"{label}: {len(records[side])} lists, {side:<10} sha256 {hashes[side]}")
    if hashes["router"] != hashes["monolithic"]:
        print("router and monolithic engine DIFFER")
        return 1
    return 0


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        records_a, records_b = json.load(a), json.load(b)
    differing, largest, lists = 0, 0.0, 0
    for side in SIDES:
        if [r[:3] for r in records_a[side]] != [r[:3] for r in records_b[side]]:
            print(f"{side}: the two files hold different queries")
            return 2
        for ra, rb in zip(records_a[side], records_b[side]):
            lists += 1
            ids_a = [entry["candidate_id"] for entry in ra[3]]
            ids_b = [entry["candidate_id"] for entry in rb[3]]
            if ids_a != ids_b:
                differing += 1
                print(f"{side} {ra[0]} {ra[1]} {ra[2]}: ids differ\n  {ids_a}\n  {ids_b}")
                continue
            for ea, eb in zip(ra[3], rb[3]):
                # NaN travels as null and the infinities as strings.
                if isinstance(ea["score"], float) and isinstance(eb["score"], float):
                    largest = max(largest, abs(ea["score"] - eb["score"]))
    print(f"{lists} lists, {differing} with different ids")
    print(f"max |delta score| over identical lists: {largest:.3e}")
    same = all(records_a[side] == records_b[side] for side in SIDES)
    print("entries (ids, scores, statistics): " + ("identical" if same else "DIFFER"))
    return 0 if same else 1


def main(argv: list[str]) -> int:
    if argv == ["--selfcheck"]:
        return report("smoke scale, seed 42", replay(42, "smoke"))
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__)
        return 2
    records = replay(int(argv[0]))
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return report(f"seed {argv[0]}", records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
