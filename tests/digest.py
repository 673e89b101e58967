"""One digest harness: the paper's constructs, bit for bit, across checkouts.

Not a test file; ``tests/README.md`` (*Digest harness*) describes what
each layer reads. A layer prints SHA-256 lines that two checkouts print
alike when they agree bit for bit. The seeded layers slice one corpus
from this checkout's ``benchmarks/record/fixtures.py`` (imported
read-only) and the program is whatever ``PYTHONPATH`` points at, so run
the harness from the change's ``tests/`` for both sides::

    PYTHONPATH=<checkout>/src python tests/digest.py {page|bootstrap|served} SEED OUT.json
    PYTHONPATH=<checkout>/src python tests/digest.py sketch DIR [OUT.json]
    python tests/digest.py --compare A.json B.json
    PYTHONPATH=src python tests/digest.py --selfcheck

``--compare`` reads the layer from the files (the layers alone import the
program) and names every differing item and field. ``--selfcheck`` (CI)
holds smoke-scale pages to ``candidate_page_oracle.py`` and the router to
the monolithic engine. Each exits 1 on a difference, as ``served`` does.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

BITS = (32, 64)
SIDES = ("router", "monolithic")
#: Fields ``--compare`` reports the movement of without counting it.
TOLERATED = {"bootstrap": ("score", "r_bootstrap", "cib_factor")}
_SLOT_DTYPES = dict(_count=np.int64, _total=np.float64, _seen=np.bool_,
                    _best=np.float64, _value=np.float64)


def _feed(digest, *parts) -> None:
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
        digest.update(b"\x00")


def array_hash(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape and bytes: a dtype change is a change."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def json_sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def sketch_state(sketch) -> dict:
    """Everything ``sketch`` holds, in canonical (key-hash) order.

    Scalars come back as Python values, per-tuple state as arrays;
    ``slot:<name>`` entries are absent for a rehydrated sketch (which
    keeps values only). The pre-columnar ``_bottom`` heap layout reads
    the same, so older checkouts digest unchanged.
    """
    columns = sketch.columnar()
    state = {
        "n": sketch.n,
        "aggregate": sketch.aggregate,
        "name": sketch.name,
        "scheme": tuple(sketch.hasher.scheme_id),
        "rows_seen": int(sketch.rows_seen),
        "overflowed": not sketch.saw_all_keys,
        "value_min": float(sketch.value_min),
        "value_max": float(sketch.value_max),
        "key_hashes": np.asarray(columns.key_hashes, dtype=np.uint64),
        "ranks": np.asarray(columns.ranks, dtype=np.float64),
        "values": np.asarray(columns.values, dtype=np.float64),
    }
    heap = getattr(sketch, "_bottom", None)
    if heap is not None:  # the object layout: one Aggregator per key
        aggs = [agg for _, _, agg in sorted(heap.items(), key=lambda e: e[1])]
        slot_names = type(aggs[0]).__slots__ if aggs else ()
        slots = {
            slot: np.array([getattr(a, slot) for a in aggs], dtype=_SLOT_DTYPES[slot])
            for slot in slot_names
        }
    else:
        slots = sketch._state.slots if sketch._state is not None else {}
    for slot, column in slots.items():
        state[f"slot:{slot}"] = column
    return state


def assert_states_equal(got: dict, expected: dict) -> None:
    """Field-by-field equality of two :func:`sketch_state` readings:
    same fields, same dtypes, same values (NaN equal to NaN)."""
    assert got.keys() == expected.keys(), (sorted(got), sorted(expected))
    for field, want in expected.items():
        have = got[field]
        if isinstance(want, np.ndarray):
            assert have.dtype == want.dtype, (field, have.dtype, want.dtype)
            np.testing.assert_array_equal(have, want, err_msg=field)
        elif isinstance(want, float):
            assert type(have) is float, (field, have)
            assert have == want or (have != have and want != want), (field, have, want)
        else:
            assert have == want, (field, have, want)


def feed_sketch(digest, sketch) -> None:
    for field, value in sorted(sketch_state(sketch).items()):
        _feed(digest, field, value)


def feed_postings(digest, postings) -> None:
    _feed(digest, postings.vocab, postings.indptr, postings.doc_ids,
          list(postings.docs), postings.doc_lengths)


def sketch_layer(directory: str):
    from repro.index.catalog import SketchCatalog
    from repro.table.csv_io import read_csv

    digest = hashlib.sha256()
    catalog = SketchCatalog(sketch_size=256)
    paths = sorted(Path(directory).glob("*.csv"))
    per_table = []
    for step, path in enumerate(paths):
        table = read_csv(path)
        _feed(digest, path.name, len(table))
        for name in table.column_names:
            column = table.column(name)
            numeric = column.type.name == "NUMERIC"
            _feed(digest, name, column.type.name)
            _feed(digest, column.values if numeric else list(column.values))
        ids = catalog.add_table(table)
        per_table.append(ids)
        for sid in ids:
            feed_sketch(digest, catalog.get(sid))
        # The scripted churn: promote after the first third, then every
        # table removes the table six back (delta erase or tombstone,
        # whichever layer it is in) and every eighth step compacts.
        if step == len(paths) // 3:
            feed_postings(digest, catalog.frozen_postings())
        if step >= 6:
            catalog.remove_sketches(per_table[step - 6])
        if step % 8 == 7 or step == len(paths) - 1:
            if catalog.delta_size:
                feed_postings(digest, catalog._delta_postings())
            catalog.compact()
            feed_postings(digest, catalog._frozen_postings)
    _feed(digest, catalog.index_version, sorted(catalog))
    return [digest.hexdigest()], 0, [["ingest", {"sha256": digest.hexdigest()}]]


def corpus(seed: int, scale_name: str):
    """The seed's ``shaped_tables``, as ``(fixtures, scale, corpus, held-out)``."""
    record = str(Path(__file__).resolve().parents[1] / "benchmarks/record")
    if record not in sys.path:
        sys.path.insert(0, record)
    import fixtures

    scale = fixtures.SCALES[scale_name]
    tables = fixtures.shaped_tables(seed, scale.corpus_tables + scale.query_tables)
    return fixtures, scale, tables[: scale.corpus_tables], tables[scale.corpus_tables:]


def pages(seed: int, scale_name: str):
    """Yield ``(bits, qid, catalog, query cols, hits, page, LSH hits)`` per query."""
    from repro.hashing import KeyHasher
    from repro.index.catalog import SketchCatalog
    from repro.index.engine import CandidatePage, retrieve_candidates

    fixtures, scale, tables, held_out = corpus(seed, scale_name)
    refs = fixtures.query_refs(held_out, scale.point_ops)
    for bits in BITS:
        hasher = KeyHasher(bits=bits)
        catalog = SketchCatalog(sketch_size=fixtures.SKETCH_SIZE, hasher=hasher)
        catalog.add_tables(tables)
        queries = SketchCatalog(sketch_size=fixtures.SKETCH_SIZE, hasher=hasher)
        for table, pair in refs:
            qid = queries.add_column_pair(table, pair)
            cols = queries.sketch_columns(qid)
            hits = retrieve_candidates(catalog, cols, depth=fixtures.DEPTH)
            lsh_hits = retrieve_candidates(
                catalog, cols, depth=fixtures.DEPTH, backend="lsh")
            page = CandidatePage.assemble(catalog, cols, hits)
            yield bits, qid, catalog, cols, hits, page, lsh_hits


def page_arrays(page, lsh_hits) -> dict[str, np.ndarray]:
    sample_arrays = ("key_hashes", "x", "y", "indptr", "x_ranges", "y_ranges")
    return {  # in this order: the line hashes the JSON of the hashes
        "ids": np.asarray(page.ids, dtype=str),
        "overlaps": page.overlaps,
        **{f"samples.{name}": getattr(page.samples, name) for name in sample_arrays},
        **{name: getattr(page, name) for name in ("k_len", "kth", "k_inter", "exact")},
        "lsh_hits": np.asarray([f"{sid}:{n}" for sid, n in lsh_hits], dtype=str),
    }


def page_layer(seed: int):
    records = [
        [bits, qid, {name: array_hash(a) for name, a in page_arrays(page, lsh).items()}]
        for bits, qid, _, _, _, page, lsh in pages(seed, "record")
    ]
    line = f"seed {seed}: {len(records)} pages, sha256 {json_sha(records)}"
    return [line], 0, [[f"{bits}-bit {qid}", arrays] for bits, qid, arrays in records]


def page_selfcheck() -> int:
    """Every smoke-scale page against the per-candidate oracle."""
    import candidate_page_oracle as oracle

    checked, wrong = 0, []
    for bits, qid, catalog, cols, hits, page, lsh_hits in pages(42, "smoke"):

        def members(sid):
            in_query, _ = oracle.candidate_membership(cols, catalog.sketch_columns(sid))
            return int(in_query.sum())

        checked += len(hits)
        for i, (sid, overlap) in enumerate(hits):
            c_cols = catalog.sketch_columns(sid)
            got, want = page.samples[i], oracle.join(cols, c_cols)
            stats = oracle.union_stats(cols, c_cols)
            if not (
                page.ids[i] == sid
                and int(page.overlaps[i]) == overlap == members(sid)
                and all(getattr(got, name).tobytes() == getattr(want, name).tobytes()
                        for name in ("key_hashes", "x", "y"))
                and (int(page.k_len[i]), float(page.kth[i]),
                     int(page.k_inter[i]), bool(page.exact[i]))
                == (stats.k_len, stats.kth, stats.k_inter, stats.exact)
            ):
                wrong.append(f"{bits}-bit {qid} / {sid}")
        # The LSH backend counts its overlaps with the same probe.
        wrong.extend(f"{bits}-bit {qid} / {sid} (LSH overlap)"
                     for sid, overlap in lsh_hits if overlap != members(sid))
    for line in wrong:
        print(f"kernel != oracle: {line}")
    print(f"smoke scale, seed 42, {'/'.join(map(str, BITS))}-bit: {checked} "
          f"candidates, {len(wrong)} differing from the oracle")
    return 1 if wrong else 0


def bootstrap_layer(seed: int):
    from repro.index.catalog import SketchCatalog
    from repro.index.options import QueryOptions
    from repro.serving.session import QuerySession

    fixtures, scale, tables, held_out = corpus(seed, "record")
    batch = scale.batch_size
    refs = fixtures.query_refs(held_out, scale.batch_ops * batch)
    options = QueryOptions(k=fixtures.K, depth=fixtures.DEPTH, scorer="rb_cib")
    items = []
    with tempfile.TemporaryDirectory() as work:
        arena, queries_path = Path(work) / "corpus.arena", Path(work) / "queries.arena"
        fixtures.build_catalog(tables).save(arena)
        query_ids = fixtures.write_query_catalog(refs, queries_path)
        queries = SketchCatalog.load(queries_path)
        sketches = [queries.get(sid) for sid in query_ids]
        with QuerySession.open(arena, options) as session:
            for i in range(0, len(sketches), batch):
                results = session.submit(sketches[i : i + batch])
                for query_id, result in zip(query_ids[i:], results):
                    ranked = result.ranked
                    items.append([query_id, {
                        "ids": [e.candidate_id for e in ranked],
                        "score": [e.score for e in ranked],
                        "r_bootstrap": [e.stats.r_bootstrap for e in ranked],
                        "cib_factor": [e.stats.cib_factor for e in ranked],
                    }])
    ids = json_sha([[query, fields["ids"]] for query, fields in items])
    return [f"seed {seed}: {len(items)} queries, top-10 sha256 {ids}"], 0, items


def served_replay(seed: int, scale_name: str) -> dict[str, list]:
    """Per side, one ``[scorer, rng mode, query, entries]`` record per call."""
    from repro.index.engine import JoinCorrelationEngine
    from repro.index.options import QueryOptions
    from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
    from repro.serving.router import ShardRouter
    from repro.serving.session import QuerySession
    from repro.serving.shards import ShardedCatalog

    fixtures, scale, tables, held_out = corpus(seed, scale_name)
    catalog = fixtures.build_catalog(tables)
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
            sketches = [session.query_sketch(r["keys"], r["values"], name=r["name"])
                        for r in requests]
        for rng_mode in RNG_MODES:
            settings = dict(retrieval_depth=fixtures.DEPTH, rng_mode=rng_mode)
            backends = (ShardRouter(ShardedCatalog.load(Path(work)), **settings),
                        JoinCorrelationEngine(catalog, **settings))
            for scorer in SCORER_NAMES:
                for side, backend in zip(SIDES, backends):
                    for request, sketch in zip(requests, sketches):  # one query per call
                        ranked = backend.query(sketch, k=fixtures.K, scorer=scorer).ranked
                        entries = [entry.to_dict() for entry in ranked]
                        records[side].append([scorer, rng_mode, request["name"], entries])
    return records


def served_report(label: str, records: dict[str, list]) -> tuple[list[str], int]:
    hashes = {side: json_sha(records[side]) for side in SIDES}
    lines = [f"{label}: {len(records[side])} lists, {side:<10} sha256 {hashes[side]}"
             for side in SIDES]
    if hashes["router"] != hashes["monolithic"]:
        return lines + ["router and monolithic engine DIFFER"], 1
    return lines, 0


def served_layer(seed: int):
    records = served_replay(seed, "record")
    items = [
        [f"{side} {scorer} {rng_mode} {query}", {
            "ids": [entry["candidate_id"] for entry in entries],
            "score": [entry["score"] for entry in entries],
            "entries": entries,
        }]
        for side in SIDES
        for scorer, rng_mode, query, entries in records[side]
    ]
    return *served_report(f"seed {seed}", records), items


def _largest_delta(a, b) -> float | None:
    """Largest ``|a[i] - b[i]|`` over the float pairs of two lists (NaN on
    both sides agrees, on one side is infinite); None without a float pair."""
    if not (isinstance(a, list) and isinstance(b, list)):
        return None
    deltas = [0.0 if x != x and y != y else abs(x - y) for x, y in zip(a, b)
              if isinstance(x, float) and isinstance(y, float)]
    return max((d if d == d else math.inf for d in deltas), default=None)


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in (path_a, path_b))
    labels_a, labels_b = ([item[0] for item in f["items"]] for f in (a, b))
    if (a["layer"], labels_a) != (b["layer"], labels_b):
        print(f"the two files hold different items ({a['layer']} and {b['layer']})")
        return 2
    tolerated = TOLERATED.get(a["layer"], ())
    differing = fields = 0
    largest: dict[str, float] = {}
    for (label, fields_a), (_, fields_b) in zip(a["items"], b["items"]):
        names = sorted(fields_a.keys() | fields_b.keys())
        fields += len(names)
        # JSON text equality: NaN on both sides agrees.
        wrong = [
            name for name in names if name not in tolerated
            and json.dumps(fields_a.get(name)) != json.dumps(fields_b.get(name))
        ]
        if wrong:
            differing += 1
            print(f"{label}: {', '.join(wrong)} differ")
        if fields_a.get("ids") == fields_b.get("ids"):
            for name in names:
                delta = _largest_delta(fields_a.get(name), fields_b.get(name))
                if delta is not None:
                    largest[name] = max(largest.get(name, 0.0), delta)
    print(f"{a['layer']}: {len(labels_a)} items, {fields} fields, "
          f"{differing} differing items")
    for name, value in largest.items():
        print(f"max |delta {name}| over items with equal ids: {value:.3e}")
    return 1 if differing else 0


def selfcheck() -> int:
    """Both smoke-scale checks; exit status 1 when either fails."""
    page_status = page_selfcheck()
    lines, status = served_report("smoke scale, seed 42", served_replay(42, "smoke"))
    print("\n".join(lines))
    return 1 if page_status or status else 0


LAYERS = {"page": page_layer, "bootstrap": bootstrap_layer, "served": served_layer}


def main(argv: list[str]) -> int:
    match argv:
        case ["--selfcheck"]:
            return selfcheck()
        case ["--compare", path_a, path_b]:
            return compare(path_a, path_b)
        case ["sketch", directory, *out] if len(out) <= 1:
            lines, status, items = sketch_layer(directory)
        case [layer, seed, out] if layer in LAYERS:
            lines, status, items = LAYERS[layer](int(seed))
            out = [out]
        case _:
            print(__doc__, file=sys.stderr)
            return 2
    for path in out:
        document = {"layer": argv[0], "lines": lines, "items": items}
        Path(path).write_text(json.dumps(document), encoding="utf-8")
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
