"""Array digest of the candidate pages the benchmark's queries assemble.

Not a test file. A change to the page kernels (``CandidatePage.assemble``
and the membership probe under it) must leave every page array where it
was, and ``served_ranking_digest.py`` only sees rankings: a ``kth`` or
``k_inter`` that moves without flipping a ranked list passes it. This
tool reads the arrays themselves:

* ``PYTHONPATH=<checkout>/src python tests/page_digest.py SEED OUT.json``
  builds the seed-``SEED`` ``point_query`` fixture of
  ``benchmarks/record/fixtures.py`` (300-table corpus, 120 held-out
  query pairs) under the 32-bit hasher the benchmark uses and again
  under the 64-bit one, assembles every query's depth-100 page, and
  hashes each page array — ``ids``, ``overlaps``, the samples'
  ``key_hashes`` / ``x`` / ``y`` / ``indptr`` / ``x_ranges`` /
  ``y_ranges``, ``k_len``, ``kth``, ``k_inter``, ``exact`` — plus the LSH
  backend's exact-overlap hits list. It prints one SHA-256 over all of
  them and writes the per-array hashes to ``OUT.json``; two checkouts
  that print the same line assemble identical pages.
* ``python tests/page_digest.py --compare A.json B.json`` names every
  (hasher, query, array) whose hash differs and counts them.
* ``python tests/page_digest.py --selfcheck`` holds every page to the
  per-candidate oracle (``candidate_page_oracle.py``) bit for bit, for
  32- and 64-bit catalogs at the benchmark's smoke scale (seconds; the
  CI step). Exit status 1 on any difference.

The fixture code is read from this checkout's ``benchmarks/record``; the
program under test is whatever ``PYTHONPATH`` points at.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

BITS = (32, 64)


def pages(seed: int, scale_name: str):
    """Yield ``(bits, query id, catalog, query columns, hits, page, LSH
    hits)`` for every query of the seed's ``point_query`` fixture, per
    hasher."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks/record"))
    import fixtures
    from repro.hashing import KeyHasher
    from repro.index.catalog import SketchCatalog
    from repro.index.engine import CandidatePage, retrieve_candidates

    scale = fixtures.SCALES[scale_name]
    tables = fixtures.shaped_tables(seed, scale.corpus_tables + scale.query_tables)
    corpus, held_out = tables[: scale.corpus_tables], tables[scale.corpus_tables:]
    refs = fixtures.query_refs(held_out, scale.point_ops)
    for bits in BITS:
        hasher = KeyHasher(bits=bits)
        catalog = SketchCatalog(sketch_size=fixtures.SKETCH_SIZE, hasher=hasher)
        catalog.add_tables(corpus)
        queries = SketchCatalog(sketch_size=fixtures.SKETCH_SIZE, hasher=hasher)
        for table, pair in refs:
            qid = queries.add_column_pair(table, pair)
            cols = queries.sketch_columns(qid)
            hits = retrieve_candidates(catalog, cols, depth=fixtures.DEPTH)
            lsh_hits = retrieve_candidates(
                catalog, cols, depth=fixtures.DEPTH, backend="lsh"
            )
            yield bits, qid, catalog, cols, hits, CandidatePage.assemble(
                catalog, cols, hits
            ), lsh_hits


def page_arrays(page, lsh_hits) -> dict[str, np.ndarray]:
    samples = page.samples
    return {
        "ids": np.asarray(page.ids, dtype=str),
        "overlaps": page.overlaps,
        "samples.key_hashes": samples.key_hashes,
        "samples.x": samples.x,
        "samples.y": samples.y,
        "samples.indptr": samples.indptr,
        "samples.x_ranges": samples.x_ranges,
        "samples.y_ranges": samples.y_ranges,
        "k_len": page.k_len,
        "kth": page.kth,
        "k_inter": page.k_inter,
        "exact": page.exact,
        "lsh_hits": np.asarray([f"{sid}:{n}" for sid, n in lsh_hits], dtype=str),
    }


def array_hash(array: np.ndarray) -> str:
    """SHA-256 over dtype, shape and bytes: a dtype change is a change."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def digest(seed: int) -> dict:
    records = [
        [bits, qid, {name: array_hash(a) for name, a in page_arrays(page, lsh).items()}]
        for bits, qid, _, _, _, page, lsh in pages(seed, "record")
    ]
    return {"seed": seed, "pages": records}


def overall(records: list) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        pages_a, pages_b = json.load(a)["pages"], json.load(b)["pages"]
    if [r[:2] for r in pages_a] != [r[:2] for r in pages_b]:
        print("the two files hold different queries")
        return 2
    differing = total = 0
    for (bits, qid, arrays_a), (_, _, arrays_b) in zip(pages_a, pages_b):
        for name in sorted(arrays_a.keys() | arrays_b.keys()):
            total += 1
            if arrays_a.get(name) != arrays_b.get(name):
                differing += 1
                print(f"{bits}-bit {qid}: {name} differs")
    print(f"{len(pages_a)} pages, {total} arrays, {differing} differing arrays")
    return 1 if differing else 0


def selfcheck() -> int:
    """Every smoke-scale page against the per-candidate oracle."""
    import candidate_page_oracle as oracle

    checked, wrong = 0, []
    for bits, qid, catalog, cols, hits, page, lsh_hits in pages(42, "smoke"):

        def members(sid):
            in_query, _ = oracle.candidate_membership(cols, catalog.sketch_columns(sid))
            return int(in_query.sum())

        for i, (sid, overlap) in enumerate(hits):
            checked += 1
            c_cols = catalog.sketch_columns(sid)
            want = oracle.join(cols, c_cols)
            got = page.samples[i]
            stats = oracle.union_stats(cols, c_cols)
            same = (
                page.ids[i] == sid
                and int(page.overlaps[i]) == overlap == members(sid)
                and got.key_hashes.tobytes() == want.key_hashes.tobytes()
                and got.x.tobytes() == want.x.tobytes()
                and got.y.tobytes() == want.y.tobytes()
                and (int(page.k_len[i]), float(page.kth[i]),
                     int(page.k_inter[i]), bool(page.exact[i]))
                == (stats.k_len, stats.kth, stats.k_inter, stats.exact)
            )
            if not same:
                wrong.append(f"{bits}-bit {qid} / {sid}")
        # The LSH backend counts its overlaps with the same probe.
        wrong.extend(
            f"{bits}-bit {qid} / {sid} (LSH overlap)"
            for sid, overlap in lsh_hits
            if overlap != members(sid)
        )
    for line in wrong:
        print(f"kernel != oracle: {line}")
    print(
        f"smoke scale, seed 42, {'/'.join(map(str, BITS))}-bit: {checked} "
        f"candidates, {len(wrong)} differing from the oracle"
    )
    return 1 if wrong else 0


def main(argv: list[str]) -> int:
    if argv == ["--selfcheck"]:
        return selfcheck()
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print(__doc__)
        return 2
    result = digest(int(argv[0]))
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print(
        f"seed {argv[0]}: {len(result['pages'])} pages, "
        f"sha256 {overall(result['pages'])}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
