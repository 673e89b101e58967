"""Zero-copy arena serving: shared-page multi-process resident memory.

What the benchmark of record cannot see from inside one process: N
forked workers each *load the arena themselves* and serve one query (the
N-serving-processes deployment). Each worker reports the PSS growth of
loading + fully touching its catalog (PSS divides shared pages among
their sharers — exactly the accounting that can see page sharing; RSS
would count every shared page N times, see :mod:`memprof`). Arena
workers map the same file through the page cache, so combined cost
stays ~flat as workers are added instead of growing by one private heap
copy each. Bar (full run, 4096 sketches): 2 workers combined ≤ 1.2x
one. Per-worker load times land in the results file too; save / load /
verify latency and bytes per sketch are the record's
``index.snapshot.*`` metrics.

Results land in ``benchmarks/results/mmap_serving.txt``; ``--quick``
shrinks to a CI smoke (256 sketches, no assertions).
"""

from __future__ import annotations

import gc
import multiprocessing
import time

import numpy as np

from conftest import write_result
from memprof import fmt_bytes, peak_rss_bytes, pss_bytes, trim_heap
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine

CATALOG_SKETCHES = 4096
QUICK_SKETCHES = 256
SKETCH_SIZE = 256
ROWS_PER_SKETCH = 600
KEY_UNIVERSE = 20_000
WORKER_COUNTS = (1, 2, 4)
QUICK_WORKER_COUNTS = (1, 2)


def _build_catalog(n_sketches: int, seed: int = 3):
    """``n_sketches`` column-pair sketches over one shared key universe
    (integer keys: construction itself is not what this bench measures)."""
    rng = np.random.default_rng(seed)
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
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
    query_keys = rng.choice(KEY_UNIVERSE, 2 * ROWS_PER_SKETCH, replace=False)
    query = CorrelationSketch.from_columns(
        query_keys,
        rng.standard_normal(query_keys.shape[0]),
        SKETCH_SIZE,
        hasher=catalog.hasher,
        name="query",
    )
    return catalog, query


def _first_query_ms(catalog: SketchCatalog, query) -> float:
    t0 = time.perf_counter()
    JoinCorrelationEngine(catalog, retrieval_depth=100).query(
        query, k=10, scorer="rp_cih"
    )
    return (time.perf_counter() - t0) * 1000


def _touch_catalog(catalog) -> float:
    """Fault in every catalog array page (returns a checksum so the
    reads cannot be optimized away).

    Reads the snapshot's shared entry-source arrays directly rather
    than materializing per-sketch views: the point is to charge each
    worker for every *page* of catalog data, not to allocate thousands
    of private entry objects whose heap cost would blur the
    shared-vs-private page accounting this bench exists to show.
    """
    source = catalog._sketches._source
    total = float(source.key_hashes.sum())
    total += float(source.values.sum())
    postings = catalog._frozen_postings
    if postings is not None:
        total += float(postings.vocab.sum()) + float(postings.indptr.sum())
        total += float(postings.doc_ids.sum())
        total += float(postings.doc_lengths.sum())
    if catalog._lsh_pending is not None:
        total += float(catalog._lsh_pending[1].sum())
        total += float(catalog._lsh_pending[2].sum())
    return total


def _serving_worker(path, query, barrier, results, index):
    """One forked serving process: load, serve one query, touch all
    pages, report PSS growth while every sibling is still resident."""
    # First barrier: every sibling exists before any baseline is read.
    # PSS divides each inherited page among its sharers, so a worker
    # whose pss0 was read at 2 live processes but whose pss1 was read
    # at N+1 would see its inherited-interpreter share shrink and
    # report negative growth that has nothing to do with the catalog.
    barrier.wait()
    pss0 = pss_bytes()
    t0 = time.perf_counter()
    catalog = SketchCatalog.load(path)
    load_ms = (time.perf_counter() - t0) * 1000
    first_query_ms = _first_query_ms(catalog, query)
    _touch_catalog(catalog)
    # Steady-state reading: a serving process's resident cost is the
    # catalog plus live machinery, not whatever freed query temporaries
    # glibc happens to retain — hand those pages back first. Trim only:
    # a gc.collect here would walk every inherited object, dirtying
    # CoW pages by an amount that varies with the sibling count and
    # skewing the x1-vs-x2 comparison.
    trim_heap()
    # All workers hold their catalogs at both barriers, so the kernel's
    # per-page sharing counts — and therefore every PSS reading — see
    # the full N-process deployment, not a staggered teardown.
    barrier.wait()
    pss1 = pss_bytes()
    grown = None if pss0 is None or pss1 is None else pss1 - pss0
    results.put((index, grown, load_ms, first_query_ms))
    barrier.wait()


def _measure_workers(path, query, n_workers):
    """Fork ``n_workers`` independent serving processes over ``path``.

    Returns ``(combined_pss_growth, per_worker_growths, mean_load_ms)``;
    growth entries are None when the kernel exposes no PSS.
    """
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(n_workers)
    results = ctx.Queue()
    procs = [
        ctx.Process(
            target=_serving_worker, args=(path, query, barrier, results, i)
        )
        for i in range(n_workers)
    ]
    for proc in procs:
        proc.start()
    readings = [results.get() for _ in range(n_workers)]
    for proc in procs:
        proc.join()
    growths = [g for _, g, _, _ in readings]
    loads = [load for _, _, load, _ in readings]
    combined = None if any(g is None for g in growths) else sum(growths)
    return combined, growths, sum(loads) / len(loads)


def test_mmap_serving(tmp_path_factory, quick):
    n_sketches = QUICK_SKETCHES if quick else CATALOG_SKETCHES
    worker_counts = QUICK_WORKER_COUNTS if quick else WORKER_COUNTS
    catalog, query = _build_catalog(n_sketches)

    out_dir = tmp_path_factory.mktemp("mmap_serving")
    arena_path = out_dir / "catalog.arena"
    catalog.save(arena_path)
    # One query in the parent, on the heap catalog: what a first query
    # imports and caches is then inherited by every worker instead of
    # being built privately in each, which would read as catalog cost.
    _first_query_ms(catalog, query)

    # The parent's build heap (~400MB at full scale) must not ride into
    # the forked workers: inherited pages whose sharing count shifts as
    # siblings start and exit would contaminate every PSS delta below.
    # The parent also never maps the arena itself: a lingering mapping
    # would share pages with the 1-worker run and halve its PSS,
    # understating the single-process baseline.
    del catalog
    gc.collect()
    # Hand freed build heap back to the OS before forking: workers trim
    # their own heaps before their steady-state reading, and any
    # retained freed pages they inherit from the parent would be
    # released then — a negative PSS offset whose size varies with the
    # sibling count. Trim here so there is nothing to inherit.
    trim_heap()

    lines = [
        f"sketches                  : {n_sketches}",
        f"arena                     : {arena_path.stat().st_size:>12,} bytes",
    ]

    # -- per-process resident cost vs worker count --------------------------
    combined = {}
    for n_workers in worker_counts:
        total, growths, mean_load = _measure_workers(
            arena_path, query, n_workers
        )
        combined[n_workers] = total
        per_worker = "/".join(fmt_bytes(g).strip() for g in growths)
        lines.append(
            f"arena x{n_workers} workers          : "
            f"{fmt_bytes(total)} combined PSS growth "
            f"({per_worker}; mean load {mean_load:7.1f} ms)"
        )

    one, two = combined.get(1), combined.get(2)
    if one and two:
        lines.append(
            f"arena 2-worker overhead   : {two / one:9.2f}x "
            "one worker's resident cost (shared pages)"
        )
    lines.append(
        f"parent peak RSS           : {fmt_bytes(peak_rss_bytes())}"
    )

    if quick:
        lines.append("(quick mode: CI smoke scale, assertions skipped)")
    write_result("mmap_serving.txt", "\n".join(lines))

    if quick:
        return
    assert n_sketches >= 4096
    # The bar: two arena serving processes cost <=1.2x one process's
    # resident memory (PSS accounting; skipped only if the kernel hides
    # smaps_rollup).
    if one is not None and two is not None:
        assert two <= 1.2 * one
