"""Direct unit coverage for the forked query worker pool.

``test_serving_router.py`` pins the end-to-end parity contract (the
pool never changes results); this file covers the pool's *mechanics*:
process reuse across calls, the fork-unavailable degradation of
:class:`QueryWorkerPool`, shutdown idempotence and post-close re-entry,
and argument validation.
"""

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.serving import (
    QueryWorkerPool,
    ShardRouter,
    ShardedCatalog,
)
from repro.serving import workers as workers_mod

SKETCH_SIZE = 32


@pytest.fixture(scope="module")
def router():
    rng = np.random.default_rng(3)
    hasher = KeyHasher()
    catalog = ShardedCatalog(2, sketch_size=SKETCH_SIZE, hasher=hasher)
    universe = [f"k{i}" for i in range(200)]
    for i in range(8):
        picked = rng.choice(len(universe), size=120, replace=False)
        sid = f"p{i:02d}"
        catalog.add_sketch(
            sid,
            CorrelationSketch.from_columns(
                [universe[j] for j in sorted(picked)],
                rng.standard_normal(120),
                SKETCH_SIZE,
                hasher=hasher,
                name=sid,
            ),
        )
    return ShardRouter(catalog)


def _queries(router, n=4):
    catalog = router.catalog
    return [catalog.get(sid) for sid in sorted(catalog)[:n]]


# -- QueryWorkerPool ---------------------------------------------------------


def test_query_pool_sequential_modes_never_fork(router):
    assert not QueryWorkerPool(router, workers=None).parallel
    assert not QueryWorkerPool(router, workers=1).parallel
    pool = QueryWorkerPool(router, workers=1)
    queries = _queries(router)
    got = pool.query_batch(queries, k=4, exclude_ids=sorted(router.catalog)[:4])
    assert pool._pool is None  # never materialized a process pool
    assert [r.ranked[0].candidate_id for r in got] == [
        r.ranked[0].candidate_id
        for r in router.query_batch(
            queries, k=4, exclude_ids=sorted(router.catalog)[:4]
        )
    ]


def test_query_pool_fork_unavailable_falls_back(router, monkeypatch):
    """Platforms without the fork start method degrade to the sequential
    router path — identical results, no process pool."""
    monkeypatch.setattr(
        workers_mod.multiprocessing,
        "get_all_start_methods",
        lambda: ["spawn"],
    )
    pool = QueryWorkerPool(router, workers=4)
    assert not pool.parallel
    queries = _queries(router)
    got = pool.query_batch(queries, k=4)
    assert pool._pool is None
    want = router.query_batch(queries, k=4)
    assert [r.ranked[0].candidate_id for r in got] == [
        r.ranked[0].candidate_id for r in want
    ]


def test_query_pool_single_query_runs_sequentially(router):
    """A one-query batch is not worth a fan-out: it routes through the
    sequential ``router.query_batch`` path (observable via the monkey-
    patched router) with identical results."""
    calls = []
    original = router.query_batch

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    with QueryWorkerPool(router, workers=2) as pool:
        router.query_batch = spy
        try:
            [got] = pool.query_batch(_queries(router, n=1), k=4)
        finally:
            router.query_batch = original
        assert len(calls) == 1  # delegated to the sequential path
        [want] = router.query_batch(_queries(router, n=1), k=4)
        assert [e.candidate_id for e in got.ranked] == [
            e.candidate_id for e in want.ranked
        ]


def test_query_pool_reuses_processes_and_reenters_after_close(router):
    if not QueryWorkerPool(router, workers=2).parallel:
        pytest.skip("fork start method unavailable")
    queries = _queries(router)
    want = [
        [e.candidate_id for e in r.ranked]
        for r in router.query_batch(queries, k=4)
    ]

    def got(pool):
        return [
            [e.candidate_id for e in r.ranked]
            for r in pool.query_batch(queries, k=4)
        ]

    pool = QueryWorkerPool(router, workers=2)
    try:
        assert got(pool) == want
        first = pool._pool
        assert first is not None
        assert got(pool) == want
        assert pool._pool is first  # persistent: no respawn per batch
        # Shutdown is idempotent; the next batch lazily forks new
        # workers instead of failing on the closed pool.
        pool.close()
        pool.close()
        assert pool._pool is None
        assert got(pool) == want
        assert pool._pool is not None
        assert pool._pool is not first
    finally:
        pool.close()


def test_query_pool_validates_arguments(router):
    with pytest.raises(ValueError, match="workers"):
        QueryWorkerPool(router, workers=-1)
    pool = QueryWorkerPool(router, workers=2)
    with pytest.raises(ValueError, match="exclude ids"):
        pool.query_batch(_queries(router, n=2), exclude_ids=["only-one"])
    pool.close()
