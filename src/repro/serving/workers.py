"""Query-level process parallelism for the serving stack.

:class:`QueryWorkerPool` — persistent *forked* process workers that
partition a multi-query batch across full CPU cores. Each worker
inherits the parent's :class:`~repro.serving.router.ShardRouter` (and
every shard) copy-on-write at fork time — no catalog serialization —
and evaluates its query slice end to end, returning only the small
ranked-result objects. Per-query results are bit-identical to the
sequential router because each query's rng is the same fresh fixed-seed
generator ``query_batch(rng=None)`` would hand it. (Within one query
the router works on the calling thread: its per-shard step is an
O(metadata) availability check, nothing worth a thread.)

The pool is *supervised*: it detects dead forked workers (a worker
killed mid-chunk surfaces as ``BrokenProcessPool``), respawns with
capped exponential backoff plus seeded jitter, and re-dispatches
exactly the chunks whose results were never received — completed
chunks are kept, so no query is ever lost or evaluated twice. After
:attr:`~QueryWorkerPool.MAX_RESPAWN_FAILURES` consecutive zero-progress
respawns it falls back to the sequential router path for the rest of
the pool's life.

Platforms without the ``fork`` start method (and ``workers=1`` pools)
degrade to sequential execution with identical results — the pool
gates the capability instead of assuming it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro.obs import get_registry
from repro.serving.faults import maybe_fire

#: Worker-process state: the pool's router, installed by
#: :func:`_init_query_worker` (run in each worker, including respawns).
#: Never set in the parent, so concurrent pools cannot cross-talk and
#: closing a pool leaves nothing pinned.
_WORKER_ROUTER = None


def _init_query_worker(router) -> None:
    """Pool initializer: bind this worker to its pool's router.

    Under the ``fork`` start method the router arrives by memory
    inheritance (never pickled), and a worker the pool respawns re-runs
    this initializer with the same router — per-pool state, not shared.
    """
    global _WORKER_ROUTER
    _WORKER_ROUTER = router


def _run_query_chunk(task):
    """Worker-side entry: evaluate one contiguous query slice.

    ``traces`` (when the chunk carries them) are plain
    :class:`repro.obs.trace.Trace` recorders pickled into the worker;
    their spans come back *inside* the chunk's ``QueryResult.trace``
    dicts — ``perf_counter`` is the system-wide monotonic clock, so
    worker-side spans share the parent's timeline.
    """
    chunk_index, sketches, k, scorer, exclude_ids, truths, traces, extra = task
    maybe_fire("worker_chunk", chunk=chunk_index)
    kwargs = dict(extra)
    if traces is not None:
        # Forwarded only when requested, so a plain monolithic engine
        # (no ``traces`` parameter) still works as the pool's router.
        kwargs["traces"] = traces
    results = _WORKER_ROUTER.query_batch(
        sketches, k=k, scorer=scorer, exclude_ids=exclude_ids,
        true_correlations=truths, **kwargs
    )
    return chunk_index, results


class QueryWorkerPool:
    """Persistent forked workers partitioning query batches across cores.

    Args:
        router: the :class:`~repro.serving.router.ShardRouter` (or any
            object with a compatible ``query_batch``) each worker
            inherits at fork time. The pool warms the router
            (``router.warm()``, when present) immediately before the
            first fork, so every lazily-loaded shard materializes in
            the parent and the workers inherit it: heap catalogs arrive
            copy-on-write, and arena-mapped catalogs arrive as shared
            file-backed mappings — N workers reference one set of
            physical pages, not N private copies.
        workers: process count. ``None``/``1`` — or a platform without
            the ``fork`` start method — evaluates sequentially through
            ``router.query_batch`` with identical results.

    Supervision: a dead worker (crash, OOM-kill, injected
    ``worker_chunk`` kill fault) surfaces as ``BrokenProcessPool`` —
    the executor is torn down and respawned with capped exponential
    backoff plus seeded jitter, and only the chunks whose results never
    arrived are re-dispatched. Chunk results received before the crash
    are kept, so a batch is never partially lost and no query is ever
    evaluated twice. :attr:`MAX_RESPAWN_FAILURES` consecutive respawns
    with zero completed chunks flip the pool to the sequential router
    path permanently (:attr:`sequential_fallback`); the batch in flight
    still completes.

    Results are bit-identical to ``router.query_batch(..., rng=None)``:
    queries are split into contiguous chunks and every query's bootstrap
    / stochastic-scorer rng is the fresh fixed-seed generator the
    sequential path would create, so chunk boundaries cannot shift any
    rng stream. A caller-supplied shared generator is therefore not
    supported here — that contract is inherently sequential.
    """

    #: Backoff before respawn attempt ``n`` (0-based) is
    #: ``min(CAP, BASE * 2**n)`` seconds, scaled by jitter in [0.5, 1).
    RESPAWN_BACKOFF_BASE = 0.05
    RESPAWN_BACKOFF_CAP = 1.0
    #: Consecutive zero-progress respawns before the sequential fallback.
    MAX_RESPAWN_FAILURES = 3

    def __init__(self, router, workers: int | None = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.router = router
        self.workers = workers
        self._pool: ProcessPoolExecutor | None = None
        #: Total workers-pool respawns over this pool's life (telemetry).
        self.respawns = 0
        #: True once supervision gave up on process workers for good.
        self.sequential_fallback = False
        self._consecutive_failures = 0
        self._backoff_rng = random.Random(
            int(os.environ.get("REPRO_FAULT_SEED", 7))
        )

    @property
    def parallel(self) -> bool:
        """True when batches actually fan out across processes."""
        return (
            not self.sequential_fallback
            and self.workers is not None
            and self.workers > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None and self.parallel:
            # Fork *after* the shards are materialized: whatever the
            # parent loaded (heap arrays) or mapped (arena pages) is
            # inherited by every worker instead of re-built per process.
            warm = getattr(self.router, "warm", None)
            if warm is not None:
                warm()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_query_worker,
                initargs=(self.router,),
            )
        return self._pool

    def _discard_broken_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _backoff(self) -> None:
        attempt = max(0, self._consecutive_failures - 1)
        delay = min(
            self.RESPAWN_BACKOFF_CAP,
            self.RESPAWN_BACKOFF_BASE * (2**attempt),
        )
        time.sleep(delay * (0.5 + self._backoff_rng.random() * 0.5))

    def query_batch(
        self,
        query_sketches: Sequence,
        k: int = 10,
        scorer: str = "rp_cih",
        *,
        exclude_ids: list[str | None] | None = None,
        true_correlations: list[dict[str, float] | None] | None = None,
        on_shard_error: str = "raise",
        traces: list | None = None,
    ):
        """Evaluate the batch, partitioned across the worker processes.

        ``true_correlations`` (per-query ground-truth dicts, for
        evaluation runs) and ``traces`` (per-query
        :class:`repro.obs.trace.Trace` recorders) are chunked alongside
        the sketches and forwarded to each worker's ``query_batch`` —
        trace spans recorded in a worker come back serialized inside
        that chunk's ``QueryResult.trace`` dicts. ``on_shard_error``
        forwards to the router (each worker applies it to its own
        chunk); the default — and an absent ``traces`` — is never
        forwarded, so any monolithic engine with a plain
        ``query_batch`` still works as the pool's router.
        """
        query_sketches = list(query_sketches)
        if exclude_ids is None:
            exclude_ids = [None] * len(query_sketches)
        if len(exclude_ids) != len(query_sketches):
            raise ValueError(
                f"{len(query_sketches)} query sketches but "
                f"{len(exclude_ids)} exclude ids"
            )
        if true_correlations is None:
            true_correlations = [None] * len(query_sketches)
        if len(true_correlations) != len(query_sketches):
            raise ValueError(
                f"{len(query_sketches)} query sketches but "
                f"{len(true_correlations)} truth dicts"
            )
        if traces is not None and len(traces) != len(query_sketches):
            raise ValueError(
                f"{len(query_sketches)} query sketches but "
                f"{len(traces)} traces"
            )
        extra: dict = {}
        if on_shard_error != "raise":
            extra["on_shard_error"] = on_shard_error
        pool = self._ensure_pool()
        if pool is None or len(query_sketches) <= 1:
            kwargs = dict(extra)
            if traces is not None:
                kwargs["traces"] = traces
            return self.router.query_batch(
                query_sketches, k=k, scorer=scorer, exclude_ids=exclude_ids,
                true_correlations=true_correlations, **kwargs,
            )
        n_chunks = min(self.workers, len(query_sketches))
        bounds = [
            round(i * len(query_sketches) / n_chunks) for i in range(n_chunks + 1)
        ]
        pending = {
            i: (
                i,
                query_sketches[bounds[i] : bounds[i + 1]],
                k,
                scorer,
                exclude_ids[bounds[i] : bounds[i + 1]],
                true_correlations[bounds[i] : bounds[i + 1]],
                (
                    None
                    if traces is None
                    else traces[bounds[i] : bounds[i + 1]]
                ),
                extra,
            )
            for i in range(n_chunks)
        }
        completed: dict[int, list] = {}
        while pending:
            pool = self._ensure_pool()
            if pool is None:
                # Sequential fallback engaged mid-batch: drain the
                # chunks the workers never answered, in index order.
                for index, task in sorted(pending.items()):
                    kwargs = dict(extra)
                    if task[6] is not None:
                        kwargs["traces"] = task[6]
                    completed[index] = self.router.query_batch(
                        task[1], k=k, scorer=scorer, exclude_ids=task[4],
                        true_correlations=task[5], **kwargs,
                    )
                pending.clear()
                break
            futures: dict[int, object] = {}
            broken = False
            try:
                for index, task in sorted(pending.items()):
                    futures[index] = pool.submit(_run_query_chunk, task)
            except BrokenProcessPool:
                broken = True
            error: BaseException | None = None
            progressed = False
            for index, future in futures.items():
                if error is not None:
                    future.cancel()
                    continue
                try:
                    chunk_index, results = future.result()
                except BrokenProcessPool:
                    broken = True
                except BaseException as exc:  # noqa: BLE001 — re-raised
                    error = exc
                else:
                    completed[chunk_index] = results
                    pending.pop(chunk_index, None)
                    progressed = True
            if error is not None:
                # A task-level error (not a dead worker): deterministic
                # lowest-index propagation.
                raise error
            if not pending:
                self._consecutive_failures = 0
                break
            # A worker died (broken is necessarily True here): respawn
            # and re-dispatch only what never completed.
            assert broken
            if progressed:
                self._consecutive_failures = 0
            self._consecutive_failures += 1
            self.respawns += 1
            get_registry().inc(
                "repro_worker_respawns_total",
                help="Forked query-worker pools respawned after a crash",
            )
            self._discard_broken_pool()
            if self._consecutive_failures >= self.MAX_RESPAWN_FAILURES:
                self.sequential_fallback = True
                get_registry().set_gauge(
                    "repro_worker_sequential_fallback", 1.0,
                    help="1 once supervision fell back to the sequential path",
                )
                continue
            self._backoff()
        return [
            result
            for index in sorted(completed)
            for result in completed[index]
        ]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "QueryWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
