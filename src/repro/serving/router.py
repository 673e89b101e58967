"""Scatter-gather query routing over a sharded catalog.

A :class:`ShardRouter` evaluates top-k join-correlation queries against
a :class:`~repro.serving.shards.ShardedCatalog` with **exact result
semantics**: for every scorer, rng mode and retrieval backend, the
result is bit-identical — ids, scores and order — to running the same
query against one monolithic catalog holding the union of the shards.
What is scattered is only what can differ per shard; the kernels run
once. Three facts:

* **shard availability is scattered.** In both phases every shard
  passes its fault point and is fetched (lazy load, quarantine,
  :class:`~repro.serving.shards.ShardUnavailable`) on the worker pool,
  under the call's deadline and failure policy, timed into its own
  trace span. That is all a phase does shard by shard.
* **the probe is global.** Retrieval is one stacked ScanCount over the
  surviving shards' live postings
  (:meth:`ShardedCatalog.stacked_postings`: one CSR, documents in global
  id order), so the hits list — ``(−overlap, sketch_id)`` order,
  ``retrieval_depth`` cutoff — is the monolithic probe's by
  construction, with nothing to merge. The LSH backend alone still
  probes per shard: band collisions are a pairwise (query, candidate)
  predicate, so the per-shard collision sets unite to the single-index
  set, ranked by the same exact overlap, and the lists heap-merge.
* **the page and the scoring are global.** Join samples, union
  statistics and containment inputs depend only on the query and one
  candidate (never on the rest of the page) and the catalog reads a
  candidate from its owning shard, so one
  :meth:`repro.index.engine.CandidatePage.assemble` over the hits is the
  monolithic page. Everything page-shaped — the ``rp_cih`` min-max
  normalization, the ``random`` scorer's draws, both PM1 bootstrap rng
  disciplines — then runs in the monolithic engine's own pipeline: a
  :class:`ShardRouter` *is* a
  :class:`~repro.index.engine.JoinCorrelationEngine` whose two stage
  steps ask the shards first. (The per-shard probes and sub-pages this
  replaced are the test oracle ``tests/scatter_router_oracle.py``.)

Shard fan-out runs sequentially or on a persistent
:class:`~repro.serving.workers.ShardWorkerPool` (``workers=N``); for
query-level parallelism across cores, wrap the router in a
:class:`~repro.serving.workers.QueryWorkerPool`.

**Failure model.** ``query``/``query_batch`` take a per-call
``deadline_ms`` budget and an ``on_shard_error`` policy. Under
``"raise"`` (the default) any shard failure — a probe raising, a
quarantined shard (:class:`~repro.serving.shards.ShardUnavailable`), or
the deadline expiring — propagates, lowest shard index first. Under
``"partial"`` failing shards are left out and the answer is served from
the survivors, flagged via ``QueryResult.shards_failed`` and
``degraded``. A shard lost before the probe is simply not in the stack:
the answer is the exact answer over the surviving shards' union. A
shard lost between probe and page takes its hits with it, so when
``retrieval_depth`` truncated, the page may hold fewer candidates than a
survivors-only catalog would — the router never invents replacements.
With no faults firing, both policies execute the identical code path
and results stay bit-identical to the monolithic engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.index.engine import (
    CandidatePage,
    JoinCorrelationEngine,
    QueryResult,
)
from repro.index.inverted import merge_hits
from repro.index.options import ON_SHARD_ERROR_POLICIES, validate_resilience
from repro.obs import get_registry
from repro.serving.faults import maybe_fire
from repro.serving.shards import ShardedCatalog
from repro.serving.workers import DeadlineExceeded, ShardWorkerPool

__all__ = [
    "ON_SHARD_ERROR_POLICIES",  # re-exported from repro.index.options
    "ShardRouter",
]


class ShardRouter(JoinCorrelationEngine):
    """Top-k query evaluation, scatter-gathered across catalog shards.

    The :class:`~repro.index.engine.JoinCorrelationEngine` query surface
    (``query`` / ``query_batch``, same defaults, same
    :class:`~repro.index.engine.QueryResult` output with
    ``shards_probed`` set) and its one pipeline, so callers can swap a
    monolithic engine for a sharded one without touching call sites.
    What the router adds is only what is genuinely its own: the worker
    pool, the per-call ``deadline_ms``/``on_shard_error`` failure
    policy, shard accounting and per-shard trace spans.

    Args:
        catalog: the sharded catalog to serve.
        retrieval_depth: candidates fetched by key overlap before
            re-ranking, over all shards together.
        min_overlap: joinability floor for a candidate.
        rng_mode: PM1 bootstrap execution contract for ``rb_cib``
            (see :data:`repro.ranking.scoring.RNG_MODES`).
        retrieval_backend: candidate retrieval strategy
            (see :data:`repro.index.engine.RETRIEVAL_BACKENDS`).
        lsh_bands / lsh_rows: LSH banding overrides (``"lsh"`` backend),
            same ``None`` semantics as the engine, applied per shard.
        workers: thread count for the shard fan-out; ``None``/``1``
            scatter sequentially. The pool is persistent for the
            router's life — :meth:`close` (or use as a context manager)
            releases it.
    """

    def __init__(
        self,
        catalog: ShardedCatalog,
        retrieval_depth: int = 100,
        min_overlap: int = 1,
        *,
        rng_mode: str = "batched",
        retrieval_backend: str = "inverted",
        lsh_bands: int | None = None,
        lsh_rows: int | None = None,
        workers: int | None = None,
    ) -> None:
        super().__init__(
            catalog,
            retrieval_depth,
            min_overlap,
            rng_mode=rng_mode,
            retrieval_backend=retrieval_backend,
            lsh_bands=lsh_bands,
            lsh_rows=lsh_rows,
        )
        self._pool = ShardWorkerPool(workers)

    @property
    def workers(self) -> int | None:
        return self._pool.workers

    def warm(self) -> None:
        """Materialize every catalog shard and the stacked CSR now,
        instead of on first probe.

        Delegates to :meth:`ShardedCatalog.warm` when the catalog has it
        (a monolithic stand-in without shards simply has nothing to
        warm). :class:`~repro.serving.workers.QueryWorkerPool` calls
        this before forking so every worker inherits the mapped/loaded
        shards and the stack instead of building its own copies.
        """
        warm = getattr(self.catalog, "warm", None)
        if warm is not None:
            warm()

    def close(self) -> None:
        """Release the shard worker pool (idempotent)."""
        self._pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scatter phases ------------------------------------------------------

    def _scatter(
        self,
        site: str,
        work=None,
        *,
        deadline_at: float | None,
        partial: bool,
        timings: list | None,
    ) -> tuple[list, set[int], dict]:
        """Fan one phase's per-shard step out: what can fail per shard.

        Every shard passes the ``site`` fault point and is fetched
        (:meth:`ShardedCatalog.shard`); ``work(shard)`` then runs when
        the phase has shard-local work. With ``timings`` (a pre-sized
        per-shard list) each step records its ``(start, end)`` wall
        clock — the source of per-shard trace spans; a shard whose step
        was cancelled leaves None. Returns :meth:`_supervised_fanout`'s
        ``(results, failed_shards, errors_by_shard)``.
        """

        def step(index: int):
            start = time.perf_counter() if timings is not None else 0.0
            try:
                maybe_fire(site, shard=index)
                shard = self.catalog.shard(index)
                return None if work is None else work(shard)
            finally:
                if timings is not None:
                    timings[index] = (start, time.perf_counter())

        return self._supervised_fanout(
            step, self.catalog.n_shards, deadline_at=deadline_at, partial=partial
        )

    def _scatter_retrieve(
        self,
        query_cols: list,
        exclude_ids: list[str | None],
        *,
        deadline_at: float | None = None,
        partial: bool = False,
        timings: list | None = None,
    ) -> tuple[list[list[tuple[str, int]]], set[int], dict]:
        """Every query's hits over the shards that answer.

        Returns ``(hits_per_query, failed_shards, errors_by_shard)``.
        Without a deadline and under the ``"raise"`` policy any shard
        failure propagates and ``failed_shards`` is empty; otherwise
        shards that raised or missed the deadline are left out of the
        probe (``partial``) or re-raised lowest-index-first. The probe
        itself runs once, over the survivors' stacked CSR
        (:meth:`ShardedCatalog.stacked_postings`); only the LSH backend
        still probes shard by shard and merges the lists.
        """
        options = self.options
        lsh = options.retrieval_backend == "lsh"

        def probe(shard):
            return self._probe(shard, query_cols, exclude_ids)

        per_shard, failed, errors = self._scatter(
            "shard_probe", probe if lsh else None,
            deadline_at=deadline_at, partial=partial, timings=timings,
        )
        survivors = [
            s for s in range(self.catalog.n_shards) if s not in failed
        ]
        if lsh:
            return [
                merge_hits([per_shard[s][q] for s in survivors], options.depth)
                for q in range(len(query_cols))
            ], failed, errors
        return self.catalog.stacked_postings(survivors).top_overlap_batch(
            [cols.key_hashes for cols in query_cols],
            options.depth,
            excludes=exclude_ids,
            min_overlap=options.min_overlap,
        ), failed, errors

    def _supervised_fanout(
        self,
        fn,
        n_shards: int,
        *,
        deadline_at: float | None,
        partial: bool,
    ) -> tuple[list, set[int], dict]:
        """Run one shard fan-out under the failure policy.

        The fault-free default (no deadline, ``"raise"``) takes the
        exact pre-resilience code path — ``pool.map`` — so the parity
        suites exercise byte-for-byte the same execution; the
        supervised path only engages when a caller opts into deadlines
        or partial results. Returns ``(results, failed_shards,
        errors_by_shard)``; every supervised shard failure also bumps
        the per-shard ``repro_shard_errors_total`` counter.
        """
        if deadline_at is None and not partial:
            return self._pool.map(fn, range(n_shards)), set(), {}
        remaining = (
            None
            if deadline_at is None
            else deadline_at - time.perf_counter()
        )
        results, errors = self._pool.map_supervised(
            fn, range(n_shards), deadline_s=remaining
        )
        failed = {s for s, error in enumerate(errors) if error is not None}
        if failed:
            registry = get_registry()
            for s in sorted(failed):
                registry.inc(
                    "repro_shard_errors_total",
                    help="Shard probes/assemblies that failed or timed out",
                    shard=str(s),
                )
        if failed and not partial:
            raise errors[min(failed)]
        return results, failed, {
            s: errors[s] for s in failed
        }

    def _scatter_assemble(
        self,
        query_cols: list,
        hits_per_query: list[list[tuple[str, int]]],
        *,
        deadline_at: float | None = None,
        partial: bool = False,
        timings: list | None = None,
    ) -> tuple[list[CandidatePage], set[int], dict]:
        """Assemble every query's candidate page, in one pass per query.

        Every per-candidate value depends only on (query, candidate),
        and :meth:`ShardedCatalog.sketch_columns` reads a candidate from
        its owner, so one :meth:`CandidatePage.assemble` over the merged
        hits is the monolithic page.

        Returns ``(pages, failed_shards, errors_by_shard)``: when a
        shard fails this phase under the ``partial`` policy, its
        candidates are dropped before the pass (the page-shaped scoring
        that follows must only ever see candidates that were actually
        assembled).
        """
        _, failed, errors = self._scatter(
            "shard_assemble",
            deadline_at=deadline_at, partial=partial, timings=timings,
        )
        if failed:
            owner_of = self.catalog.owner_of
            hits_per_query = [
                [hit for hit in hits if owner_of(hit[0]) not in failed]
                for hits in hits_per_query
            ]
        return [
            CandidatePage.assemble(self.catalog, cols, hits)
            for cols, hits in zip(query_cols, hits_per_query)
        ], failed, errors

    # -- the scatter phases as pipeline stage steps --------------------------

    def _stage_step(
        self, scatter, phase: str, child_name: str, failed: set[int], **policy
    ):
        """Wrap one scatter phase as a stage step of the engine's pipeline
        (:meth:`~repro.index.engine.JoinCorrelationEngine._evaluate`).

        The step runs ``scatter`` under one call's ``policy`` (its
        deadline and whether failures are partial), adds the shards it
        lost to ``failed`` — the per-call set the pipeline reads
        ``shards_failed``/``degraded`` from — and, with traces, records
        the phase in every query's trace as a shared span with per-shard
        children (``shard_probe`` / ``shard_assemble``, each carrying
        its shard index, wall time and ok/error/timeout status — failed
        shards included).
        """

        def step(query_cols, batch_input, traces, start):
            timings = (
                None if traces is None else [None] * self.catalog.n_shards
            )
            result, lost, errors = scatter(
                query_cols, batch_input, timings=timings, **policy
            )
            failed.update(lost)
            if traces is not None:
                self._record_scatter_spans(
                    traces, phase, start, time.perf_counter(), child_name,
                    timings, lost, errors, batch_size=len(query_cols),
                )
            return result

        return step

    @staticmethod
    def _record_scatter_spans(
        traces,
        phase: str,
        start: float,
        end: float,
        child_name: str,
        timings: list | None,
        failed: set[int],
        errors: dict,
        *,
        batch_size: int,
    ) -> None:
        """Add one shared scatter-phase span plus per-shard children to
        every query's trace (the scatter serves the whole batch, so the
        phase genuinely belongs to each query).

        Child status is ``"ok"``, ``"timeout"``
        (:class:`~repro.serving.workers.DeadlineExceeded`) or
        ``"error"``; a shard whose task never ran (cancelled after an
        earlier failure) has no wall time to report and appears as a
        zero-length child at the phase end, so failed shards are always
        visible in the trace.
        """
        children: list[tuple[float, float, dict]] = []
        for shard, timing in enumerate(timings or ()):
            meta: dict = {"shard": shard}
            if shard in failed:
                error = errors.get(shard)
                meta["status"] = (
                    "timeout"
                    if isinstance(error, DeadlineExceeded)
                    else "error"
                )
                if error is not None:
                    meta["error"] = type(error).__name__
            else:
                meta["status"] = "ok"
            child_start, child_end = timing if timing else (end, end)
            children.append((child_start, child_end, meta))
        for tr in traces:
            if tr is None:
                continue
            tr.add(
                phase, start, end,
                shared=True, batch_size=batch_size,
                shards_failed=len(failed),
            )
            for child_start, child_end, meta in children:
                tr.add(
                    child_name, child_start, child_end,
                    parent=phase, **meta,
                )

    # -- public query surface ------------------------------------------------

    def query(
        self,
        query_sketch: CorrelationSketch,
        k: int = 10,
        scorer: str = "rp_cih",
        *,
        exclude_id: str | None = None,
        true_correlations: dict[str, float] | None = None,
        rng: np.random.Generator | None = None,
        deadline_ms: float | None = None,
        on_shard_error: str = "raise",
        trace=None,
    ) -> QueryResult:
        """Evaluate one top-``k`` query across all shards: a
        :meth:`query_batch` of one.

        Same signature, defaults and rng semantics as
        :meth:`JoinCorrelationEngine.query
        <repro.index.engine.JoinCorrelationEngine.query>`; the result is
        bit-identical to that method on a monolithic catalog holding the
        union of the shards.

        Args:
            deadline_ms: wall-clock budget for the shard fan-out; shards
                whose probe or assembly has not completed in time count
                as failed (policy below). ``None`` waits indefinitely.
            on_shard_error: ``"raise"`` (default) propagates the
                lowest-index shard failure; ``"partial"`` serves the
                surviving shards and flags the result ``degraded``.
            trace: optional :class:`repro.obs.trace.Trace` recording
                the scatter-gather phases with per-shard child spans
                (see :meth:`JoinCorrelationEngine.query
                <repro.index.engine.JoinCorrelationEngine.query>` —
                tracing never touches the rng).
        """
        return self.query_batch(
            [query_sketch], k=k, scorer=scorer, exclude_ids=[exclude_id],
            true_correlations=[true_correlations], rng=rng,
            deadline_ms=deadline_ms, on_shard_error=on_shard_error,
            traces=None if trace is None else [trace],
        )[0]

    def query_batch(
        self,
        query_sketches,
        k: int = 10,
        scorer: str = "rp_cih",
        *,
        exclude_ids: list[str | None] | None = None,
        true_correlations: list[dict[str, float] | None] | None = None,
        rng: np.random.Generator | None = None,
        deadline_ms: float | None = None,
        on_shard_error: str = "raise",
        traces: list | None = None,
    ) -> list[QueryResult]:
        """Evaluate many queries with one scatter-gather round per phase.

        The engine's pipeline (:meth:`JoinCorrelationEngine.query_batch
        <repro.index.engine.JoinCorrelationEngine.query_batch>`) with
        both stage steps asking the shards first: one fan-out and one
        stacked probe answer all queries, one fan-out precedes the
        pages, and everything after is the engine's own code — so the
        batch inherits both parity contracts: bit-identical to looping
        :meth:`query`, and bit-identical to the monolithic engine.

        ``deadline_ms`` / ``on_shard_error`` behave as in :meth:`query`;
        the deadline budgets the whole batch's fan-out (one scatter
        serves every query), and a dropped shard degrades every query in
        the batch — each result reports the same ``shards_failed``.
        """
        validate_resilience(deadline_ms, on_shard_error)
        partial = on_shard_error == "partial"
        failed: set[int] = set()
        # The deadline bounds the probe scatter — the phase where a
        # straggler shard (a cold load, a slow LSH probe) can stall the
        # answer indefinitely. The page over the *surviving* shards'
        # hits always runs to completion (it is bounded work over
        # already-retrieved candidates), so a blown deadline yields a
        # degraded answer, never an empty late one; assembly-phase
        # failures still drop their shard under ``partial``.
        retrieve = self._stage_step(
            self._scatter_retrieve, "retrieval", "shard_probe", failed,
            deadline_at=(
                None
                if deadline_ms is None
                else time.perf_counter() + deadline_ms / 1000.0
            ),
            partial=partial,
        )
        assemble = self._stage_step(
            self._scatter_assemble, "assemble", "shard_assemble", failed,
            partial=partial,
        )
        return self._evaluate(
            query_sketches, k, scorer, exclude_ids, true_correlations, rng,
            traces, retrieve, assemble,
            shards_probed=self.catalog.n_shards, failed_shards=failed,
        )
