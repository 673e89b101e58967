"""Query routing over a sharded catalog.

A :class:`ShardRouter` evaluates top-k join-correlation queries against
a :class:`~repro.serving.shards.ShardedCatalog` with **exact result
semantics**: for every scorer, rng mode and retrieval backend, the
result is bit-identical — ids, scores and order — to running the same
query against one monolithic catalog holding the union of the shards.
Shards are a storage layout, not a serving tier: the kernels run once,
over all of them. Three facts:

* **availability is checked once per call.** The retrieval stage step
  walks the shards in index order, on the calling thread: every shard
  passes the ``shard_probe`` fault point and is fetched
  (:meth:`~repro.serving.shards.ShardedCatalog.shard`, which raises the
  error a shard failed to open with at load — a quarantined one's is
  :class:`~repro.serving.shards.ShardUnavailable`). That check is all
  the router does shard by shard.
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
  candidate from its owning shard, so the engine's own assembly over
  the hits is the monolithic page. Everything page-shaped — the
  ``rp_cih`` min-max normalization, the ``random`` scorer's draws, both
  PM1 bootstrap rng disciplines — then runs in the monolithic engine's
  own pipeline: a :class:`ShardRouter` *is* a
  :class:`~repro.index.engine.JoinCorrelationEngine` whose retrieval
  step asks the shards first. (The per-shard probes and sub-pages this
  replaced are the test oracle ``tests/scatter_router_oracle.py``.)

**Failure model.** ``query``/``query_batch`` take an ``on_shard_error``
policy. A shard fails when its check raises (an injected fault, or a
quarantined shard); every failed shard bumps the per-shard
``repro_shard_errors_total`` counter, under either policy. Under
``"raise"`` (the default) the lowest-index failure propagates. Under
``"partial"`` failed shards are left out of the probe and the answer is
the exact answer over the surviving shards' union, flagged via
``QueryResult.shards_failed`` and ``degraded``. With no faults firing,
both policies execute the identical code path and results stay
bit-identical to the monolithic engine.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.index.engine import JoinCorrelationEngine, QueryResult
from repro.index.inverted import merge_hits
from repro.index.options import ON_SHARD_ERROR_POLICIES, validate_resilience
from repro.obs import get_registry
from repro.serving.faults import maybe_fire

__all__ = [
    "ON_SHARD_ERROR_POLICIES",  # re-exported from repro.index.options
    "ShardRouter",
]


class ShardRouter(JoinCorrelationEngine):
    """Top-k query evaluation across catalog shards.

    The :class:`~repro.index.engine.JoinCorrelationEngine` query surface
    (``query`` / ``query_batch``, same constructor, same defaults, same
    :class:`~repro.index.engine.QueryResult` output with
    ``shards_probed`` set) and its one pipeline, so callers can swap a
    monolithic engine for a sharded one without touching call sites.
    What the router adds is only what is genuinely its own: the per-call
    ``on_shard_error`` policy, shard accounting and per-shard trace
    spans. ``catalog`` is the :class:`ShardedCatalog` to serve;
    ``retrieval_depth`` counts candidates over all shards together.
    """

    def warm(self) -> dict[int, Exception]:
        """Build the surviving shards' stacked CSR now, instead of on
        first probe; returns the shards that failed to open (index →
        error) — :meth:`ShardedCatalog.warm`. :meth:`QuerySession.warm
        <repro.serving.session.QuerySession.warm>` calls it and judges
        the failures by the session's ``on_shard_error`` policy.
        """
        return self.catalog.warm()

    # -- the retrieval stage step --------------------------------------------

    def _check_shards(self) -> list[tuple[float, float, Exception | None]]:
        """Walk the shards in index order: fire each one's fault point
        and fetch it. Returns one ``(start, end, error)`` per shard —
        its wall clock (the source of its trace span) and what it
        raised, None when it is available."""
        checks = []
        for index in range(self.catalog.n_shards):
            start = time.perf_counter()
            error = None
            try:
                maybe_fire("shard_probe", shard=index)
                self.catalog.shard(index)
            except Exception as exc:  # noqa: BLE001 — the policy decides
                error = exc
            checks.append((start, time.perf_counter(), error))
        return checks

    def _probe_shards(
        self,
        survivors: list[int],
        query_cols: list,
        exclude_ids: list[str | None],
    ) -> list[list[tuple[str, int]]]:
        """Every query's hits over the ``survivors`` (shard indices):
        one probe of their stacked CSR, or — LSH only — one probe per
        shard, heap-merged per query."""
        options = self.options
        if options.retrieval_backend == "lsh":
            per_shard = [
                self._probe(self.catalog.shard(s), query_cols, exclude_ids)
                for s in survivors
            ]
            return [
                merge_hits([hits[q] for hits in per_shard], options.depth)
                for q in range(len(query_cols))
            ]
        return self.catalog.stacked_postings(survivors).top_overlap_batch(
            [cols.key_hashes for cols in query_cols],
            options.depth,
            excludes=exclude_ids,
            min_overlap=options.min_overlap,
        )

    def _retrieve_from_shards(
        self, degrade: bool, failed: set[int],
        query_cols, exclude_ids, traces, start,
    ):
        """The retrieval stage step of one call
        (:meth:`~repro.index.engine.JoinCorrelationEngine._evaluate`),
        once ``degrade`` (the ``"partial"`` policy) and ``failed`` (the
        per-call set the pipeline reads ``shards_failed``/``degraded``
        from) are bound.

        Checks every shard once and counts every failure, then either
        re-raises the lowest-index failure or records the failures in
        ``failed`` and probes the survivors. With traces, the phase lands
        in every query's trace as one shared ``retrieval`` span with a
        ``shard_probe`` child per shard, carrying its index and
        ``ok``/``error`` status.
        """
        checks = self._check_shards()
        errors = {
            shard: error
            for shard, (_, _, error) in enumerate(checks)
            if error is not None
        }
        if errors:
            registry = get_registry()
            for shard in errors:
                registry.inc(
                    "repro_shard_errors_total",
                    help="Shards that failed their availability check, "
                    "by shard",
                    shard=str(shard),
                )
            if not degrade:
                raise errors[min(errors)]
            failed.update(errors)
        survivors = [s for s in range(len(checks)) if s not in errors]
        hits_per_query = self._probe_shards(survivors, query_cols, exclude_ids)
        if traces is not None:
            end = time.perf_counter()
            for tr in traces:
                if tr is None:
                    continue
                tr.add(
                    "retrieval", start, end,
                    shared=True, batch_size=len(query_cols),
                    shards_failed=len(errors),
                )
                for shard, (child_start, child_end, error) in enumerate(checks):
                    status = (
                        {"status": "ok"}
                        if error is None
                        else {"status": "error", "error": type(error).__name__}
                    )
                    tr.add(
                        "shard_probe", child_start, child_end,
                        parent="retrieval", shard=shard, **status,
                    )
        return hits_per_query

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
            on_shard_error: ``"raise"`` (default) propagates the
                lowest-index shard failure; ``"partial"`` serves the
                surviving shards and flags the result ``degraded``.
            trace: optional :class:`repro.obs.trace.Trace` recording the
                phases with per-shard child spans (see
                :meth:`JoinCorrelationEngine.query
                <repro.index.engine.JoinCorrelationEngine.query>` —
                tracing never touches the rng).
        """
        return self.query_batch(
            [query_sketch], k=k, scorer=scorer, exclude_ids=[exclude_id],
            true_correlations=[true_correlations], rng=rng,
            on_shard_error=on_shard_error,
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
        on_shard_error: str = "raise",
        traces: list | None = None,
    ) -> list[QueryResult]:
        """Evaluate many queries with one shard check and one probe.

        The engine's pipeline (:meth:`JoinCorrelationEngine.query_batch
        <repro.index.engine.JoinCorrelationEngine.query_batch>`) with a
        retrieval step that checks the shards first; everything after
        is the engine's own code — so the batch inherits both parity
        contracts: bit-identical to looping :meth:`query`, and
        bit-identical to the monolithic engine.

        ``on_shard_error`` behaves as in :meth:`query`; one check serves
        every query, so a dropped shard degrades every query in the
        batch — each result reports the same ``shards_failed``.
        """
        validate_resilience(on_shard_error)
        failed: set[int] = set()
        return self._evaluate(
            query_sketches, k, scorer, exclude_ids, true_correlations, rng,
            traces,
            partial(
                self._retrieve_from_shards, on_shard_error == "partial", failed
            ),
            self._assemble,
            shards_probed=self.catalog.n_shards, failed_shards=failed,
        )
