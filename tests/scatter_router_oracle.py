"""The scatter-gather router's predecessor kernels, kept as a test oracle.

Until PR 24 :class:`repro.serving.router.ShardRouter` answered both
stage steps shard by shard: every shard ran its own layered probe and
the per-shard hit lists were heap-merged (``merge_hits``); every shard
assembled its own candidates into a sub-page and the sub-pages were
re-interleaved with ``CandidatePage.concat`` + ``take``. The router now
runs one probe over the catalog's stacked CSR and one page assembly per
query; the two methods below are the parent commit's, verbatim, on a
subclass that shares everything else (fan-out supervision, failure
policy, trace spans, the engine's pipeline) with the router under test.

Not a test module: ``tests/test_serving_router_stack.py`` imports it by
bare name and holds router == oracle == monolithic engine.
"""

from __future__ import annotations

import time

import numpy as np

from repro.index.engine import CandidatePage
from repro.index.inverted import merge_hits
from repro.serving.faults import maybe_fire
from repro.serving.router import ShardRouter


class ScatterRouterOracle(ShardRouter):
    """:class:`ShardRouter` with the per-shard probe and the per-shard
    page assembly it had before the stacked CSR."""

    def _scatter_retrieve(
        self,
        query_cols: list,
        exclude_ids: list[str | None],
        *,
        deadline_at: float | None = None,
        partial: bool = False,
        timings: list | None = None,
    ) -> tuple[list[list[tuple[str, int]]], set[int], dict]:
        """Probe every shard for every query; merge per query.

        Returns ``(hits_per_query, failed_shards, errors_by_shard)``.
        Without a deadline and under the ``"raise"`` policy this is the
        plain fan-out — any failure propagates and ``failed_shards`` is
        empty; otherwise probes run supervised, and shards that raised
        or missed the deadline are excluded from the merge
        (``partial``) or re-raised lowest-index-first. With ``timings``
        (a pre-sized per-shard list) each probe records its
        ``(start, end)`` wall clock — the source of per-shard trace
        spans; a shard whose probe was cancelled leaves None.
        """

        def probe(index: int) -> list[list[tuple[str, int]]]:
            start = time.perf_counter() if timings is not None else 0.0
            try:
                maybe_fire("shard_probe", shard=index)
                return self._probe(
                    self.catalog.shard(index), query_cols, exclude_ids
                )
            finally:
                if timings is not None:
                    timings[index] = (start, time.perf_counter())

        n_shards = self.catalog.n_shards
        per_shard, failed, errors = self._supervised_fanout(
            probe, n_shards, deadline_at=deadline_at, partial=partial
        )
        survivors = [s for s in range(n_shards) if s not in failed]
        return [
            merge_hits(
                [per_shard[s][q] for s in survivors], self.options.depth
            )
            for q in range(len(query_cols))
        ], failed, errors

    def _scatter_assemble(
        self,
        query_cols: list,
        hits_per_query: list[list[tuple[str, int]]],
        *,
        deadline_at: float | None = None,
        partial: bool = False,
        timings: list | None = None,
    ) -> tuple[list[CandidatePage], set[int], dict]:
        """Assemble every query's candidate page, shard-locally.

        Each query's merged hits are split by owning shard; every shard
        assembles its own candidates in one page-level pass, and the
        sub-pages are merged back into the global hit order with one
        page-level ``concat`` + ``take`` — bit-identical to a monolithic
        assembly because every per-candidate value depends only on
        (query, candidate).

        Returns ``(pages, failed_shards, errors_by_shard)``: when a
        shard fails its assembly pass under the ``partial`` policy, its
        candidates are not in the pages (the page-shaped scoring that
        follows must only ever see candidates that were actually
        assembled).
        """
        n_shards = self.catalog.n_shards
        #: shard -> list of (query index, page positions, hits subset)
        shard_tasks: list[list[tuple[int, list[int], list[tuple[str, int]]]]] = [
            [] for _ in range(n_shards)
        ]
        for q, hits in enumerate(hits_per_query):
            buckets: dict[int, tuple[list[int], list[tuple[str, int]]]] = {}
            for pos, hit in enumerate(hits):
                owner = self.catalog.owner_of(hit[0])
                positions, subset = buckets.setdefault(owner, ([], []))
                positions.append(pos)
                subset.append(hit)
            for owner, (positions, subset) in buckets.items():
                shard_tasks[owner].append((q, positions, subset))

        def assemble(index: int):
            start = time.perf_counter() if timings is not None else 0.0
            try:
                maybe_fire("shard_assemble", shard=index)
                shard = self.catalog.shard(index)
                return [
                    (q, positions, CandidatePage.assemble(shard, query_cols[q], subset))
                    for q, positions, subset in shard_tasks[index]
                ]
            finally:
                if timings is not None:
                    timings[index] = (start, time.perf_counter())

        shard_results, failed, errors = self._supervised_fanout(
            assemble, n_shards, deadline_at=deadline_at, partial=partial
        )
        #: query -> (page positions, sub-page) per surviving shard
        parts: list[list[tuple[list[int], CandidatePage]]] = [
            [] for _ in hits_per_query
        ]
        for index, shard_result in enumerate(shard_results):
            if index not in failed:
                for q, positions, sub_page in shard_result:
                    parts[q].append((positions, sub_page))
        pages: list[CandidatePage] = []
        for query_parts in parts:
            page = CandidatePage.concat([sub for _, sub in query_parts])
            if len(query_parts) > 1:
                # Sub-pages sit shard by shard; restore the hit order.
                positions = [pos for held, _ in query_parts for pos in held]
                page = page.take(np.argsort(positions))
            pages.append(page)
        return pages, failed, errors
