"""The scatter-gather router's predecessor kernels, kept as a test oracle.

Until PR 24 :class:`repro.serving.router.ShardRouter` answered both
stage steps shard by shard: every shard ran its own layered probe and
the per-shard hit lists were heap-merged (``merge_hits``); every shard
assembled its own candidates into a sub-page and the sub-pages were
re-interleaved with ``CandidatePage.concat`` + ``take``. The router now
runs one probe over the catalog's stacked CSR and one page assembly per
query; the two methods below are those per-shard kernels, on a subclass
that shares everything else (the shard check, failure policy, trace
spans, the engine's pipeline) with the router under test.

Not a test module: ``tests/test_serving_router_stack.py`` and
``tests/test_serving_router.py`` import it by bare name and hold
router == oracle == monolithic engine.
"""

from __future__ import annotations

import numpy as np

from repro.index.engine import CandidatePage
from repro.index.inverted import merge_hits
from repro.serving.router import ShardRouter


class ScatterRouterOracle(ShardRouter):
    """:class:`ShardRouter` with the per-shard probe and the per-shard
    page assembly it had before the stacked CSR."""

    def _probe_shards(
        self,
        survivors: list[int],
        query_cols: list,
        exclude_ids: list[str | None],
    ) -> list[list[tuple[str, int]]]:
        """Probe every surviving shard for every query; merge per query
        (for every backend, not only LSH)."""
        per_shard = {
            index: self._probe(
                self.catalog.shard(index), query_cols, exclude_ids
            )
            for index in survivors
        }
        return [
            merge_hits(
                [per_shard[s][q] for s in survivors], self.options.depth
            )
            for q in range(len(query_cols))
        ]

    def _assemble(self, query_cols, hits_per_query, traces=None, start=None):
        """Assemble every query's candidate page, shard-locally.

        Each query's merged hits are split by owning shard; every shard
        assembles its own candidates in one page-level pass, and the
        sub-pages are merged back into the global hit order with one
        page-level ``concat`` + ``take`` — bit-identical to a monolithic
        assembly because every per-candidate value depends only on
        (query, candidate). Records no trace spans.
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

        #: query -> (page positions, sub-page) per shard
        parts: list[list[tuple[list[int], CandidatePage]]] = [
            [] for _ in hits_per_query
        ]
        for index, tasks in enumerate(shard_tasks):
            if not tasks:
                continue  # e.g. a shard the partial policy left out
            shard = self.catalog.shard(index)
            for q, positions, subset in tasks:
                parts[q].append(
                    (positions, CandidatePage.assemble(shard, query_cols[q], subset))
                )
        pages: list[CandidatePage] = []
        for query_parts in parts:
            page = CandidatePage.concat([sub for _, sub in query_parts])
            if len(query_parts) > 1:
                # Sub-pages sit shard by shard; restore the hit order.
                positions = [pos for held, _ in query_parts for pos in held]
                page = page.take(np.argsort(positions))
            pages.append(page)
        return pages
