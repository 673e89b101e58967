"""Sharded catalog + serving subsystem.

Shards are a storage layout over :mod:`repro.index`: a
:class:`ShardedCatalog` partitions sketches across independent
:class:`~repro.index.catalog.SketchCatalog` shards (deterministic
hash-by-id placement, least-loaded table routing, incremental add and
remove with per-shard index invalidation), a :class:`ShardRouter`
checks the shards' availability once per query and then runs the
engine's one probe and one page over all of them, with results
bit-identical to a monolithic catalog, and :mod:`repro.serving.manifest`
persists the whole thing as one directory of per-shard binary snapshots
under a versioned ``manifest.json``, every shard of which
:meth:`ShardedCatalog.load` opens once (a shard that fails stays down).
Queries are answered in the serving process itself.

The resilience layer rides on top: partial answers on the router
(``on_shard_error``), snapshot quarantine with an arena→json fallback chain
(``on_corruption="quarantine"``), and the deterministic fault-injection
harness (:mod:`repro.serving.faults`) that drives all of it in tests
and chaos benchmarks.

The service layer sits at the top: a :class:`QuerySession` unifies the
engine and router query surfaces behind one warm backend plus
one frozen :class:`~repro.index.options.QueryOptions` record, a
:class:`QueryCoalescer` micro-batches concurrent requests into the
amortized ``query_batch`` path with bit-identical responses, and a
:class:`QueryService` exposes the whole stack over stdlib HTTP
(``repro-sketch serve``).
"""

from repro.index.options import QueryOptions
from repro.serving.coalescer import QueryCoalescer
from repro.serving.faults import (
    FaultPlan,
    InjectedFault,
    active_plan,
    injected,
    install,
    uninstall,
)
from repro.serving.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    read_manifest,
    save_sharded,
)
from repro.serving.router import ON_SHARD_ERROR_POLICIES, ShardRouter
from repro.serving.session import QuerySession
from repro.serving.shards import ShardUnavailable, ShardedCatalog

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "ON_SHARD_ERROR_POLICIES",
    "QueryCoalescer",
    "QueryOptions",
    "QueryService",
    "QuerySession",
    "ShardRouter",
    "ShardUnavailable",
    "ShardedCatalog",
    "active_plan",
    "injected",
    "install",
    "read_manifest",
    "save_sharded",
    "uninstall",
]


def __getattr__(name: str):
    # The HTTP stack (http.server, and through it email and ssl) loads
    # only in a process that asks for the service.
    if name == "QueryService":
        from repro.serving.server import QueryService

        return QueryService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
