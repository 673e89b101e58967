"""Observability for the serving stack: metrics, tracing, exposition.

Three pieces, all stdlib-only and rng-neutral (instrumentation never
touches a query's random stream, so results stay bit-identical with
observability on or off):

* :mod:`repro.obs.metrics` — a process-global, thread-safe
  :class:`MetricsRegistry` (counters, gauges, log-bucket latency
  histograms with exact-from-buckets p50/p95/p99). The process default
  is a :class:`NullRegistry` that no-ops everything; the HTTP service
  installs a real one via :func:`set_registry` for its lifetime.
* :mod:`repro.obs.trace` — per-query :class:`Trace`/``span()`` phase
  recording, carried in ``QueryResult.trace``.
* :mod:`repro.obs.exposition` / :mod:`repro.obs.slowlog` — Prometheus
  text rendering + parsing for ``GET /metrics`` and the
  ``repro-sketch stats`` verb, and the threshold-gated slow-query log.
"""

from __future__ import annotations

from repro.obs.exposition import (
    parse_prometheus_text,
    quantiles_from_buckets,
    render_prometheus,
)
from repro.obs.metrics import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import Trace, new_trace_id

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SlowQueryLog",
    "Trace",
    "get_registry",
    "new_trace_id",
    "parse_prometheus_text",
    "quantiles_from_buckets",
    "render_prometheus",
    "set_registry",
]

#: The shared disabled registry — the process default.
NULL_REGISTRY = NullRegistry()

_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global registry (the :data:`NULL_REGISTRY` no-op
    unless a service installed a real one)."""
    return _registry


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``registry`` as the process-global sink; ``None``
    restores the disabled default. Returns the installed registry."""
    global _registry
    _registry = NULL_REGISTRY if registry is None else registry
    return _registry
