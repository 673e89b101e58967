"""Per-query phase tracing for the serving stack.

A :class:`Trace` is a request-scoped recorder of *named phases*: the
session creates one per query (with a ``trace_id`` minted from
:func:`new_trace_id`), the execution layers add spans as they run —
``queue_wait``, ``retrieval``, ``assemble``, ``score``, ``merge``,
``wire_encode``, plus a per-shard ``shard_probe`` child under
``retrieval`` on a sharded catalog — and the finished record travels in
``QueryResult.trace`` as a plain strict-JSON dict.

Design constraints, in order of importance:

* **Never touches the query's rng.** ``trace_id`` comes from
  :func:`os.urandom` and timestamps from :func:`time.perf_counter`, so
  tracing cannot perturb any scored result — the bit-parity suites run
  with tracing on and off and compare rankings bit for bit.
* **One clock.** Spans are recorded relative to the trace's
  ``origin`` (a ``perf_counter`` reading captured at creation), so
  spans from every layer — and the session's ``queue_wait``, which
  predates the origin — line up without any clock translation.
* **Cheap.** A span is one dict append bracketed by two
  ``perf_counter`` calls; layers skip even that when no trace was
  requested (``trace is None`` is the no-op path).

Span schema (one flat list, parent links by name)::

    {"name": str, "start_ms": float, "duration_ms": float,
     "parent": str (absent for top-level), "meta": dict (absent if empty)}

``start_ms`` is relative to the trace origin and may be negative for
work that predates it (the coalescer's ``queue_wait`` happens before
the session mints the trace). Top-level spans partition the query's
wall time; children (``parent`` set) refine a phase and are excluded
from phase-latency metrics to avoid double counting.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

__all__ = ["Trace", "new_trace_id"]


def new_trace_id() -> str:
    """A 16-hex-char request id from the OS entropy pool.

    Deliberately not ``numpy`` randomness: the query path's rng streams
    are part of the bit-parity contract and must not be consumed by
    instrumentation.
    """
    return os.urandom(8).hex()


class Trace:
    """An append-only span recorder for one query.

    Args:
        trace_id: explicit id (propagated from an upstream system);
            minted via :func:`new_trace_id` when omitted.
        origin: ``perf_counter`` zero point for ``start_ms``; defaults
            to *now* (trace creation in ``QuerySession.submit``).
    """

    __slots__ = ("trace_id", "origin", "spans")

    def __init__(
        self, trace_id: str | None = None, *, origin: float | None = None
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else new_trace_id()
        self.origin = time.perf_counter() if origin is None else origin
        self.spans: list[dict] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: str | None = None,
        **meta,
    ) -> dict:
        """Record one finished span from raw ``perf_counter`` readings."""
        span: dict = {
            "name": name,
            "start_ms": (start - self.origin) * 1000.0,
            "duration_ms": (end - start) * 1000.0,
        }
        if parent is not None:
            span["parent"] = parent
        if meta:
            span["meta"] = meta
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, *, parent: str | None = None, **meta):
        """Time a ``with`` block as one span (records even on raise)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, start, time.perf_counter(), parent=parent, **meta)

    def to_dict(self) -> dict:
        """The wire form carried in ``QueryResult.trace`` — strict JSON
        (plain floats, no NaN/inf by construction)."""
        return {"trace_id": self.trace_id, "spans": list(self.spans)}

    # -- read-side helpers (used by --profile, the slow-query log, tests) ----

    @staticmethod
    def phase_totals(block: dict) -> dict[str, float]:
        """Top-level phase name -> duration_ms, from a ``to_dict`` block.

        Children are excluded — top-level spans partition the query's
        wall time, children refine a phase they are already inside.
        """
        totals: dict[str, float] = {}
        for span in block.get("spans", ()):
            if "parent" in span:
                continue
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + span["duration_ms"]
            )
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.trace_id!r}, spans={len(self.spans)})"
