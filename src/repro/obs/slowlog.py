"""Threshold-gated slow-query log: one JSON line per offending query.

A query slower than ``threshold_ms`` end to end emits exactly one
single-line JSON record to the sink (stderr by default, or an append
file), summarizing its trace: per-phase totals, the slowest shard
(from the per-shard child spans) and any failed shards — enough to
answer "where did this one go" without re-running anything. Fault-free
fast traffic emits nothing (the fault-injection regression test pins
both directions).

Record schema::

    {"event": "slow_query", "trace_id": str | None, "endpoint": str,
     "total_ms": float, "threshold_ms": float, "unix_ts": float,
     "phases": {name: ms, ...},
     "slowest_shard": {"shard": int, "phase": str, "duration_ms": float,
                       "status": str} | null,
     "failed_shards": [int, ...]}

``slowest_shard.phase`` names the phase the shard's child span refines;
the router checks shards only during ``retrieval``, so it is always
``"retrieval"``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

from repro.obs.trace import Trace

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Write one JSON line per query slower than the threshold.

    Args:
        threshold_ms: queries at or above this end-to-end wall time are
            logged; everything faster is ignored.
        sink: ``None`` writes to ``sys.stderr``; a path string/Path
            appends to that file (created on first record).
    """

    def __init__(
        self, threshold_ms: float, sink: str | Path | None = None
    ) -> None:
        if threshold_ms < 0:
            raise ValueError(
                f"threshold_ms must be non-negative, got {threshold_ms}"
            )
        self.threshold_ms = float(threshold_ms)
        self.sink = None if sink is None else Path(sink)
        self._lock = threading.Lock()
        #: Records written over this log's life (telemetry).
        self.recorded = 0

    @staticmethod
    def _shard_summary(block: dict | None) -> tuple[dict | None, list[int]]:
        """(slowest shard child span, failed shard indexes) of a trace."""
        slowest: dict | None = None
        failed: set[int] = set()
        if block is None:
            return None, []
        for span in block.get("spans", ()):
            meta = span.get("meta", {})
            if "shard" not in meta:
                continue
            if meta.get("status", "ok") != "ok":
                failed.add(int(meta["shard"]))
            if (
                slowest is None
                or span["duration_ms"] > slowest["duration_ms"]
            ):
                slowest = {
                    "shard": int(meta["shard"]),
                    "phase": span.get("parent", span["name"]),
                    "duration_ms": span["duration_ms"],
                    "status": meta.get("status", "ok"),
                }
        return slowest, sorted(failed)

    def maybe_record(
        self,
        *,
        total_ms: float,
        trace: dict | None,
        endpoint: str = "/query",
    ) -> bool:
        """Log the query if it breached the threshold; returns whether
        a record was written."""
        if total_ms < self.threshold_ms:
            return False
        slowest, failed = self._shard_summary(trace)
        record = {
            "event": "slow_query",
            "trace_id": None if trace is None else trace.get("trace_id"),
            "endpoint": endpoint,
            "total_ms": round(total_ms, 3),
            "threshold_ms": self.threshold_ms,
            "unix_ts": time.time(),
            "phases": {
                name: round(ms, 3)
                for name, ms in (
                    {} if trace is None else Trace.phase_totals(trace)
                ).items()
            },
            "slowest_shard": slowest,
            "failed_shards": failed,
        }
        line = json.dumps(record, allow_nan=False)
        with self._lock:
            if self.sink is None:
                print(line, file=sys.stderr, flush=True)
            else:
                with self.sink.open("a") as handle:
                    handle.write(line + "\n")
            self.recorded += 1
        return True
