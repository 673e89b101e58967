"""Process-global metrics: counters, gauges, log-bucket histograms.

Dependency-free (stdlib only) and built for the serving stack's two
hard requirements:

* **Thread safety without lost updates.** Every read-modify-write holds
  one registry lock, so N handler threads hammering the same counter or
  histogram account for every increment (pinned by
  ``tests/test_obs_metrics.py``). The lock is held for a few dict
  operations — far below the cost of the query work being measured.
* **Zero overhead when disabled.** :class:`NullRegistry` no-ops every
  method; it is the process default (see :func:`repro.obs.get_registry`)
  so library callers pay one attribute call per metric site unless a
  service installed a real registry.

Histograms use **fixed log-scale buckets**: 91 bounds at 10^(k/10) for
k in [-70, 20] — 100 ns to 100 s, ~26% per step — so p50/p95/p99 are
derived exactly from bucket counts (no sample retention) with bounded
relative error of one bucket width. Non-latency families (batch sizes)
pass explicit ``buckets=`` at first observation.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "NullRegistry",
]

#: Default histogram bounds (seconds): 10^(k/10), k in [-70, 20].
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    10.0 ** (k / 10.0) for k in range(-70, 21)
)

#: Bounds for small-integer size distributions (coalescer windows).
BATCH_SIZE_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
    96.0, 128.0,
)


class _Histogram:
    """Bucket counts + sum for one labeled series (lock held by owner)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # counts[i] = observations in (bounds[i-1], bounds[i]];
        # counts[len(bounds)] is the overflow bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """The q-quantile estimated from bucket counts.

        Uses NumPy's default rank convention (``q * (count - 1)``) and
        returns the geometric midpoint of the bucket holding that rank,
        so the estimate is within one bucket width of the exact sample
        quantile — the oracle test pins this tolerance.
        """
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        target = int(math.floor(rank))
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative > target:
                return self._representative(i)
        return self._representative(len(self.counts) - 1)

    def _representative(self, index: int) -> float:
        if index >= len(self.bounds):  # overflow: best known lower bound
            return self.bounds[-1]
        if index == 0:
            return self.bounds[0]
        return math.sqrt(self.bounds[index - 1] * self.bounds[index])


def _series_key(name: str, labels: dict) -> tuple:
    if not labels:
        return (name, ())
    if len(labels) == 1:  # the common case: skip the sort
        return (name, tuple(labels.items()))
    return (name, tuple(sorted(labels.items())))


def sample_name(name: str, labels: tuple) -> str:
    """Prometheus-style sample name: ``name{a="b",c="d"}`` (or bare)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Thread-safe metric store (see module docs).

    All mutators take the metric ``name`` plus ``**labels``; a family's
    type (counter/gauge/histogram) is fixed by its first use and a
    conflicting re-use raises — the same name cannot silently mean two
    things on ``/metrics``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._histograms: dict[tuple, _Histogram] = {}
        #: family name -> (kind, help)
        self._families: dict[str, tuple[str, str | None]] = {}
        #: histogram family name -> bounds (fixed at first declaration)
        self._bounds: dict[str, tuple[float, ...]] = {}

    @property
    def enabled(self) -> bool:
        return True

    # -- internal (lock held) ------------------------------------------------

    def _declare(self, name: str, kind: str, help: str | None) -> None:
        known = self._families.get(name)
        if known is None:
            self._families[name] = (kind, help)
        elif known[0] != kind:
            raise ValueError(
                f"metric {name!r} is a {known[0]}, not a {kind}"
            )
        elif help is not None and known[1] is None:
            self._families[name] = (kind, help)

    # -- mutators ------------------------------------------------------------

    def inc(
        self, name: str, value: float = 1.0, *, help: str | None = None,
        **labels: str,
    ) -> None:
        """Add ``value`` to a counter series (creating it at 0)."""
        key = _series_key(name, labels)
        with self._lock:
            self._declare(name, "counter", help)
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(
        self, name: str, value: float, *, help: str | None = None,
        **labels: str,
    ) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._declare(name, "gauge", help)
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: tuple[float, ...] | None = None,
        help: str | None = None,
        **labels: str,
    ) -> None:
        """Record one observation into a histogram series.

        ``buckets`` fixes the family's bounds on first use (default
        :data:`LATENCY_BUCKETS`); later calls may omit it.
        """
        key = _series_key(name, labels)
        with self._lock:
            self._declare(name, "histogram", help)
            bounds = self._bounds.get(name)
            if bounds is None:
                bounds = (
                    LATENCY_BUCKETS if buckets is None else tuple(buckets)
                )
                self._bounds[name] = bounds
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram(bounds)
            histogram.observe(value)

    def observe_many(
        self,
        name: str,
        samples: list[tuple[float, dict]],
        *,
        buckets: tuple[float, ...] | None = None,
        help: str | None = None,
    ) -> None:
        """Record many ``(value, labels)`` observations in one lock
        round-trip — the hot-path form used per served query (one
        acquisition instead of one per phase)."""
        with self._lock:
            self._declare(name, "histogram", help)
            bounds = self._bounds.get(name)
            if bounds is None:
                bounds = (
                    LATENCY_BUCKETS if buckets is None else tuple(buckets)
                )
                self._bounds[name] = bounds
            for value, labels in samples:
                key = _series_key(name, labels)
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = _Histogram(bounds)
                histogram.observe(value)

    def declare(
        self,
        name: str,
        kind: str,
        *,
        help: str | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        """Pre-register a family so ``/metrics`` lists it before first
        use (a scrape of a fresh service should already show the schema)."""
        with self._lock:
            self._declare(name, kind, help)
            if kind == "histogram" and name not in self._bounds:
                self._bounds[name] = (
                    LATENCY_BUCKETS if buckets is None else tuple(buckets)
                )

    # -- readers -------------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def counter_samples(self, name: str) -> list[tuple[dict, float]]:
        """Every ``(labels, value)`` series of one counter family."""
        with self._lock:
            return [
                (dict(key[1]), value)
                for key, value in sorted(self._counters.items())
                if key[0] == name
            ]

    def quantile(self, name: str, q: float, **labels: str) -> float:
        with self._lock:
            histogram = self._histograms.get(_series_key(name, labels))
            return math.nan if histogram is None else histogram.quantile(q)

    def snapshot(self) -> dict:
        """One JSON-safe dict of every series — counters and gauges by
        sample name, histograms summarized as count/sum/p50/p95/p99."""
        with self._lock:
            return {
                "counters": {
                    sample_name(*key): value
                    for key, value in sorted(self._counters.items())
                },
                "gauges": {
                    sample_name(*key): value
                    for key, value in sorted(self._gauges.items())
                },
                "histograms": {
                    sample_name(*key): {
                        "count": h.count,
                        "sum": h.sum,
                        "p50": h.quantile(0.50),
                        "p95": h.quantile(0.95),
                        "p99": h.quantile(0.99),
                    }
                    for key, h in sorted(self._histograms.items())
                },
            }

    def dump(self) -> dict:
        """Full raw state (bucket counts included) for the Prometheus
        renderer — one consistent cut taken under the lock."""
        with self._lock:
            return {
                "families": dict(self._families),
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: {
                        "bounds": h.bounds,
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for key, h in self._histograms.items()
                },
                "bounds": dict(self._bounds),
            }

    def reset(self) -> None:
        """Drop every series (test isolation helper)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._families.clear()
            self._bounds.clear()


class NullRegistry(MetricsRegistry):
    """The disabled default: same surface, no state, no locking."""

    def __init__(self) -> None:  # noqa: D107 - no state to build
        pass

    @property
    def enabled(self) -> bool:
        return False

    def inc(self, name, value=1.0, *, help=None, **labels) -> None:
        pass

    def set_gauge(self, name, value, *, help=None, **labels) -> None:
        pass

    def observe(
        self, name, value, *, buckets=None, help=None, **labels
    ) -> None:
        pass

    def observe_many(self, name, samples, *, buckets=None, help=None) -> None:
        pass

    def declare(self, name, kind, *, help=None, buckets=None) -> None:
        pass

    def counter_value(self, name, **labels) -> float:
        return 0.0

    def counter_samples(self, name) -> list:
        return []

    def quantile(self, name, q, **labels) -> float:
        return math.nan

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def dump(self) -> dict:
        return {
            "families": {}, "counters": {}, "gauges": {},
            "histograms": {}, "bounds": {},
        }

    def reset(self) -> None:
        pass
