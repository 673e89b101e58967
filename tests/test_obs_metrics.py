"""Metrics registry: thread safety, quantile fidelity, the null default.

The registry is the ground truth behind ``/metrics``; these tests pin
the properties the serving stack leans on: concurrent increments are
never lost (every write holds the registry lock), histogram
p50/p95/p99 reconstructed from bucket counts track a NumPy percentile
oracle to within one log-bucket width, and the :class:`NullRegistry`
default records nothing at all.
"""

import threading

import numpy as np
import pytest

from repro.obs import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    get_registry,
    parse_prometheus_text,
    quantiles_from_buckets,
    render_prometheus,
    set_registry,
)

#: Adjacent LATENCY_BUCKETS bounds differ by 10^0.1 ≈ 1.2589; a bucket
#: representative can therefore sit at most one ratio away from any
#: point inside its bucket (and the estimator uses the geometric
#: midpoint, which halves that in log space).
BUCKET_RATIO = 10 ** 0.1


# -- counters under contention ------------------------------------------------


class TestThreadSafety:
    def test_no_lost_counter_increments(self):
        registry = MetricsRegistry()
        n_threads, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                registry.inc("hits_total")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter_value("hits_total") == n_threads * per_thread

    def test_no_lost_histogram_observations(self):
        registry = MetricsRegistry()
        n_threads, per_thread = 8, 2000

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for value in rng.uniform(0.001, 1.0, per_thread):
                registry.observe("latency_seconds", float(value))

        threads = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["histograms"]["latency_seconds"]["count"] == (
            n_threads * per_thread
        )

    def test_labeled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.inc("req_total", endpoint="/a")
        registry.inc("req_total", 2.0, endpoint="/b")
        assert registry.counter_value("req_total", endpoint="/a") == 1.0
        assert registry.counter_value("req_total", endpoint="/b") == 2.0
        assert registry.counter_value("req_total", endpoint="/c") == 0.0


# -- histogram quantiles vs the NumPy oracle ----------------------------------


class TestQuantileOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng, n: rng.uniform(0.0005, 2.0, n),
            lambda rng, n: rng.lognormal(-4.0, 1.5, n),
            lambda rng, n: rng.exponential(0.01, n),
        ],
        ids=["uniform", "lognormal", "exponential"],
    )
    def test_within_one_bucket_of_percentile(self, seed, draw):
        rng = np.random.default_rng(seed)
        values = draw(rng, 4000)
        registry = MetricsRegistry()
        for value in values:
            registry.observe("x_seconds", float(value))
        for q in (0.50, 0.95, 0.99):
            oracle = float(np.percentile(values, q * 100))
            estimate = registry.quantile("x_seconds", q)
            assert oracle / BUCKET_RATIO <= estimate <= oracle * BUCKET_RATIO, (
                f"q={q}: estimate {estimate} vs oracle {oracle}"
            )

    def test_exposition_round_trip_matches_registry(self):
        """A /metrics consumer reconstructs the registry's own
        quantiles exactly from the rendered cumulative buckets."""
        rng = np.random.default_rng(3)
        registry = MetricsRegistry()
        # Dense draws from one decade so the sparse rendering keeps
        # every populated bucket's predecessor populated too.
        for value in rng.uniform(0.001, 0.01, 3000):
            registry.observe("y_seconds", float(value))
        families = parse_prometheus_text(render_prometheus(registry))
        reconstructed = quantiles_from_buckets(families["y_seconds"])
        for q, value in reconstructed.items():
            assert value == registry.quantile("y_seconds", q)

    def test_custom_buckets(self):
        registry = MetricsRegistry()
        for size in (1, 1, 2, 4, 16):
            registry.observe(
                "batch", float(size), buckets=BATCH_SIZE_BUCKETS
            )
        snap = registry.snapshot()["histograms"]["batch"]
        assert snap["count"] == 5
        assert snap["sum"] == 24.0


# -- the disabled default -----------------------------------------------------


class TestNullRegistry:
    def test_default_is_null(self):
        assert get_registry() is NULL_REGISTRY
        assert not NULL_REGISTRY.enabled

    def test_null_records_nothing(self):
        null = NullRegistry()
        null.inc("a_total")
        null.set_gauge("g", 5.0)
        null.observe("h_seconds", 0.1)
        null.declare("d_total", "counter", help="x")
        assert null.counter_value("a_total") == 0.0
        snap = null.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_set_registry_installs_and_restores(self):
        registry = MetricsRegistry()
        try:
            assert set_registry(registry) is registry
            assert get_registry() is registry
        finally:
            assert set_registry(None) is NULL_REGISTRY
        assert get_registry() is NULL_REGISTRY


# -- exposition format --------------------------------------------------------


class TestExposition:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.inc("req_total", 3.0, help="requests", endpoint="/q")
        registry.set_gauge("up", 1.0, help="liveness")
        registry.observe("lat_seconds", 0.005, help="latency")
        text = render_prometheus(registry)
        families = parse_prometheus_text(text)
        assert families["req_total"]["type"] == "counter"
        assert families["req_total"]["help"] == "requests"
        assert ("", {"endpoint": "/q"}, 3.0) in families["req_total"][
            "samples"
        ]
        assert families["up"]["samples"] == [("", {}, 1.0)]
        lat = families["lat_seconds"]
        assert lat["type"] == "histogram"
        suffixes = {suffix for suffix, _, _ in lat["samples"]}
        assert suffixes == {"_bucket", "_sum", "_count"}
        # Cumulative buckets end in +Inf carrying the total count.
        inf = [
            value
            for suffix, labels, value in lat["samples"]
            if suffix == "_bucket" and labels["le"] == "+Inf"
        ]
        assert inf == [1.0]

    def test_declared_family_renders_before_first_sample(self):
        registry = MetricsRegistry()
        registry.declare("later_total", "counter", help="declared early")
        text = render_prometheus(registry)
        assert "# TYPE later_total counter" in text
        assert "# HELP later_total declared early" in text

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.inc("thing")
        with pytest.raises(ValueError):
            registry.observe("thing", 0.5)

    def test_malformed_exposition_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is { not a sample\n")
