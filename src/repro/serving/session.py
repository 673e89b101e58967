"""One uniform seam over every query entry point.

Both backends that answer top-k join-correlation queries — the
monolithic :class:`~repro.index.engine.JoinCorrelationEngine` and the
sharded :class:`~repro.serving.router.ShardRouter`, which is an engine
whose retrieval asks the shards first — take ~8 keyword arguments per
``query_batch`` call. :class:`QuerySession` spells them once for every
caller (CLI, examples, benchmarks, the HTTP service): it owns

* a **warm backend** — engine or router, built once and reused across
  requests (the whole point of a long-lived service);
* one frozen :class:`~repro.index.options.QueryOptions` record naming
  every knob exactly once; and
* a uniform ``submit(queries) -> list[QueryResult]`` surface whose
  results carry JSON-serializable ``to_dict()``/``from_dict()``.

A monolithic engine has no shards, so asking it for an
``on_shard_error`` policy raises immediately instead of silently
dropping the knob.

Results are bit-identical to calling the backend's ``query_batch``
directly with the same options — the session adds no execution layer,
only construction, option routing and serialization. With the
default ``seed=None``, every query gets the backend's own fresh
fixed-seed generator, which also makes results independent of how
queries are grouped into ``submit`` calls — the property the request
coalescer (:mod:`repro.serving.coalescer`) is built on.
"""

from __future__ import annotations

import ctypes
import time
from pathlib import Path

import numpy as np

from repro.core.estimation import estimate as estimate_pair
from repro.core.sketch import CorrelationSketch
from repro.index.engine import JoinCorrelationEngine, QueryResult
from repro.index.options import QueryOptions
from repro.obs import Trace, get_registry
from repro.ranking.scoring import json_float
from repro.serving.router import ShardRouter

__all__ = ["QuerySession"]

#: glibc ``mallopt`` parameters (``malloc.h``) and the values
#: :func:`_pin_malloc_thresholds` sets: the ceiling glibc's own threshold
#: adaptation stops at, and its 2x trim ratio.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 2 * _MMAP_THRESHOLD_BYTES


def _pin_malloc_thresholds() -> bool:
    """Fix glibc malloc's mmap and trim thresholds for this process.

    A query works through a dozen 100-400 KiB NumPy temporaries. glibc
    maps blocks above its mmap threshold afresh (zero pages, faulted in
    one by one) and returns freed heap above its trim threshold to the
    kernel; both start at 128 KiB and drift upward with whatever the
    process happened to free before. The same query loop therefore runs
    with ~0 or with ~450 minor page faults per query (+0.6-0.9 ms on a
    2.5 ms query) depending on that history — on the benchmark of record
    it was the whole difference between one seed and the next. Setting
    either threshold switches the drift off, so freed blocks up to the
    threshold are recycled from the heap from the second query on.
    Returns False, having changed nothing, where there is no glibc.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mapped = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    trimmed = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    return bool(mapped and trimmed)


class QuerySession:
    """A warm query backend plus one :class:`QueryOptions` record.

    Args:
        backend: a :class:`~repro.index.engine.JoinCorrelationEngine`
            (a :class:`~repro.serving.router.ShardRouter` is one).
        options: per-call defaults (``k``/``scorer``/``seed``/
            ``on_shard_error``). Engine-level fields
            (depth, backend, rng mode, ...) are read back from the
            backend's own ``options`` record, so the session always
            reports the configuration that actually serves; explicitly
            setting one of them to a value the warm
            backend disagrees with raises (a session cannot re-tune a
            built backend) — build backends with :meth:`for_catalog` /
            :meth:`for_sharded` to set those fields from the same
            record.
    """

    #: Fields fixed at backend construction — everything submit cannot
    #: vary per call. A caller record that explicitly disagrees with the
    #: warm backend on one of these is a misconfiguration, not an
    #: override (the session adds no execution layer that could honor it).
    _ENGINE_LEVEL_FIELDS = (
        "depth",
        "min_overlap",
        "rng_mode",
        "retrieval_backend",
        "lsh_bands",
        "lsh_rows",
    )

    def __init__(self, backend, options: QueryOptions | None = None) -> None:
        self.backend = backend
        if options is None:
            options = QueryOptions()
        # The backend's construction is the truth for engine-level
        # fields; the caller's record contributes the per-call ones.
        # A default-valued caller field just means "unspecified" and
        # adopts the backend's, but an explicitly divergent value
        # cannot be served by this warm backend — silently answering
        # with the backend's configuration would mask the mistake.
        self._reject_engine_level_conflicts(
            options, backend.options, unset=QueryOptions()
        )
        self._options = backend.options.merged(
            k=options.k,
            scorer=options.scorer,
            seed=options.seed,
            on_shard_error=options.on_shard_error,
        )

    @classmethod
    def _reject_engine_level_conflicts(
        cls,
        options: QueryOptions,
        served: QueryOptions,
        unset: QueryOptions | None = None,
    ) -> None:
        """Raise if ``options`` asks for an engine-level value other than
        the one ``served`` (fields equal to ``unset``'s are not asks)."""
        conflicts = [
            f"{name}={getattr(options, name)!r} (backend has "
            f"{getattr(served, name)!r})"
            for name in cls._ENGINE_LEVEL_FIELDS
            if getattr(options, name) != getattr(served, name)
            and (unset is None or getattr(options, name) != getattr(unset, name))
        ]
        if conflicts:
            raise ValueError(
                "options disagree with the warm backend on engine-"
                f"level field(s): {', '.join(conflicts)}; these are "
                "fixed at backend construction — build the backend "
                "from the same record (for_catalog/for_sharded/"
                "open) or drop the override"
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def for_catalog(
        cls, catalog, options: QueryOptions | None = None
    ) -> "QuerySession":
        """A session over a monolithic catalog (in-process engine)."""
        if options is None:
            options = QueryOptions()
        return cls(
            JoinCorrelationEngine.from_options(catalog, options), options
        )

    @classmethod
    def for_sharded(
        cls, catalog, options: QueryOptions | None = None
    ) -> "QuerySession":
        """A session over a sharded catalog (the router)."""
        if options is None:
            options = QueryOptions()
        return cls(ShardRouter.from_options(catalog, options), options)

    @classmethod
    def open(
        cls, path: str | Path, options: QueryOptions | None = None
    ) -> "QuerySession":
        """Open a catalog from disk and wrap it in a session.

        A directory is a sharded-manifest catalog (served by the
        router); a file is a monolithic snapshot (JSON or arena).
        """
        from repro.serving.shards import ShardedCatalog

        path = Path(path)
        if path.is_dir():
            return cls.for_sharded(ShardedCatalog.load(path), options)
        from repro.index.catalog import SketchCatalog

        return cls.for_catalog(SketchCatalog.load(path), options)

    # -- introspection -------------------------------------------------------

    @property
    def options(self) -> QueryOptions:
        return self._options

    @property
    def catalog(self):
        return self.backend.catalog

    def catalog_info(self) -> dict:
        """A JSON-safe summary of what this session serves."""
        catalog = self.catalog
        return {
            "sketches": len(catalog),
            "sketch_size": catalog.sketch_size,
            "aggregate": catalog.aggregate,
            "scheme": {
                "bits": catalog.hasher.bits,
                "seed": catalog.hasher.seed,
            },
            "shards": getattr(catalog, "n_shards", 1),
            "backend": type(self.backend).__name__,
            "options": self._options.to_dict(),
        }

    # -- lifecycle -----------------------------------------------------------

    def warm(self) -> None:
        """Ready the process for steady-state serving (idempotent):
        build the backend's retrieval state now and pin the allocator
        (:func:`_pin_malloc_thresholds`, process-wide).

        A shard that failed to open is judged by the router's rule: under
        ``on_shard_error="raise"`` the lowest-index failure raises here,
        at start-up; under ``"partial"`` warming skips it and every
        answer reports it lost.
        """
        warm = getattr(self.backend, "warm", None)
        failures = {} if warm is None else warm()
        _pin_malloc_thresholds()
        if failures and self._options.on_shard_error == "raise":
            raise failures[min(failures)]

    def close(self) -> None:
        """Nothing to release — the session owns no thread or process;
        kept so ``with QuerySession...`` scopes a session."""

    def __enter__(self) -> "QuerySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- query surface -------------------------------------------------------

    def query_sketch(
        self, keys, values, name: str | None = None
    ) -> CorrelationSketch:
        """Sketch one ⟨key, value⟩ column pair against the catalog's
        configuration (size, aggregate, hashing scheme), ready to submit."""
        catalog = self.catalog
        sketch = CorrelationSketch(
            catalog.sketch_size,
            aggregate=catalog.aggregate,
            hasher=catalog.hasher,
            name=name,
        )
        try:
            values = np.asarray(values, dtype=float)
        except OverflowError:
            raise ValueError(
                "values holds a number beyond the float range"
            ) from None
        sketch.update_array(np.asarray(keys), values)
        return sketch

    def submit(
        self,
        queries,
        *,
        exclude_ids: list[str | None] | None = None,
        true_correlations: list[dict[str, float] | None] | None = None,
        options: QueryOptions | None = None,
        trace: bool = False,
        arrivals: list[float] | None = None,
    ) -> list[QueryResult]:
        """Evaluate the queries under the session's options.

        Args:
            queries: :class:`CorrelationSketch` query sketches.
            exclude_ids: per-query catalog id to exclude (a query pair
                that is itself indexed must not match itself).
            true_correlations: per-query ground-truth dicts, for
                evaluation runs.
            options: a per-call override of the session's record
                (engine-level fields must match the warm backend — use
                a new session to change those).
            trace: record per-query phase spans; each result carries
                its ``trace`` block and per-phase latencies land in the
                process metrics registry. Results are bit-identical
                either way — tracing only reads the monotonic clock.
            arrivals: per-query ``perf_counter`` timestamps of when
                each request arrived upstream (the coalescer's window);
                the time from arrival to execution start is rendered as
                a ``queue_wait`` span preceding the execution phases.
        """
        if options is None:
            opts = self._options
        else:
            # Silently answering at the backend's depth/backend/... would
            # drop the caller's knob; only the per-call fields may vary.
            self._reject_engine_level_conflicts(options, self._options)
            opts = options
        queries = list(queries)
        n = len(queries)
        if exclude_ids is None:
            exclude_ids = [None] * n
        if true_correlations is None:
            true_correlations = [None] * n
        if len(exclude_ids) != n or len(true_correlations) != n:
            raise ValueError(
                f"{n} queries but {len(exclude_ids)} exclude ids and "
                f"{len(true_correlations)} truth dicts"
            )
        if n == 0:
            return []
        kwargs: dict = {}
        if opts.seed is not None:
            kwargs["rng"] = np.random.default_rng(opts.seed)
        if opts.on_shard_error != "raise":
            # The monolithic engine has no shards to lose.
            if not isinstance(self.backend, ShardRouter):
                raise ValueError(
                    "on_shard_error decides what a lost shard does; the "
                    f"monolithic {type(self.backend).__name__} backend "
                    "has no shards"
                )
            kwargs["on_shard_error"] = opts.on_shard_error
        traces: list[Trace] | None = None
        if trace:
            # One shared origin: shared batch spans then carry identical
            # (start_ms, duration_ms) in every query's trace, which is
            # what lets aggregators count them once.
            origin = time.perf_counter()
            traces = kwargs["traces"] = [
                Trace(origin=origin) for _ in range(n)
            ]
        start = time.perf_counter()
        results = self.backend.query_batch(
            queries,
            k=opts.k,
            scorer=opts.scorer,
            exclude_ids=exclude_ids,
            true_correlations=true_correlations,
            **kwargs,
        )
        if traces is None:
            return results
        return self._finish_traces(
            results, traces, start, time.perf_counter(), arrivals
        )

    def _finish_traces(
        self,
        results: list[QueryResult],
        traces: list[Trace],
        start: float,
        end: float,
        arrivals: list[float] | None,
    ) -> list[QueryResult]:
        """Add queue_wait spans to the trace blocks the backend attached
        to the results (in place) and record the registry samples."""
        n = len(results)
        registry = get_registry()
        total_s = end - start
        metered = registry.enabled
        query_samples: list[tuple[float, dict]] = []
        phase_samples: list[tuple[float, dict]] = []
        for q, result in enumerate(results):
            block = result.trace
            wait = (
                0.0
                if arrivals is None
                else max(0.0, traces[q].origin - arrivals[q])
            )
            if wait > 0.0:
                wait_ms = wait * 1000.0
                # The wait predates the trace origin (span times are
                # relative to first execution), hence the negative
                # start; "window" is the coalesced batch width.
                block["spans"].insert(
                    0,
                    {
                        "name": "queue_wait",
                        "start_ms": -wait_ms,
                        "duration_ms": wait_ms,
                        "meta": {"window": n},
                    },
                )
            if metered:
                query_samples.append((wait + total_s / n, {}))
                phase_samples.extend(
                    (span["duration_ms"] / 1000.0, {"phase": span["name"]})
                    for span in block["spans"]
                    if "parent" not in span
                )
        if metered:
            # Batched: three lock round-trips for the whole window, not
            # six per query — the overhead benchmark holds this <2% p50.
            registry.inc(
                "repro_queries_total",
                float(n),
                help="Queries served through QuerySession.submit",
            )
            registry.observe_many(
                "repro_query_seconds",
                query_samples,
                help="End-to-end per-query latency (queue wait + "
                "equal share of batch execution)",
            )
            registry.observe_many(
                "repro_phase_seconds",
                phase_samples,
                help="Per-query time in each top-level query phase",
            )
        return results

    def submit_one(
        self,
        query: CorrelationSketch,
        *,
        exclude_id: str | None = None,
        true_correlations: dict[str, float] | None = None,
        options: QueryOptions | None = None,
        trace: bool = False,
    ) -> QueryResult:
        """:meth:`submit` for a single query (batch of one — results are
        bit-identical either way under the default ``seed=None``)."""
        return self.submit(
            [query],
            exclude_ids=[exclude_id],
            true_correlations=[true_correlations],
            options=options,
            trace=trace,
        )[0]

    def estimate(
        self,
        left_keys,
        left_values,
        right_keys,
        right_values,
        *,
        estimator: str = "pearson",
    ) -> dict:
        """One-off after-join correlation estimate between two in-memory
        column pairs, sketched under the catalog's configuration.

        Returns a strict-JSON dict (NaN encodes as ``null``, infinities
        as the :func:`~repro.ranking.scoring.json_float` string
        sentinels) — the body the HTTP service's ``/estimate`` endpoint
        answers with.
        """
        left = self.query_sketch(left_keys, left_values, name="left")
        right = self.query_sketch(right_keys, right_values, name="right")
        result = estimate_pair(left, right, estimator=estimator)
        return {
            "correlation": json_float(result.correlation),
            "estimator": result.estimator,
            "sample_size": result.sample_size,
            "fisher_se": json_float(result.fisher_se),
            "hoeffding": {
                "low": json_float(result.hoeffding.low),
                "high": json_float(result.hoeffding.high),
            },
            "hfd": {
                "low": json_float(result.hfd.low),
                "high": json_float(result.hfd.high),
            },
            "key_overlap": result.key_overlap,
            "containment_est": json_float(result.containment_est),
            "join_size_est": json_float(result.join_size_est),
            "range_bounds_valid": result.range_bounds_valid,
        }
