"""The Correlation Sketch (Section 3.1 of the paper).

A :class:`CorrelationSketch` summarizes a column pair ``⟨K_X, X⟩`` —
categorical join-key column plus numeric column — as the set of tuples
``⟨h(k), x_k⟩`` for the ``n`` keys with minimum ``h_u(h(k))``, where
``x_k`` is the (streaming-)aggregated numeric value for key ``k``.

Two sketches built with the same hashing scheme can be *joined* on their
stored key hashes; by Theorem 1 the resulting paired values form a uniform
random sample of the values in the full joined table, so any sample
statistic (correlation, mutual information, …) can be estimated from it.

The sketch also retains everything a plain KMV synopsis holds, so
cardinality / Jaccard / containment / join-size estimation come for free
(Section 3.3) — see the ``to_kmv``/estimation helpers.

Beyond the sketch itself we track two scalars per column that cost nothing
extra during the single construction pass and that Section 4.3's Hoeffding
confidence intervals require: the global minimum and maximum of the numeric
column (``C_low``/``C_high`` bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.aggregators import Aggregator, GroupedAggregates, make_aggregator
from repro.hashing import KeyHasher, default_hasher
from repro.kmv.bottomk import BottomK
from repro.kmv.estimators import basic_dv_estimate, unbiased_dv_estimate


def _value_range_of(value_min: float, value_max: float) -> tuple[float, float]:
    """Map the ±inf no-finite-value sentinels to the NaN convention
    :class:`SketchColumns` uses for ``value_range``."""
    if value_min > value_max:
        return (math.nan, math.nan)
    return (value_min, value_max)


def _checked_values(values, rows: int) -> np.ndarray:
    """``values`` as a 1-D float64 column of ``rows`` cells."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got {values.ndim}-D")
    if values.shape[0] != rows:
        raise ValueError(
            f"key column has {rows} rows but value column has {values.shape[0]}"
        )
    return values


class _KeyGroups:
    """Everything columnar construction derives from the key column alone.

    One hash pass, the ``np.unique`` grouping of repeated keys, each
    group's unit rank and (on demand) the bottom-``n`` groups: none of it
    depends on the values, so a table ``{K, X, Z, …}`` computes it once
    and every ``⟨K, ·⟩`` sketch reuses it — the shared selection of
    Section 3.1's multi-column sketch
    (:class:`repro.core.multicolumn.MultiColumnSketch` states it row at
    a time).

    Attributes:
        uniq: distinct key hashes, ascending.
        inv: group index of every row (``uniq[inv]`` is the hashed column).
        ranks: unit-interval hash of every group.
    """

    def __init__(self, hasher: KeyHasher, keys) -> None:
        self.uniq, self.inv = np.unique(hasher.hash_batch(keys), return_inverse=True)
        self.ranks = hasher.unit_hash_batch(self.uniq)
        self._bottom_of_all: dict[int, tuple] = {}

    def bottom(self, n: int, groups: np.ndarray | None = None) -> tuple:
        """``(groups, key_hashes, ranks)`` of the ``n`` smallest-rank
        groups among ``groups`` (default: all of them, remembered per
        ``n`` — that is the selection every empty sketch makes)."""
        if groups is None:
            if n not in self._bottom_of_all:
                self._bottom_of_all[n] = self.bottom(n, np.arange(self.uniq.shape[0]))
            return self._bottom_of_all[n]
        ranks = self.ranks[groups]
        if groups.size > n:
            sel = np.argpartition(ranks, n - 1)[:n]
            groups, ranks = groups[sel], ranks[sel]
        return groups, self.uniq[groups], ranks


@dataclass(frozen=True)
class SketchColumns:
    """Read-only columnar view of a sketch's retained entries.

    The arrays are parallel and sorted ascending by ``key_hashes`` so two
    views can be merge-joined with ``np.searchsorted`` (see
    :func:`repro.core.joined_sample.join_columns`) and probed against the
    frozen inverted index without materializing Python sets.

    Attributes:
        key_hashes: retained tuple identifiers ``h(k)``, ascending
            (``uint64``).
        ranks: aligned unit-interval hashes ``h_u(h(k))`` (``float64``).
        values: aligned aggregated numeric values (``float64``).
        value_range: global ``(min, max)`` of the source column, or
            ``(nan, nan)`` when no finite value was observed.
        saw_all_keys: True when the sketch never overflowed.
    """

    key_hashes: np.ndarray
    ranks: np.ndarray
    values: np.ndarray
    value_range: tuple[float, float]
    saw_all_keys: bool

    @property
    def size(self) -> int:
        return int(self.key_hashes.shape[0])

    def __len__(self) -> int:
        return self.size


class CorrelationSketch:
    """Bottom-``n`` sketch of a ``⟨key, value⟩`` column pair.

    Args:
        n: sketch size (number of minimum-hash tuples retained). The
            paper's experiments use 256 (accuracy study) and 1024 (query
            evaluation).
        aggregate: name of the streaming aggregate function applied to
            values of repeated keys (default ``"mean"``, as in Figures 1-2
            of the paper). See :mod:`repro.core.aggregators`.
        hasher: hashing scheme shared across the collection.
        name: optional identifier (e.g. ``"taxi_trips.csv:pickups"``) used
            in query results.

    The sketch is built in a single pass with :meth:`update` /
    :meth:`update_all`; it never buffers the input.
    """

    def __init__(
        self,
        n: int,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        name: str | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"sketch size n must be positive, got {n}")
        self.n = n
        self.aggregate = aggregate
        # Validate the aggregate name eagerly so misconfiguration fails at
        # sketch creation, not at first update.
        make_aggregator(aggregate)
        self.hasher = hasher if hasher is not None else default_hasher()
        self.name = name
        self._bottom = BottomK(n)
        self._overflowed = False
        self.value_min = math.inf
        self.value_max = -math.inf
        self.rows_seen = 0
        self._columns: SketchColumns | None = None

    # -- construction ------------------------------------------------------

    def update(self, key: object, value: float) -> None:
        """Offer one ``(key, value)`` row to the sketch.

        ``value`` may be NaN (missing cell); the key still counts toward
        joinability but contributes no numeric value (except under the
        ``count`` aggregate, which counts occurrences).
        """
        self._columns = None
        self.rows_seen += 1
        value = float(value)
        if value == value:  # not NaN: maintain global range for CI bounds
            if value < self.value_min:
                self.value_min = value
            if value > self.value_max:
                self.value_max = value

        pair = self.hasher.hash(key)
        if pair.key_hash in self._bottom:
            agg: Aggregator = self._bottom.get(pair.key_hash)
            agg.observe(value)
            return

        was_full = len(self._bottom) >= self.n
        agg = make_aggregator(self.aggregate)
        agg.observe(value)
        admitted = self._bottom.offer(pair.unit_hash, pair.key_hash, agg)
        if not admitted or was_full:
            self._overflowed = True

    def update_all(self, rows: Iterable[tuple[object, float]]) -> None:
        """Offer every ``(key, value)`` pair in ``rows``."""
        for key, value in rows:
            self.update(key, value)

    def update_array(self, keys, values) -> None:
        """Vectorized :meth:`update_all` over parallel key/value columns.

        Produces a sketch **identical** to streaming the same rows through
        :meth:`update` in order — same retained keys, same aggregator
        state (bit-for-bit float accumulation), same ``value_min`` /
        ``value_max`` / ``rows_seen`` / overflow flag — at columnar speed:

        1. hash every key in one vectorized pass
           (:meth:`repro.hashing.KeyHasher.hash_batch`) and group repeated
           keys with ``np.unique`` — the part :meth:`from_key_column`
           shares between the value columns of one key column;
        2. reduce each group with the chosen aggregate in a few
           ``ufunc.at`` calls
           (:class:`repro.core.aggregators.GroupedAggregates`), seeding
           groups whose key is already retained from the live aggregator
           so multi-batch construction matches streaming exactly;
        3. admit new keys bottom-``n`` first (``np.argpartition``) so at
           most ``n`` Python aggregator objects are ever materialized,
           then merge via :meth:`repro.kmv.bottomk.BottomK.update_batch`.

        Equivalence holds because a key retained by the streaming path is
        never evicted-then-readmitted (its rank is deterministic and the
        admission threshold only decreases), so its aggregator always sees
        every occurrence; keys that streaming would reject mid-stream are
        exactly those outside the final bottom-``n``. (Rank ties —
        impossible at 32 bits, theoretically possible at 64 bits through
        float64 rounding — are resolved as described in
        :meth:`repro.kmv.bottomk.BottomK.update_batch`.) The parity test
        suite (``tests/test_core_sketch_batch.py``) asserts equality
        against :meth:`update_all` on adversarial inputs.

        Args:
            keys: 1-D array or sequence of join keys (see
                :meth:`repro.hashing.KeyHasher.hash_batch` for how each
                kind of sequence is encoded).
            values: numeric array-like, NaN = missing cell.
        """
        values = _checked_values(values, len(keys))
        self._update_grouped(_KeyGroups(self.hasher, keys), values)

    def _update_grouped(self, groups: _KeyGroups, values: np.ndarray) -> None:
        """The per-value-column part of :meth:`update_array`: range,
        grouped aggregation, bottom-``n`` merge."""
        self._columns = None
        self.rows_seen += values.shape[0]
        if values.shape[0] == 0:
            return

        finite = values[~np.isnan(values)]
        if finite.size:
            lo = float(finite.min())
            hi = float(finite.max())
            if lo < self.value_min:
                self.value_min = lo
            if hi > self.value_max:
                self.value_max = hi

        uniq = groups.uniq
        n_groups = uniq.shape[0]
        grouped = GroupedAggregates(self.aggregate, n_groups)
        new_groups = None  # every group, until some prove retained
        existing_aggs: list[tuple[int, Aggregator]] = []
        if len(self._bottom):
            retained = np.fromiter(
                self._bottom.keys(), dtype=np.uint64, count=len(self._bottom)
            )
            is_retained = np.isin(uniq.astype(np.uint64), retained)
            new_groups = np.nonzero(~is_retained)[0]
            for gi in np.nonzero(is_retained)[0].tolist():
                agg: Aggregator = self._bottom.get(int(uniq[gi]))
                grouped.seed(gi, agg)
                existing_aggs.append((gi, agg))

        grouped.accumulate(groups.inv, values)

        for gi, agg in existing_aggs:
            grouped.apply(gi, agg)

        if len(self._bottom) + n_groups - len(existing_aggs) > self.n:
            self._overflowed = True
        # Only the n smallest-rank newcomers can possibly be admitted;
        # don't build aggregator objects for the rest.
        new_groups, new_keys, new_ranks = groups.bottom(self.n, new_groups)
        if new_groups.size == 0:
            return
        payloads = [grouped.materialize(gi) for gi in new_groups.tolist()]
        self._bottom.update_batch(new_ranks, new_keys, payloads)

    @classmethod
    def from_key_column(
        cls,
        keys,
        value_columns: Sequence[Sequence[float]],
        n: int,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        names: Sequence[str | None] | None = None,
    ) -> "list[CorrelationSketch]":
        """One sketch per value column of a table ``{K, X, Z, …}``.

        Each equals ``from_columns(keys, values, …)`` for its column, but
        the key column is hashed, grouped, ranked and bottom-``n``
        selected once for all of them (Section 3.1: the selected keys
        depend only on the key column).

        Raises:
            ValueError: if a value column's length differs from ``keys``'.
        """
        hasher = hasher if hasher is not None else default_hasher()
        columns = [_checked_values(values, len(keys)) for values in value_columns]
        if names is None:
            names = [None] * len(columns)
        groups = _KeyGroups(hasher, keys) if columns else None
        sketches = []
        for name, values in zip(names, columns):
            sketch = cls(n, aggregate=aggregate, hasher=hasher, name=name)
            sketch._update_grouped(groups, values)
            sketches.append(sketch)
        return sketches

    @classmethod
    def from_columns(
        cls,
        keys: Sequence[object],
        values: Sequence[float],
        n: int,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        name: str | None = None,
        *,
        vectorized: bool = True,
    ) -> "CorrelationSketch":
        """Build a sketch from parallel key/value sequences.

        By default construction runs through the columnar
        :meth:`update_array` fast path, which produces an identical sketch
        to the streaming path; pass ``vectorized=False`` to force the
        row-at-a-time :meth:`update_all` (reference implementation, and
        the baseline ``bench_construction.py`` measures against).

        Raises:
            ValueError: if the sequences have different lengths.
        """
        if len(keys) != len(values):
            raise ValueError(
                f"key column has {len(keys)} rows but value column has "
                f"{len(values)}"
            )
        sketch = cls(n, aggregate=aggregate, hasher=hasher, name=name)
        if vectorized:
            sketch.update_array(keys, values)
        else:
            sketch.update_all(zip(keys, values))
        return sketch

    @classmethod
    def from_frozen_arrays(
        cls,
        key_hashes: np.ndarray,
        ranks: np.ndarray,
        values: np.ndarray,
        *,
        n: int,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        name: str | None = None,
        rows_seen: int = 0,
        overflowed: bool = False,
        value_min: float = math.inf,
        value_max: float = -math.inf,
    ) -> "CorrelationSketch":
        """Rehydrate a frozen sketch from its columnar arrays.

        The array-level inverse of :meth:`columnar`, used by binary
        catalog snapshots (:mod:`repro.index.snapshot`): ``key_hashes``
        must be sorted ascending with ``ranks``/``values`` aligned —
        exactly the :class:`SketchColumns` layout. Like
        :meth:`from_dict`, the result is frozen for estimation purposes
        (``last`` aggregators holding the materialized values); unlike
        it, the stored unit-hash ranks are trusted rather than recomputed
        and the columnar view is pre-seeded without a rebuild.
        """
        sketch = cls(n, aggregate=aggregate, hasher=hasher, name=name)
        sketch.rows_seen = rows_seen
        sketch._overflowed = overflowed
        sketch.value_min = value_min
        sketch.value_max = value_max
        for rank, kh, value in zip(
            ranks.tolist(), key_hashes.tolist(), values.tolist()
        ):
            agg = make_aggregator("last")
            agg.observe(value)
            sketch._bottom.offer(rank, kh, agg)
        sketch._columns = SketchColumns(
            key_hashes=key_hashes,
            ranks=ranks,
            values=values,
            value_range=_value_range_of(value_min, value_max),
            saw_all_keys=not overflowed,
        )
        return sketch

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of retained tuples (≤ n)."""
        return len(self._bottom)

    @property
    def saw_all_keys(self) -> bool:
        """True when every distinct key offered is still retained."""
        return not self._overflowed

    @property
    def value_range(self) -> float:
        """``C_high - C_low`` for this column alone (0 when empty)."""
        if self.value_min > self.value_max:
            return 0.0
        return self.value_max - self.value_min

    def key_hashes(self) -> set[int]:
        """Retained tuple identifiers ``h(k)``."""
        return set(self._bottom.keys())

    def items(self) -> Iterator[tuple[int, float, float]]:
        """Yield ``(key_hash, unit_hash, aggregated_value)`` ascending by rank."""
        for rank, key_hash, agg in self._bottom.sorted_items():
            yield key_hash, rank, agg.value()

    def entries(self) -> dict[int, float]:
        """Return ``{key_hash: aggregated_value}`` for all retained keys."""
        return {kh: agg.value() for _r, kh, agg in self._bottom.items()}

    def columnar(self) -> SketchColumns:
        """Lower the retained entries into a :class:`SketchColumns` view.

        Built once and cached until the next update (catalog sketches are
        never updated after registration, so in the query engine this is
        effectively built once per sketch for the life of the catalog).
        The aggregated values are materialized with the same
        ``Aggregator.value()`` calls as :meth:`entries`, so the columnar
        join consumes the exact floats the scalar join would.
        """
        if self._columns is None:
            size = len(self._bottom)
            key_hashes = np.empty(size, dtype=np.uint64)
            ranks = np.empty(size, dtype=np.float64)
            values = np.empty(size, dtype=np.float64)
            for i, (rank, kh, agg) in enumerate(self._bottom.items()):
                key_hashes[i] = kh
                ranks[i] = rank
                values[i] = agg.value()
            order = np.argsort(key_hashes)
            if self.value_min > self.value_max:
                value_range = (math.nan, math.nan)
            else:
                value_range = (self.value_min, self.value_max)
            self._columns = SketchColumns(
                key_hashes=key_hashes[order],
                ranks=ranks[order],
                values=values[order],
                value_range=value_range,
                saw_all_keys=self.saw_all_keys,
            )
        return self._columns

    def kth_unit_value(self) -> float:
        """``U(k)`` — the largest retained unit-interval hash value."""
        return self._bottom.kth_rank()

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"CorrelationSketch(n={self.n}, size={len(self)}, "
            f"aggregate={self.aggregate!r}{label})"
        )

    # -- KMV statistics (Section 3.3: everything KMV supports still works) --

    def distinct_keys(self, *, estimator: str = "unbiased") -> float:
        """Estimate the number of distinct keys in the key column."""
        size = len(self._bottom)
        if size == 0:
            return 0.0
        saw_all = self.saw_all_keys
        ukth = self._bottom.kth_rank() if not saw_all else 1.0
        if estimator == "unbiased":
            return unbiased_dv_estimate(size, ukth, saw_all=saw_all)
        if estimator == "basic":
            return basic_dv_estimate(size, ukth, saw_all=saw_all)
        raise ValueError(f"unknown estimator {estimator!r}")

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a plain dict (JSON-compatible) for catalog storage.

        Aggregator *state* is not preserved — a deserialized sketch is
        frozen for estimation purposes, which is exactly how an index uses
        it. The aggregated values are materialized.
        """
        return {
            "n": self.n,
            "aggregate": self.aggregate,
            "name": self.name,
            "scheme": list(self.hasher.scheme_id),
            "rows_seen": self.rows_seen,
            "overflowed": self._overflowed,
            "value_min": None if math.isinf(self.value_min) else self.value_min,
            "value_max": None if math.isinf(self.value_max) else self.value_max,
            "entries": [[kh, value] for kh, _u, value in self.items()],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CorrelationSketch":
        """Reconstruct a (frozen) sketch serialized by :meth:`to_dict`."""
        bits, seed = payload["scheme"]
        sketch = cls(
            payload["n"],
            aggregate=payload["aggregate"],
            hasher=KeyHasher(bits=bits, seed=seed),
            name=payload.get("name"),
        )
        sketch.rows_seen = payload.get("rows_seen", 0)
        sketch._overflowed = payload.get("overflowed", False)
        if payload.get("value_min") is not None:
            sketch.value_min = payload["value_min"]
        if payload.get("value_max") is not None:
            sketch.value_max = payload["value_max"]
        for kh, value in payload["entries"]:
            agg = make_aggregator("last")
            agg.observe(value)
            rank = sketch.hasher.unit_hash_of_key_hash(kh)
            sketch._bottom.offer(rank, kh, agg)
        return sketch
