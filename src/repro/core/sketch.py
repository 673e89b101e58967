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
(Section 3.3) — see :meth:`CorrelationSketch.distinct_keys` and
:func:`repro.core.estimation.set_estimates`.

Beyond the sketch itself we track two scalars per column that cost nothing
extra during the single construction pass and that Section 4.3's Hoeffding
confidence intervals require: the global minimum and maximum of the numeric
column (``C_low``/``C_high`` bounds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.aggregators import RANGE_PRESERVING_AGGREGATES, GroupedAggregates
from repro.hashing import KeyHasher, default_hasher
from repro.hashing.fibonacci import to_unit_interval_batch
from repro.kmv.bottomk import bottom_k_positions
from repro.kmv.estimators import unbiased_dv_estimate


#: What every empty sketch holds (shared, hence read-only).
_NO_KEY_HASHES = np.empty(0, dtype=np.uint64)
_NO_KEY_HASHES.setflags(write=False)


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
    group's unit rank (to select with; a built sketch keeps only the key
    hashes) and (on demand) the bottom-``n`` groups: none of it depends
    on the values, so a table ``{K, X, Z, …}`` computes it once
    and every ``⟨K, ·⟩`` sketch reuses it — the shared selection of
    Section 3.1's multi-column sketch.

    Attributes:
        uniq: distinct key hashes, ascending (``uint64``).
        inv: group index of every row (``uniq[inv]`` is the hashed column).
        ranks: unit-interval hash of every group.
    """

    def __init__(self, hasher: KeyHasher, keys) -> None:
        uniq, self.inv = np.unique(hasher.hash_batch(keys), return_inverse=True)
        self.uniq = uniq.astype(np.uint64, copy=False)
        self.ranks = hasher.unit_hash_batch(self.uniq)
        self._bottom_of_all: dict[int, tuple] = {}

    def bottom(self, n: int, groups: np.ndarray | None = None) -> tuple:
        """``(groups, key_hashes, ranks)`` of the ``n`` smallest-rank
        groups among ``groups`` (default: all of them, remembered per
        ``n`` — that is the selection every empty sketch makes), in
        ascending key-hash order. Boundary rank ties go to the smaller
        key hash."""
        if groups is None:
            if n not in self._bottom_of_all:
                self._bottom_of_all[n] = self.bottom(n, np.arange(self.uniq.shape[0]))
            return self._bottom_of_all[n]
        if groups.size > n:
            keep = bottom_k_positions(self.ranks[groups], self.uniq[groups], n)
            groups = np.sort(groups[keep])
        return groups, self.uniq[groups], self.ranks[groups]


@dataclass(frozen=True)
class SketchColumns:
    """Read-only columnar view of a sketch's retained entries.

    The arrays are parallel and sorted ascending by ``key_hashes`` so
    views can be joined a page at a time
    (:func:`repro.core.joined_sample.join_page`) and a query's hashes can
    probe the frozen inverted index without materializing Python sets.
    Ranks are not among them: ``h_u`` is Fibonacci hashing of the key
    hash (Section 3.4), so :attr:`ranks` derives them on access.

    Attributes:
        key_hashes: retained tuple identifiers ``h(k)``, ascending
            (``uint64``).
        values: aligned aggregated numeric values (``float64``).
        value_range: global ``(min, max)`` of the source column, or
            ``(nan, nan)`` when no finite value was observed.
        saw_all_keys: True when the sketch never overflowed.
        bits: the hashing scheme's width (32 or 64), which fixes ``h_u``.
        range_preserving: True when ``value_range`` also bounds
            ``values`` — the aggregate is one of
            :data:`~repro.core.aggregators.RANGE_PRESERVING_AGGREGATES`.
    """

    key_hashes: np.ndarray
    values: np.ndarray
    value_range: tuple[float, float]
    saw_all_keys: bool
    bits: int
    range_preserving: bool

    @property
    def ranks(self) -> np.ndarray:
        """Unit-interval hashes ``h_u(h(k))`` aligned with
        ``key_hashes`` (``float64``), derived afresh on every access —
        hold the result rather than asking twice."""
        return to_unit_interval_batch(self.key_hashes, self.bits)

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

    The stored state *is* the columns: parallel arrays sorted by key
    hash — the tuple identifiers ``h(k)`` and one array per aggregator
    slot (:class:`repro.core.aggregators.GroupedAggregates`) — plus the
    scalars. The unit ranks ``h_u(h(k))`` are derived from the key
    hashes whenever a selection or an estimate needs them.
    :meth:`update_array` merges a batch of rows into them with array
    operations only, and a sequence of batches lands on the sketch
    Section 3.4's one-pass, row-at-a-time tree would build from the same
    rows in order, so a stream is sketched block by block
    (:func:`repro.table.streaming.stream_sketch_csv`). A sketch
    rehydrated from a catalog file keeps the aggregated values only and
    is read-only.
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
        self.hasher = hasher if hasher is not None else default_hasher()
        self.name = name
        self._key_hashes = _NO_KEY_HASHES
        #: Aggregator slots aligned with ``_key_hashes``; ``None`` once
        #: rehydrated (only the values persist). Building it validates
        #: the aggregate name, so misconfiguration fails at sketch
        #: creation, not at first update.
        self._state: GroupedAggregates | None = GroupedAggregates.empty(aggregate)
        self._columns: SketchColumns | None = None
        self._overflowed = False
        self.value_min = math.inf
        self.value_max = -math.inf
        self.rows_seen = 0

    # -- construction ------------------------------------------------------

    def _live_state(self) -> GroupedAggregates:
        if self._state is None:
            raise ValueError(
                f"sketch {self.name!r} was rehydrated from its aggregated "
                "values (aggregator state is not persisted) and is frozen "
                "for estimation; build a new sketch to add rows"
            )
        return self._state

    def update_array(self, keys, values) -> None:
        """Offer a batch of rows, as parallel key/value columns.

        Produces a sketch **identical** to offering the same rows one at
        a time, in order, to Section 3.4's bounded tree of aggregators —
        same retained keys, same aggregator state (bit-for-bit float
        accumulation), same ``value_min`` / ``value_max`` / ``rows_seen``
        / overflow flag — at columnar speed, and so does any split of
        the rows into consecutive batches:

        1. hash every key in one vectorized pass
           (:meth:`repro.hashing.KeyHasher.hash_batch`) and group repeated
           keys with ``np.unique`` — the part :meth:`from_key_column`
           shares between the value columns of one key column;
        2. reduce each group with the chosen aggregate in a few
           ``ufunc.at`` calls
           (:class:`repro.core.aggregators.GroupedAggregates`), groups
           whose key is already retained continuing from the stored
           slots so multi-batch construction matches streaming exactly;
        3. concatenate the retained rows with the bottom-``n`` newcomers
           and keep the ``n`` smallest ranks with one ``np.argpartition``
           (:func:`repro.kmv.bottomk.bottom_k_positions`), re-sorted by
           key hash. No per-key Python object is built.

        Equivalence holds because a key retained by the streaming path is
        never evicted-then-readmitted (its rank is deterministic and the
        admission threshold only decreases), so its aggregator always sees
        every occurrence; keys that streaming would reject mid-stream are
        exactly those outside the final bottom-``n``. (Rank ties —
        impossible at 32 bits, theoretically possible at 64 bits through
        float64 rounding — are resolved as described in
        :meth:`repro.kmv.bottomk.BottomK.update_batch`.) The parity
        suites (``tests/test_core_sketch_batch.py``,
        ``tests/test_ingest_parity.py``) assert full-state equality
        against that row-at-a-time build (``tests/row_sketch_oracle.py``)
        on adversarial inputs and schedules of batches.

        Args:
            keys: 1-D array or sequence of join keys (see
                :meth:`repro.hashing.KeyHasher.hash_batch` for how each
                kind of sequence is encoded).
            values: numeric array-like, NaN = missing cell.

        Raises:
            ValueError: on a rehydrated sketch (see :meth:`to_dict`).
        """
        self._live_state()
        values = _checked_values(values, len(keys))
        self._update_grouped(_KeyGroups(self.hasher, keys), values)

    def _update_grouped(self, groups: _KeyGroups, values: np.ndarray) -> None:
        """The per-value-column part of :meth:`update_array`: range,
        grouped aggregation, bottom-``n`` merge."""
        live = self._live_state()
        self._columns = None
        self.rows_seen += values.shape[0]
        if values.shape[0] == 0:
            return

        finite = values[~np.isnan(values)]
        if finite.size:
            # First of equals, as the streaming strict comparisons keep:
            # ``min()`` / ``max()`` may return either of 0.0 and -0.0.
            lo = float(finite[finite.argmin()])
            hi = float(finite[finite.argmax()])
            if lo < self.value_min:
                self.value_min = lo
            if hi > self.value_max:
                self.value_max = hi

        uniq = groups.uniq
        grouped = GroupedAggregates(self.aggregate, uniq.shape[0])
        n_live = self._key_hashes.shape[0]
        new_groups = None  # every group, until some prove retained
        if n_live:
            # Retained keys continue from their stored slots.
            at = np.minimum(np.searchsorted(uniq, self._key_hashes), uniq.shape[0] - 1)
            rows = np.nonzero(uniq[at] == self._key_hashes)[0]
            grouped.put(at[rows], live, rows)
            grouped.accumulate(groups.inv, values)
            live.put(rows, grouped, at[rows])
            is_new = np.ones(uniq.shape[0], dtype=bool)
            is_new[at[rows]] = False
            new_groups = np.nonzero(is_new)[0]
            n_new = new_groups.size
        else:
            grouped.accumulate(groups.inv, values)
            n_new = uniq.shape[0]

        if n_live + n_new > self.n:
            self._overflowed = True
        # Only the n smallest-rank newcomers can possibly be admitted.
        new_groups, new_keys, new_ranks = groups.bottom(self.n, new_groups)
        if not n_live:
            # Same key column, same selection: sibling sketches share
            # this array (it is replaced, never written).
            self._key_hashes = new_keys
            self._state = grouped.take(new_groups)
            return
        if new_groups.size == 0:
            return
        key_hashes = np.concatenate([self._key_hashes, new_keys])
        if key_hashes.shape[0] > self.n:
            ranks = np.concatenate(
                [self.hasher.unit_hash_batch(self._key_hashes), new_ranks]
            )
            keep = bottom_k_positions(ranks, key_hashes, self.n, n_live)
            keep = keep[np.argsort(key_hashes[keep])]
        else:
            keep = np.argsort(key_hashes)
        self._key_hashes = key_hashes[keep]
        self._state = live.extended(grouped.take(new_groups)).take(keep)

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
    ) -> "CorrelationSketch":
        """Build a sketch from parallel key/value sequences.

        Construction is one :meth:`update_array` batch.

        Raises:
            ValueError: if the sequences have different lengths.
        """
        if len(keys) != len(values):
            raise ValueError(
                f"key column has {len(keys)} rows but value column has "
                f"{len(values)}"
            )
        sketch = cls(n, aggregate=aggregate, hasher=hasher, name=name)
        sketch.update_array(keys, values)
        return sketch

    def _freeze_to(self, key_hashes: np.ndarray, values: np.ndarray) -> None:
        """Install rehydrated columns: values without aggregator state."""
        self._key_hashes, self._state = key_hashes, None
        self._columns = SketchColumns(
            key_hashes=key_hashes,
            values=values,
            value_range=_value_range_of(self.value_min, self.value_max),
            saw_all_keys=not self._overflowed,
            bits=self.hasher.bits,
            range_preserving=self.aggregate in RANGE_PRESERVING_AGGREGATES,
        )

    @classmethod
    def from_frozen_arrays(
        cls,
        key_hashes: np.ndarray,
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
        """Rehydrate a frozen sketch around its columnar arrays, in O(1).

        The array-level inverse of :meth:`columnar`, used by binary
        catalog snapshots (:mod:`repro.index.snapshot`): ``key_hashes``
        must be sorted ascending with ``values`` aligned — exactly the
        :class:`SketchColumns` layout. The arrays are adopted, not copied
        (a mapped snapshot stays mapped), and nothing else is allocated:
        like every sketch, the result derives its unit-hash ranks from
        ``key_hashes`` when asked. Like :meth:`from_dict`, the result is
        frozen for estimation purposes.
        """
        sketch = cls(n, aggregate=aggregate, hasher=hasher, name=name)
        sketch.rows_seen = rows_seen
        sketch._overflowed = overflowed
        sketch.value_min = value_min
        sketch.value_max = value_max
        sketch._freeze_to(key_hashes, values)
        return sketch

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Number of retained tuples (≤ n)."""
        return self.columnar().size

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
        return set(self.columnar().key_hashes.tolist())

    def items(self) -> Iterator[tuple[int, float, float]]:
        """Yield ``(key_hash, unit_hash, aggregated_value)`` ascending by rank."""
        columns = self.columnar()
        order = np.lexsort((columns.key_hashes, columns.ranks))
        return zip(
            columns.key_hashes[order].tolist(),
            columns.ranks[order].tolist(),
            columns.values[order].tolist(),
        )

    def entries(self) -> dict[int, float]:
        """Return ``{key_hash: aggregated_value}`` for all retained keys."""
        columns = self.columnar()
        return dict(zip(columns.key_hashes.tolist(), columns.values.tolist()))

    def columnar(self) -> SketchColumns:
        """The retained entries as a :class:`SketchColumns` view.

        The key hashes are the stored array itself; the values are each
        slot's vectorised ``Aggregator.value()``, derived once and cached
        until the next update (catalog sketches are never updated after
        registration).
        """
        if self._columns is None:
            self._columns = SketchColumns(
                key_hashes=self._key_hashes,
                values=self._state.values(),
                value_range=_value_range_of(self.value_min, self.value_max),
                saw_all_keys=not self._overflowed,
                bits=self.hasher.bits,
                range_preserving=self.aggregate in RANGE_PRESERVING_AGGREGATES,
            )
        return self._columns

    def kth_unit_value(self) -> float:
        """``U(k)`` — the largest retained unit-interval hash value.

        Raises:
            ValueError: if the sketch is empty.
        """
        ranks = self.columnar().ranks
        if not ranks.size:
            raise ValueError("empty sketch has no kth unit value")
        return float(ranks.max())

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"CorrelationSketch(n={self.n}, size={len(self)}, "
            f"aggregate={self.aggregate!r}{label})"
        )

    # -- KMV statistics (Section 3.3: everything KMV supports still works) --

    def distinct_keys(self) -> float:
        """Estimate the number of distinct keys in the key column with
        the unbiased estimator ``(k - 1) / U(k)`` (exact when the sketch
        saw all its keys)."""
        size = len(self)
        if size == 0:
            return 0.0
        saw_all = self.saw_all_keys
        ukth = self.kth_unit_value() if not saw_all else 1.0
        return unbiased_dv_estimate(size, ukth, saw_all=saw_all)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to a plain dict (JSON-compatible) for catalog storage.

        Aggregator *state* is not preserved — a deserialized sketch is
        frozen for estimation purposes, which is exactly how an index uses
        it: the aggregated values are materialized, and offering it more
        rows raises ``ValueError``.
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
        entries = sorted(payload["entries"], key=lambda entry: entry[0])
        sketch._freeze_to(
            np.array([kh for kh, _ in entries], dtype=np.uint64),
            np.array([value for _, value in entries], dtype=np.float64),
        )
        return sketch
