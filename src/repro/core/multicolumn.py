"""Multi-column correlation sketches (Section 3.1, last paragraph).

For a table ``T = {K, X, Z, …}`` with one key column and several numeric
columns, the paper notes the sketch extends to
``L = {⟨h(k), x_k, z_k, …⟩ : k ∈ min(k, h_u(k))}`` — one bottom-``n``
selection shared by all columns, rather than one sketch per column.
Because the selected keys depend only on the key column, the per-column
views of a multi-column sketch are exactly the single-column sketches, so
all estimation code applies unchanged via :meth:`MultiColumnSketch.column`.

The shared selection makes the multi-column variant strictly cheaper to
build (one pass, one hash per row) and to store (the key hashes are shared)
than independent per-column sketches.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.aggregators import Aggregator, make_aggregator
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher, default_hasher
from repro.kmv.bottomk import BottomK


class MultiColumnSketch:
    """Bottom-``n`` sketch of ``⟨K, X₁, …, X_m⟩`` with shared key selection.

    Args:
        n: sketch size.
        columns: names of the numeric columns, in row order.
        aggregate: streaming aggregate applied per key per column.
        hasher: hashing scheme.
        name: optional identifier.
    """

    def __init__(
        self,
        n: int,
        columns: Sequence[str],
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        name: str | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"sketch size n must be positive, got {n}")
        if not columns:
            raise ValueError("at least one numeric column is required")
        if len(set(columns)) != len(columns):
            raise ValueError(f"duplicate column names in {list(columns)}")
        self.n = n
        self.columns = tuple(columns)
        self.aggregate = aggregate
        make_aggregator(aggregate)  # validate eagerly
        self.hasher = hasher if hasher is not None else default_hasher()
        self.name = name
        self._bottom = BottomK(n)
        self._overflowed = False
        self.rows_seen = 0
        self._value_min = {c: math.inf for c in self.columns}
        self._value_max = {c: -math.inf for c in self.columns}

    def update(self, key: object, values: Sequence[float]) -> None:
        """Offer one row: a key plus one value per numeric column."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows_seen += 1
        floats = [float(v) for v in values]
        for col, v in zip(self.columns, floats):
            if v == v:
                if v < self._value_min[col]:
                    self._value_min[col] = v
                if v > self._value_max[col]:
                    self._value_max[col] = v

        pair = self.hasher.hash(key)
        if pair.key_hash in self._bottom:
            aggs: list[Aggregator] = self._bottom.get(pair.key_hash)
            for agg, v in zip(aggs, floats):
                agg.observe(v)
            return

        was_full = len(self._bottom) >= self.n
        aggs = [make_aggregator(self.aggregate) for _ in self.columns]
        for agg, v in zip(aggs, floats):
            agg.observe(v)
        admitted = self._bottom.offer(pair.unit_hash, pair.key_hash, aggs)
        if not admitted or was_full:
            self._overflowed = True

    def update_all(self, rows: Iterable[tuple[object, Sequence[float]]]) -> None:
        """Offer every ``(key, values)`` row."""
        for key, values in rows:
            self.update(key, values)

    def __len__(self) -> int:
        return len(self._bottom)

    @property
    def saw_all_keys(self) -> bool:
        return not self._overflowed

    def column(self, name: str) -> CorrelationSketch:
        """Materialize the single-column sketch view for column ``name``.

        The returned sketch is frozen (built from aggregated values) but
        carries the correct key hashes, ranks, value range and overflow
        flag, so joining/estimation behaves identically to a sketch built
        directly from that column pair.
        """
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; available: {list(self.columns)}"
            ) from None

        key_hashes, ranks, states = self._bottom.key_sorted()
        return CorrelationSketch.from_frozen_arrays(
            key_hashes,
            ranks,
            np.array([aggs[idx].value() for aggs in states], dtype=np.float64),
            n=self.n,
            aggregate=self.aggregate,
            hasher=self.hasher,
            name=f"{self.name}:{name}" if self.name else name,
            rows_seen=self.rows_seen,
            overflowed=self._overflowed,
            value_min=self._value_min[name],
            value_max=self._value_max[name],
        )
