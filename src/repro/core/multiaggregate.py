"""Sketches carrying several aggregate functions at once.

Section 3.1 ("Handling Repeated Keys"): *"our synopsis is agnostic to
such aggregations, and can easily be extended to take as input one or
more functions"*. This module implements that extension: a
:class:`MultiAggregateSketch` maintains, per retained key, one streaming
aggregator per requested function — so a single pass yields sketches for
``mean`` *and* ``max`` *and* ``count`` (etc.) simultaneously, instead of
one pass per function.

Per-function views materialize ordinary
:class:`~repro.core.sketch.CorrelationSketch` objects, so all
join/estimation machinery applies unchanged.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.aggregators import Aggregator, make_aggregator
from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher, default_hasher
from repro.kmv.bottomk import BottomK


class MultiAggregateSketch:
    """Bottom-``n`` sketch aggregating one value column under several
    functions simultaneously.

    Args:
        n: sketch size.
        aggregates: aggregate-function names (each a key of
            :data:`repro.core.aggregators.AGGREGATORS`), e.g.
            ``("mean", "max", "count")``.
        hasher: hashing scheme.
        name: optional identifier.
    """

    def __init__(
        self,
        n: int,
        aggregates: Sequence[str],
        hasher: KeyHasher | None = None,
        name: str | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError(f"sketch size n must be positive, got {n}")
        if not aggregates:
            raise ValueError("at least one aggregate function is required")
        if len(set(aggregates)) != len(aggregates):
            raise ValueError(f"duplicate aggregate names in {list(aggregates)}")
        for agg in aggregates:
            make_aggregator(agg)  # validate eagerly
        self.n = n
        self.aggregates = tuple(aggregates)
        self.hasher = hasher if hasher is not None else default_hasher()
        self.name = name
        self._bottom = BottomK(n)
        self._overflowed = False
        self.rows_seen = 0
        self.value_min = math.inf
        self.value_max = -math.inf

    def update(self, key: object, value: float) -> None:
        """Offer one ``(key, value)`` row to every aggregate."""
        self.rows_seen += 1
        value = float(value)
        if value == value:
            if value < self.value_min:
                self.value_min = value
            if value > self.value_max:
                self.value_max = value
        pair = self.hasher.hash(key)
        if pair.key_hash in self._bottom:
            aggs: list[Aggregator] = self._bottom.get(pair.key_hash)
            for agg in aggs:
                agg.observe(value)
            return
        was_full = len(self._bottom) >= self.n
        aggs = [make_aggregator(name) for name in self.aggregates]
        for agg in aggs:
            agg.observe(value)
        admitted = self._bottom.offer(pair.unit_hash, pair.key_hash, aggs)
        if not admitted or was_full:
            self._overflowed = True

    def update_all(self, rows: Iterable[tuple[object, float]]) -> None:
        for key, value in rows:
            self.update(key, value)

    def __len__(self) -> int:
        return len(self._bottom)

    @property
    def saw_all_keys(self) -> bool:
        return not self._overflowed

    def view(self, aggregate: str) -> CorrelationSketch:
        """Materialize the single-aggregate sketch for ``aggregate``.

        The view carries correct key hashes, ranks, overflow state and —
        for range-preserving aggregates — the column value range, so it
        behaves exactly like a sketch built with that aggregate alone.
        """
        try:
            idx = self.aggregates.index(aggregate)
        except ValueError:
            raise KeyError(
                f"aggregate {aggregate!r} not tracked; available: "
                f"{list(self.aggregates)}"
            ) from None
        key_hashes, ranks, states = self._bottom.key_sorted()
        return CorrelationSketch.from_frozen_arrays(
            key_hashes,
            ranks,
            np.array([aggs[idx].value() for aggs in states], dtype=np.float64),
            n=self.n,
            aggregate=aggregate,
            hasher=self.hasher,
            name=f"{self.name}:{aggregate}" if self.name else aggregate,
            rows_seen=self.rows_seen,
            overflowed=self._overflowed,
            value_min=self.value_min,
            value_max=self.value_max,
        )
