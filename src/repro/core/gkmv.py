"""Threshold (G-KMV-style) selection strategy — the paper's ablation.

Section 3.3 and the related-work discussion contrast the paper's
*fixed-size* bottom-``n`` selection with *variable-size* threshold
selection (G-KMV, correlated sampling): include every key whose unit hash
falls below a fixed threshold ``τ``. Threshold selection gives each table
a sample size proportional to its distinct-key count — better for large
joins, but unbounded storage for large tables, which is exactly the
trade-off the paper cites for preferring fixed-size sketches ("avoids
assigning too much space to large datasets and leads to more predictable
performance").

:class:`ThresholdSketch` implements the strategy with the same join
interface as :class:`~repro.core.sketch.CorrelationSketch` (duck-typed:
``hasher`` and a :meth:`~ThresholdSketch.columnar` view), so
:func:`repro.core.joined_sample.join_pair` and
:func:`repro.core.estimation.estimate` work on either kind. The
ablation benchmark compares the two at matched *expected* storage.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.aggregators import (
    RANGE_PRESERVING_AGGREGATES,
    Aggregator,
    make_aggregator,
)
from repro.core.sketch import SketchColumns, _value_range_of
from repro.hashing import KeyHasher, default_hasher


class ThresholdSketch:
    """Variable-size sketch: keep keys with ``h_u(h(k)) < τ``.

    Args:
        threshold: inclusion threshold ``τ`` in (0, 1]. A table with ``D``
            distinct keys retains ``≈ τ·D`` of them.
        aggregate: streaming aggregate for repeated keys.
        hasher: hashing scheme (must match any sketch it will join with).
        name: optional identifier.
    """

    def __init__(
        self,
        threshold: float,
        aggregate: str = "mean",
        hasher: KeyHasher | None = None,
        name: str | None = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.aggregate = aggregate
        make_aggregator(aggregate)  # validate eagerly
        self.hasher = hasher if hasher is not None else default_hasher()
        self.name = name
        self._entries: dict[int, Aggregator] = {}
        self.value_min = math.inf
        self.value_max = -math.inf
        self.rows_seen = 0

    def update(self, key: object, value: float) -> None:
        """Offer one ``(key, value)`` row."""
        self.rows_seen += 1
        value = float(value)
        if value == value:
            if value < self.value_min:
                self.value_min = value
            if value > self.value_max:
                self.value_max = value
        pair = self.hasher.hash(key)
        if pair.unit_hash >= self.threshold:
            return
        agg = self._entries.get(pair.key_hash)
        if agg is None:
            agg = make_aggregator(self.aggregate)
            self._entries[pair.key_hash] = agg
        agg.observe(value)

    def update_all(self, rows: Iterable[tuple[object, float]]) -> None:
        for key, value in rows:
            self.update(key, value)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def saw_all_keys(self) -> bool:
        """Threshold sketches always drop above-threshold keys."""
        return self.threshold >= 1.0

    def key_hashes(self) -> set[int]:
        return set(self._entries)

    def entries(self) -> dict[int, float]:
        return {kh: agg.value() for kh, agg in self._entries.items()}

    def columnar(self) -> SketchColumns:
        """The retained entries as a :class:`SketchColumns` view (sorted
        by key hash), built afresh on every call."""
        key_hashes = sorted(self._entries)
        return SketchColumns(
            key_hashes=np.array(key_hashes, dtype=np.uint64),
            values=np.array(
                [self._entries[kh].value() for kh in key_hashes], dtype=np.float64
            ),
            value_range=_value_range_of(self.value_min, self.value_max),
            saw_all_keys=self.saw_all_keys,
            bits=self.hasher.bits,
            range_preserving=self.aggregate in RANGE_PRESERVING_AGGREGATES,
        )

    def distinct_keys(self) -> float:
        """DV estimate: retained count scaled by the inclusion rate."""
        return len(self._entries) / self.threshold

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return (
            f"ThresholdSketch(threshold={self.threshold}, "
            f"size={len(self)}{label})"
        )
