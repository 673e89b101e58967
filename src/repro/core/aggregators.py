"""Streaming aggregate functions for repeated join keys.

Real-world key columns contain repeated values (Section 3.1, "Handling
Repeated Keys"). Correlation is defined over *paired* values, so the
numeric values sharing one key must be collapsed to a single number with a
user-chosen aggregate function ``f`` before correlating. The paper requires
``f`` to be computable in a streaming fashion — ``x_k^t = f(x_k, x_k^{t-1})``
— so the sketch is still built in one pass.

Each aggregator here is a tiny state machine with O(1) state:

=========  ======================================================
name       semantics of the aggregated value for a key
=========  ======================================================
``mean``   arithmetic mean of all values seen for the key
``sum``    sum of all values
``max``    largest value
``min``    smallest value
``first``  first value encountered (stream order)
``last``   most recent value encountered
``count``  number of occurrences of the key (ignores the values)
=========  ======================================================

Use :func:`make_aggregator` (or :data:`AGGREGATORS`) to obtain instances by
name; sketches store one aggregator state per retained key.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class Aggregator:
    """Base class for O(1)-state streaming aggregators.

    Subclasses implement :meth:`update` and :meth:`value`. NaN inputs are
    skipped (treated as missing data, matching how the ground-truth join in
    :mod:`repro.table.join` handles missing cells); an aggregator that
    never saw a non-NaN value reports NaN.
    """

    name: str = "abstract"

    __slots__ = ()

    def update(self, x: float) -> None:
        raise NotImplementedError

    def value(self) -> float:
        raise NotImplementedError

    def observe(self, x: float) -> None:
        """Update with NaN filtering; the entry point sketches use."""
        if x != x:  # NaN check without importing math in the hot path
            return
        self.update(x)


class MeanAggregator(Aggregator):
    """Running arithmetic mean (Welford-style count/total)."""

    name = "mean"
    __slots__ = ("_count", "_total")

    def __init__(self) -> None:
        self._count = 0
        self._total = 0.0

    def update(self, x: float) -> None:
        self._count += 1
        self._total += x

    def value(self) -> float:
        if self._count == 0:
            return math.nan
        return self._total / self._count


class SumAggregator(Aggregator):
    name = "sum"
    __slots__ = ("_total", "_seen")

    def __init__(self) -> None:
        self._total = 0.0
        self._seen = False

    def update(self, x: float) -> None:
        self._total += x
        self._seen = True

    def value(self) -> float:
        return self._total if self._seen else math.nan


class MaxAggregator(Aggregator):
    name = "max"
    __slots__ = ("_best",)

    def __init__(self) -> None:
        self._best = math.nan

    def update(self, x: float) -> None:
        if self._best != self._best or x > self._best:
            self._best = x

    def value(self) -> float:
        return self._best


class MinAggregator(Aggregator):
    name = "min"
    __slots__ = ("_best",)

    def __init__(self) -> None:
        self._best = math.nan

    def update(self, x: float) -> None:
        if self._best != self._best or x < self._best:
            self._best = x

    def value(self) -> float:
        return self._best


class FirstAggregator(Aggregator):
    name = "first"
    __slots__ = ("_value", "_seen")

    def __init__(self) -> None:
        self._value = math.nan
        self._seen = False

    def update(self, x: float) -> None:
        if not self._seen:
            self._value = x
            self._seen = True

    def value(self) -> float:
        return self._value


class LastAggregator(Aggregator):
    name = "last"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = math.nan

    def update(self, x: float) -> None:
        self._value = x

    def value(self) -> float:
        return self._value


class CountAggregator(Aggregator):
    """Counts key occurrences; turns the sketch into a frequency sketch."""

    name = "count"
    __slots__ = ("_count",)

    def __init__(self) -> None:
        self._count = 0

    def update(self, x: float) -> None:
        self._count += 1

    def observe(self, x: float) -> None:
        # Count NaN occurrences too: the key occurred even if its numeric
        # cell was missing.
        self._count += 1

    def value(self) -> float:
        return float(self._count)


AGGREGATORS: dict[str, Callable[[], Aggregator]] = {
    "mean": MeanAggregator,
    "sum": SumAggregator,
    "max": MaxAggregator,
    "min": MinAggregator,
    "first": FirstAggregator,
    "last": LastAggregator,
    "count": CountAggregator,
}


def _aggregator_class(name: str) -> Callable[[], Aggregator]:
    try:
        return AGGREGATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown aggregate function {name!r}; expected one of "
            f"{sorted(AGGREGATORS)}"
        ) from None


def make_aggregator(name: str) -> Aggregator:
    """Instantiate a fresh aggregator by name.

    Raises:
        ValueError: if ``name`` is not one of :data:`AGGREGATORS`.
    """
    return _aggregator_class(name)()


#: dtype and fresh value of every aggregator slot — the columnar
#: statement of the ``__init__`` bodies above.
_SLOTS = {
    "_count": (np.int64, 0),
    "_total": (np.float64, 0.0),
    "_seen": (np.bool_, False),
    "_best": (np.float64, math.nan),
    "_value": (np.float64, math.nan),
}


class GroupedAggregates:
    """Columnar aggregator state: one array per :class:`Aggregator` slot,
    one row per key.

    This is how a :class:`~repro.core.sketch.CorrelationSketch` stores
    the ``x_k`` side of its tuples, and the aggregation kernel behind
    :meth:`~repro.core.sketch.CorrelationSketch.update_array`: a batch
    of rows grouped by key (``inv`` maps each row to its row here, as
    produced by ``np.unique(..., return_inverse=True)``) is folded into
    the slots in a handful of ``ufunc.at`` calls instead of one
    Python-level state-machine step per row.

    The kernel reproduces the streaming aggregators *bit for bit*:

    * ``np.add.at`` accumulates unbuffered and in element order, so a
      key's running sum is the same left-to-right float addition chain
      the scalar ``MeanAggregator``/``SumAggregator`` would produce —
      continuing whatever chain the slots already hold;
    * ``max``/``min`` take each key's extreme with ``np.fmax.at`` /
      ``np.fmin.at`` (which skip the NaN that marks "nothing seen yet")
      and then the *first* row equal to it, so of 0.0 and -0.0 the one
      ``MaxAggregator.update``'s strict comparison keeps is kept;
    * ``first``/``last`` pick values by position (``np.minimum.at`` /
      ``np.maximum.at`` over row indices of non-NaN rows), matching stream
      order exactly;
    * NaN rows are skipped everywhere except under ``count``, which counts
      key occurrences regardless of the cell value — the same missing-data
      policy as :meth:`Aggregator.observe`.
    """

    __slots__ = ("name", "slots")

    def __init__(
        self, name: str, size: int = 0, slots: dict[str, np.ndarray] | None = None
    ) -> None:
        names = _aggregator_class(name).__slots__
        self.name = name
        if slots is None:
            slots = {
                slot: np.full(size, _SLOTS[slot][1], dtype=_SLOTS[slot][0])
                for slot in names
            }
        self.slots = slots

    @classmethod
    def empty(cls, name: str) -> "GroupedAggregates":
        """The zero-row state of aggregate ``name`` — one shared,
        read-only instance per name (every empty sketch starts from it;
        growing it builds a new instance)."""
        try:
            return _EMPTY[name]
        except KeyError:
            return cls(name)  # raises for an unknown aggregate

    def __len__(self) -> int:
        return next(iter(self.slots.values())).shape[0]

    def take(self, rows: np.ndarray) -> "GroupedAggregates":
        """The state of ``rows``, in that order, as a new instance."""
        return GroupedAggregates(
            self.name, slots={slot: column[rows] for slot, column in self.slots.items()}
        )

    def put(self, rows: np.ndarray, other: "GroupedAggregates", other_rows) -> None:
        """Overwrite ``rows`` with ``other``'s state at ``other_rows``."""
        for slot, column in self.slots.items():
            column[rows] = other.slots[slot][other_rows]

    def extended(self, other: "GroupedAggregates") -> "GroupedAggregates":
        """This state followed by ``other``'s rows."""
        return GroupedAggregates(
            self.name,
            slots={
                slot: np.concatenate([column, other.slots[slot]])
                for slot, column in self.slots.items()
            },
        )

    def accumulate(self, inv: np.ndarray, values: np.ndarray) -> None:
        """Fold a batch in; ``values[i]`` belongs to row ``inv[i]``."""
        name, slots, size = self.name, self.slots, len(self)
        if name == "count":
            slots["_count"] += np.bincount(inv, minlength=size)
            return
        valid = ~np.isnan(values)
        vi = inv[valid]
        vv = values[valid]
        if name == "mean":
            np.add.at(slots["_total"], vi, vv)
            slots["_count"] += np.bincount(vi, minlength=size)
        elif name == "sum":
            np.add.at(slots["_total"], vi, vv)
            slots["_seen"][vi] = True
        elif name in ("max", "min"):
            # The streaming update replaces on a strict comparison, so
            # of equal extremes (0.0 and -0.0) the first seen stays —
            # fmax / fmin may return either. Take each key's extreme,
            # then the first row holding a value equal to it.
            pick, beats = (
                (np.fmax, np.greater) if name == "max" else (np.fmin, np.less)
            )
            extreme = np.full(size, math.nan)
            pick.at(extreme, vi, vv)
            at_extreme = vv == extreme[vi]
            pos = np.full(size, values.shape[0], dtype=np.int64)
            np.minimum.at(pos, vi[at_extreme], np.nonzero(valid)[0][at_extreme])
            rows = np.nonzero(pos < values.shape[0])[0]
            found = values[pos[rows]]
            best = slots["_best"]
            wins = np.isnan(best[rows]) | beats(found, best[rows])
            best[rows[wins]] = found[wins]
        elif name == "first":
            # Row index of each key's first non-NaN cell in this batch.
            pos = np.full(size, values.shape[0], dtype=np.int64)
            np.minimum.at(pos, vi, np.nonzero(valid)[0])
            hit = (pos < values.shape[0]) & ~slots["_seen"]
            slots["_value"][hit] = values[pos[hit]]
            slots["_seen"][hit] = True
        elif name == "last":
            pos = np.full(size, -1, dtype=np.int64)
            np.maximum.at(pos, vi, np.nonzero(valid)[0])
            hit = pos >= 0
            slots["_value"][hit] = values[pos[hit]]

    def values(self) -> np.ndarray:
        """Every row's :meth:`Aggregator.value`, as one float64 array."""
        name, slots = self.name, self.slots
        if name == "mean":
            out = np.full(len(self), math.nan)
            np.divide(
                slots["_total"], slots["_count"], out=out, where=slots["_count"] > 0
            )
            return out
        if name == "sum":
            return np.where(slots["_seen"], slots["_total"], math.nan)
        if name == "count":
            return slots["_count"].astype(np.float64)
        return slots["_best" if name in ("max", "min") else "_value"].copy()


def _read_only(state: GroupedAggregates) -> GroupedAggregates:
    for column in state.slots.values():
        column.setflags(write=False)
    return state


#: What :meth:`GroupedAggregates.empty` hands out.
_EMPTY = {name: _read_only(GroupedAggregates(name)) for name in AGGREGATORS}
