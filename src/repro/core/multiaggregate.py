"""Sketches carrying several aggregate functions at once.

Section 3.1 ("Handling Repeated Keys"): *"our synopsis is agnostic to
such aggregations, and can easily be extended to take as input one or
more functions"*. This module implements that extension: a
:class:`MultiAggregateSketch` keeps one
:class:`~repro.core.sketch.CorrelationSketch` per requested function over
the same rows — so one pass yields sketches for ``mean`` *and* ``max``
*and* ``count`` (etc.) simultaneously, instead of one pass per function.
The retained keys depend on the key column only (Section 3.1), so each
batch is hashed, grouped and ranked once for all of them, exactly as
:meth:`~repro.core.sketch.CorrelationSketch.from_key_column` shares a key
column between value columns.

Per-function views are those ordinary sketches, so all join/estimation
machinery applies unchanged.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.sketch import CorrelationSketch, _checked_values, _KeyGroups
from repro.hashing import KeyHasher, default_hasher


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
        if not aggregates:
            raise ValueError("at least one aggregate function is required")
        if len(set(aggregates)) != len(aggregates):
            raise ValueError(f"duplicate aggregate names in {list(aggregates)}")
        self.n = n
        self.aggregates = tuple(aggregates)
        self.hasher = hasher if hasher is not None else default_hasher()
        self.name = name
        # Constructing each sketch validates n and the aggregate name.
        self._sketches = {
            agg: CorrelationSketch(
                n,
                aggregate=agg,
                hasher=self.hasher,
                name=f"{name}:{agg}" if name else agg,
            )
            for agg in self.aggregates
        }

    def update_array(self, keys, values) -> None:
        """Offer a batch of rows, as parallel key/value columns, to every
        aggregate (see :meth:`CorrelationSketch.update_array`)."""
        values = _checked_values(values, len(keys))
        groups = _KeyGroups(self.hasher, keys)
        for sketch in self._sketches.values():
            sketch._update_grouped(groups, values)

    @property
    def _first(self) -> CorrelationSketch:
        return self._sketches[self.aggregates[0]]

    def __len__(self) -> int:
        return len(self._first)

    @property
    def rows_seen(self) -> int:
        return self._first.rows_seen

    @property
    def saw_all_keys(self) -> bool:
        return self._first.saw_all_keys

    def view(self, aggregate: str) -> CorrelationSketch:
        """The single-aggregate sketch for ``aggregate``: the sketch
        ``from_columns`` would build over the same rows with that
        aggregate alone."""
        try:
            return self._sketches[aggregate]
        except KeyError:
            raise KeyError(
                f"aggregate {aggregate!r} not tracked; available: "
                f"{list(self.aggregates)}"
            ) from None
