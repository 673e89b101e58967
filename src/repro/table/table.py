"""The in-memory Table: an ordered collection of typed columns.

A table is deliberately minimal — the query model (Definitions 1–3) only
needs: typed column access, extraction of ``⟨categorical, numeric⟩`` column
pairs (the unit the sketches summarize), and row count. Joins live in
:mod:`repro.table.join`; parsing in :mod:`repro.table.csv_io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.table.column import CategoricalColumn, Column, NumericColumn
from repro.table.types import ColumnType


@dataclass(frozen=True, slots=True)
class ColumnPair:
    """A ``⟨K, X⟩`` key/value column pair — the unit a sketch summarizes.

    Attributes:
        table_name: owning table's name.
        key: categorical column name.
        value: numeric column name.
    """

    table_name: str
    key: str
    value: str

    @property
    def pair_id(self) -> str:
        """Stable identifier, e.g. ``"taxi.csv::zipcode->pickups"``."""
        return f"{self.table_name}::{self.key}->{self.value}"


class Table:
    """A named, column-ordered table with uniform column lengths.

    Args:
        name: table identifier (file name, dataset id, …).
        columns: columns in order; all must share one length.
    """

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        self.name = name
        self._columns: dict[str, Column] = {}
        length: int | None = None
        for col in columns:
            if col.name in self._columns:
                raise ValueError(f"duplicate column name {col.name!r} in {name!r}")
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise ValueError(
                    f"column {col.name!r} has {len(col)} rows, expected {length}"
                )
            self._columns[col.name] = col
        self._length = length or 0

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        """Row count."""
        return self._length

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> Column:
        """Return the column named ``name`` (KeyError with context)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"available: {self.column_names}"
            ) from None

    def categorical(self, name: str) -> CategoricalColumn:
        """Return a column, asserting it is categorical."""
        col = self.column(name)
        if not isinstance(col, CategoricalColumn):
            raise TypeError(f"column {name!r} of {self.name!r} is not categorical")
        return col

    def numeric(self, name: str) -> NumericColumn:
        """Return a column, asserting it is numeric."""
        col = self.column(name)
        if not isinstance(col, NumericColumn):
            raise TypeError(f"column {name!r} of {self.name!r} is not numeric")
        return col

    def categorical_names(self) -> list[str]:
        return [
            c.name
            for c in self._columns.values()
            if c.type is ColumnType.CATEGORICAL
        ]

    def numeric_names(self) -> list[str]:
        return [
            c.name for c in self._columns.values() if c.type is ColumnType.NUMERIC
        ]

    # -- the query model's unit of work -------------------------------------

    def column_pairs(self) -> list[ColumnPair]:
        """All ``⟨categorical, numeric⟩`` pairs, as Section 5.1 extracts.

        The paper generates "all possible pairs of categorical and numerical
        data columns ⟨K_X, X⟩" from each table; sketches are then built per
        pair.
        """
        return [
            ColumnPair(self.name, key, value)
            for key in self.categorical_names()
            for value in self.numeric_names()
        ]

    def pair_arrays(self, pair: ColumnPair) -> tuple[np.ndarray, np.ndarray]:
        """The ``(keys, values)`` arrays a pair's sketch is built from.

        Rows with a missing key are dropped — a row without a join key
        can never participate in a join; missing numeric cells stay as
        NaN (the sketch counts the key for joinability but stores no
        value). The arrays feed
        :meth:`repro.core.sketch.CorrelationSketch.update_array`.
        """
        keys, (values,) = self.key_column_arrays(pair.key, [pair.value])
        return keys, values

    def key_column_arrays(
        self, key: str, values: Sequence[str]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """:meth:`pair_arrays` of several pairs on one key column at once.

        Returns ``(keys, [values, …])``, one array per numeric column
        named in ``values``; the missing-key mask is computed once for
        all of them.
        """
        keys = self.categorical(key).as_array()
        columns = [self.numeric(name).as_array() for name in values]
        # Comparison on an object array yields object-dtype bools; cast so
        # the result is usable as a boolean mask.
        present = np.not_equal(keys, None).astype(bool)
        if present.all():
            return keys, columns
        return keys[present], [column[present] for column in columns]

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={len(self)}, "
            f"columns={self.column_names})"
        )


def table_from_arrays(
    name: str,
    keys: Sequence[str],
    values: Sequence[float] | np.ndarray,
    key_name: str = "key",
    value_name: str = "value",
) -> Table:
    """Convenience constructor for the ubiquitous two-column table."""
    return Table(
        name,
        [
            CategoricalColumn(key_name, list(keys)),
            NumericColumn(value_name, np.asarray(values, dtype=np.float64)),
        ],
    )
