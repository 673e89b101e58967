"""Unit tests for Table, columns and column-pair extraction."""

import math

import numpy as np
import pytest

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import ColumnPair, Table, table_from_arrays


def _table():
    return Table(
        "t",
        [
            CategoricalColumn("date", ["d1", "d2", None]),
            NumericColumn("pickups", [1.0, math.nan, 3.0]),
            NumericColumn("fares", [10.0, 20.0, 30.0]),
            CategoricalColumn("zone", ["a", "b", "a"]),
        ],
    )


class TestColumns:
    def test_numeric_missing_count(self):
        col = NumericColumn("x", [1.0, math.nan, 3.0])
        assert col.missing_count() == 1
        assert col.min() == 1.0
        assert col.max() == 3.0

    def test_numeric_all_missing(self):
        col = NumericColumn("x", [math.nan, math.nan])
        assert math.isnan(col.min())
        assert math.isnan(col.max())

    def test_numeric_must_be_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            NumericColumn("x", np.zeros((2, 2)))

    def test_categorical_counts(self):
        col = CategoricalColumn("k", ["a", "b", None, "a"])
        assert col.missing_count() == 1
        assert col.distinct_count() == 2
        assert len(col) == 4


class TestTable:
    def test_length_and_names(self):
        t = _table()
        assert len(t) == 3
        assert t.column_names == ["date", "pickups", "fares", "zone"]

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Table("t", [NumericColumn("x", [1.0]), NumericColumn("x", [2.0])])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Table("t", [NumericColumn("x", [1.0]), NumericColumn("y", [1.0, 2.0])])

    def test_empty_table(self):
        assert len(Table("empty", [])) == 0

    def test_missing_column_error_lists_available(self):
        with pytest.raises(KeyError, match="available"):
            _table().column("nope")

    def test_typed_accessors(self):
        t = _table()
        assert t.numeric("pickups").name == "pickups"
        assert t.categorical("date").name == "date"
        with pytest.raises(TypeError):
            t.numeric("date")
        with pytest.raises(TypeError):
            t.categorical("pickups")

    def test_type_partition(self):
        t = _table()
        assert t.categorical_names() == ["date", "zone"]
        assert t.numeric_names() == ["pickups", "fares"]

    def test_contains(self):
        assert "date" in _table()
        assert "nope" not in _table()


class TestColumnPairs:
    def test_all_cross_pairs(self):
        pairs = _table().column_pairs()
        assert len(pairs) == 4  # 2 categorical x 2 numeric
        ids = {p.pair_id for p in pairs}
        assert "t::date->pickups" in ids
        assert "t::zone->fares" in ids

    def test_pair_arrays_skip_missing_keys(self):
        t = _table()
        keys, values = t.pair_arrays(ColumnPair("t", "date", "fares"))
        assert keys.tolist() == ["d1", "d2"]
        assert values.tolist() == [10.0, 20.0]

    def test_pair_arrays_keep_nan_values(self):
        t = _table()
        keys, values = t.pair_arrays(ColumnPair("t", "date", "pickups"))
        assert keys.tolist() == ["d1", "d2"]
        assert values[0] == 1.0 and math.isnan(values[1])


def test_table_from_arrays():
    t = table_from_arrays("t2", ["a", "b"], [1.0, 2.0], key_name="k", value_name="v")
    assert t.categorical("k").values == ["a", "b"]
    assert t.numeric("v").values.tolist() == [1.0, 2.0]
    assert len(t.column_pairs()) == 1
