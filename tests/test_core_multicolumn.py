"""The multi-column sketch of Section 3.1's last paragraph.

For a table ``T = {K, X, Z, …}`` the paper extends the sketch to
``L = {⟨h(k), x_k, z_k, …⟩}`` — one bottom-``n`` selection shared by all
numeric columns, because the selected keys depend only on ``K``.
``CorrelationSketch.from_key_column`` is that build: it hashes, groups,
ranks and selects the key column once and returns one ordinary sketch
per value column. (The row-at-a-time ``MultiColumnSketch`` class these
cases were first written against is gone; what it promised about the
sketches is checked here against the builder that replaced it. Its
by-name ``column("x")`` lookup went with it: the builder returns the
sketches in column order.)
"""

import math

import numpy as np
import pytest

from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table


def test_validation():
    with pytest.raises(ValueError, match="positive"):
        CorrelationSketch.from_key_column(["k"], [[1.0]], 0)
    with pytest.raises(ValueError, match="unknown aggregate"):
        CorrelationSketch.from_key_column(["k"], [[1.0]], 4, aggregate="nope")
    # No value column is not an error: there is simply nothing to sketch.
    assert CorrelationSketch.from_key_column(["k"], [], 4) == []


def test_row_width_checked():
    with pytest.raises(ValueError, match="key column has 2 rows"):
        CorrelationSketch.from_key_column(["k", "j"], [[1.0, 2.0], [1.0]], 4)


def test_column_view_matches_direct_sketch():
    """Each sketch of the shared build must be indistinguishable from a
    directly built sketch of that ⟨key, column⟩ pair."""
    rng = np.random.default_rng(3)
    n_rows = 2000
    keys = [f"k{i}" for i in range(n_rows)]
    x = rng.standard_normal(n_rows)
    z = rng.standard_normal(n_rows)

    view_x, view_z = CorrelationSketch.from_key_column(keys, [x, z], 64)
    for view, column in ((view_x, x), (view_z, z)):
        direct = CorrelationSketch.from_columns(keys, column, 64)
        assert view.key_hashes() == direct.key_hashes()
        assert view.entries() == direct.entries()
        assert view.value_min == direct.value_min
        assert view.value_max == direct.value_max
        assert view.saw_all_keys == direct.saw_all_keys
        assert view.rows_seen == direct.rows_seen == n_rows


def test_shared_selection_across_columns():
    keys = [f"k{i}" for i in range(500)]
    x = np.arange(500.0)
    sk_x, sk_z = CorrelationSketch.from_key_column(keys, [x, -x], 16)
    assert sk_x.key_hashes() == sk_z.key_hashes()
    # Shared, not merely equal: the selection was computed once.
    assert sk_x.columnar().key_hashes is sk_z.columnar().key_hashes


def test_repeated_keys_aggregate_per_column():
    sk_x, sk_z = CorrelationSketch.from_key_column(
        ["a", "a"], [[1.0, 3.0], [10.0, 30.0]], 8, aggregate="mean"
    )
    h = sk_x.hasher.key_hash("a")
    assert sk_x.entries()[h] == 2.0
    assert sk_z.entries()[h] == 20.0


def test_nan_handling_per_column():
    sk_x, sk_z = CorrelationSketch.from_key_column(["a"], [[math.nan], [5.0]], 8)
    h = sk_x.hasher.key_hash("a")
    assert math.isnan(sk_x.entries()[h])
    assert sk_z.entries()[h] == 5.0


def test_views_joinable_with_regular_sketches():
    keys = [f"k{i}" for i in range(300)]
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    (view,) = CorrelationSketch.from_key_column(keys, [x], 32)
    other = CorrelationSketch.from_columns(keys, x * 2, 32)
    sample = join_pair(view, other).samples[0]
    assert sample.size > 0
    assert np.allclose(sample.y, 2 * sample.x)


def test_view_name_includes_parent():
    """Names are the caller's, one per column; the catalog — the caller
    that builds whole tables this way — names each sketch by its pair id,
    which carries the table (parent), key and value column."""
    named = CorrelationSketch.from_key_column(["k"], [[1.0], [2.0]], 4, names=["p", None])
    assert [s.name for s in named] == ["p", None]
    table = Table(
        "table1",
        [
            CategoricalColumn("key", ["a", "b"]),
            NumericColumn("x", np.asarray([1.0, 2.0])),
            NumericColumn("z", np.asarray([3.0, 4.0])),
        ],
    )
    catalog = SketchCatalog(sketch_size=4)
    ids = catalog.add_table(table)
    assert ids == ["table1::key->x", "table1::key->z"]
    assert [catalog.get(sid).name for sid in ids] == ids
