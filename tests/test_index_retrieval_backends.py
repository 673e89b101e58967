"""Retrieval-backend parity: approximate LSH vs the exact inverted index.

The backend contract (docs/ARCHITECTURE.md "Retrieval backends"): both
backends feed the *same* re-ranking pipeline with ``(sketch_id, exact
overlap)`` hits, so for any candidate both retrieve, every downstream
number is identical — backends differ only in recall. On
high-containment corpora (candidates sharing ≥50% of the query's keys,
the regime join-correlation queries live in) the default banding must
recover essentially all of the exact index's candidates.
"""

import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.index.lsh import LshIndex
from repro.ranking.scoring import SCORER_NAMES
from repro.table.table import table_from_arrays

from scalar_query_oracle import scalar_query


def _high_containment_world(seed=0, n_tables=10, n_rows=1500, sketch_size=128):
    """Corpus tables sharing ≥60% of the query's key universe — every
    candidate is well inside the LSH banding's collision threshold."""
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    q = rng.standard_normal(n_rows)
    catalog = SketchCatalog(sketch_size=sketch_size)
    for t in range(n_tables):
        rho = float(rng.uniform(-1.0, 1.0))
        vals = rho * q + math.sqrt(max(0.0, 1 - rho * rho)) * rng.standard_normal(
            n_rows
        )
        keep = rng.uniform(size=n_rows) < rng.uniform(0.6, 1.0)
        catalog.add_table(
            table_from_arrays(
                f"tab{t:02d}", [k for k, m in zip(keys, keep) if m], vals[keep]
            )
        )
    query = CorrelationSketch.from_columns(
        keys, q, sketch_size, hasher=catalog.hasher, name="query"
    )
    return catalog, query


def _ranking(result):
    return [(e.candidate_id, e.score) for e in result.ranked]


@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_full_recall_rankings_bit_identical(scorer):
    """When LSH recovers the whole exact candidate page (high
    containment), the two backends' results must match bit for bit —
    re-ranking is shared, so recall is the only degree of freedom."""
    catalog, query = _high_containment_world()
    exact = JoinCorrelationEngine(catalog)
    approx = JoinCorrelationEngine(catalog, retrieval_backend="lsh")
    a = exact.query(query, k=10, scorer=scorer)
    b = approx.query(query, k=10, scorer=scorer)
    assert a.candidates_considered == b.candidates_considered
    assert _ranking(a) == _ranking(b)


def test_scalar_columnar_parity_under_lsh():
    """The scalar reference and the columnar pipeline must retrieve the
    identical LSH candidate page and produce identical rankings (the
    parity contract holds per backend)."""
    catalog, query = _high_containment_world(seed=3)
    columnar = JoinCorrelationEngine(catalog, retrieval_backend="lsh")
    for scorer in ("rp", "rp_cih", "rb_cib", "jc_est"):
        a = scalar_query(
            catalog, query, k=8, scorer=scorer, options=columnar.options
        )
        b = columnar.query(query, k=8, scorer=scorer)
        assert a.candidates_considered == b.candidates_considered
        assert [e.candidate_id for e in a.ranked] == [
            e.candidate_id for e in b.ranked
        ], scorer


def test_lsh_recall_on_high_containment_catalog():
    """≥50%-overlap candidates collide under the default 16x4 banding
    with probability ≈ 1 − (1 − 0.5⁴)¹⁶ ≈ 0.65 per band set — but real
    high-containment pairs sit far above the threshold; demand ≥ 0.9
    recall of the exact top-10 across a query workload."""
    catalog, _ = _high_containment_world(seed=7, n_tables=16)
    exact = JoinCorrelationEngine(catalog, retrieval_depth=10)
    approx = JoinCorrelationEngine(
        catalog, retrieval_depth=10, retrieval_backend="lsh"
    )
    recovered = 0
    expected = 0
    for sid in list(catalog)[:8]:
        sketch = catalog.get(sid)
        a = exact.query(sketch, k=10, scorer="rp", exclude_id=sid)
        b = approx.query(sketch, k=10, scorer="rp", exclude_id=sid)
        exact_ids = {e.candidate_id for e in a.ranked}
        got_ids = {e.candidate_id for e in b.ranked}
        recovered += len(exact_ids & got_ids)
        expected += len(exact_ids)
    assert expected > 0
    assert recovered / expected >= 0.9


def test_lsh_min_overlap_and_exclude():
    catalog, query = _high_containment_world(seed=5, n_tables=4)
    some_id = next(iter(catalog))
    engine = JoinCorrelationEngine(catalog, retrieval_backend="lsh")
    assert all(
        e.candidate_id != some_id
        for e in engine.query(query, k=10, exclude_id=some_id).ranked
    )
    pruned = JoinCorrelationEngine(
        catalog, retrieval_backend="lsh", min_overlap=10**9
    )
    result = pruned.query(query, k=10)
    assert result.candidates_considered == 0 and result.ranked == []


def test_unknown_backend_rejected():
    catalog, _ = _high_containment_world(seed=1, n_tables=2, n_rows=200)
    with pytest.raises(ValueError, match="retrieval_backend"):
        JoinCorrelationEngine(catalog, retrieval_backend="magic")
    with pytest.raises(ValueError, match="lsh_bands"):
        JoinCorrelationEngine(catalog, retrieval_backend="lsh", lsh_bands=0)


# -- catalog-managed lifecycle ----------------------------------------------


def test_catalog_lsh_cached_and_folded_on_mutation():
    catalog, query = _high_containment_world(seed=2, n_tables=4)
    index = catalog.lsh_index()
    assert catalog.lsh_index() is index  # cached
    assert catalog.lsh_params == (index.bands, index.rows)

    n = 1500  # the full key universe, so the LSH banding must find it
    keys = [f"k{i}" for i in range(n)]
    catalog.add_table(
        table_from_arrays("late", keys, np.random.default_rng(0).standard_normal(n))
    )
    # The mutation lands in the delta layer: the frozen-layer LSH stays
    # warm (not invalidated), and the layered probe already sees the
    # late sketch before any compaction.
    assert catalog.lsh_params == (index.bands, index.rows)
    assert any(
        sid.startswith("late")
        for sid in catalog.lsh_candidate_ids(query.columnar().key_hashes)
    )
    # The monolithic accessor folds the delta in: a new index covering
    # the late sketch.
    rebuilt = catalog.lsh_index()
    assert rebuilt is not index
    assert any(sid.startswith("late") for sid in rebuilt.ids)
    # The engine sees the late sketch without any manual rebuild.
    engine = JoinCorrelationEngine(catalog, retrieval_backend="lsh")
    result = engine.query(query, k=len(catalog))
    assert any(e.candidate_id.startswith("late") for e in result.ranked)


def test_catalog_lsh_rebuilds_on_param_change():
    catalog, _ = _high_containment_world(seed=4, n_tables=3)
    a = catalog.lsh_index(bands=16, rows=4)
    b = catalog.lsh_index(bands=32, rows=2)
    assert b is not a
    assert (b.bands, b.rows) == (32, 2)
    assert catalog.lsh_index(bands=32, rows=2) is b


def test_catalog_lsh_default_params_keep_cached_index():
    """bands/rows of None mean "whatever is cached": a warm index of any
    shape is reused rather than discarded for the module defaults."""
    catalog, query = _high_containment_world(seed=4, n_tables=3)
    warm = catalog.lsh_index(bands=32, rows=2)
    assert catalog.lsh_index() is warm
    assert catalog.lsh_index(bands=32) is warm
    assert catalog.lsh_index(rows=2) is warm
    # An engine with unset banding serves straight off the warm index.
    engine = JoinCorrelationEngine(catalog, retrieval_backend="lsh")
    engine.query(query, k=3)
    assert catalog.lsh_index() is warm
    # Explicitly pinning a different shape still rebuilds.
    assert catalog.lsh_index(bands=16, rows=4) is not warm


def test_catalog_lsh_matches_manual_build():
    catalog, query = _high_containment_world(seed=6, n_tables=5)
    manual = LshIndex(bands=16, rows=4, bits=catalog.hasher.bits)
    for sid in catalog:
        manual.add(sid, catalog.get(sid).key_hashes())
    auto = catalog.lsh_index(bands=16, rows=4)
    probe = query.columnar().key_hashes
    assert auto.candidates(probe) == manual.candidates(probe)


def test_empty_catalog_lsh():
    catalog = SketchCatalog(sketch_size=16)
    assert len(catalog.lsh_index()) == 0
    assert catalog.lsh_index().candidate_ids([1, 2, 3]) == []


# -- snapshot round trip -----------------------------------------------------


def test_lsh_round_trips_through_snapshot(tmp_path):
    catalog, query = _high_containment_world(seed=8, n_tables=6)
    original = catalog.lsh_index(bands=32, rows=2)
    path = tmp_path / "c.arena"
    catalog.save(path)

    loaded = SketchCatalog.load(path)
    # The LSH index came back warm: no rebuild on first use, and the
    # default (unset) banding keeps whatever the snapshot persisted.
    assert loaded.lsh_params == (32, 2)
    assert loaded.lsh_index() is loaded.lsh_index(bands=32, rows=2)
    restored = loaded.lsh_index(bands=32, rows=2)
    probe = query.columnar().key_hashes
    assert restored.candidates(probe) == original.candidates(probe)
    assert list(restored.ids) == list(original.ids)

    # Engine results across the round trip are identical.
    a = JoinCorrelationEngine(
        catalog, retrieval_backend="lsh", lsh_bands=32, lsh_rows=2
    ).query(query, k=6)
    b = JoinCorrelationEngine(
        loaded, retrieval_backend="lsh", lsh_bands=32, lsh_rows=2
    ).query(query, k=6)
    assert _ranking(a) == _ranking(b)


def test_snapshot_without_lsh_has_no_lsh(tmp_path):
    catalog, _ = _high_containment_world(seed=9, n_tables=2, n_rows=300)
    path = tmp_path / "c.arena"
    catalog.save(path)  # no lsh_index() call before saving
    loaded = SketchCatalog.load(path)
    assert loaded.lsh_params is None


def test_snapshot_persists_layered_lsh_after_mutation(tmp_path):
    """A mutation after an LSH build lands in the delta layer; the save
    persists the still-valid frozen-layer LSH alongside the delta, and
    the loaded catalog's layered probe sees the late sketch."""
    catalog, _ = _high_containment_world(seed=10, n_tables=2, n_rows=300)
    built = catalog.lsh_index()
    catalog.add_table(
        table_from_arrays("late", ["a", "b"], np.asarray([1.0, 2.0]))
    )
    path = tmp_path / "c.arena"
    catalog.save(path)
    loaded = SketchCatalog.load(path)
    # The frozen-layer LSH came back warm (its shape, not None)...
    assert loaded.lsh_params == (built.bands, built.rows)
    assert loaded.delta_size == catalog.delta_size > 0
    # ...and covers the frozen layer only; the delta rides along and the
    # layered probe surfaces the late sketch exactly like the in-memory
    # catalog does.
    late_id = "late::key->value"
    late_cols = loaded.sketch_columns(late_id)
    assert late_id in loaded.lsh_candidate_ids(late_cols.key_hashes)
    assert late_id not in loaded._lsh_index.ids
