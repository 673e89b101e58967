"""Pipeline parity: the columnar query pipeline vs the scalar reference.

The contract of the columnar pipeline is *identical rankings*: for any
catalog, any query and every scoring function,
``JoinCorrelationEngine.query`` must rank exactly the candidates the
row-at-a-time reference (``scalar_query_oracle.scalar_query``) ranks, in
the same order. Statistics computed by per-candidate paths the pipeline
reuses verbatim (joins, containment, the PM1 bootstrap, the ``random``
scorer's draws) must be bit-identical; the reduceat-batched moment
statistics (Pearson, Hoeffding-CI length) may differ from the
per-candidate reductions only in float summation order, which the score
assertions bound tightly.
"""

import math

import numpy as np
import pytest

from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import CandidatePage, JoinCorrelationEngine
from repro.index.options import QueryOptions
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES, candidate_scores_batch
from repro.table.table import table_from_arrays

import candidate_page_oracle as oracle
from sketch_join_oracle import drop_nan, join_sketches
from scalar_query_oracle import (
    assert_results_match,
    candidate_scores,
    containment_estimate,
    page_of,
    scalar_query,
)

def _random_catalog(seed: int, *, n_tables=12, n_rows=1200, sketch_size=96):
    """A corpus of tables with varied correlation and key overlap, plus a
    query sketch sharing the key universe (and one alien table that must
    never be retrieved)."""
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    q = rng.standard_normal(n_rows)

    catalog = SketchCatalog(sketch_size=sketch_size)
    for t in range(n_tables):
        rho = float(rng.uniform(-1.0, 1.0))
        vals = rho * q + math.sqrt(max(0.0, 1.0 - rho * rho)) * rng.standard_normal(
            n_rows
        )
        keep = rng.uniform(size=n_rows) < rng.uniform(0.1, 1.0)
        table_keys = [k for k, m in zip(keys, keep) if m]
        catalog.add_table(table_from_arrays(f"tab{t:02d}", table_keys, vals[keep]))
    catalog.add_table(
        table_from_arrays("alien", [f"z{i}" for i in range(200)], rng.standard_normal(200))
    )
    query = CorrelationSketch.from_columns(
        keys, q, sketch_size, hasher=catalog.hasher, name="query"
    )
    return catalog, query


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_rankings_identical_for_every_scorer(seed, scorer):
    catalog, query = _random_catalog(seed)
    a = scalar_query(catalog, query, k=10, scorer=scorer)
    b = JoinCorrelationEngine(catalog).query(query, k=10, scorer=scorer)
    assert_results_match(a, b, scorer)


@pytest.mark.parametrize("retrieval_backend", ("inverted", "lsh"))
@pytest.mark.parametrize("rng_mode", RNG_MODES)
@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_oracle_parity_for_every_scorer_rng_mode_and_backend(
    scorer, rng_mode, retrieval_backend
):
    """The whole matrix the oracle stands behind: every scorer under
    both rng modes and both retrieval backends (one LSH band per slot, so
    the approximate backend has candidates to rank on this corpus)."""
    catalog, query = _random_catalog(11)
    options = QueryOptions(
        rng_mode=rng_mode, retrieval_backend=retrieval_backend,
        lsh_bands=32, lsh_rows=1,
    )
    a = scalar_query(catalog, query, k=10, scorer=scorer, options=options)
    b = JoinCorrelationEngine.from_options(catalog, options).query(
        query, k=10, scorer=scorer
    )
    assert a.candidates_considered > 0
    assert_results_match(a, b, scorer)


def test_parity_with_exclude_min_overlap_and_truths():
    catalog, query = _random_catalog(7)
    truths = {"tab03::key->value": 0.42, "tab05::key->value": -0.9}
    for kwargs in (
        {"exclude_id": "tab00::key->value"},
        {"true_correlations": truths},
    ):
        a = scalar_query(catalog, query, k=8, scorer="rp_cih", **kwargs)
        b = JoinCorrelationEngine(catalog).query(query, k=8, scorer="rp_cih", **kwargs)
        assert_results_match(a, b, "rp_cih")
    for min_overlap in (2, 25, 10**9):
        b = JoinCorrelationEngine(catalog, min_overlap=min_overlap)
        assert_results_match(
            scalar_query(catalog, query, k=8, options=b.options),
            b.query(query, k=8),
            "rp_cih",
        )


def test_scheme_mismatch_rejected_by_both_executors():
    """The scalar reference fails inside ``join_sketches`` at the first
    candidate; the columnar join has no hasher to check against, so the
    pipeline enforces comparability up front — through ``query`` and
    ``query_batch`` alike."""
    from repro.hashing import KeyHasher

    catalog, _ = _random_catalog(0, n_tables=2, n_rows=100, sketch_size=16)
    alien = CorrelationSketch.from_columns(
        ["a", "b", "c"], [1.0, 2.0, 3.0], 16, hasher=KeyHasher(seed=99)
    )
    engine = JoinCorrelationEngine(catalog)
    with pytest.raises(ValueError, match="hashing scheme"):
        engine.query(alien, k=3)
    with pytest.raises(ValueError, match="hashing scheme"):
        engine.query_batch([alien], k=3)


def test_parity_on_empty_query_sketch():
    catalog, _ = _random_catalog(1, n_tables=3, n_rows=300, sketch_size=32)
    empty = CorrelationSketch(32, hasher=catalog.hasher, name="empty")
    a = scalar_query(catalog, empty, k=5)
    b = JoinCorrelationEngine(catalog).query(empty, k=5)
    assert a.candidates_considered == b.candidates_considered == 0
    assert a.ranked == [] and b.ranked == []


def test_parity_with_missing_values():
    """NaN cells flow through join -> drop_nan identically on both paths."""
    rng = np.random.default_rng(5)
    n = 800
    keys = [f"k{i}" for i in range(n)]
    q = rng.standard_normal(n)
    vals = 0.7 * q + 0.5 * rng.standard_normal(n)
    vals[rng.uniform(size=n) < 0.2] = np.nan
    catalog = SketchCatalog(sketch_size=64)
    catalog.add_table(table_from_arrays("holey", keys, vals))
    query = CorrelationSketch.from_columns(keys, q, 64, hasher=catalog.hasher)
    for scorer in ("rp", "rp_cih"):
        a = scalar_query(catalog, query, scorer=scorer)
        b = JoinCorrelationEngine(catalog).query(query, scorer=scorer)
        assert_results_match(a, b, scorer)


def test_query_table_parity_and_frozen_reuse():
    catalog, _ = _random_catalog(3)
    rng = np.random.default_rng(9)
    n = 600
    keys = [f"k{i}" for i in range(n)]
    from repro.table.column import CategoricalColumn, NumericColumn
    from repro.table.table import Table

    table = Table(
        "mine",
        [
            CategoricalColumn("key", keys),
            NumericColumn("a", rng.standard_normal(n)),
            NumericColumn("b", rng.standard_normal(n)),
        ],
    )
    results_a = {}
    for pair in table.column_pairs():
        sketch = CorrelationSketch(
            catalog.sketch_size,
            aggregate=catalog.aggregate,
            hasher=catalog.hasher,
            name=pair.pair_id,
        )
        sketch.update_array(*table.pair_arrays(pair))
        results_a[pair.pair_id] = scalar_query(
            catalog, sketch, k=5, scorer="rp_sez", exclude_id=pair.pair_id
        )
    results_b = JoinCorrelationEngine(catalog).query_table(table, k=5, scorer="rp_sez")
    assert set(results_a) == set(results_b)
    for pair_id in results_a:
        assert_results_match(results_a[pair_id], results_b[pair_id], "rp_sez")
    # The frozen snapshot was built once and shared across the batch.
    assert catalog.frozen_postings() is catalog.frozen_postings()


def test_catalog_mutation_invalidates_frozen_postings():
    catalog, query = _random_catalog(2, n_tables=3, n_rows=400, sketch_size=48)
    engine = JoinCorrelationEngine(catalog)
    before = engine.query(query, k=10)
    frozen_before = catalog.frozen_postings()

    # Register a perfect clone of the query pair: it must appear in the
    # next columnar query without any manual re-freeze.
    keys = [f"k{i}" for i in range(400)]
    rng = np.random.default_rng(2)
    catalog.add_table(table_from_arrays("late", keys, rng.standard_normal(400)))
    after = engine.query(query, k=10)
    assert catalog.frozen_postings() is not frozen_before
    assert after.candidates_considered == before.candidates_considered + 1
    assert any(e.candidate_id.startswith("late") for e in after.ranked)


# -- layer-level parity -----------------------------------------------------


def _random_sketch_pair(rng, *, with_nan=True):
    n = int(rng.integers(1, 3000))
    m = int(rng.integers(1, 3000))
    universe = [f"u{i}" for i in range(int(rng.integers(1, 4000)))]
    lk = [universe[int(i)] for i in rng.integers(0, len(universe), n)]
    rk = [universe[int(i)] for i in rng.integers(0, len(universe), m)]
    lv = rng.standard_normal(n)
    if with_nan:
        lv[rng.uniform(size=n) < 0.05] = np.nan
    rv = rng.standard_normal(m)
    size = int(rng.integers(2, 300))
    left = CorrelationSketch.from_columns(lk, lv, size, name="L")
    right = CorrelationSketch.from_columns(rk, rv, size, hasher=left.hasher, name="R")
    return left, right


def test_membership_join_bit_identical_to_join_sketches():
    """The page oracle's columnar join (one membership probe, then an
    argsort of the matched ranks) equals the dict-set join."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        left, right = _random_sketch_pair(rng)
        a = join_sketches(left, right)
        lcols, rcols = left.columnar(), right.columnar()
        b = oracle.join_from_membership(
            lcols, rcols, *oracle.candidate_membership(lcols, rcols)
        )
        assert (a.key_hashes == b.key_hashes).all()
        assert np.array_equal(a.x, b.x, equal_nan=True)
        assert np.array_equal(a.y, b.y, equal_nan=True)
        for ra, rb in zip((a.x_range, a.y_range), (b.x_range, b.y_range)):
            assert ra == rb or (
                all(math.isnan(v) for v in ra) and all(math.isnan(v) for v in rb)
            )


def test_containment_batch_bit_identical_to_scalar():
    rng = np.random.default_rng(23)
    for _ in range(25):
        query, candidate = _random_sketch_pair(rng, with_nan=False)
        overlap = len(query.key_hashes() & candidate.key_hashes())
        expected = containment_estimate(query, candidate, overlap)
        catalog = SketchCatalog(sketch_size=candidate.n, hasher=query.hasher)
        catalog.add_sketch("c", candidate)
        page = CandidatePage.assemble(catalog, query.columnar(), [("c", overlap)])
        stats = oracle.union_stats(query.columnar(), candidate.columnar())
        assert (
            int(page.k_len[0]), float(page.kth[0]),
            int(page.k_inter[0]), bool(page.exact[0]),
        ) == (stats.k_len, stats.kth, stats.k_inter, stats.exact)
        assert page.containments(query.distinct_keys())[0] == expected


def test_candidate_scores_batch_matches_scalar():
    rng = np.random.default_rng(29)
    samples = []
    for _ in range(20):
        left, right = _random_sketch_pair(rng)
        samples.append(drop_nan(join_sketches(left, right)))

    rng_a = np.random.default_rng(101)
    rng_b = np.random.default_rng(101)
    scalar = [candidate_scores(s, rng=rng_a, with_bootstrap=True) for s in samples]
    batch = candidate_scores_batch(
        page_of(samples), rng=rng_b, with_bootstrap=True, rng_mode="compat"
    )
    for s, b in zip(scalar, batch):
        assert s.sample_size == b.sample_size
        assert s.sez_factor == b.sez_factor
        # Under rng_mode="compat" the bootstrap consumes the shared rng in
        # candidate order, so its statistics are bit-identical.
        assert s.r_bootstrap == b.r_bootstrap or (
            math.isnan(s.r_bootstrap) and math.isnan(b.r_bootstrap)
        )
        assert s.cib_factor == b.cib_factor
        # Moment statistics agree to summation-order rounding.
        if math.isnan(s.r_pearson):
            assert math.isnan(b.r_pearson)
        else:
            assert math.isclose(s.r_pearson, b.r_pearson, rel_tol=1e-12, abs_tol=1e-14)
        if math.isnan(s.hfd_ci_length):
            assert math.isnan(b.hfd_ci_length)
        else:
            assert math.isclose(
                s.hfd_ci_length, b.hfd_ci_length, rel_tol=1e-9, abs_tol=1e-12
            )


def test_candidate_scores_batch_degenerate_samples():
    from repro.core.joined_sample import JoinedSample

    empty = JoinedSample(
        np.array([], dtype=np.uint64), np.array([]), np.array([]),
        (np.nan, np.nan), (np.nan, np.nan),
    )
    single = JoinedSample(
        np.array([1], dtype=np.uint64), np.array([2.0]), np.array([3.0]),
        (0.0, 5.0), (0.0, 5.0),
    )
    constant = JoinedSample(
        np.array([1, 2, 3], dtype=np.uint64),
        np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]),
        (2.0, 2.0), (1.0, 3.0),
    )
    samples = [empty, single, constant]
    batch = candidate_scores_batch(page_of(samples), with_bootstrap=False)
    for sample, got in zip(samples, batch):
        ref = candidate_scores(sample, with_bootstrap=False)
        assert got.sample_size == ref.sample_size
        assert math.isnan(got.r_pearson) and math.isnan(ref.r_pearson)
        assert got.sez_factor == ref.sez_factor
        assert got.hfd_ci_length == ref.hfd_ci_length
