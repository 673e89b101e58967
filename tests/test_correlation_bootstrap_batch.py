"""The cross-candidate PM1 engine and the rng_mode scoring contract.

Three contracts are pinned here:

1. **Compat bit-parity** — ``rng_mode="compat"`` must reproduce the
   pre-batch-engine per-candidate bootstrap stream bit-for-bit (the
   scalar :func:`candidate_scores` loop over :func:`pm1_interval`; both
   the loop and the list-shaped :func:`pm1_interval_batch` entry live in
   ``tests/scalar_query_oracle.py``).
2. **Batched statistical equivalence** — :func:`pm1_interval_batch`
   (a sample list through the page engine) must agree with the
   per-candidate path to within bootstrap noise, honor the adaptive
   stopping rule, and be deterministic per rng.
3. **Ranking equivalence** — on candidates with separated correlations,
   ``rng_mode="batched"`` must produce the identical ranking to
   ``rng_mode="compat"`` for every scorer in ``SCORER_NAMES``, with
   scores within tolerance; and the two executors must stay bit-identical
   to each other under the batched mode.
"""

import math

import numpy as np
import pytest

from repro.correlation.bootstrap import PM1_REPLICATES, pm1_interval
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.ranking.scoring import SCORER_NAMES, candidate_scores_batch
from repro.table.table import table_from_arrays

from scalar_query_oracle import (
    candidate_scores,
    page_of,
    pm1_interval_batch,
    scalar_query,
)


def _correlated_samples(rng, count, *, n_lo=50, n_hi=800):
    xs, ys = [], []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi))
        x = rng.standard_normal(n)
        rho = float(rng.uniform(-0.95, 0.95))
        y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
        xs.append(x)
        ys.append(y)
    return xs, ys


# -- pm1_interval_batch ------------------------------------------------------


def test_batch_engine_matches_per_candidate_within_noise():
    rng = np.random.default_rng(1)
    xs, ys = _correlated_samples(rng, 40)
    ref = [
        pm1_interval(x, y, rng=np.random.default_rng(7)) for x, y in zip(xs, ys)
    ]
    got = pm1_interval_batch(xs, ys, rng=np.random.default_rng(7))
    for a, b in zip(ref, got):
        # Both estimate the same quantity; the difference is bootstrap
        # noise, which the adaptive-stopping rule bounds around 0.01.
        assert abs(a.estimate - b.estimate) < 0.05
        assert abs(a.low - b.low) < 0.12
        assert abs(a.high - b.high) < 0.12
        assert b.low <= b.estimate <= b.high


def test_batch_engine_deterministic_per_rng():
    rng = np.random.default_rng(2)
    xs, ys = _correlated_samples(rng, 10)
    a = pm1_interval_batch(xs, ys, rng=np.random.default_rng(5))
    b = pm1_interval_batch(xs, ys, rng=np.random.default_rng(5))
    assert a == b
    c = pm1_interval_batch(xs, ys, rng=np.random.default_rng(6))
    assert any(p.estimate != q.estimate for p, q in zip(a, c))


def test_batch_engine_default_rng_is_deterministic():
    rng = np.random.default_rng(3)
    xs, ys = _correlated_samples(rng, 4)
    assert pm1_interval_batch(xs, ys) == pm1_interval_batch(xs, ys)


def test_adaptive_stopping_draws_fewer_than_pcorb():
    """Well-behaved samples converge in the first round (<< 599 draws)."""
    rng = np.random.default_rng(4)
    xs, ys = _correlated_samples(rng, 12, n_lo=400, n_hi=800)
    results = pm1_interval_batch(xs, ys, rng=np.random.default_rng(0))
    assert all(r.replicates < PM1_REPLICATES for r in results)
    assert all(r.replicates >= 90 for r in results)  # >= one round - NaN drops


def test_slow_converging_candidate_draws_extra_rounds():
    """Tiny noisy samples fail the first-round stopping check and keep
    drawing (up to the 599-replicate ``pcorb`` cap)."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal(5)
    y = rng.standard_normal(5)
    (res,) = pm1_interval_batch([x], [y], rng=np.random.default_rng(0))
    # Replicate std on n=5 noise is far above the one-round stopping
    # threshold (s <= 0.01 * 101 / 3.4808), so at least one extra round ran.
    assert res.replicates > 100
    assert res.replicates <= PM1_REPLICATES


def test_degenerate_candidates_get_nan_results():
    xs = [np.ones(10), np.array([1.0]), np.array([]), np.arange(50.0)]
    ys = [np.arange(10.0), np.array([2.0]), np.array([]), np.arange(50.0) * 2]
    results = pm1_interval_batch(xs, ys, rng=np.random.default_rng(0))
    for res in results[:3]:
        assert math.isnan(res.estimate) and res.replicates == 0
    # The perfectly correlated candidate is fine (r = 1 exactly).
    assert results[3].estimate == pytest.approx(1.0, abs=1e-6)


def test_active_mask_skips_candidates():
    rng = np.random.default_rng(6)
    xs, ys = _correlated_samples(rng, 3)
    results = pm1_interval_batch(
        xs, ys, rng=np.random.default_rng(0), active=[True, False, True]
    )
    assert math.isnan(results[1].estimate)
    assert not math.isnan(results[0].estimate)
    assert not math.isnan(results[2].estimate)


def test_batch_engine_validation():
    with pytest.raises(ValueError, match="x samples"):
        pm1_interval_batch([np.ones(3)], [])
    with pytest.raises(ValueError, match="active flags"):
        pm1_interval_batch([np.ones(3)], [np.ones(3)], active=[True, False])
    with pytest.raises(ValueError, match="round_replicates"):
        pm1_interval_batch([np.ones(3)], [np.ones(3)], round_replicates=0)


def test_batch_engine_scale_and_offset_invariant():
    """The float32 tensor pass must survive huge offsets and tiny scales."""
    rng = np.random.default_rng(7)
    xs, ys = _correlated_samples(rng, 8)
    base = pm1_interval_batch(xs, ys, rng=np.random.default_rng(11))
    shifted = pm1_interval_batch(
        [x * 1e6 + 3e9 for x in xs],
        [y * 1e-5 + 7.0 for y in ys],
        rng=np.random.default_rng(11),
    )
    for a, b in zip(base, shifted):
        assert a.estimate == pytest.approx(b.estimate, abs=1e-5)


# -- rng_mode="compat" bit-parity against the pre-batch-engine path ---------


def _joined_samples(seed, count=12):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        n = int(rng.integers(30, 800))
        universe = [f"u{i}" for i in range(int(rng.integers(n, 2 * n + 2)))]
        keys = [universe[int(i)] for i in rng.integers(0, len(universe), n)]
        x = rng.standard_normal(n)
        rho = float(rng.uniform(-0.9, 0.9))
        y = rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
        left = CorrelationSketch.from_columns(keys, x, 128, name="L")
        right = CorrelationSketch.from_columns(
            keys, y, 128, hasher=left.hasher, name="R"
        )
        samples.append(join_pair(left, right).samples[0])
    return samples


def test_compat_mode_bit_identical_to_scalar_bootstrap():
    """rng_mode="compat" == the pre-batch-engine per-candidate stream."""
    samples = _joined_samples(0)
    rng_a = np.random.default_rng(42)
    rng_b = np.random.default_rng(42)
    scalar = [candidate_scores(s, rng=rng_a, with_bootstrap=True) for s in samples]
    compat = candidate_scores_batch(
        page_of(samples), rng=rng_b, with_bootstrap=True, rng_mode="compat"
    )
    for a, b in zip(scalar, compat):
        assert a.r_bootstrap == b.r_bootstrap or (
            math.isnan(a.r_bootstrap) and math.isnan(b.r_bootstrap)
        )
        assert a.cib_factor == b.cib_factor


def test_compat_mode_without_rng_uses_per_sample_seeds():
    samples = _joined_samples(1, count=4)
    a = candidate_scores_batch(
        page_of(samples), with_bootstrap=True, rng_mode="compat"
    )
    b = [candidate_scores(s, with_bootstrap=True) for s in samples]
    for got, ref in zip(a, b):
        assert got.r_bootstrap == ref.r_bootstrap or (
            math.isnan(got.r_bootstrap) and math.isnan(ref.r_bootstrap)
        )
        assert got.cib_factor == ref.cib_factor


def test_batched_mode_close_to_compat_statistics():
    samples = page_of(_joined_samples(2))
    compat = candidate_scores_batch(
        samples, rng=np.random.default_rng(1), with_bootstrap=True, rng_mode="compat"
    )
    batched = candidate_scores_batch(
        samples, rng=np.random.default_rng(1), with_bootstrap=True, rng_mode="batched"
    )
    for a, b in zip(compat, batched):
        if math.isnan(a.r_bootstrap):
            assert math.isnan(b.r_bootstrap)
            continue
        assert abs(a.r_bootstrap - b.r_bootstrap) < 0.06
        assert abs(a.cib_factor - b.cib_factor) < 0.12
        # Non-bootstrap columns are not touched by rng_mode at all.
        assert a.r_pearson == b.r_pearson
        assert a.hfd_ci_length == b.hfd_ci_length


def test_unknown_rng_mode_rejected():
    with pytest.raises(ValueError, match="rng_mode"):
        candidate_scores_batch(page_of([]), rng_mode="magic")
    catalog = SketchCatalog(sketch_size=8)
    with pytest.raises(ValueError, match="rng_mode"):
        JoinCorrelationEngine(catalog, rng_mode="magic")


# -- ranking equivalence across rng modes, every scorer ---------------------


def _separated_catalog(seed=0, n_rows=2500, sketch_size=256):
    """Candidates with well-separated correlations so rankings are stable
    under bootstrap noise (|Δ score| between neighbors >> noise ~0.03)."""
    rng = np.random.default_rng(seed)
    keys = [f"k{i}" for i in range(n_rows)]
    q = rng.standard_normal(n_rows)
    catalog = SketchCatalog(sketch_size=sketch_size)
    for t, rho in enumerate((0.95, 0.75, 0.5, 0.25, 0.0)):
        vals = rho * q + math.sqrt(1 - rho * rho) * rng.standard_normal(n_rows)
        catalog.add_table(table_from_arrays(f"tab{t}", keys, vals))
    query = CorrelationSketch.from_columns(
        keys, q, sketch_size, hasher=catalog.hasher, name="query"
    )
    return catalog, query


@pytest.mark.parametrize("scorer", SCORER_NAMES)
def test_batched_mode_identical_ranking_per_scorer(scorer):
    catalog, query = _separated_catalog()
    compat = JoinCorrelationEngine(catalog, rng_mode="compat")
    batched = JoinCorrelationEngine(catalog, rng_mode="batched")
    a = compat.query(query, k=5, scorer=scorer)
    b = batched.query(query, k=5, scorer=scorer)
    assert [e.candidate_id for e in a.ranked] == [
        e.candidate_id for e in b.ranked
    ], scorer
    for ea, eb in zip(a.ranked, b.ranked):
        if scorer == "rb_cib":
            assert abs(ea.score - eb.score) < 0.1
        else:
            # Only rb_cib reads bootstrap statistics; everything else is
            # untouched by rng_mode (random consumes the same rng draws:
            # under both modes the bootstrap never runs for it).
            assert ea.score == eb.score


@pytest.mark.parametrize("rng_mode", ("batched", "compat"))
def test_executors_bit_identical_under_both_modes(rng_mode):
    """The scalar reference and the columnar pipeline share the bootstrap
    path per mode, so rb_cib scores must be bit-identical between them
    in either mode."""
    catalog, query = _separated_catalog(seed=3)
    columnar = JoinCorrelationEngine(catalog, rng_mode=rng_mode)
    a = scalar_query(
        catalog, query, k=5, scorer="rb_cib", options=columnar.options
    )
    b = columnar.query(query, k=5, scorer="rb_cib")
    assert [e.candidate_id for e in a.ranked] == [e.candidate_id for e in b.ranked]
    assert [e.score for e in a.ranked] == [e.score for e in b.ranked]


def test_batched_is_engine_default():
    catalog, _ = _separated_catalog(seed=4, n_rows=100, sketch_size=16)
    assert JoinCorrelationEngine(catalog).options.rng_mode == "batched"
