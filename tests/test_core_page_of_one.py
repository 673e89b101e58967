"""A sketch pair is a page of one.

``join_pair`` runs the query pipeline's page kernel (``join_page``) on
one candidate, and ``estimate()`` bounds the result with the column
kernels that score a served page (``repro.bounds.hoeffding``). The
contract:

* the page of one equals the dict-set pair join of the ninth oracle
  (``sketch_join_oracle.join_sketches`` + ``drop_nan``) bit for bit, and
  its Eq. 1 statistics equal the KMV synopsis oracle whenever both sides
  overflowed or both saw all their keys;
* the column kernels are within 1e-9 relative of the scalar oracle
  intervals on zero-mean unit-scale samples;
* ``estimate()`` and the served ranked entry agree bit for bit on the
  Pearson r (one moment pass, the scalar ``pearson`` its page of one),
  the HFD length, the sample size and ``ĵc``, whatever the aggregate: the
  value-bound rule (stored ranges only when both aggregates preserve
  the range) is applied once, in the join;
* the served HFD length is never negative, and is the vacuous 2.0 —
  without floating-point warnings — where the values overflow C².
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kmv_synopsis_oracle as kmv
from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.core.aggregators import AGGREGATORS
from repro.core.estimation import estimate, set_estimates
from repro.core.gkmv import ThresholdSketch
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import page_moments
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.index.engine import CandidatePage
from repro.index.options import QueryOptions
from repro.ranking.scoring import candidate_scores_batch
from repro.serving.session import QuerySession
from sketch_join_oracle import (
    drop_nan,
    hfd_interval,
    hoeffding_interval,
    join_sketches,
)


def _same(a, b) -> bool:
    """Equal bit for bit, NaN included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the join ----------------------------------------------------------------


@st.composite
def _pairs(draw):
    hasher = KeyHasher(
        bits=draw(st.sampled_from((32, 64))), seed=draw(st.integers(0, 3))
    )
    universe = draw(st.integers(1, 60))
    value = st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False), st.just(math.nan)
    )

    def side():
        # Repeated keys, empty key lists and n = 1 allowed; sizes differ
        # per side, so one or both may overflow.
        keys = draw(st.lists(st.integers(0, universe - 1), max_size=80))
        values = draw(st.lists(value, min_size=len(keys), max_size=len(keys)))
        return [f"k{key}" for key in keys], values, draw(st.integers(1, 24))

    return hasher, side(), side()


@settings(max_examples=300, deadline=None)
@given(_pairs())
def test_page_of_one_is_the_dict_join_bit_for_bit(pair):
    hasher, (a_keys, a_vals, a_n), (b_keys, b_vals, b_n) = pair
    a = CorrelationSketch.from_columns(a_keys, a_vals, a_n, hasher=hasher)
    b = CorrelationSketch.from_columns(b_keys, b_vals, b_n, hasher=hasher)

    joined = join_pair(a, b)
    got, want = joined.samples[0], drop_nan(join_sketches(a, b))
    assert _same(got.key_hashes, want.key_hashes)
    assert _same(got.x, want.x) and _same(got.y, want.y)
    assert _same(got.x_range, want.x_range) and _same(got.y_range, want.y_range)
    assert int(joined.overlaps[0]) == len(a.key_hashes() & b.key_hashes())
    assert bool(joined.exact[0]) == (a.saw_all_keys and b.saw_all_keys)

    syn_a = kmv.KMVSynopsis.from_keys(a_keys, k=a_n, hasher=hasher)
    syn_b = kmv.KMVSynopsis.from_keys(b_keys, k=b_n, hasher=hasher)
    if a.saw_all_keys == b.saw_all_keys:
        assert joined.intersections()[0] == kmv.estimate_intersection(syn_a, syn_b)
        assert joined.containments(a.distinct_keys())[0] == (
            kmv.estimate_containment(syn_a, syn_b)
        )
    sets = set_estimates(a, b)
    assert sets.intersection == joined.intersections()[0]
    assert sets.overlap == int(joined.overlaps[0])


def test_threshold_sketches_join_through_the_page_kernel():
    rng = np.random.default_rng(5)
    keys = [f"k{i}" for i in range(3_000)]
    hasher = KeyHasher()
    a, b = ThresholdSketch(0.05, hasher=hasher), ThresholdSketch(0.05, hasher=hasher)
    a.update_all(zip(keys, rng.standard_normal(3_000)))
    b.update_all(zip(keys, rng.standard_normal(3_000)))
    got, want = join_pair(a, b).samples[0], drop_nan(join_sketches(a, b))
    assert got.size > 100
    assert _same(got.key_hashes, want.key_hashes)
    assert _same(got.x, want.x) and _same(got.y, want.y)


def test_scheme_mismatch_is_one_error():
    a = CorrelationSketch.from_columns(["x"], [1.0], 8, hasher=KeyHasher(seed=1))
    b = CorrelationSketch.from_columns(["x"], [1.0], 8, hasher=KeyHasher(seed=2))
    for call in (join_pair, estimate, set_estimates):
        with pytest.raises(ValueError, match="different hashing schemes"):
            call(a, b)


# -- the §4.3 kernels --------------------------------------------------------


@st.composite
def _pages(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(0, 60), min_size=1, max_size=6))
    xs, ys, lows, highs = [], [], [], []
    for size in sizes:
        rho = draw(st.floats(-0.99, 0.99))
        x = rng.standard_normal(size)
        y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(size)
        xs.append(x)
        ys.append(y)
        if size and draw(st.booleans()):
            margin = draw(st.floats(0.0, 2.0))
            lows.append(min(x.min(), y.min()) - margin)
            highs.append(max(x.max(), y.max()) + margin)
        else:
            lows.append(draw(st.sampled_from((-4.0, math.nan))))
            highs.append(4.0 if lows[-1] == lows[-1] else math.nan)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return (
        np.concatenate(xs),
        np.concatenate(ys),
        indptr,
        np.array(lows),
        np.array(highs),
        draw(st.sampled_from((0.01, 0.05, 0.1))),
    )


@settings(max_examples=300, deadline=None)
@given(_pages())
def test_column_kernels_match_scalar_oracle(page):
    x, y, indptr, c_low, c_high, alpha = page
    kernels = (
        (hfd_intervals, hfd_interval),
        (hoeffding_intervals, hoeffding_interval),
    )
    moments = page_moments(x, y, indptr)
    for kernel, scalar in kernels:
        low, high = kernel(moments, c_low, c_high, alpha)
        for i in range(len(indptr) - 1):
            s = slice(indptr[i], indptr[i + 1])
            want = scalar(x[s], y[s], c_low[i], c_high[i], alpha)
            for got, ref in ((low[i], want.low), (high[i], want.high)):
                assert math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-12), (
                    kernel.__name__, i, got, ref,
                )


def test_kernels_reject_bad_alpha():
    moments = page_moments(np.ones(2), np.ones(2), np.array([0, 2]))
    args = (moments, np.zeros(1), np.ones(1))
    for kernel in (hfd_intervals, hoeffding_intervals):
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError, match="alpha"):
                kernel(*args, alpha)


# -- estimate() against the served entry ------------------------------------


def _catalog(aggregate: str, scale: float = 1.0, seed: int = 11):
    """A catalog whose tables repeat keys, so ``sum`` / ``count`` values
    leave the raw column range, and a query sketched like a served one."""
    rng = np.random.default_rng(seed)
    catalog = SketchCatalog(sketch_size=64, aggregate=aggregate)
    universe = [f"k{i}" for i in range(300)]
    for t in range(12):
        rows = int(rng.integers(80, 400))
        keys = [universe[i] for i in rng.integers(0, 300, rows)]
        values = rng.standard_normal(rows) * scale
        sketch = CorrelationSketch(
            64, aggregate=aggregate, hasher=catalog.hasher, name=f"t{t}"
        )
        sketch.update_array(np.asarray(keys), values)
        catalog.add_sketch(f"t{t}", sketch)
    keys = [universe[i] for i in rng.integers(0, 300, 250)]
    values = rng.standard_normal(250) * scale
    return catalog, keys, values


@pytest.mark.parametrize("aggregate", ["mean", "sum", "count"])
def test_estimate_agrees_with_the_served_entry(aggregate):
    catalog, keys, values = _catalog(aggregate)
    session = QuerySession.for_catalog(catalog, QueryOptions(k=12))
    query = session.query_sketch(keys, values, name="q")
    ranked = session.submit_one(query).ranked
    assert len(ranked) == 12
    for entry in ranked:
        result = estimate(query, catalog.get(entry.candidate_id))
        assert _same(result.correlation, entry.stats.r_pearson)
        assert result.hfd.high - result.hfd.low == entry.stats.hfd_ci_length
        assert result.sample_size == entry.stats.sample_size
        assert result.containment_est == entry.stats.containment_est
        assert result.range_bounds_valid == (aggregate == "mean")


@pytest.mark.parametrize("aggregate", sorted(AGGREGATORS))
def test_served_hfd_length_is_never_negative(aggregate):
    # Raw values within ±0.05: a key's count is far outside that range,
    # which made the stored-range HFD length negative.
    catalog, keys, values = _catalog(aggregate, scale=0.01, seed=3)
    query = CorrelationSketch(
        64, aggregate=aggregate, hasher=catalog.hasher, name="q"
    )
    query.update_array(np.asarray(keys), values)
    hits = [(sid, 1) for sid in catalog]
    page = CandidatePage.assemble(catalog, query.columnar(), hits)
    lengths = candidate_scores_batch(page.samples, with_bootstrap=False).hfd_ci_length
    assert (page.samples.sizes > 2).all()
    assert (lengths >= 0.0).all(), lengths


def _served_entries(scale: float):
    catalog, keys, values = _catalog("mean", scale=scale)
    session = QuerySession.for_catalog(catalog, QueryOptions(k=12))
    query = session.query_sketch(keys, values, name="q")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranked = session.submit_one(query).ranked
    return catalog, query, {entry.candidate_id: entry for entry in ranked}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_served_hfd_is_vacuous_without_warnings_past_overflow():
    """Past ~1e154 the HFD interval is vacuous, while the served Pearson
    r stays finite, within rounding of the unit-scale page's. At either
    scale ``estimate()`` answers the served r bit for bit: the scalar
    estimate is the same moment pass on a page of one."""
    catalog, query, served = _served_entries(1e155)
    unit_catalog, unit_query, unit = _served_entries(1.0)
    assert served and served.keys() == unit.keys()
    for sid, entry in served.items():
        assert entry.stats.hfd_ci_length == 2.0
        r = entry.stats.r_pearson
        assert math.isfinite(r)
        assert r == pytest.approx(unit[sid].stats.r_pearson, rel=1e-12)
        result = estimate(query, catalog.get(sid))
        assert result.correlation == r
        assert (result.hfd.low, result.hfd.high) == (-1.0, 1.0)
        unit_result = estimate(unit_query, unit_catalog.get(sid))
        assert unit_result.correlation == unit[sid].stats.r_pearson
