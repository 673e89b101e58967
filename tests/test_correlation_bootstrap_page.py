"""The batched PM1 kernel against its predecessor, draw for draw.

``pm1_page_oracle.pm1_interval_page`` is the kernel as it stood before
the cache-sized rewrite (wide chunks, int32 offsets, per-row pools and
finalisation). Both consume one ``rng.random((B, n_max), float32)`` draw
per stopping round and scale it the same way, so under the same ``rng``
they must resample the very same indices: equal NaN pattern, equal
replicate counts, and estimates / interval ends within the float32
reassociation noise of differently padded sums (bound set beforehand at
5e-5; observed ~1e-5 on the benchmark's pages).
"""

import math
import tracemalloc

import numpy as np
import pytest

import repro.correlation.bootstrap as bootstrap
from repro.correlation.bootstrap import (
    _pm1_ci_index_columns,
    _pm1_ci_indices,
    pm1_interval_page,
)

import pm1_page_oracle

TOLERANCE = 5e-5


def _page(samples, active=None):
    """``(x, y, indptr, active)`` for a list of ``(x_i, y_i)`` samples."""
    sizes = [len(x) for x, _ in samples]
    indptr = np.zeros(len(samples) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    empty = [np.empty(0)]
    x = np.concatenate(empty + [np.asarray(x, dtype=np.float64) for x, _ in samples])
    y = np.concatenate(empty + [np.asarray(y, dtype=np.float64) for _, y in samples])
    if active is None:
        active = [n >= 2 for n in sizes]
    return x, y, indptr, np.asarray(active, dtype=bool)


def _correlated(rng, n):
    x = rng.standard_normal(n)
    rho = float(rng.uniform(-0.95, 0.95))
    return x, rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)


def _ragged_page(seed, sizes):
    rng = np.random.default_rng(seed)
    return _page([_correlated(rng, n) for n in sizes])


def _assert_matches_oracle(page, seed=7, **kwargs):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = pm1_page_oracle.pm1_interval_page(*page, oracle_rng, **kwargs)
    got = pm1_interval_page(*page, rng, **kwargs)
    assert rng.random() == oracle_rng.random()  # same rounds, same draws
    np.testing.assert_array_equal(got[3], want[3])  # replicate counts
    for name, a, b in zip(("estimate", "low", "high"), got, want):
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b), err_msg=name)
        drawn = ~np.isnan(b)
        assert np.abs(a[drawn] - b[drawn]).max(initial=0.0) <= TOLERANCE, name
    return got


# -- differential: kernel == oracle under the same rng -----------------------


@pytest.mark.parametrize("seed", range(4))
def test_ragged_pages_match_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    sizes = rng.integers(2, 801, size=60).tolist()
    estimate, _, _, replicates = _assert_matches_oracle(_ragged_page(seed, sizes))
    assert not np.isnan(estimate).any()
    assert (replicates >= 10).all()


def test_small_samples_match_oracle():
    """Sizes 2..12: most replicates of the smallest rows are degenerate
    (every draw hits one value), which is where a reassociated sum would
    first change a replicate count."""
    sizes = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12] * 6
    for seed in range(3):
        _assert_matches_oracle(_ragged_page(seed, sizes), seed=seed)


def test_edge_rows_match_oracle():
    rng = np.random.default_rng(5)
    ramp = np.arange(30.0)
    samples = [
        _correlated(rng, 50),
        (np.array([1.0]), np.array([2.0])),  # n = 1, active: nothing to resample
        (np.empty(0), np.empty(0)),  # empty, active
        _correlated(rng, 40),  # inactive
        (np.ones(30), ramp),  # constant x: every replicate degenerate
        (ramp, np.full(30, -3.5)),  # constant y
        (ramp, 2.0 * ramp + 1.0),  # r = 1 exactly
        (np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 4.0])),  # ties
        _correlated(rng, 700),
    ]
    active = [True, True, True, False, True, True, True, True, True]
    estimate, low, high, replicates = _assert_matches_oracle(_page(samples, active))
    for i in (1, 2, 3, 4, 5):
        assert math.isnan(estimate[i]) and replicates[i] == 0
    assert estimate[6] == pytest.approx(1.0, abs=1e-6)
    assert low[0] <= estimate[0] <= high[0]


def test_all_rows_degenerate_or_inactive():
    samples = [(np.ones(4), np.arange(4.0)), (np.array([3.0]), np.array([1.0]))]
    for active in ([True, True], [False, False]):
        estimate, low, high, replicates = _assert_matches_oracle(
            _page(samples, active)
        )
        assert np.isnan(estimate).all() and np.isnan(low).all()
        assert np.isnan(high).all() and not replicates.any()
    got = pm1_interval_page(np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64), [])
    assert all(column.shape == (0,) for column in got)


def test_slow_convergers_keep_drawing():
    """Three tied points resample to r in {-1, 0, +1} with a third of the
    replicates degenerate: the stopping rule holds out for five rounds
    (|r| <= 1 bounds s, so no pool of valid replicates outlasts 348), and
    under a lower cap the row runs to the cap through a short last round.
    Rows that never pool two replicates (n = 1, constant columns in
    ``test_edge_rows_match_oracle``) run all six rounds to 599."""
    rng = np.random.default_rng(11)
    tied = (np.array([0.0, 0.0, 1.0]), np.array([-1.0, 1.0, 0.0]))
    page = _page([tied] + [_correlated(rng, 300) for _ in range(6)])
    _, _, _, replicates = _assert_matches_oracle(page)
    assert 300 < replicates[0] <= 500
    assert (replicates[1:] <= 100).all()
    _, _, _, capped = _assert_matches_oracle(page, max_replicates=250)
    assert 150 < capped[0] <= 250


def test_row_wider_than_the_chunk_budget():
    """100 replicates of an n = 1500 row are 150 000 cells, more than one
    chunk: the row is a chunk of its own, after a chunk of small rows."""
    page = _ragged_page(3, [1500, 20, 30, 40, 900])
    assert 100 * 1500 > bootstrap._CHUNK_CELLS
    _assert_matches_oracle(page)


@pytest.mark.parametrize("cells", (100, 4_000, 20_000))
def test_any_chunk_budget_gives_the_same_page(cells, monkeypatch):
    """Down to one row per chunk (budget below one row's cells), chunking
    moves nothing but padding: the 40-row page is cut into >= 5 chunks."""
    page = _ragged_page(4, list(range(10, 90, 2)))
    whole = pm1_interval_page(*page, np.random.default_rng(7))
    monkeypatch.setattr(bootstrap, "_CHUNK_CELLS", cells)
    assert 100 * int(np.diff(page[2]).sum()) >= 5 * cells
    cut = _assert_matches_oracle(page)
    for a, b in zip(cut, whole):
        np.testing.assert_allclose(a, b, rtol=0, atol=TOLERANCE)


def test_round_and_cap_keywords_match_oracle():
    page = _ragged_page(6, [5, 6, 40, 200])
    _, _, _, replicates = _assert_matches_oracle(
        page, round_replicates=40, max_replicates=130
    )
    assert replicates.max() <= 130


def test_same_rng_twice_is_bit_equal():
    page = _ragged_page(8, [3, 9, 27, 81, 243, 729])
    first = pm1_interval_page(*page, np.random.default_rng(3))
    again = pm1_interval_page(*page, np.random.default_rng(3))
    for a, b in zip(first, again):
        np.testing.assert_array_equal(a, b)
    default = pm1_interval_page(*page)
    for a, b in zip(default, pm1_interval_page(*page)):
        np.testing.assert_array_equal(a, b)


# -- the vectorised Wilcox indices -------------------------------------------


def test_ci_index_columns_equal_the_scalar_table():
    n, b = np.meshgrid(np.arange(2, 301), np.arange(10, 600), indexing="ij")
    low, high = _pm1_ci_index_columns(n.ravel(), b.ravel())
    want = [_pm1_ci_indices(int(ni), int(bi)) for ni, bi in zip(n.ravel(), b.ravel())]
    np.testing.assert_array_equal(low, [lo for lo, _ in want])
    np.testing.assert_array_equal(high, [hi for _, hi in want])
    # Beyond the table's last finite bound the widest-sample row applies.
    big = _pm1_ci_index_columns(np.array([10**6, 2 * 10**9]), np.array([599, 300]))
    assert [int(v[0]) for v in big] == list(_pm1_ci_indices(10**6, 599))
    assert [int(v[1]) for v in big] == list(_pm1_ci_indices(2 * 10**9, 300))


# -- counted memory ----------------------------------------------------------


def test_depth_100_page_peaks_below_8_mib():
    """A retrieval-depth page (100 candidates, n <= 256) works through
    cache-sized chunks and one (100, 599) pool; the predecessor's three
    2^21-cell scratch tensors alone were 24 MiB."""
    rng = np.random.default_rng(9)
    page = _ragged_page(9, rng.integers(2, 257, size=100).tolist())
    tracemalloc.start()
    try:
        pm1_interval_page(*page, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
