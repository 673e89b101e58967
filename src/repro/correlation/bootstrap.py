"""PM1 bootstrap correlation estimate and confidence interval.

Section 5.3 (estimator 5) uses the *PM1 bootstrap* (Wilcox 1996): resample
the paired data with replacement, recompute Pearson's ``r`` on each
resample, and report the mean of the replicates. Two paper-specific
details are reproduced:

* **Adaptive stopping** — instead of a fixed number of resamples, the
  paper stops "when the probability of changing the mean by more than 0.01
  falls below 0.05%". We implement this with a normal approximation over
  the replicate distribution: after ``B`` replicates with standard
  deviation ``s``, one more replicate moves the running mean by
  ``(r_{B+1} − mean)/(B+1)``, so the stopping criterion is
  ``P(|Z| > 0.01·(B+1)/s) < 0.0005``.

* **Modified percentile CI** — Wilcox's PM1 interval draws ``B = 599``
  replicates and reads the interval from order statistics whose indices
  are adjusted by the sample size ``n`` (the adjustment corrects the
  percentile bootstrap's poor small-``n`` coverage for correlations).
  The index table below is the one from Wilcox's ``pcorb``.

Two execution strategies share these semantics:

* the **per-candidate path** (:func:`pm1_bootstrap` / :func:`pm1_interval`)
  resamples one ``(x, y)`` sample at a time, vectorizing internally over
  replicates — the reference implementation and the ``rng_mode="compat"``
  contract of the query engine (bit-reproducible rng stream);
* the **cross-candidate batch engine** (:func:`pm1_interval_page` over a
  CSR page of samples) resamples *all* candidates of a ranked list
  together: each stopping round draws one shared uniform matrix, scales
  it into per-candidate index draws, and evaluates the active
  candidates' replicates in size-ordered, cache-sized
  ``(C_chunk, B, n_chunk)`` tensor chunks,
  each padded only to its own widest row. Replicates land in one
  ``(C, 599)`` pool; adaptive stopping (the paper's 0.01 / 0.05% rule,
  applied per candidate) deactivates converged rows between rounds, so
  typical candidates draw far fewer than the 599 ``pcorb`` replicates.
  Statistically equivalent to the per-candidate path, not bit-identical
  — the ``rng_mode="batched"`` contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.correlation.pearson import pearson

#: z value with P(|Z| > z) = 0.0005 — the paper's 0.05% stopping rule.
_STOP_Z = 3.4808
#: The paper's "changing the mean by more than 0.01" tolerance.
_STOP_TOLERANCE = 0.01

#: Wilcox's ``pcorb`` order-statistic indices (1-based, B = 599, 95% CI):
#: (max n, low index, high index).
_PM1_INDICES: tuple[tuple[int, int, int], ...] = (
    (40, 7, 593),
    (80, 8, 592),
    (180, 11, 588),
    (250, 14, 585),
    (10**9, 15, 584),
)

PM1_REPLICATES = 599

#: Replicates per adaptive-stopping round of the cross-candidate batch
#: engine (also its minimum pool size — the same floor
#: :func:`pm1_bootstrap` uses). Keeps the scaled ``pcorb`` order
#: statistics meaningful while letting converged candidates stop at ~1/6
#: of the fixed-599 cost.
BATCH_ROUND_REPLICATES = 100


def _pm1_ci_indices(n: int, b: int) -> tuple[int, int]:
    """Wilcox ``pcorb`` order-statistic indices (1-based) for sample size
    ``n``, rescaled from the nominal ``B = 599`` pool to ``b`` replicates
    (degenerate replicates shrink the pool; the batch engine stops early).
    """
    low_idx, high_idx = 15, 584
    for max_n, lo, hi in _PM1_INDICES:
        if n < max_n:
            low_idx, high_idx = lo, hi
            break
    if b != PM1_REPLICATES:
        low_idx = max(1, round(low_idx * b / PM1_REPLICATES))
        high_idx = min(b, round(high_idx * b / PM1_REPLICATES))
    return low_idx, high_idx


_PM1_MAX_N, _PM1_LOW, _PM1_HIGH = (np.array(col) for col in zip(*_PM1_INDICES))


def _pm1_ci_index_columns(
    n: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_pm1_ci_indices` over arrays of sample sizes and pool sizes.

    ``np.rint`` rounds half to even, as Python's ``round`` does, and at
    ``b = 599`` the rescaling is the identity, so the two agree everywhere.
    """
    size_class = np.searchsorted(_PM1_MAX_N[:-1], n, side="right")
    low_idx = np.rint(_PM1_LOW[size_class] * b / PM1_REPLICATES).astype(np.intp)
    high_idx = np.rint(_PM1_HIGH[size_class] * b / PM1_REPLICATES).astype(np.intp)
    return np.maximum(1, low_idx), np.minimum(b, high_idx)


@dataclass(frozen=True, slots=True)
class BootstrapResult:
    """Outcome of a PM1 bootstrap run.

    Attributes:
        estimate: mean of the replicate correlations.
        low, high: modified-percentile interval endpoints.
        replicates: number of resamples actually drawn.
    """

    estimate: float
    low: float
    high: float
    replicates: int


def _resample_correlations(
    x: np.ndarray, y: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` bootstrap replicates of Pearson's r, vectorized.

    All replicates are computed as row-wise correlations of a
    ``(count, n)`` resample matrix — one numpy pass instead of ``count``
    python-level calls. Degenerate replicates (zero variance) are dropped,
    matching the scalar path's NaN semantics.
    """
    n = x.shape[0]
    idx = rng.integers(0, n, size=(count, n))
    xs = x[idx]
    ys = y[idx]
    dx = xs - xs.mean(axis=1, keepdims=True)
    dy = ys - ys.mean(axis=1, keepdims=True)
    sxx = (dx * dx).sum(axis=1)
    syy = (dy * dy).sum(axis=1)
    sxy = (dx * dy).sum(axis=1)
    valid = (sxx > 0) & (syy > 0)
    out = np.full(count, np.nan, dtype=np.float64)
    out[valid] = np.clip(sxy[valid] / np.sqrt(sxx[valid] * syy[valid]), -1.0, 1.0)
    return out[~np.isnan(out)]


def pm1_bootstrap(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    min_replicates: int = 100,
    max_replicates: int = 10_000,
    batch: int = 100,
) -> float:
    """PM1 bootstrap point estimate with the paper's adaptive stopping.

    Returns NaN when Pearson's r is undefined on the input (fewer than 2
    pairs or constant columns).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    if math.isnan(pearson(x, y)):
        return math.nan
    if rng is None:
        rng = np.random.default_rng()

    replicates = _resample_correlations(x, y, min_replicates, rng)
    while replicates.shape[0] < max_replicates:
        s = float(replicates.std(ddof=1)) if replicates.shape[0] > 1 else math.inf
        b = replicates.shape[0]
        # One more replicate shifts the mean by (r - mean) / (b + 1);
        # require P(|shift| > tol) < 0.05%.
        if s == 0.0 or (s > 0 and _STOP_TOLERANCE * (b + 1) / s >= _STOP_Z):
            break
        extra = _resample_correlations(x, y, batch, rng)
        replicates = np.concatenate([replicates, extra])

    if replicates.shape[0] == 0:
        return math.nan
    return float(replicates.mean())


def pm1_interval(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator | None = None,
) -> BootstrapResult:
    """PM1 modified-percentile 95% CI (Wilcox's ``pcorb`` recipe).

    Draws 599 replicates and reads the interval from size-adjusted order
    statistics; the point estimate is the replicate mean (matching the
    paper's use of PM1 as both estimator and CI).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    n = x.shape[0]
    if math.isnan(pearson(x, y)):
        return BootstrapResult(math.nan, math.nan, math.nan, 0)
    if rng is None:
        rng = np.random.default_rng()

    replicates = _resample_correlations(x, y, PM1_REPLICATES, rng)
    if replicates.shape[0] < 10:
        return BootstrapResult(math.nan, math.nan, math.nan, replicates.shape[0])
    replicates.sort()

    # Scale the 1-based indices if NaN replicates shrank the pool.
    b = replicates.shape[0]
    low_idx, high_idx = _pm1_ci_indices(n, b)

    return BootstrapResult(
        estimate=float(replicates.mean()),
        low=float(replicates[low_idx - 1]),
        high=float(replicates[high_idx - 1]),
        replicates=b,
    )


#: Cells (candidates × replicates × padded sample width) per tensor chunk
#: of the batch engine. Sized to the cache, not to memory: every cell goes
#: through about a dozen elementwise and reduction passes over a float32
#: pair, an ``intp`` index tensor and a float64 temporary (24 bytes a
#: cell, 768 KiB a chunk), and those passes run 2-3x faster per cell on a
#: chunk that stays cache-resident than on a page-sized tensor. Measured
#: on the 200 seed-42 ``batch_bootstrap`` pages of the benchmark of record
#: (100 candidates, mean join sample 73; 2-vCPU Xeon, 4 MiB L2), kernel
#: ms per page against 6.1 for the page-wide predecessor: 16 Ki 3.5,
#: 24 Ki 3.2, 32 Ki 3.1, 48 Ki 3.1, 64 Ki 3.3, 128 Ki 3.7, 256 Ki 4.3 —
#: below, per-chunk call overhead takes over; above, the chunk leaves L2.
_CHUNK_CELLS = 1 << 15


def pm1_interval_page(
    x: np.ndarray,
    y: np.ndarray,
    indptr: np.ndarray,
    active: Sequence[bool],
    rng: np.random.Generator | None = None,
    *,
    round_replicates: int = BATCH_ROUND_REPLICATES,
    max_replicates: int = PM1_REPLICATES,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PM1 bootstrap intervals for a CSR page of samples, as columns.

    The cross-candidate fast path behind the query engine's
    ``rng_mode="batched"``. Instead of resampling each candidate's sample
    through its own 599-replicate :func:`pm1_interval`, all candidates are
    driven together through adaptive-stopping rounds:

    1. Every round draws **one** uniform matrix ``u ~ U[0,1)^(B, n_max)``
       shared by all still-active candidates; candidate ``i`` (sample size
       ``n_i``) turns it into index draws ``floor(u[:, :n_i] * n_i)``.
    2. The active candidates, kept in ascending sample-size order, are
       walked in greedy chunks of at most :data:`_CHUNK_CELLS` cells. A
       chunk is one dense ``(C_chunk, B, n_chunk)`` gather padded only to
       its own last (widest) row — a row too wide for the budget is a
       chunk of its own — so a ragged page does almost no padding work
       and every pass over a chunk runs out of cache. The samples are
       pre-centered and scaled (which leaves Pearson's r unchanged but
       keeps the one-pass moment arithmetic well-conditioned) and laid
       back to back with one trailing zero cell; padding positions gather
       that cell, so plain axis sums are exact masked sums.
    3. The round's replicate correlations fill the next columns of one
       ``(C, max_replicates)`` NaN-initialised pool, and the paper's
       stopping rule — one more replicate moves the running mean by more
       than 0.01 with probability below 0.05% — deactivates converged
       rows; the rest keep drawing, up to the ``pcorb`` pool size of 599.

    Each candidate's estimate is the mean of its replicate pool and its CI
    comes from the size-rescaled Wilcox order statistics
    (:func:`_pm1_ci_indices`) of the row-sorted pool, exactly as
    :func:`pm1_interval` does when degenerate replicates shrink its pool.
    Results are statistically equivalent to the per-candidate path —
    identical contract, different rng stream — and deterministic for a
    given ``rng``.

    Args:
        x, y: page-level paired values (float64); candidate ``i`` owns
            ``indptr[i]:indptr[i + 1]`` of both.
        indptr: CSR segment bounds, ``count + 1`` entries.
        active: per-candidate eligibility mask. Ineligible and empty
            candidates keep the NaN result.
        rng: shared generator; a fixed-seed default is used when None so
            identical calls reproduce identical results.
        round_replicates: replicates drawn per stopping round (also the
            minimum pool size before the stopping rule may fire).
        max_replicates: replicate cap per candidate (default: the 599 of
            Wilcox's ``pcorb``).

    Returns:
        ``(estimate, low, high, replicates)`` columns aligned with the
        page's candidates — NaN (0 replicates) where nothing was drawn.
    """
    if not 0 < round_replicates <= max_replicates:
        raise ValueError(
            f"round_replicates must be in (0, {max_replicates}], "
            f"got {round_replicates}"
        )
    count = indptr.shape[0] - 1
    estimate = np.full(count, math.nan)
    low = np.full(count, math.nan)
    high = np.full(count, math.nan)
    replicates = np.zeros(count, dtype=np.int64)
    results = estimate, low, high, replicates
    sizes = np.diff(indptr)
    # Zero-length samples keep the NaN result directly (their padded rows
    # would only produce degenerate replicates anyway).
    sel = np.nonzero(np.asarray(active, dtype=bool) & (sizes > 0))[0]
    if not sel.size:
        return results
    sel = sel[np.argsort(sizes[sel], kind="stable")]
    if rng is None:
        rng = np.random.default_rng(0x5EEDB007)

    n_arr = sizes[sel]
    n_max = int(n_arr[-1])
    total = int(n_arr.sum())
    # The selected samples back to back in size order, plus the zero cell
    # at ``total``. The tensor pass runs in float32: centering plus
    # per-sample scale normalization keep the one-pass moments
    # well-conditioned, and the ~1e-5 r error this costs is orders of
    # magnitude below bootstrap replicate noise — while halving the memory
    # traffic of the hot loop. Prep is segment-vectorized (one gather of
    # the selected segments, then reduceat), no per-candidate Python.
    starts = np.zeros(len(sel), dtype=np.intp)
    np.cumsum(n_arr[:-1], out=starts[1:])
    gather = np.arange(total) + np.repeat(indptr[sel] - starts, n_arr)
    flat_x = np.zeros(total + 1, dtype=np.float32)
    flat_y = np.zeros(total + 1, dtype=np.float32)
    for flat, column in ((flat_x, x), (flat_y, y)):
        concat = column[gather]
        means = np.add.reduceat(concat, starts) / n_arr
        centered = concat - np.repeat(means, n_arr)
        # Pearson's r is scale-invariant; normalizing by the max |value|
        # keeps float32 sums of squares far from overflow/underflow.
        scales = np.maximum.reduceat(np.abs(centered), starts)
        scales[scales <= 0] = 1.0
        centered /= np.repeat(scales, n_arr)
        flat[:total] = centered

    # Chunk tensors, allocated once per call. Indices are ``intp``, the
    # dtype np.take gathers with (any other is first converted, a hidden
    # pass per gather), and wide enough for any page that fits in memory.
    cells = max(_CHUNK_CELLS, round_replicates * n_max)
    buf_x = np.empty(cells, dtype=np.float32)
    buf_y = np.empty(cells, dtype=np.float32)
    buf_idx = np.empty(cells, dtype=np.intp)
    n_f32 = n_arr.astype(np.float32)
    n_f64 = n_arr.astype(np.float64)[:, None]
    positions = np.arange(n_max)
    ones = np.ones(n_max)

    pool = np.full((len(sel), max_replicates), math.nan)
    pool_count = np.zeros(len(sel), dtype=np.int64)
    pool_sum = np.zeros(len(sel))
    pool_sumsq = np.zeros(len(sel))

    active_rows = np.arange(len(sel))
    drawn = 0
    while active_rows.size and drawn < max_replicates:
        b_round = min(round_replicates, max_replicates - drawn)
        active_n = n_arr[active_rows]
        widths = active_n.tolist()
        budget = _CHUNK_CELLS // b_round
        # One shared draw per round; per-candidate scaling preserves
        # uniformity over each candidate's own index range.
        u = rng.random((b_round, widths[-1]), dtype=np.float32)
        sums = np.empty((2, active_rows.size, b_round))
        products = np.empty((3, active_rows.size, b_round), dtype=np.float32)
        start = 0
        while start < len(widths):
            # Rows are ascending, so a chunk costs its row count times its
            # last row's width: extend while that fits, one row at least.
            end = start + 1
            while end < len(widths) and (end + 1 - start) * widths[end] <= budget:
                end += 1
            rows = active_rows[start:end]
            width = widths[end - 1]
            shape = (end - start, b_round, width)
            size = shape[0] * b_round * width
            res_x = buf_x[:size].reshape(shape)
            res_y = buf_y[:size].reshape(shape)
            idx = buf_idx[:size].reshape(shape)
            # floor(u * n) needs no clamp: u <= 1 - 2^-24 in float32, and
            # u*n rounds to n only if n * 2^-23 < ulp(n)/2 = 2^(e-24) with
            # 2^e <= n — i.e. n < 2^(e-1), impossible. So idx < n always.
            # (The contiguous copy of the draws lets the (B, n) axes
            # collapse into one inner loop.)
            np.multiply(
                np.ascontiguousarray(u[:, :width]),
                n_f32[rows, None, None],
                out=res_x,
            )
            np.copyto(idx, res_x, casting="unsafe")  # truncating cast
            np.add(idx, starts[rows, None, None], out=idx)
            if widths[start] != width:
                # Ragged chunk: padding positions (j >= n_i) gather the
                # zero cell so plain sums stay exact.
                outside = positions[:width] >= active_n[start:end, None]
                np.copyto(idx, total, where=outside[:, None, :])
            # Sums in float64 (float32 rows times a float64 ones vector:
            # one cast and a BLAS pass), products in float32 — each taken
            # while its operand is still in cache.
            chunk = slice(start, end)
            np.take(flat_x, idx, out=res_x, mode="clip")
            np.matmul(
                res_x.reshape(-1, width), ones[:width], out=sums[0, chunk].reshape(-1)
            )
            np.einsum("cbj,cbj->cb", res_x, res_x, out=products[0, chunk])
            np.take(flat_y, idx, out=res_y, mode="clip")
            np.matmul(
                res_y.reshape(-1, width), ones[:width], out=sums[1, chunk].reshape(-1)
            )
            np.einsum("cbj,cbj->cb", res_y, res_y, out=products[1, chunk])
            np.einsum("cbj,cbj->cb", res_x, res_y, out=products[2, chunk])
            start = end

        sum_x, sum_y = sums
        sxx, syy, sxy = products.astype(np.float64)
        nf = n_f64[active_rows]
        var_x = sxx - sum_x * sum_x / nf
        var_y = syy - sum_y * sum_y / nf
        cov = sxy - sum_x * sum_y / nf
        valid = (var_x > 0) & (var_y > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = cov / np.sqrt(var_x * var_y)
        # Degenerate replicates stay NaN in the pool: they sort last and
        # the running stopping-rule moments skip them.
        r[~valid] = math.nan
        np.clip(r, -1.0, 1.0, out=r)
        pool[active_rows, drawn : drawn + b_round] = r
        drawn += b_round
        pool_count[active_rows] += valid.sum(axis=1)
        pool_sum[active_rows] += np.nansum(r, axis=1)
        pool_sumsq[active_rows] += np.nansum(r * r, axis=1)

        # Same rule as pm1_bootstrap: stop when one more replicate is
        # overwhelmingly unlikely to move the mean by the tolerance.
        b = pool_count[active_rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (pool_sumsq[active_rows] - pool_sum[active_rows] ** 2 / b) / (b - 1)
            s = np.sqrt(np.maximum(0.0, var))
            stop = (b > 1) & ((s == 0.0) | (_STOP_TOLERANCE * (b + 1) / s >= _STOP_Z))
        active_rows = active_rows[~stop]

    replicates[sel] = pool_count
    done = np.nonzero(pool_count >= 10)[0]  # pm1_interval's floor
    b = pool_count[done]
    ordered = np.sort(pool[:, :drawn], axis=1)  # NaN sorts last
    low_idx, high_idx = _pm1_ci_index_columns(n_arr[done], b)
    estimate[sel[done]] = pool_sum[done] / b
    low[sel[done]] = ordered[done, low_idx - 1]
    high[sel[done]] = ordered[done, high_idx - 1]
    return results
