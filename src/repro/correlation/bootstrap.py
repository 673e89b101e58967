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
  CSR page of samples; :func:`pm1_interval_batch` is its list-shaped
  entry) resamples *all* candidates of a ranked list together: each stopping
  round draws one shared uniform matrix, scales it into per-candidate
  index draws, and evaluates every active candidate's replicates as one
  chunked ``(C, B, n_max)`` masked tensor pass. Adaptive stopping (the
  paper's 0.01 / 0.05% rule, applied per candidate) deactivates
  converged rows between rounds, so typical candidates draw far fewer
  than the 599 ``pcorb`` replicates. Statistically equivalent to the
  per-candidate path, not bit-identical — the ``rng_mode="batched"``
  contract.
"""

from __future__ import annotations

import math
import threading
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


#: Per-thread scratch tensors for the batch engine's chunk loop. The
#: multi-megabyte (C_chunk, B, n_max) temporaries would otherwise be
#: mmap'd and returned to the OS on every call, paying a page-fault
#: storm per query in long-lived serving processes.
_SCRATCH = threading.local()


def _scratch_views(
    chunk_elements: int, shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reusable (float32, int32, float32) tensors of ``shape``."""
    size = shape[0] * shape[1] * shape[2]
    buffers = getattr(_SCRATCH, "buffers", None)
    if buffers is None or buffers[0].size < size:
        alloc = max(size, chunk_elements)
        buffers = (
            np.empty(alloc, dtype=np.float32),
            np.empty(alloc, dtype=np.int32),
            np.empty(alloc, dtype=np.float32),
        )
        _SCRATCH.buffers = buffers
    return tuple(buf[:size].reshape(shape) for buf in buffers)


def pm1_interval_batch(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    rng: np.random.Generator | None = None,
    *,
    active: Sequence[bool] | None = None,
    round_replicates: int = BATCH_ROUND_REPLICATES,
    max_replicates: int = PM1_REPLICATES,
    chunk_elements: int = 1 << 21,
) -> list[BootstrapResult]:
    """PM1 bootstrap intervals for a whole candidate list in one engine run.

    The list-shaped face of :func:`pm1_interval_page`: the samples are
    laid back to back (CSR) and resampled by that one engine, so both
    entries return identical statistics for identical samples and rng.

    Args:
        xs, ys: per-candidate paired samples (1-D float arrays).
        rng: shared generator; a fixed-seed default is used when None so
            identical calls reproduce identical results.
        active: optional per-candidate eligibility mask. Ineligible
            candidates (and, when None, candidates with fewer than 2 pairs
            or an undefined Pearson correlation — the scalar path's guard)
            get the NaN :class:`BootstrapResult`.
        round_replicates, max_replicates, chunk_elements: as in
            :func:`pm1_interval_page`.
    """
    count = len(xs)
    if len(ys) != count:
        raise ValueError(f"{count} x samples but {len(ys)} y samples")
    if active is None:
        active = [
            xs[i].shape[0] >= 2 and not math.isnan(pearson(xs[i], ys[i]))
            for i in range(count)
        ]
    elif len(active) != count:
        raise ValueError(f"{count} samples but {len(active)} active flags")
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(
        np.asarray([x.shape[0] for x in xs], dtype=np.int64), out=indptr[1:]
    )
    empty = [np.empty(0, dtype=np.float64)]
    estimate, low, high, replicates = pm1_interval_page(
        np.concatenate(empty + [np.asarray(x, dtype=np.float64) for x in xs]),
        np.concatenate(empty + [np.asarray(y, dtype=np.float64) for y in ys]),
        indptr,
        active,
        rng,
        round_replicates=round_replicates,
        max_replicates=max_replicates,
        chunk_elements=chunk_elements,
    )
    return [
        BootstrapResult(math.nan, math.nan, math.nan, b)
        if math.isnan(est)
        else BootstrapResult(est, lo, hi, b)
        for est, lo, hi, b in zip(
            estimate.tolist(), low.tolist(), high.tolist(), replicates.tolist()
        )
    ]


def pm1_interval_page(
    x: np.ndarray,
    y: np.ndarray,
    indptr: np.ndarray,
    active: Sequence[bool],
    rng: np.random.Generator | None = None,
    *,
    round_replicates: int = BATCH_ROUND_REPLICATES,
    max_replicates: int = PM1_REPLICATES,
    chunk_elements: int = 1 << 21,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PM1 bootstrap intervals for a CSR page of samples, as columns.

    The cross-candidate fast path behind the query engine's
    ``rng_mode="batched"``. Instead of resampling each candidate's sample
    through its own 599-replicate :func:`pm1_interval`, all candidates are
    driven together through adaptive-stopping rounds:

    1. Every round draws **one** uniform matrix ``u ~ U[0,1)^(B, n_max)``
       shared by all still-active candidates; candidate ``i`` (sample size
       ``n_i``) turns it into index draws ``floor(u[:, :n_i] * n_i)``.
    2. Replicate correlations for all active candidates are evaluated as a
       chunked ``(C, B, n_max)`` masked tensor pass: samples are padded
       (and pre-centered, which leaves Pearson's r unchanged but keeps the
       one-pass moment arithmetic well-conditioned) into a dense matrix
       with a zero column at index ``n_max``; out-of-range positions remap
       to that column, so plain axis sums are exact masked sums.
    3. Between rounds the paper's stopping rule — one more replicate moves
       the running mean by more than 0.01 with probability below 0.05% —
       deactivates converged rows; converged candidates stop drawing while
       the rest continue, up to the ``pcorb`` pool size of 599.

    Each candidate's estimate is the mean of its replicate pool and its CI
    comes from the size-rescaled Wilcox order statistics
    (:func:`_pm1_ci_indices`), exactly as :func:`pm1_interval` does when
    degenerate replicates shrink its pool. Results are statistically
    equivalent to the per-candidate path — identical contract, different
    rng stream — and deterministic for a given ``rng``.

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
        chunk_elements: bound on elements per ``(C_chunk, B, n_max)``
            tensor, limiting peak memory for large candidate pages.

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
    # Process candidates in ascending sample-size order: each chunk then
    # pads to its own (near-uniform) local maximum instead of the global
    # one, so ragged candidate pages waste almost no tensor work.
    sel = sel[np.argsort(sizes[sel], kind="stable")]
    if rng is None:
        rng = np.random.default_rng(0x5EEDB007)

    n_arr = sizes[sel]
    n_max = int(n_arr.max())
    # Padded dense samples with a dedicated all-zeros column at n_max:
    # masked index positions point there, so unweighted sums are exact.
    # The tensor pass runs in float32: centering plus per-sample scale
    # normalization keep the one-pass moments well-conditioned, and the
    # ~1e-5 r error this costs is orders of magnitude below bootstrap
    # replicate noise — while halving the memory traffic of the hot loop.
    # Prep is itself segment-vectorized (one gather of the selected
    # segments, then reduceat) so large candidate pages pay no
    # per-candidate Python cost.
    padded_x = np.zeros((len(sel), n_max + 1), dtype=np.float32)
    padded_y = np.zeros((len(sel), n_max + 1), dtype=np.float32)
    starts = np.zeros(len(sel), dtype=np.int64)
    np.cumsum(n_arr[:-1], out=starts[1:])
    within = np.arange(int(n_arr.sum())) - np.repeat(starts, n_arr)
    flat_positions = within + np.repeat(
        np.arange(len(sel)) * (n_max + 1), n_arr
    )
    gather = within + np.repeat(indptr[sel], n_arr)
    for padded, column in ((padded_x, x), (padded_y, y)):
        concat = column[gather]
        means = np.add.reduceat(concat, starts) / n_arr
        centered = concat - np.repeat(means, n_arr)
        # Pearson's r is scale-invariant; normalizing by the max |value|
        # keeps float32 sums of squares far from overflow/underflow.
        scales = np.maximum.reduceat(np.abs(centered), starts)
        scales[scales <= 0] = 1.0
        centered /= np.repeat(scales, n_arr)
        padded.reshape(-1)[flat_positions] = centered

    # Flat views for the gather: np.take(flat, row * width + idx) is a
    # plain flat gather, which numpy executes far faster than the
    # broadcast take_along_axis path. Flat offsets live in the int32
    # scratch tensor; batches big enough to overflow it fall back to the
    # per-candidate path (unreachable at query-page scale).
    width = n_max + 1
    if len(sel) * width > 2**31 - 1:
        for i in sel:
            segment = slice(indptr[i], indptr[i + 1])
            boot = pm1_interval(x[segment], y[segment], rng=rng)
            estimate[i], low[i], high[i] = boot.estimate, boot.low, boot.high
            replicates[i] = boot.replicates
        return results
    flat_x = padded_x.reshape(-1)
    flat_y = padded_y.reshape(-1)

    pools: list[list[np.ndarray]] = [[] for _ in sel]
    pool_count = np.zeros(len(sel), dtype=np.int64)
    pool_sum = np.zeros(len(sel), dtype=np.float64)
    pool_sumsq = np.zeros(len(sel), dtype=np.float64)

    active_rows = np.arange(len(sel))
    drawn = 0
    while active_rows.size and drawn < max_replicates:
        b_round = min(round_replicates, max_replicates - drawn)
        round_n_max = int(n_arr[active_rows].max())
        # One shared draw per round; per-candidate scaling preserves
        # uniformity over each candidate's own index range.
        u = rng.random((b_round, round_n_max), dtype=np.float32)
        rows_per_chunk = max(1, chunk_elements // (b_round * round_n_max))
        for start in range(0, active_rows.size, rows_per_chunk):
            rows = active_rows[start : start + rows_per_chunk]
            rows_n = n_arr[rows]
            rows_n_col = rows_n[:, None, None]
            chunk_n_max = int(rows_n.max())
            shape = (rows.shape[0], b_round, chunk_n_max)
            scaled, idx, res_y = _scratch_views(chunk_elements, shape)
            # floor(u * n) needs no clamp: u <= 1 - 2^-24 in float32, and
            # u*n rounds to n only if n * 2^-23 < ulp(n)/2 = 2^(e-24) with
            # 2^e <= n — i.e. n < 2^(e-1), impossible. So idx < n always.
            np.multiply(
                u[None, :, :chunk_n_max],
                rows_n_col.astype(np.float32),
                out=scaled,
            )
            np.copyto(idx, scaled, casting="unsafe")  # truncating cast
            np.add(idx, (rows * width).astype(np.int32)[:, None, None], out=idx)
            if int(rows_n.min()) != chunk_n_max:
                # Ragged chunk: remap padding positions (j >= n_i) to the
                # candidate's all-zeros slot so plain sums stay exact.
                positions = np.arange(chunk_n_max)
                zero_slot = (rows * width + n_max).astype(np.int32)
                np.copyto(
                    idx,
                    zero_slot[:, None, None],
                    where=positions[None, None, :] >= rows_n_col,
                )
            res_x = scaled  # the scaled draws are dead; reuse the buffer
            np.take(flat_x, idx, out=res_x, mode="clip")
            np.take(flat_y, idx, out=res_y, mode="clip")
            nf = rows_n[:, None].astype(np.float64)
            sum_x = res_x.sum(axis=2, dtype=np.float64)
            sum_y = res_y.sum(axis=2, dtype=np.float64)
            sxx = np.einsum("cbj,cbj->cb", res_x, res_x).astype(np.float64)
            syy = np.einsum("cbj,cbj->cb", res_y, res_y).astype(np.float64)
            sxy = np.einsum("cbj,cbj->cb", res_x, res_y).astype(np.float64)
            var_x = sxx - sum_x * sum_x / nf
            var_y = syy - sum_y * sum_y / nf
            cov = sxy - sum_x * sum_y / nf
            valid = (var_x > 0) & (var_y > 0)
            r = np.full(cov.shape, np.nan, dtype=np.float64)
            r[valid] = np.clip(
                cov[valid] / np.sqrt(var_x[valid] * var_y[valid]), -1.0, 1.0
            )
            # Degenerate (NaN) replicates are dropped at finalization; the
            # running stopping-rule moments skip them here, vectorized
            # across the chunk instead of one Python pass per candidate.
            pool_count[rows] += valid.sum(axis=1)
            pool_sum[rows] += np.nansum(r, axis=1)
            pool_sumsq[rows] += np.nansum(r * r, axis=1)
            for offset, row in enumerate(rows):
                pools[row].append(r[offset])
        drawn += b_round

        still_active = []
        for row in active_rows:
            b = int(pool_count[row])
            if b <= 1:
                still_active.append(row)
                continue
            var = max(
                0.0, (pool_sumsq[row] - pool_sum[row] ** 2 / b) / (b - 1)
            )
            s = math.sqrt(var)
            # Same rule as pm1_bootstrap: stop when one more replicate is
            # overwhelmingly unlikely to move the mean by the tolerance.
            if s == 0.0 or _STOP_TOLERANCE * (b + 1) / s >= _STOP_Z:
                continue
            still_active.append(row)
        active_rows = np.asarray(still_active, dtype=np.int64)

    for row, i in enumerate(sel):
        pool = (
            np.concatenate(pools[row])
            if pools[row]
            else np.empty(0, dtype=np.float64)
        )
        pool = pool[~np.isnan(pool)]
        b = pool.shape[0]
        replicates[i] = b
        if b < 10:
            continue
        pool.sort()
        low_idx, high_idx = _pm1_ci_indices(int(n_arr[row]), b)
        estimate[i] = pool.mean()
        low[i] = pool[low_idx - 1]
        high[i] = pool[high_idx - 1]
    return results
