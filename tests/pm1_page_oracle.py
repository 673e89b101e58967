"""The batched PM1 kernel as it stood before the cache-sized rewrite.

``pm1_interval_page`` below is the predecessor of
:func:`repro.correlation.bootstrap.pm1_interval_page`, moved here
verbatim (with its per-thread scratch tensors): one ``(C, B, n_max)``
tensor pass per ``chunk_elements`` cells padded to the widest active row,
``int32`` flat offsets, list-of-arrays replicate pools, and a per-row
Python loop for the stopping rule and the finalisation. The kernel in
``src/`` does the same statistical work on the same random draws — one
shared uniform matrix per round, ``floor(u * n)`` index draws, float32
products, float64 sums — so this is the oracle
``test_correlation_bootstrap_page.py`` holds it to: equal NaN pattern,
equal replicate counts, estimates and interval ends within float32
reassociation noise.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from repro.correlation.bootstrap import (
    _STOP_TOLERANCE,
    _STOP_Z,
    BATCH_ROUND_REPLICATES,
    PM1_REPLICATES,
    _pm1_ci_indices,
    pm1_interval,
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
