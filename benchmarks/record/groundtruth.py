"""Exact after-join ground truth, computed by the benchmark itself.

The quality metrics need the true after-join Pearson correlation of
thousands of ⟨query, candidate⟩ column pairs per run, which the
program's row-at-a-time ``repro.table.join.join_tables`` is too slow
for. This module is an independent vectorised full join — per column:
drop NaN rows, ``np.unique`` the keys, segment-mean the values; per
pair: match the key codes, Pearson on the matched means — and is
cross-checked against ``join_tables`` + ``true_correlation`` on a sample
of pairs every run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.correlation import pearson
from repro.ranking.metrics import ndcg_at
from repro.table.join import join_tables, true_correlation
from repro.table.table import ColumnPair, Table

#: Agreement demanded of the vectorised join against the program's.
CROSSCHECK_TOLERANCE = 1e-12


def split_pair_id(pair_id: str) -> tuple[str, str, str]:
    """``"table::key->value"`` -> ``(table, key, value)``; a table name
    read back from a CSV file carries its ``.csv`` suffix."""
    table, _, columns = pair_id.partition("::")
    key, _, value = columns.partition("->")
    return table.removesuffix(".csv"), key, value


class TruthOracle:
    """True after-join Pearson correlations over a set of tables."""

    def __init__(self, tables: list[Table]) -> None:
        self._tables = {t.name: t for t in tables}
        self._codes: dict[str, int] = {}
        self._key_codes: dict[tuple[str, str], np.ndarray] = {}
        self._columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _column(self, pair_id: str) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct key codes of one column pair and the mean of
        the non-missing values under each (mean is the corpus's
        aggregate; a key whose cells are all missing joins nothing)."""
        cached = self._columns.get(pair_id)
        if cached is not None:
            return cached
        name, key, value = split_pair_id(pair_id)
        table = self._tables[name]
        row_codes = self._key_codes.get((name, key))
        if row_codes is None:
            codes = self._codes
            row_codes = np.fromiter(
                (
                    -1 if k is None else codes.setdefault(k, len(codes))
                    for k in table.categorical(key).values
                ),
                dtype=np.int64,
            )
            self._key_codes[(name, key)] = row_codes
        values = table.numeric(value).as_array()
        keep = (row_codes >= 0) & ~np.isnan(values)
        uniq, inverse = np.unique(row_codes[keep], return_inverse=True)
        sums = np.bincount(inverse, weights=values[keep], minlength=len(uniq))
        counts = np.bincount(inverse, minlength=len(uniq))
        column = (uniq, sums / counts)
        self._columns[pair_id] = column
        return column

    def correlations(self, query_id: str, candidate_ids: list[str]) -> dict[str, float]:
        """True after-join correlation of one query with each candidate.

        The query's means are scattered over the key-code axis once, so
        each candidate's join is one gather instead of a sort-merge.
        """
        query_keys, query_means = self._column(query_id)
        columns = [self._column(cid) for cid in candidate_ids]
        dense = np.full(len(self._codes), np.nan)
        dense[query_keys] = query_means
        out = {}
        for cid, (keys, means) in zip(candidate_ids, columns):
            x = dense[keys]
            joined = ~np.isnan(x)
            out[cid] = (
                _pearson(x[joined], means[joined])
                if np.count_nonzero(joined) >= 2
                else math.nan
            )
        return out

    def crosscheck(self, pairs: list[tuple[str, str]]) -> int:
        """Compare against the program's full join; returns mismatches."""
        bad = 0
        for left_id, right_id in pairs:
            lt, lk, lv = split_pair_id(left_id)
            rt, rk, rv = split_pair_id(right_id)
            join = join_tables(
                self._tables[lt], ColumnPair(lt, lk, lv),
                self._tables[rt], ColumnPair(rt, rk, rv),
            )
            want = true_correlation(join, pearson)
            got = self.correlations(left_id, [right_id])[right_id]
            same = (math.isnan(want) and math.isnan(got)) or (
                abs(want - got) <= CROSSCHECK_TOLERANCE
            )
            bad += not same
        return bad


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    # A column constant to within rounding has no defined correlation
    # (same few-ulp rule the program's estimator applies).
    eps = np.finfo(np.float64).eps
    n = len(x)
    if sxx <= (8.0 * eps * float(np.abs(x).max())) ** 2 * n:
        return math.nan
    if syy <= (8.0 * eps * float(np.abs(y).max())) ** 2 * n:
        return math.nan
    r = float(dx @ dy) / (math.sqrt(sxx) * math.sqrt(syy))
    return max(-1.0, min(1.0, r))


def quality_metrics(
    oracle: TruthOracle,
    records: list[dict],
    *,
    k: int,
    crosscheck_pairs: int = 20,
) -> dict:
    """nDCG@k and estimate RMSE over the quality operations.

    Each record is ``{"query": id, "top": [[id, estimate], ...],
    "pool": [ids]}``: the ranking the workload's own path returned and
    the depth-100 pool it was chosen from. Gain is ``|true r|`` (0 where
    the full join is undefined); the ideal ordering is taken over the
    pool. RMSE compares the estimate the scorer ranked by with the truth
    over the returned top-``k``; pairs whose estimate or truth is NaN
    are dropped and counted.
    """
    ndcgs: list[float] = []
    errors: list[float] = []
    dropped = 0
    checked: list[tuple[str, str]] = []
    for record in records:
        query = record["query"]
        truth = oracle.correlations(
            query, [cid for cid in record["pool"] if cid != query]
        )
        top = [(cid, est) for cid, est in record["top"] if cid != query][:k]
        gain = {cid: 0.0 if math.isnan(r) else abs(r) for cid, r in truth.items()}
        ranked = [gain[cid] for cid, _ in top]
        returned = {cid for cid, _ in top}
        rest = sorted(
            (g for cid, g in gain.items() if cid not in returned), reverse=True
        )
        if any(g > 0 for g in gain.values()):
            ndcgs.append(ndcg_at(ranked + rest, k))
        for cid, est in top:
            if est is None or math.isnan(est) or math.isnan(truth[cid]):
                dropped += 1
            else:
                errors.append(est - truth[cid])
        if top and len(checked) < crosscheck_pairs:
            checked.append((query, top[0][0]))
    return {
        "ndcg_at_10": float(np.mean(ndcgs)) if ndcgs else 0.0,
        "estimate_rmse": (
            float(np.sqrt(np.mean(np.square(errors)))) if errors else 0.0
        ),
        "rmse_pairs": len(errors),
        "rmse_pairs_dropped": dropped,
        "ndcg_queries": len(ndcgs),
        "crosscheck_mismatches": oracle.crosscheck(checked),
        "crosscheck_pairs": len(checked),
    }
