"""Ablation — fixed-size bottom-n selection vs G-KMV threshold selection.

The paper (Sections 3.3 and 6) argues for fixed-size sketches over
variable-size threshold selection (G-KMV / correlated sampling): fixed
size avoids assigning too much space to large datasets and keeps query
cost predictable, while threshold selection can retain more of a small
table's keys. This ablation compares both at *matched expected storage*
on a stream of table pairs with varied sizes:

* estimate RMSE (accuracy at matched storage);
* storage actually used (threshold sketches overshoot on large tables);
* sketch-join sample sizes.
"""

from __future__ import annotations

import math

import numpy as np

from conftest import write_result
from repro.core.gkmv import ThresholdSketch
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.data.sbn import generate_sbn_pair
from repro.hashing import KeyHasher
from repro.table.join import join_columns

BUDGET = 256  # matched expected storage per sketch
N_PAIRS = 60


def _run() -> dict:
    rng = np.random.default_rng(3)
    fixed_errors, threshold_errors = [], []
    fixed_sizes, threshold_sizes = [], []
    fixed_joins, threshold_joins = [], []

    for i in range(N_PAIRS):
        rows = int(np.exp(rng.uniform(np.log(300), np.log(50_000))))
        pair = generate_sbn_pair(
            rng,
            rows=rows,
            correlation=float(rng.uniform(-1, 1)),
            join_fraction=float(rng.uniform(0.3, 1.0)),
            pair_id=i,
        )
        lk = pair.table_x.categorical("k").values
        lv = pair.table_x.numeric("x").values
        rk = pair.table_y.categorical("k").values
        rv = pair.table_y.numeric("y").values
        truth = pearson(*(lambda j: (j.x, j.y))(join_columns(lk, lv, rk, rv)))
        if math.isnan(truth):
            continue
        hasher = KeyHasher(seed=i)

        fixed_l = CorrelationSketch.from_columns(lk, lv, BUDGET, hasher=hasher)
        fixed_r = CorrelationSketch.from_columns(rk, rv, BUDGET, hasher=hasher)
        fs = join_pair(fixed_l, fixed_r).samples[0]
        fr = pearson(fs.x, fs.y)

        # Threshold tuned for the same *expected* size on the left table.
        tau = min(1.0, BUDGET / rows)
        th_l = ThresholdSketch(tau, hasher=hasher)
        th_l.update_all(zip(lk, lv))
        th_r = ThresholdSketch(tau, hasher=hasher)
        th_r.update_all(zip(rk, rv))
        ts = join_pair(th_l, th_r).samples[0]
        tr = pearson(ts.x, ts.y)

        fixed_sizes.append(len(fixed_l) + len(fixed_r))
        threshold_sizes.append(len(th_l) + len(th_r))
        fixed_joins.append(fs.size)
        threshold_joins.append(ts.size)
        if not math.isnan(fr):
            fixed_errors.append(fr - truth)
        if not math.isnan(tr):
            threshold_errors.append(tr - truth)

    def _rmse(errors):
        return math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan

    return {
        "fixed_rmse": _rmse(fixed_errors),
        "threshold_rmse": _rmse(threshold_errors),
        "fixed_storage_max": max(fixed_sizes),
        "threshold_storage_max": max(threshold_sizes),
        "fixed_storage_std": float(np.std(fixed_sizes)),
        "threshold_storage_std": float(np.std(threshold_sizes)),
        "fixed_join_mean": float(np.mean(fixed_joins)),
        "threshold_join_mean": float(np.mean(threshold_joins)),
        "evaluated": len(fixed_errors),
    }


def test_ablation_selection_strategy(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = "\n".join(f"{k:<24}: {v:.4f}" if isinstance(v, float) else f"{k:<24}: {v}"
                     for k, v in stats.items())
    write_result("ablation_selection.txt", "fixed bottom-n vs G-KMV threshold\n" + text)

    assert stats["evaluated"] >= 30
    # Accuracy at matched expected storage is comparable (within 2x).
    assert stats["fixed_rmse"] < 2.0 * stats["threshold_rmse"] + 0.05
    # The paper's argument: fixed-size storage is bounded and predictable;
    # threshold storage varies with table size.
    assert stats["fixed_storage_max"] <= 2 * BUDGET
    assert stats["fixed_storage_std"] <= stats["threshold_storage_std"] + 1e-9
