"""Ablation — the space/accuracy trade-off over sketch size n.

Section 3.3: "as the number of minimum hash n increases, the probability
of having larger join sizes also increases", shrinking estimation
variance. This ablation sweeps n and reports, on a fixed set of table
pairs: mean sketch-join sample size, estimate RMSE, and per-sketch
storage — the curve a deployment would use to pick n.
"""

from __future__ import annotations

import math

import numpy as np

from conftest import write_result
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.data.sbn import generate_sbn_pair
from repro.table.join import join_columns

SKETCH_SIZES = (16, 32, 64, 128, 256, 512, 1024)
N_PAIRS = 40


def _run() -> list[dict]:
    rng = np.random.default_rng(4)
    pairs = []
    for i in range(N_PAIRS):
        pair = generate_sbn_pair(
            rng,
            rows=20_000,
            correlation=float(rng.uniform(-1, 1)),
            join_fraction=float(rng.uniform(0.3, 1.0)),
            pair_id=i,
        )
        lk = pair.table_x.categorical("k").values
        lv = pair.table_x.numeric("x").values
        rk = pair.table_y.categorical("k").values
        rv = pair.table_y.numeric("y").values
        truth = pearson(*(lambda j: (j.x, j.y))(join_columns(lk, lv, rk, rv)))
        pairs.append((lk, lv, rk, rv, truth))

    rows = []
    for n in SKETCH_SIZES:
        errors, joins = [], []
        for lk, lv, rk, rv, truth in pairs:
            left = CorrelationSketch.from_columns(lk, lv, n)
            right = CorrelationSketch.from_columns(rk, rv, n)
            sample = join_pair(left, right).samples[0]
            joins.append(sample.size)
            est = pearson(sample.x, sample.y)
            if not (math.isnan(est) or math.isnan(truth)):
                errors.append(est - truth)
        rmse = math.sqrt(sum(e * e for e in errors) / len(errors)) if errors else math.nan
        rows.append(
            {"n": n, "mean_join": float(np.mean(joins)), "rmse": rmse,
             "evaluated": len(errors)}
        )
    return rows


def test_ablation_sketch_size_tradeoff(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'n':>6}{'mean join':>12}{'RMSE':>10}{'pairs':>8}"]
    for row in rows:
        lines.append(
            f"{row['n']:>6}{row['mean_join']:>12.1f}{row['rmse']:>10.4f}"
            f"{row['evaluated']:>8}"
        )
    write_result("ablation_sketchsize.txt", "\n".join(lines))

    # Join sample grows monotonically with n.
    joins = [r["mean_join"] for r in rows]
    assert joins == sorted(joins)
    # Accuracy improves from the smallest to the largest sketch.
    assert rows[-1]["rmse"] < rows[0]["rmse"]
    # And the convergence is substantial (paper: stabilizes near ~0.1).
    assert rows[-1]["rmse"] < 0.15
