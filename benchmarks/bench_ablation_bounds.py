"""Ablation — confidence-bound methods: width, coverage, and cost.

Section 4 motivates the Hoeffding-based bounds as the sweet spot between
Fisher's z (cheap, assumes normality) and the PM1 bootstrap (assumption-
free, expensive). This ablation quantifies all three on repeated draws
from a known population:

* empirical coverage of the nominal 95% interval;
* mean interval width;
* wall time per interval.

Expected shape: Hoeffding/HFD intervals are wide but conservative
(coverage ≥ nominal) and cost microseconds; the bootstrap achieves near-
nominal coverage at ~3 orders of magnitude higher cost; Fisher z is the
narrowest and cheapest but relies on normality.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import write_result
from repro.bounds.hoeffding import hfd_intervals, hoeffding_intervals
from repro.correlation.bootstrap import pm1_interval
from repro.correlation.fisher import fisher_interval
from repro.correlation.pearson import page_moments, pearson

N_POP = 50_000
N_SAMPLE = 256
TRIALS = 60
RHO = 0.5


def _run() -> dict[str, dict[str, float]]:
    rng = np.random.default_rng(6)
    # Bounded population: uniforms pushed through a linear latent model,
    # so C is tight and the Hoeffding bounds have a fair shot.
    latent = rng.uniform(0, 1, N_POP)
    x = 0.7 * latent + 0.3 * rng.uniform(0, 1, N_POP)
    y = 0.7 * latent + 0.3 * rng.uniform(0, 1, N_POP)
    true_r = pearson(x, y)
    # One sample per call: a page of one for the column kernels.
    indptr = np.array([0, N_SAMPLE])
    c_low = np.array([min(x.min(), y.min())])
    c_high = np.array([max(x.max(), y.max())])

    stats = {
        name: {"covered": 0, "width": 0.0, "seconds": 0.0}
        for name in ("hoeffding", "hfd", "fisher", "pm1")
    }
    for trial in range(TRIALS):
        idx = rng.choice(N_POP, size=N_SAMPLE, replace=False)
        sx, sy = x[idx], y[idx]
        r = pearson(sx, sy)

        t0 = time.perf_counter()
        h_low, h_high = hoeffding_intervals(
            page_moments(sx, sy, indptr), c_low, c_high, 0.05
        )
        t1 = time.perf_counter()
        ci_f = fisher_interval(r, N_SAMPLE, 0.05)
        t2 = time.perf_counter()
        ci_b = pm1_interval(sx, sy, rng=np.random.default_rng(trial))
        t3 = time.perf_counter()
        d_low, d_high = hfd_intervals(
            page_moments(sx, sy, indptr), c_low, c_high, 0.05
        )
        t4 = time.perf_counter()

        for name, (low, high, dt) in {
            "hoeffding": (h_low[0], h_high[0], t1 - t0),
            "fisher": (ci_f.low, ci_f.high, t2 - t1),
            "pm1": (ci_b.low, ci_b.high, t3 - t2),
            "hfd": (d_low[0], d_high[0], t4 - t3),
        }.items():
            stats[name]["covered"] += int(low <= true_r <= high)
            stats[name]["width"] += high - low
            stats[name]["seconds"] += dt

    return {
        name: {
            "coverage": s["covered"] / TRIALS,
            "mean_width": s["width"] / TRIALS,
            "mean_us": s["seconds"] / TRIALS * 1e6,
        }
        for name, s in stats.items()
    }


def test_ablation_bound_methods(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'method':<12}{'coverage':>10}{'width':>10}{'cost (us)':>12}"]
    for name, s in results.items():
        lines.append(
            f"{name:<12}{s['coverage']:>10.3f}{s['mean_width']:>10.3f}"
            f"{s['mean_us']:>12.1f}"
        )
    write_result("ablation_bounds.txt", "\n".join(lines))

    # Hoeffding is a conservative true bound: coverage must meet nominal.
    assert results["hoeffding"]["coverage"] >= 0.95
    # Fisher z under (near-)normal conditions: roughly nominal coverage.
    assert results["fisher"]["coverage"] >= 0.85
    # The Hoeffding CI costs orders of magnitude less than the bootstrap.
    assert results["hoeffding"]["mean_us"] * 20 < results["pm1"]["mean_us"]
    # Width ordering: distribution-free conservatism is the price paid.
    assert results["hoeffding"]["mean_width"] >= results["fisher"]["mean_width"]