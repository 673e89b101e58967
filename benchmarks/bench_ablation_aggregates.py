"""Ablation — effect of the aggregate function on repeated-key data.

Section 3.1 ("Handling Repeated Keys") makes two claims this ablation
verifies experimentally:

1. the sketch's streaming aggregation matches offline join-then-aggregate
   semantics for every supported aggregate, so the estimate targets the
   right population value regardless of the chosen function;
2. the choice of aggregate changes the *semantics* (and hence the true
   correlation), so downstream applications must pick it deliberately.
"""

from __future__ import annotations

import math

import numpy as np

from conftest import write_result
from repro.core.aggregators import AGGREGATORS
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.data.keygen import random_string_keys, zipf_multiplicities
from repro.table.join import join_columns

N_KEYS = 4000
AGG_NAMES = tuple(sorted(AGGREGATORS))


def _repeated_key_tables(seed: int):
    """Two tables over the same keys with Zipf-repeated rows."""
    rng = np.random.default_rng(seed)
    keys = random_string_keys(N_KEYS, rng)
    latent = rng.standard_normal(N_KEYS)

    def expand(loading):
        mult = zipf_multiplicities(N_KEYS, rng, max_repeat=8)
        out_keys, out_vals = [], []
        for k, z, m in zip(keys, latent, mult):
            for _ in range(int(m)):
                noise = rng.standard_normal()
                out_keys.append(k)
                out_vals.append(loading * z + math.sqrt(1 - loading**2) * noise)
        return out_keys, np.asarray(out_vals)

    return expand(0.9), expand(0.9)


def _run() -> list[dict]:
    (lk, lv), (rk, rv) = _repeated_key_tables(seed=5)
    rows = []
    for agg in AGG_NAMES:
        join = join_columns(lk, lv, rk, rv, aggregate=agg).drop_nan()
        truth = pearson(join.x, join.y)
        left = CorrelationSketch.from_columns(lk, lv, 256, aggregate=agg)
        right = CorrelationSketch.from_columns(rk, rv, 256, aggregate=agg)
        sample = join_pair(left, right).samples[0]
        est = pearson(sample.x, sample.y)
        rows.append(
            {"aggregate": agg, "truth": truth, "estimate": est,
             "sample": sample.size}
        )
    return rows


def test_ablation_aggregate_functions(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    lines = [f"{'aggregate':<10}{'true r':>10}{'estimate':>10}{'sample':>8}"]
    for row in rows:
        lines.append(
            f"{row['aggregate']:<10}{row['truth']:>10.4f}"
            f"{row['estimate']:>10.4f}{row['sample']:>8}"
        )
    write_result("ablation_aggregates.txt", "\n".join(lines))

    by_agg = {r["aggregate"]: r for r in rows}
    # Claim 1: the sketch estimate tracks the aggregate-specific truth.
    for agg, row in by_agg.items():
        if math.isnan(row["truth"]):
            continue
        assert abs(row["estimate"] - row["truth"]) < 0.15, agg

    # Claim 2: semantics differ across aggregates — `count` correlates the
    # key frequencies (independent Zipf draws), not the latent values, so
    # its true correlation must be far from the value aggregates'.
    assert abs(by_agg["mean"]["truth"]) > 0.5
    assert abs(by_agg["count"]["truth"]) < 0.4
