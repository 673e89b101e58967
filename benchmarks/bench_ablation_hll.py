"""Ablation — HyperLogLog vs KMV: accuracy per byte vs capability.

Section 6 of the paper explains the choice of the KMV family over
HLL-style sketches: HLL gives better cardinality accuracy per bit, but
keeps no sample identifiers, so numeric values can never be aligned on
join keys — the operation join-correlation estimation is built on. This
ablation quantifies both halves of the argument:

1. cardinality relative error at matched storage budgets (HLL should
   win, often by a lot);
2. the capability gap: from the same stream, the KMV-family correlation
   sketch reconstructs a joined sample and estimates the correlation; HLL
   structurally cannot (it exposes no keys at all).
"""

from __future__ import annotations

import math

import numpy as np

from conftest import write_result
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.kmv.hll import HyperLogLog

TRUE_D = 150_000
#: Matched storage budgets in bytes. A KMV entry stores a 32-bit hash
#: (4 bytes); an HLL register is 1 byte.
BUDGETS = (256, 1024, 4096, 16_384)


def _cardinality_comparison() -> list[dict]:
    rows = []
    keys = [f"key-{i}" for i in range(TRUE_D)]
    values = np.zeros(TRUE_D)
    for budget in BUDGETS:
        kmv_k = budget // 4
        hll_p = int(math.log2(budget))
        # The correlation sketch is the KMV synopsis (Section 3.3).
        kmv = CorrelationSketch.from_columns(keys, values, kmv_k)
        hll = HyperLogLog.from_keys(keys, precision=hll_p)
        rows.append(
            {
                "budget": budget,
                "kmv_error": abs(kmv.distinct_keys() - TRUE_D) / TRUE_D,
                "hll_error": abs(hll.cardinality() - TRUE_D) / TRUE_D,
                "kmv_theoretical": 1.0 / math.sqrt(kmv_k),
                "hll_theoretical": hll.standard_error,
            }
        )
    return rows


def _capability_gap() -> dict:
    rng = np.random.default_rng(8)
    n = 50_000
    keys = [f"k{i}" for i in range(n)]
    x = rng.standard_normal(n)
    y = 0.8 * x + 0.6 * rng.standard_normal(n)

    left = CorrelationSketch.from_columns(keys, x, 1024)
    right = CorrelationSketch.from_columns(keys, y, 1024)
    sample = join_pair(left, right).samples[0]
    estimate = pearson(sample.x, sample.y)

    hll = HyperLogLog.from_keys(keys, precision=12)
    return {
        "kmv_correlation_estimate": estimate,
        "kmv_sample_size": sample.size,
        "hll_supports_alignment": hasattr(hll, "key_hashes"),
    }


def test_ablation_hll_vs_kmv(benchmark):
    card_rows, capability = benchmark.pedantic(
        lambda: (_cardinality_comparison(), _capability_gap()),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"{'bytes':>8}{'KMV rel err':>14}{'HLL rel err':>14}"
        f"{'KMV theor.':>12}{'HLL theor.':>12}"
    ]
    for row in card_rows:
        lines.append(
            f"{row['budget']:>8}{row['kmv_error']:>14.4f}{row['hll_error']:>14.4f}"
            f"{row['kmv_theoretical']:>12.4f}{row['hll_theoretical']:>12.4f}"
        )
    lines.append("")
    lines.append(
        f"KMV-family correlation estimate: {capability['kmv_correlation_estimate']:.4f} "
        f"(true 0.80, sample {capability['kmv_sample_size']})"
    )
    lines.append(
        f"HLL supports value alignment:    {capability['hll_supports_alignment']}"
    )
    write_result("ablation_hll.txt", "\n".join(lines))

    # HLL wins cardinality accuracy per byte at every matched budget
    # (compare theoretical errors; measured ones are single draws).
    for row in card_rows:
        assert row["hll_theoretical"] < row["kmv_theoretical"]
    # Both estimators land within ~5x their theoretical standard error.
    for row in card_rows:
        assert row["kmv_error"] < 5 * row["kmv_theoretical"]
        assert row["hll_error"] < 5 * row["hll_theoretical"]
    # The capability gap: only the KMV-family sketch estimates correlation.
    assert abs(capability["kmv_correlation_estimate"] - 0.8) < 0.1
    assert not capability["hll_supports_alignment"]
