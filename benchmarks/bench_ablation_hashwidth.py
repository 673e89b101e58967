"""Ablation — 32-bit vs 64-bit key hashing.

The paper uses 32-bit MurmurHash3 for the tuple identifiers (Section
3.4). A 32-bit space risks identifier collisions once collections hold
many distinct keys (birthday bound ~2^16 keys for a 50% chance of *some*
collision); a collision merges two unrelated keys, corrupting both
joinability and value alignment. The library therefore also offers a
64-bit scheme. This ablation measures:

* estimation accuracy under both widths (should be indistinguishable at
  bench scale — collisions are rare events);
* construction cost of the wider hash;
* the collision count itself across a large key universe, directly.
"""

from __future__ import annotations

import math
import time

import numpy as np

from conftest import write_result
from repro.core.joined_sample import join_pair
from repro.core.sketch import CorrelationSketch
from repro.correlation.pearson import pearson
from repro.hashing import KeyHasher

N_ROWS = 30_000
N_PAIRS = 15
COLLISION_PROBE_KEYS = 300_000


def _accuracy_and_cost() -> dict:
    rng = np.random.default_rng(12)
    results: dict[int, dict[str, list[float]]] = {
        32: {"errors": [], "seconds": []},
        64: {"errors": [], "seconds": []},
    }
    for i in range(N_PAIRS):
        keys = [f"pair{i}-key{j}" for j in range(N_ROWS)]
        rho = float(rng.uniform(-0.95, 0.95))
        x = rng.standard_normal(N_ROWS)
        y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(N_ROWS)
        truth = pearson(x, y)
        for bits in (32, 64):
            hasher = KeyHasher(bits=bits, seed=i)
            t0 = time.perf_counter()
            left = CorrelationSketch.from_columns(keys, x, 256, hasher=hasher)
            right = CorrelationSketch.from_columns(keys, y, 256, hasher=hasher)
            elapsed = time.perf_counter() - t0
            sample = join_pair(left, right).samples[0]
            est = pearson(sample.x, sample.y)
            if not math.isnan(est):
                results[bits]["errors"].append(est - truth)
            results[bits]["seconds"].append(elapsed)

    def _rmse(errors):
        return math.sqrt(sum(e * e for e in errors) / len(errors))

    return {
        bits: {
            "rmse": _rmse(r["errors"]),
            "build_seconds_mean": float(np.mean(r["seconds"])),
        }
        for bits, r in results.items()
    }


def _collision_counts() -> dict[int, int]:
    out = {}
    for bits in (32, 64):
        hasher = KeyHasher(bits=bits, seed=0)
        seen: set[int] = set()
        collisions = 0
        for j in range(COLLISION_PROBE_KEYS):
            kh = hasher.key_hash(f"probe-{j}")
            if kh in seen:
                collisions += 1
            else:
                seen.add(kh)
        out[bits] = collisions
    return out


def test_ablation_hash_width(benchmark):
    accuracy, collisions = benchmark.pedantic(
        lambda: (_accuracy_and_cost(), _collision_counts()), rounds=1, iterations=1
    )
    lines = [f"{'bits':>6}{'RMSE':>10}{'build s':>10}{'collisions/300k keys':>22}"]
    for bits in (32, 64):
        lines.append(
            f"{bits:>6}{accuracy[bits]['rmse']:>10.4f}"
            f"{accuracy[bits]['build_seconds_mean']:>10.3f}"
            f"{collisions[bits]:>22}"
        )
    write_result("ablation_hashwidth.txt", "\n".join(lines))

    # Accuracy is width-independent at this scale (collisions are rare).
    assert abs(accuracy[32]["rmse"] - accuracy[64]["rmse"]) < 0.05
    # Birthday bound: 300k keys in 2^32 expect ~ C(300k,2)/2^32 ~ 10
    # collisions; in 2^64, essentially zero.
    assert collisions[64] == 0
    assert collisions[32] < 100
