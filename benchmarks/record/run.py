"""Benchmark of record: one workload per invocation.

    python3 benchmarks/record/run.py --workload point_query --seed 42 \\
        --seconds 16 --trace 0

prints every end-to-end metric by name with its unit (``--trace 1``:
every per-layer metric), then one JSON object as the last line of
standard output. ``--smoke`` runs all four workloads at toy scale and
checks the metric names against ``BENCHMARK.json``; ``--selfcheck N``
measures how well two interleaved sets of runs of the same code agree.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_work"
BASELINE = HERE / "baseline.json"

#: Pinned for this process and every subprocess: hash randomisation and
#: BLAS/OpenMP thread pools are run-to-run noise the program does not own.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
RUNNER_TIMEOUT_S = 170
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Metrics that are functions of the seeded inputs alone.
DETERMINISTIC = ("snapshot_bytes_per_sketch", "ndcg_at_10", "estimate_rmse")


def pin_environment() -> None:
    """Re-exec once with the pinned environment (``PYTHONHASHSEED`` is
    read at interpreter start, the thread counts at NumPy import)."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def load_contract() -> dict:
    with open(CONTRACT, encoding="utf-8") as handle:
        return json.load(handle)


# -- one workload ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, scale_name: str):
    """Run one workload; returns (results, quality)."""
    import fixtures
    import groundtruth

    scale = fixtures.SCALES[scale_name]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    started = time.perf_counter()
    try:
        if workload == "http_serve":
            import wl_http

            results, tables = wl_http.run(
                seed, seconds, scale, work, trace, child_env()
            )
        else:
            if workload == "ingest_churn":
                import wl_churn

                spec, tables = wl_churn.prepare(seed, seconds, scale, work, trace)
            else:
                import wl_query

                spec, tables = wl_query.prepare(
                    workload, seed, seconds, scale, work, trace
                )
            spec["result"] = str(work / "result.json")
            with open(work / "spec.json", "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            prepared = time.perf_counter()
            subprocess.run(
                [sys.executable, str(HERE / "runner.py"), str(work / "spec.json")],
                env=child_env(),
                check=True,
                timeout=RUNNER_TIMEOUT_S,
            )
            with open(spec["result"], encoding="utf-8") as handle:
                results = json.load(handle)
            results.setdefault("snapshot_bytes", spec.get("snapshot_bytes"))
            results.setdefault("sketches", spec.get("sketches"))
            results["fixtures_s"] = prepared - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = time.perf_counter()
    quality = groundtruth.quality_metrics(
        groundtruth.TruthOracle(tables), results["quality"], k=fixtures.K
    )
    results["truth_s"] = time.perf_counter() - measured
    results["program_s"] = measured - started - results["fixtures_s"]
    return results, quality


def metrics_of(results: dict, quality: dict) -> tuple[dict, dict]:
    """(end-to-end values, per-layer values) of one run's results."""
    from replaymin import Replay, SetupSteps, host_summary

    replay = Replay.from_dict(results["replay"])
    end_to_end = {
        "setup_s": SetupSteps(results["setup"]).seconds(),
        **replay.summary(results["units"]),
        "peak_rss_mb": results["rss_kb"] / 1024.0,
        "snapshot_bytes_per_sketch": results["snapshot_bytes"] / results["sketches"],
        "ndcg_at_10": quality["ndcg_at_10"],
        "estimate_rmse": quality["estimate_rmse"],
    }
    per_layer = {
        **results["layers"],
        **replay.raw_summary(results["units"]),
        **host_summary(results["yardstick"]),
    }
    return end_to_end, per_layer


def report(workload, results, quality, declared: list[dict], values: dict) -> dict:
    """Print the human-readable block; returns the result object."""
    from replaymin import host_summary

    failed = results["replay"]["failed"]
    attempted = len(results["replay"]["times"])
    correct = not failed and quality["crosscheck_mismatches"] == 0
    rounds = max(len(t) for t in results["replay"]["times"])
    print(f"workload {workload}: {attempted} ops x {rounds} rounds (replay-min)")
    metrics = {}
    for spec in declared:
        # Only --smoke leaves a layer unmeasured (it runs no reduced
        # copies): a layer the workload's path never enters reads 0 there.
        value = float(values.get(spec["name"], 0.0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<44} {value:>16.6f} {spec['unit']}")
    print(f"  ops_attempted {attempted}  ops_failed {len(failed)}")
    print(
        f"  quality: {quality['ndcg_queries']} rankings, "
        f"{quality['rmse_pairs']} pairs ({quality['rmse_pairs_dropped']} NaN dropped), "
        f"truth cross-check {quality['crosscheck_pairs'] - quality['crosscheck_mismatches']}"
        f"/{quality['crosscheck_pairs']}"
    )
    host = host_summary(results["yardstick"])
    print(
        f"  host: yardstick {host['host.yardstick_ms_min']:.4f} ms min, "
        f"{host['host.slow_state_share']:.0%} of samples in the slow state"
    )
    print(
        f"  wall: fixtures {results['fixtures_s']:.1f} s, program "
        f"{results['program_s']:.1f} s (measured phase "
        f"{sum(results['replay']['round_walls']):.1f} s), truth {results['truth_s']:.1f} s"
    )
    for i, why in list(failed.items())[:5]:
        print(f"  FAILED op {i}: {why.strip().splitlines()[-1]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def run_workload(args, contract: dict) -> int:
    results, quality = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), "record"
    )
    end_to_end, per_layer = metrics_of(results, quality)
    if not args.trace:
        result = report(
            args.workload, results, quality, contract["end_to_end"], end_to_end
        )
    else:
        # Layers this workload's path never enters are measured on a
        # reduced copy of the workloads that do enter them, so that every
        # declared metric is a measurement in every traced run.
        # (Last workload first: where two of them measure the same layer,
        # the one that builds and serves is the better owner than the one
        # that only queries.)
        failed = results["replay"]["failed"]
        for spec in reversed(contract["workloads"]):
            if spec["name"] == args.workload:
                continue
            other, _ = measure(spec["name"], args.seed, args.seconds, True, "layers")
            for name, value in other["layers"].items():
                if not name.startswith("trace."):
                    per_layer.setdefault(name, value)
            failed.update(
                (f"{spec['name']}:{i}", why)
                for i, why in other["replay"]["failed"].items()
            )
        result = report(
            args.workload, results, quality, contract["per_layer"], per_layer
        )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- smoke -------------------------------------------------------------------


def run_smoke(contract: dict) -> int:
    """Every workload at toy scale: plumbing and names, never numbers."""
    started = time.perf_counter()
    problems = []
    names = [
        spec["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for spec in contract[group]
    ]
    problems += [f"name {n!r} does not match {NAME.pattern}" for n in names if not NAME.match(n)]
    problems += [f"name {n!r} is declared twice" for n in set(names) if names.count(n) > 1]
    declared_layers = {spec["name"] for spec in contract["per_layer"]}
    seen_layers: set[str] = set()
    for spec in contract["workloads"]:
        results, quality = measure(spec["name"], 42, 1, True, "smoke")
        end_to_end, per_layer = metrics_of(results, quality)
        report(spec["name"], results, quality, contract["end_to_end"], end_to_end)
        report(spec["name"], results, quality, contract["per_layer"], per_layer)
        missing = {m["name"] for m in contract["end_to_end"]} - set(end_to_end)
        problems += [f"{spec['name']}: end-to-end metric {n} not computed" for n in missing]
        undeclared = set(per_layer) - declared_layers
        problems += [f"{spec['name']}: layer metric {n} not in BENCHMARK.json" for n in undeclared]
        seen_layers |= set(per_layer)
        if results["replay"]["failed"]:
            problems.append(f"{spec['name']}: {len(results['replay']['failed'])} ops failed")
    problems += [f"layer metric {n} is computed by no workload" for n in declared_layers - seen_layers]
    elapsed = time.perf_counter() - started
    print(f"smoke: {elapsed:.1f} s; toy scale, no result of record is written")
    for problem in problems:
        print(f"smoke: PROBLEM {problem}")
    return 1 if problems else 0


# -- selfcheck ---------------------------------------------------------------


def run_selfcheck(args, contract: dict) -> int:
    """Two interleaved sets of N runs of the same code (A/A).

    A timing metric whose set medians differ by more than half its bound,
    or a deterministic metric that differs at all, fails the check. The
    observed differences and quartiles are written to ``baseline.json``
    (``BENCHMARK.json`` admits no extra keys).
    """
    observed: dict = {}
    failures = []
    for spec in contract["workloads"]:
        runs: dict[str, list[dict]] = {"a": [], "b": []}
        for _ in range(args.selfcheck):
            for side in ("a", "b"):
                proc = subprocess.run(
                    [
                        sys.executable, str(HERE / "run.py"),
                        "--workload", spec["name"], "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0",
                    ],
                    stdout=subprocess.PIPE, text=True, check=True,
                )
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs[side].append(result["metrics"])
                print(f"selfcheck {spec['name']} set {side}: done", flush=True)
        observed[spec["name"]] = {}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [run[name]["value"] for run in runs["a"]]
            b = [run[name]["value"] for run in runs["b"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_a - med_b) / min(abs(med_a), abs(med_b))
            q1, q2, q3 = statistics.quantiles(a + b, n=4)
            observed[spec["name"]][name] = {
                "unit": metric["unit"], "median_a": med_a, "median_b": med_b,
                "aa_relative_difference": diff, "q1": q1, "median": q2, "q3": q3,
            }
            limit = 0.0 if name in DETERMINISTIC else metric["bound"] / 2
            if diff > limit:
                failures.append(
                    f"{spec['name']}/{name}: sets differ by {diff:.2%} (limit {limit:.2%})"
                )
    baseline = {}
    if BASELINE.exists():
        with open(BASELINE, encoding="utf-8") as handle:
            baseline = json.load(handle)
    baseline[f"seed-{args.seed}"] = {
        "seconds": args.seconds,
        "runs_per_set": args.selfcheck,
        "workloads": observed,
    }
    with open(BASELINE, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for failure in failures:
        print(f"selfcheck: FAILED {failure}")
    print(f"selfcheck: wrote {BASELINE}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=3, default=None)
    args = parser.parse_args()
    pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.smoke:
        return run_smoke(contract)
    if args.selfcheck is not None:
        return run_selfcheck(args, contract)
    if args.workload not in {spec["name"] for spec in contract["workloads"]}:
        parser.error(f"--workload must be one of {[s['name'] for s in contract['workloads']]}")
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
