"""Runner process of the in-process workloads.

The driver generates fixtures and keeps the tables (it needs them for
the ground truth); this process is handed only files, runs the program
against them and reports samples, rankings and its own peak RSS — so
``peak_rss_mb`` is the memory of a process that holds the program's
state and nothing of the benchmark's.

Usage: ``python runner.py SPEC.json`` (started by ``run.py``).
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["workload"] == "ingest_churn":
        from wl_churn import execute
    else:
        from wl_query import execute
    result = execute(spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
