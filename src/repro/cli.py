"""Command-line interface: ``repro-sketch``.

The operations of a join-correlation deployment, as subcommands:

* ``index``    — sketch every ⟨categorical, numeric⟩ column pair of every
  CSV file in a directory and persist the catalog (offline). The output
  extension picks the format: ``.arena`` writes the binary snapshot — a
  zero-copy mmap arena, O(metadata) cold starts — anything else the
  portable JSON. ``--shards N`` partitions the collection across N
  shards instead and writes a manifest directory of per-shard arenas
  (:mod:`repro.serving`). ``--lsh`` additionally builds the MinHash-LSH
  retrieval index so arena snapshots ship it warm.
* ``query``    — run a top-k join-correlation query against a saved
  catalog, using one column pair of a query CSV (online). A manifest
  directory is named with ``--catalog-dir`` and answers bit-identically
  to the same corpus in one file; ``--on-shard-error partial`` trades
  that exactness for availability, serving the surviving shards when
  one is broken. ``--retrieval lsh`` serves the candidate phase from the
  approximate MinHash-LSH backend (``--bands``/``--rows`` tune it);
  ``--queries-dir`` evaluates every column pair of every CSV in a
  directory as one batched multi-query round trip
  (:meth:`JoinCorrelationEngine.query_batch`).
* ``serve``    — a long-lived HTTP query service over a warm catalog
  (a file or a ``--catalog-dir`` manifest directory): ``POST /query``
  sketches a client-supplied column pair and answers through a
  request-coalescing window (``--max-batch``/``--max-wait-ms``) with
  responses bit-identical to per-request evaluation; ``POST /estimate``,
  ``GET /catalog/info`` and ``GET /healthz`` ride along. SIGTERM/SIGINT
  drain gracefully. Shares the ``query`` verb's tuning flags — one
  options-building helper feeds both, so they cannot diverge.
* ``estimate`` — one-off: estimate the after-join correlation between two
  CSV column pairs directly from freshly built sketches.
* ``catalog``  — catalog management; each verb takes a catalog file or a
  manifest directory alike. ``catalog info <path>`` reports statistics,
  format, on-disk size and pending delta/tombstone state (a directory's
  layout and per-shard state come from the manifest alone, without
  materializing any shard); ``catalog compact <path>`` folds the delta
  layer — every shard's — into fresh frozen structures and re-saves;
  ``catalog verify <path>`` checksums a snapshot's payload, or every
  shard's, without loading it and lists quarantine candidates (exit 1 on
  mismatch); ``catalog convert`` rewrites a file in the other format.

Missing or corrupt catalog/CSV inputs print a one-line ``error:`` and
exit with status 2 instead of a traceback — as do files in a retired
format (``.npz`` snapshots, pre-arena manifest directories), which are
refused by name, never parsed.

Examples::

    repro-sketch index data/portal/ -o catalog.arena --sketch-size 256
    repro-sketch index data/portal/ -o catalog-dir/ --shards 4
    repro-sketch query catalog.arena taxi.csv --key date --value pickups -k 10
    repro-sketch query catalog.arena taxi.csv --scorer rb_cib --profile
    repro-sketch query catalog.arena --queries-dir my_tables/ -k 5
    repro-sketch query catalog.arena taxi.csv --retrieval lsh --bands 32 --rows 2
    repro-sketch query --catalog-dir catalog-dir/ taxi.csv
    repro-sketch serve catalog.arena --port 8765 --max-batch 16
    repro-sketch serve --catalog-dir catalog-dir/
    repro-sketch estimate left.csv right.csv --left-key date --right-key day
    repro-sketch catalog info catalog-dir/
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.estimation import estimate as estimate_pair
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog, _refuse_retired_snapshot
from repro.index.engine import RETRIEVAL_BACKENDS
from repro.index.lsh import DEFAULT_BANDS, DEFAULT_ROWS
from repro.index.options import QueryOptions
from repro.index.snapshot import BYTE_GROUPS, arena_bytes_by_group, detect_format
from repro.ranking.scoring import RNG_MODES, SCORER_NAMES
from repro.table.csv_io import read_csv
from repro.table.table import ColumnPair, Table


class _CliError(Exception):
    """One-line operational failure: printed to stderr, exit status 2.

    Distinct from argparse usage errors (SystemExit) — this is the "your
    inputs were well-formed but the files they name are missing or
    corrupt" path the serving scripts match on.
    """


def _fail(message: str) -> "_CliError":
    return _CliError(message)


def _number_type(convert, noun: str, rule: str, breaks):
    """An argparse type: ``convert(text)`` unless that fails or
    ``breaks(value)``, each with a clear message."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        if breaks(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


_positive_int = _number_type(int, "an integer", "positive", lambda v: v <= 0)
_positive_float = _number_type(float, "a number", "positive", lambda v: v <= 0)
_non_negative_float = _number_type(
    float, "a number", "non-negative", lambda v: v < 0
)


#: Mirrors repro.serving.ON_SHARD_ERROR_POLICIES; kept literal so building
#: the parser never imports the serving stack (parity is pinned in tests).
_ON_SHARD_ERROR_CHOICES = ("raise", "partial")


def _add_query_tuning_args(parser: argparse.ArgumentParser) -> None:
    """The query-tuning flags, shared verbatim by ``query`` and ``serve``.

    One helper (feeding one :func:`_options_from_args`) so the two verbs
    cannot drift: a knob added here reaches both, with the same name,
    type, default and help text.
    """
    parser.add_argument(
        "-k", type=_positive_int, default=10, help="result-list size"
    )
    parser.add_argument("--scorer", default="rp_cih", choices=SCORER_NAMES)
    parser.add_argument(
        "--depth", type=_positive_int, default=100, help="overlap retrieval depth"
    )
    parser.add_argument(
        "--retrieval",
        default="inverted",
        choices=RETRIEVAL_BACKENDS,
        help="candidate-retrieval backend: 'inverted' probes the exact "
        "inverted index (default); 'lsh' the approximate MinHash-LSH "
        "index — sub-linear probes, recall < 1 on low-overlap candidates",
    )
    parser.add_argument(
        "--bands",
        type=_positive_int,
        default=None,
        help="LSH bands (with --retrieval lsh); collision threshold is "
        "roughly (1/bands)**(1/rows) Jaccard. Default: the banding of a "
        f"warm snapshot index if present, else {DEFAULT_BANDS}",
    )
    parser.add_argument(
        "--rows",
        type=_positive_int,
        default=None,
        help="LSH rows per band (with --retrieval lsh); default: the warm "
        f"snapshot index's if present, else {DEFAULT_ROWS}",
    )
    parser.add_argument(
        "--min-overlap",
        type=int,
        default=1,
        help="minimum shared key hashes for a candidate to be considered "
        "joinable (default 1)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for the stochastic scorers (random, rb_cib bootstrap); "
        "default: the engine's fixed seed, so repeated queries match",
    )
    parser.add_argument(
        "--rng-mode",
        default="batched",
        choices=RNG_MODES,
        help="how rb_cib runs the PM1 bootstrap over the candidate page: "
        "'batched' resamples all candidates through the cross-candidate "
        "engine (default, a multiple faster); 'compat' reproduces the "
        "per-candidate rng stream bit-for-bit",
    )
    parser.add_argument(
        "--on-shard-error",
        default=None,
        choices=_ON_SHARD_ERROR_CHOICES,
        help="what a failed shard does to the query (with "
        "--catalog-dir): 'raise' fails it (default), 'partial' serves "
        "the surviving shards and flags the result degraded",
    )


def _load_catalog(path: Path):
    """Load a catalog file or a manifest directory, mapping failures (a
    truncated or missing shard included) to one-line errors."""
    sharded = path.is_dir()
    try:
        if not sharded:
            return SketchCatalog.load(path)
        from repro.serving import ShardedCatalog

        catalog = ShardedCatalog.load(path)
        for index in range(catalog.n_shards):
            catalog.shard(index)  # raises a shard's recorded failure
        return catalog
    except (OSError, ValueError, KeyError) as exc:
        kind = "sharded catalog" if sharded else "catalog"
        raise _fail(f"cannot load {kind} {path}: {exc}") from exc


def _read_manifest(directory: Path) -> dict:
    """A manifest directory's parsed manifest, or a one-line error."""
    from repro.serving import read_manifest

    try:
        return read_manifest(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise _fail(f"cannot read sharded catalog {directory}: {exc}") from exc


def _refuse_retired(path: str | Path, *, sniff: bool = True) -> None:
    """The retired-format refusal as a one-line error, for the verbs that
    would otherwise do work first (``index``) or report the file as
    damaged (``catalog verify``)."""
    try:
        _refuse_retired_snapshot(Path(path), sniff=sniff)
    except ValueError as exc:
        raise _fail(str(exc)) from exc


def _read_csv_table(path: str | Path) -> Table:
    """Read one CSV, mapping missing/corrupt files to one-line errors."""
    try:
        return read_csv(path)
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot read {path}: {exc}") from exc


def _resolve_pair(table: Table, key: str | None, value: str | None) -> ColumnPair:
    """Pick a ⟨key, value⟩ pair from a table, defaulting to the first."""
    pairs = table.column_pairs()
    if not pairs:
        raise SystemExit(
            f"error: {table.name!r} has no categorical/numeric column pair "
            f"(categorical: {table.categorical_names()}, "
            f"numeric: {table.numeric_names()})"
        )
    if key is None and value is None:
        return pairs[0]
    for pair in pairs:
        if (key is None or pair.key == key) and (value is None or pair.value == value):
            return pair
    raise SystemExit(
        f"error: no pair key={key!r} value={value!r} in {table.name!r}; "
        f"available: {[p.pair_id for p in pairs]}"
    )


def _ingest_csvs(catalog, csv_files, verbose: bool) -> int:
    """Sketch every CSV into ``catalog`` (monolithic or sharded —
    ``add_table`` is the shared ingest surface); returns the pair count.
    Unparseable files are skipped with a warning, as a portal crawl
    must tolerate junk files."""
    n_pairs = 0
    for path in csv_files:
        try:
            table = read_csv(path)
        except ValueError as exc:
            print(f"skipping {path.name}: {exc}", file=sys.stderr)
            continue
        ids = catalog.add_table(table)
        n_pairs += len(ids)
        if verbose:
            print(f"  {path.name}: {len(ids)} column pair(s)")
    return n_pairs


def cmd_index(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    csv_files = sorted(directory.glob("*.csv"))
    if not csv_files:
        print(f"error: no CSV files under {directory}", file=sys.stderr)
        return 1
    output = Path(args.output)
    sharded = args.shards is not None
    # Every refusal comes before the ingest, not after it.
    _refuse_retired(output, sniff=False)
    if sharded and output.exists() and not output.is_dir():
        raise _fail(f"cannot write catalog {output}: a file is in the way")
    if not sharded and not output.parent.is_dir():
        raise _fail(f"cannot write catalog {output}: no directory {output.parent}")
    config = {"sketch_size": args.sketch_size, "aggregate": args.aggregate}
    if sharded:
        from repro.serving import ShardedCatalog

        catalog = ShardedCatalog(args.shards, **config)
        parts = [catalog.shard(index) for index in range(args.shards)]
    else:
        catalog = SketchCatalog(**config)
        parts = [catalog]
    t0 = time.perf_counter()
    n_pairs = _ingest_csvs(catalog, csv_files, args.verbose)
    if args.lsh and not sharded and output.suffix != ".arena":
        # JSON persists no LSH members; building one here would be
        # silently thrown away.
        print(
            "warning: --lsh ignored — only .arena snapshots persist the "
            "LSH index (JSON catalogs rebuild it lazily)",
            file=sys.stderr,
        )
    elif args.lsh:
        # Build the LSH index now so every snapshot ships it warm — the
        # serving process then probes --retrieval lsh without a rebuild.
        for part in parts:
            part.lsh_index(bands=args.lsh_bands, rows=args.lsh_rows)
    try:
        catalog.save(output)
    except OSError as exc:
        raise _fail(f"cannot write catalog {output}: {exc}") from exc
    done = f"in {time.perf_counter() - t0:.2f}s -> {args.output}"
    if sharded:
        sizes = "/".join(str(n) for n in catalog.shard_sizes())
        print(
            f"sharded {n_pairs} column pairs from {len(csv_files)} files "
            f"across {catalog.n_shards} shards ({sizes}) {done}"
        )
    else:
        print(f"indexed {n_pairs} column pairs from {len(csv_files)} files {done}")
    return 0


def _print_ranked(ranked) -> None:
    header = f"{'rank':<5}{'column pair':<55}{'score':>8}{'est r':>8}{'n':>6}"
    print(header)
    print("-" * len(header))
    for rank, entry in enumerate(ranked, start=1):
        print(
            f"{rank:<5}{entry.candidate_id:<55}{entry.score:>8.3f}"
            f"{entry.stats.r_pearson:>8.3f}{entry.stats.sample_size:>6}"
        )


def _options_from_args(args: argparse.Namespace) -> QueryOptions:
    """The one place CLI flags become a :class:`QueryOptions` record.

    Shared by ``query`` and ``serve`` (whose flags come from the same
    :func:`_add_query_tuning_args`), so the two verbs cannot silently
    diverge on what ``--on-shard-error``/``--retrieval``/
    ``--rng-mode`` and friends mean.
    """
    return QueryOptions(
        k=args.k,
        depth=args.depth,
        scorer=args.scorer,
        min_overlap=args.min_overlap,
        rng_mode=args.rng_mode,
        retrieval_backend=args.retrieval,
        lsh_bands=args.bands,
        lsh_rows=args.rows,
        seed=args.seed,
        on_shard_error=(
            "raise" if args.on_shard_error is None else args.on_shard_error
        ),
    )


def _open_session(args: argparse.Namespace, options: QueryOptions):
    """Open the catalog ``query``/``serve`` name — a file, or a manifest
    directory with ``--catalog-dir`` — as a warm
    :class:`~repro.serving.session.QuerySession`; returns
    ``(session, executor_label)``.

    Warming loads every shard, so a broken one fails here under the
    ``raise`` policy, as a one-line error before any query runs.
    """
    from repro.serving import QuerySession

    if args.catalog_dir is not None and args.catalog is not None:
        raise SystemExit(
            "error: provide either a catalog file or --catalog-dir, not both"
        )
    if args.catalog is None and args.catalog_dir is None:
        raise SystemExit("error: provide a catalog file or --catalog-dir")
    if args.on_shard_error is not None and args.catalog_dir is None:
        raise SystemExit(
            "error: --on-shard-error decides what a lost shard does and "
            "needs --catalog-dir"
        )
    sharded = args.catalog_dir is not None
    path = Path(args.catalog_dir if sharded else args.catalog)
    kind = "sharded catalog" if sharded else "catalog"
    if sharded and not path.is_dir():
        raise _fail(f"cannot load sharded catalog {path}: not a directory")
    if not sharded and path.is_dir():
        raise _fail(
            f"{path} is a directory — sharded catalogs are served with "
            "--catalog-dir"
        )
    try:
        session = QuerySession.open(path, options)
        session.warm()
    except (OSError, ValueError, KeyError) as exc:
        raise _fail(f"cannot load {kind} {path}: {exc}") from exc
    if sharded:
        return session, f"sharded ({session.catalog.n_shards} shards)"
    return session, "monolithic"


def _print_degraded(result) -> None:
    """One line whenever a partial-policy answer lost shards."""
    if getattr(result, "degraded", False):
        survived = result.shards_probed - result.shards_failed
        print(
            f"degraded   : {survived}/{result.shards_probed} shard(s) "
            f"answered, {result.shards_failed} dropped"
        )


def _print_profile(results) -> None:
    """Per-phase table from the results' trace spans.

    Shared batch-wide spans (retrieval/score stacked across the whole
    window) carry identical ``(name, start, duration)`` in every
    query's trace and are counted once; per-query spans sum.
    """
    totals: dict[str, float] = {}
    seen_shared: set[tuple] = set()
    for result in results:
        block = getattr(result, "trace", None)
        if not block:
            continue
        for span in block["spans"]:
            if "parent" in span:
                continue
            if span.get("meta", {}).get("shared"):
                key = (
                    span["name"], span["start_ms"], span["duration_ms"]
                )
                if key in seen_shared:
                    continue
                seen_shared.add(key)
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + span["duration_ms"]
            )
    wall = max(sum(totals.values()), 1e-9)
    label = "profile    :"
    for name, ms in totals.items():
        print(
            f"{label} {name:<10} {ms:8.2f} ms ({100 * ms / wall:5.1f}%)"
        )
        label = "            "


def cmd_query(args: argparse.Namespace) -> int:
    if args.catalog_dir is not None and args.query_csv is None:
        # `query --catalog-dir DIR some.csv` parses the CSV into the
        # catalog positional; reinterpret it as the query CSV.
        args.query_csv, args.catalog = args.catalog, None
    if args.query_csv is not None and args.queries_dir is not None:
        raise SystemExit(
            "error: provide either a query CSV or --queries-dir, not both"
        )
    if args.query_csv is None and args.queries_dir is None:
        raise SystemExit(
            "error: provide a query CSV (single query) or --queries-dir "
            "(batched multi-query round)"
        )
    if args.queries_dir is not None and (args.key or args.value):
        raise SystemExit(
            "error: --key/--value select one pair of a single query CSV; "
            "--queries-dir always evaluates every column pair"
        )
    session, executor_label = _open_session(args, _options_from_args(args))
    if args.queries_dir is not None:
        return _run_query_batch(session, executor_label, args)

    table = _read_csv_table(args.query_csv)
    pair = _resolve_pair(table, args.key, args.value)
    sketch = session.query_sketch(*table.pair_arrays(pair), name=pair.pair_id)

    result = session.submit_one(
        sketch, exclude_id=pair.pair_id, trace=args.profile
    )

    print(f"query pair : {pair.pair_id}")
    print(f"scorer     : {args.scorer}")
    print(f"executor   : {executor_label}")
    print(f"retrieval  : {args.retrieval}")
    print(
        f"candidates : {result.candidates_considered} joinable "
        f"({result.total_seconds * 1000:.1f} ms)"
    )
    _print_degraded(result)
    if args.profile:
        _print_profile([result])
    print()
    if not result.ranked:
        print("no joinable candidates found")
        return 0
    _print_ranked(result.ranked)
    return 0


def _run_query_batch(
    session, executor_label: str, args: argparse.Namespace
) -> int:
    """``query --queries-dir``: every column pair of every CSV in the
    directory becomes one query of a single ``query_batch`` round."""
    directory = Path(args.queries_dir)
    csv_files = sorted(directory.glob("*.csv"))
    if not csv_files:
        print(f"error: no CSV files under {directory}", file=sys.stderr)
        return 1
    sketches = []
    pair_ids = []
    for path in csv_files:
        try:
            table = read_csv(path)
        except ValueError as exc:
            print(f"skipping {path.name}: {exc}", file=sys.stderr)
            continue
        for pair in table.column_pairs():
            sketches.append(
                session.query_sketch(*table.pair_arrays(pair), name=pair.pair_id)
            )
            pair_ids.append(pair.pair_id)
    if not sketches:
        print(f"error: no sketchable column pairs under {directory}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    results = session.submit(
        sketches, exclude_ids=pair_ids, trace=args.profile
    )
    elapsed = time.perf_counter() - t0

    print(f"queries    : {len(sketches)} column pair(s) from {len(csv_files)} file(s)")
    print(f"scorer     : {args.scorer}")
    print(f"executor   : {executor_label}")
    print(f"retrieval  : {args.retrieval}")
    print(
        f"batch time : {elapsed * 1000:.1f} ms "
        f"({elapsed * 1000 / len(sketches):.2f} ms/query)"
    )
    if args.profile and results:
        # Phase timings come from the per-query trace spans: shared
        # batch passes counted once, per-query slices summed — not the
        # old equal-share split of the aggregate timing fields.
        _print_profile(results)
    for pair_id, result in zip(pair_ids, results):
        print()
        print(
            f"query pair : {pair_id} "
            f"({result.candidates_considered} joinable candidates)"
        )
        _print_degraded(result)
        if not result.ranked:
            print("no joinable candidates found")
            continue
        _print_ranked(result.ranked)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro-sketch serve``: a long-lived coalescing HTTP query service.

    The catalog loads once and stays warm; concurrent ``/query``
    requests coalesce into batched execution with responses
    bit-identical to per-request evaluation. SIGTERM/SIGINT drain
    gracefully: accepted requests finish, then the process exits.
    """
    if args.seed is not None:
        raise SystemExit(
            "error: --seed pins one shared rng stream, which would make "
            "coalesced responses depend on window composition; the "
            "service always uses the per-query fixed-seed default"
        )
    if args.slow_query_log is not None and args.slow_query_ms is None:
        raise SystemExit(
            "error: --slow-query-log names a sink for the slow-query "
            "log; enable it with --slow-query-ms"
        )
    from repro.serving import QueryService

    options = _options_from_args(args)
    session, executor_label = _open_session(args, options)
    service = QueryService(
        session,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=args.slow_query_log,
    )
    source = args.catalog_dir if args.catalog_dir is not None else args.catalog
    print(
        f"serving    : {source} ({len(session.catalog)} sketches, "
        f"{executor_label})"
    )
    print(f"scorer     : {options.scorer} (k={options.k})")
    print(f"retrieval  : {options.retrieval_backend}")
    print(
        f"window     : max_batch={args.max_batch} "
        f"max_wait_ms={args.max_wait_ms:g}"
    )
    if args.slow_query_ms is not None:
        sink = args.slow_query_log or "stderr"
        print(
            f"slow log   : queries over {args.slow_query_ms:g} ms "
            f"-> {sink}"
        )
    service.start()
    host, port = service.address
    print(f"listening  : http://{host}:{port}", flush=True)
    print(f"metrics    : http://{host}:{port}/metrics", flush=True)
    service.wait_for_shutdown()
    print("drained    : all accepted requests served", flush=True)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro-sketch stats URL``: one-shot operational summary of a
    running service, rendered from ``/healthz`` and ``/metrics``."""
    import json
    import urllib.error
    import urllib.request

    from repro.obs import parse_prometheus_text, quantiles_from_buckets

    base = args.url.rstrip("/")
    if "://" not in base:
        base = "http://" + base

    def fetch(path: str) -> str:
        try:
            with urllib.request.urlopen(
                base + path, timeout=args.timeout
            ) as resp:
                return resp.read().decode()
        except (urllib.error.URLError, OSError) as exc:
            raise _fail(f"cannot fetch {base}{path}: {exc}") from exc

    try:
        health = json.loads(fetch("/healthz"))
    except json.JSONDecodeError as exc:
        raise _fail(f"/healthz returned invalid JSON: {exc}") from exc
    try:
        families = parse_prometheus_text(fetch("/metrics"))
    except ValueError as exc:
        raise _fail(f"/metrics is not valid Prometheus text: {exc}") from exc

    coalescer = health.get("coalescer", {})
    shards = health.get("shards", {})
    print(f"service    : {base}")
    print(
        f"status     : {health.get('status', '?')} "
        f"(version {health.get('version', '?')}, "
        f"up {health.get('uptime_seconds', 0.0):g} s)"
    )
    print(
        f"coalescer  : {coalescer.get('submitted', 0)} submitted, "
        f"{coalescer.get('batches', 0)} batches, "
        f"{coalescer.get('coalesced', 0)} coalesced "
        f"(largest window {coalescer.get('largest_batch', 0)})"
    )
    print(
        f"shards     : {shards.get('count', '?')} "
        f"({shards.get('errors', 0)} shard errors)"
    )

    def served(family: str) -> float:
        return sum(
            value
            for suffix, _, value in families.get(family, {}).get(
                "samples", []
            )
            if suffix == ""
        )

    print(f"queries    : {served('repro_queries_total'):g} served")
    latency = families.get("repro_query_seconds")
    if latency is not None:
        count = sum(
            v
            for suffix, _, v in latency["samples"]
            if suffix == "_count"
        )
        if count:
            qs = quantiles_from_buckets(latency)
            rendered = "  ".join(
                f"p{int(q * 100)} {value * 1000.0:.2f} ms"
                for q, value in sorted(qs.items())
            )
            print(f"latency    : {rendered} (from bucket counts)")
    phases = families.get("repro_phase_seconds")
    if phases is not None:
        by_phase: dict[str, tuple[float, float]] = {}
        for suffix, labels, value in phases["samples"]:
            phase = labels.get("phase")
            if phase is None:
                continue
            total, count = by_phase.get(phase, (0.0, 0.0))
            if suffix == "_sum":
                total += value
            elif suffix == "_count":
                count += value
            by_phase[phase] = (total, count)
        for phase, (total, count) in by_phase.items():
            if count:
                print(
                    f"phase      : {phase:<12} "
                    f"{total * 1000.0 / count:8.2f} ms/query mean "
                    f"({int(count)} samples)"
                )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    left_table = _read_csv_table(args.left_csv)
    right_table = _read_csv_table(args.right_csv)
    left_pair = _resolve_pair(left_table, args.left_key, args.left_value)
    right_pair = _resolve_pair(right_table, args.right_key, args.right_value)

    left = CorrelationSketch(args.sketch_size, aggregate=args.aggregate, name=left_pair.pair_id)
    left.update_array(*left_table.pair_arrays(left_pair))
    right = CorrelationSketch(
        args.sketch_size, aggregate=args.aggregate, hasher=left.hasher,
        name=right_pair.pair_id,
    )
    right.update_array(*right_table.pair_arrays(right_pair))

    result = estimate_pair(left, right, estimator=args.estimator)
    print(f"left pair            : {left_pair.pair_id}")
    print(f"right pair           : {right_pair.pair_id}")
    print(f"sketch-join sample   : {result.sample_size}")
    print(f"estimated correlation: {result.correlation:+.4f} ({args.estimator})")
    print(f"Fisher z SE          : {result.fisher_se:.4f}")
    print(f"HFD interval         : [{result.hfd.low:+.3f}, {result.hfd.high:+.3f}]")
    print(f"est. join size       : {result.join_size_est:,.0f}")
    print(f"est. containment     : {result.containment_est:.3f}")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    path = Path(args.catalog)
    if path.is_dir():
        # A manifest directory: report the sharded layout instead of
        # failing on a directory read.
        return _print_shard_info(path)
    catalog = _load_catalog(path)
    # Counted from the arena's offsets: info wakes no snapshot entry.
    sizes = catalog.entry_counts()
    storage = catalog.storage_info()
    print(f"catalog      : {path}")
    print(f"format       : {detect_format(path)}")
    print(f"on-disk bytes: {path.stat().st_size:,}")
    print(f"storage      : {storage['backend']}")
    print(
        f"array bytes  : {storage['mapped_bytes']:,} mapped, "
        f"{storage['materialized_bytes']:,} materialized"
    )
    if storage["arena"] is not None:
        arena = storage["arena"]
        print(
            f"arena        : {arena['arrays']} arrays, "
            f"{arena['header_bytes']:,} header bytes"
        )
        _print_bytes_per_sketch(arena_bytes_by_group(path), len(catalog))
    print(f"sketches     : {len(catalog)}")
    print(f"sketch size  : {catalog.sketch_size} (aggregate: {catalog.aggregate})")
    print(f"hash scheme  : bits={catalog.hasher.bits} seed={catalog.hasher.seed}")
    if sizes:
        print(f"entries      : min={min(sizes)} max={max(sizes)} total={sum(sizes)}")
    print(f"posting keys : {catalog.vocabulary_size}")
    print(
        f"delta layer  : {catalog.delta_size} pending sketch(es), "
        f"{catalog.tombstone_count} tombstone(s)"
    )
    print(f"index version: {catalog.index_version} (compactions folded in)")
    lsh = catalog.lsh_params
    if lsh is not None:
        print(f"lsh index    : warm (bands={lsh[0]} rows={lsh[1]})")
    else:
        print(
            "lsh index    : none (index --lsh persists one; otherwise each "
            "--retrieval lsh process rebuilds it)"
        )
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """``catalog compact``: fold the delta layer — every shard's, for a
    manifest directory — into fresh frozen structures and persist the
    result (in place unless ``-o``)."""
    path = Path(args.catalog)
    sharded = path.is_dir()
    catalog = _load_catalog(path)
    if sharded:
        delta = sum(catalog.delta_sizes())
        tombstones = sum(catalog.tombstone_counts())
    else:
        delta, tombstones = catalog.delta_size, catalog.tombstone_count
    t0 = time.perf_counter()
    version = catalog.compact()
    output = Path(args.output) if args.output is not None else path
    try:
        catalog.save(output)
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot write catalog {output}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    if sharded:
        print(
            f"compacted {catalog.n_shards} shard(s): folded {delta} delta "
            f"sketch(es) and {tombstones} tombstone(s) in {elapsed:.2f}s "
            f"-> {output} (index versions "
            f"{'/'.join(str(v) for v in version)})"
        )
    else:
        print(
            f"compacted {path}: folded {delta} delta sketch(es) and "
            f"{tombstones} tombstone(s) in {elapsed:.2f}s -> {output} "
            f"(index version {version})"
        )
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    """``catalog convert``: rewrite a catalog in the other format.

    The output format follows the output extension exactly as
    ``catalog.save`` dispatches it: ``.arena`` the zero-copy mmap
    arena, anything else portable JSON.
    The write is atomic, so converting onto an existing file (including
    the input itself) either fully succeeds or leaves it untouched.
    """
    path = Path(args.catalog)
    output = Path(args.output)
    if path.is_dir():
        raise _fail(f"cannot convert {path}: a manifest directory, not a file")
    catalog = _load_catalog(path)
    t0 = time.perf_counter()
    try:
        catalog.save(output)
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot write catalog {output}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    print(
        f"converted {path} ({detect_format(path)}) -> {output} "
        f"({detect_format(output)}) in {elapsed:.2f}s "
        f"[{output.stat().st_size:,} bytes, {len(catalog)} sketches]"
    )
    return 0


def _verify_status(path: Path) -> tuple[str, str]:
    """Checksum one snapshot file: (human status, outcome), the outcome
    ``"ok"`` (a JSON catalog has no checksum), ``"corrupt"`` (bit rot or
    an unreadable container: a quarantine candidate) or ``"refused"``
    (another arena version, which load refuses too: not damage)."""
    from repro.index.catalog import SnapshotRefused
    from repro.index.snapshot import verify_snapshot

    try:
        verdict = verify_snapshot(path)
    except SnapshotRefused as exc:
        return f"REFUSED ({exc})", "refused"
    except (OSError, ValueError, KeyError) as exc:
        return f"FAILED ({exc})", "corrupt"
    if verdict is None:
        return f"unchecked (no checksum: {detect_format(path)})", "ok"
    return ("ok", "ok") if verdict else ("FAILED (checksum mismatch)", "corrupt")


def cmd_catalog_verify(args: argparse.Namespace) -> int:
    """``catalog verify``: checksum one snapshot, or every shard snapshot
    a manifest names, without loading any; lists quarantine candidates."""
    path = Path(args.catalog)
    if path.is_dir():
        return _verify_shards(path)
    if not path.is_file():
        raise _fail(f"cannot verify catalog {path}: no such file")
    _refuse_retired(path)
    status, outcome = _verify_status(path)
    print(f"{path}: {status}")
    if outcome == "corrupt":
        print(
            "1 file failed verification — rebuild it from its CSVs with "
            "`index`",
            file=sys.stderr,
        )
    return 0 if outcome == "ok" else 1


def _verify_shards(directory: Path) -> int:
    """``catalog verify`` on a manifest directory: one line per shard."""
    files = [entry["file"] for entry in _read_manifest(directory)["shards"]]
    bad, failed = [], False
    for index, name in enumerate(files):
        shard_path = directory / name
        if not shard_path.is_file():
            status, outcome = "FAILED (missing file)", "corrupt"
        else:
            status, outcome = _verify_status(shard_path)
        if outcome == "corrupt":
            bad.append(name)
        failed |= outcome != "ok"
        print(f"  shard {index:>4} : {status}  {name}")
    if bad:
        print(
            f"{len(bad)} of {len(files)} shard(s) failed verification — "
            f"quarantine candidates: {', '.join(bad)}; `query` and `serve` "
            "answer from the other shards with `--on-shard-error partial`, "
            "or rebuild the directory with `index --shards`",
            file=sys.stderr,
        )
    if failed:
        return 1
    print(f"all {len(files)} shard(s) verified")
    return 0


def _print_bytes_per_sketch(groups: dict[str, int], sketches: int) -> None:
    """One line of on-disk bytes per sketch, by group
    (:func:`repro.index.snapshot.arena_bytes_by_group`), with the total
    they sum to."""
    if not sketches:
        return
    parts = ", ".join(f"{group} {size / sketches:.1f}" for group, size in groups.items())
    print(f"bytes/sketch : {parts} (total {sum(groups.values()) / sketches:.1f})")


def _print_shard_info(directory: Path) -> int:
    """``catalog info`` on a manifest directory: the sharded layout, from
    the manifest alone."""
    from repro.serving import MANIFEST_NAME

    manifest = _read_manifest(directory)
    try:
        shard_entries = manifest["shards"]
        bits, seed = manifest["scheme"]
        header = [
            f"catalog dir  : {directory}",
            f"manifest     : version {manifest['version']}",
            f"shard layout : {manifest['layout']}",
            f"shards       : {manifest['n_shards']}",
            f"sketches     : {sum(e['sketches'] for e in shard_entries)}",
            f"sketch size  : {manifest['sketch_size']} "
            f"(aggregate: {manifest['aggregate']})",
            f"hash scheme  : bits={bits} seed={seed}",
        ]
        files = [entry["file"] for entry in shard_entries]
        counts = [entry["sketches"] for entry in shard_entries]
        maintenance = [
            (entry["index_version"], entry["delta"], entry["tombstones"])
            for entry in shard_entries
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise _fail(
            f"cannot read sharded catalog {directory}: corrupt manifest "
            f"({exc!r})"
        ) from exc
    disk = (directory / MANIFEST_NAME).stat().st_size
    # The manifest is metadata: its bytes join the shards' headers.
    groups = dict.fromkeys(BYTE_GROUPS, 0)
    groups["header"] = disk
    missing, unreadable = [], []
    for name in files:
        shard_path = directory / name
        if not shard_path.is_file():
            missing.append(name)
            continue
        disk += shard_path.stat().st_size
        try:
            for group, size in arena_bytes_by_group(shard_path).items():
                groups[group] += size
        except (OSError, ValueError) as exc:
            unreadable.append(f"{name} ({exc})")
    for line in header:
        print(line)
    print(f"on-disk bytes: {disk:,}")
    if unreadable:
        print(f"bytes/sketch : unavailable, unreadable shard(s): {'; '.join(unreadable)}")
    elif not missing:
        _print_bytes_per_sketch(groups, sum(counts))
    deltas = sum(delta for _, delta, _ in maintenance)
    tombstones = sum(tombs for _, _, tombs in maintenance)
    print(
        f"delta layer  : {deltas} pending sketch(es), "
        f"{tombstones} tombstone(s) across shards"
    )
    for index, (count, name, (version, delta, tombs)) in enumerate(
        zip(counts, files, maintenance)
    ):
        print(
            f"  shard {index:>4} : {count:>6} sketches  {name}"
            f"  [v{version} delta={delta} tombstones={tombs}]"
        )
    if missing:
        raise _fail(
            f"manifest references missing shard file(s): {', '.join(missing)}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sketch",
        description="Correlation Sketches: index CSV collections and run "
        "approximate join-correlation queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="sketch every CSV in a directory")
    p_index.add_argument("directory", help="directory containing CSV files")
    p_index.add_argument(
        "-o",
        "--output",
        required=True,
        help="catalog path; an .arena extension writes the binary "
        "snapshot — a zero-copy mmap arena (O(metadata) cold starts, "
        "pages shared across processes) — anything else portable JSON. "
        "With --shards, the manifest directory to write",
    )
    p_index.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        help="partition the tables across this many shards and write -o "
        "as a manifest directory of per-shard arena snapshots, served "
        "with `query --catalog-dir`; each table routes to the "
        "least-loaded shard",
    )
    p_index.add_argument("--sketch-size", type=_positive_int, default=256)
    p_index.add_argument("--aggregate", default="mean")
    p_index.add_argument(
        "--lsh",
        action="store_true",
        help="also build the MinHash-LSH retrieval index (every shard's, "
        "with --shards) before saving; an arena output then ships it "
        "warm for `query --retrieval lsh`",
    )
    p_index.add_argument(
        "--lsh-bands",
        type=_positive_int,
        default=DEFAULT_BANDS,
        help="LSH bands for --lsh (collision threshold is roughly "
        "(1/bands)**(1/rows) Jaccard)",
    )
    p_index.add_argument(
        "--lsh-rows",
        type=_positive_int,
        default=DEFAULT_ROWS,
        help="LSH rows per band for --lsh",
    )
    p_index.add_argument("-v", "--verbose", action="store_true")
    p_index.set_defaults(func=cmd_index)

    p_query = sub.add_parser("query", help="top-k join-correlation query")
    p_query.add_argument(
        "catalog",
        nargs="?",
        default=None,
        help="catalog file from `index` (JSON or .arena); omit with "
        "--catalog-dir",
    )
    p_query.add_argument(
        "--catalog-dir",
        default=None,
        help="sharded catalog directory from `index --shards`; queries are "
        "served with results bit-identical to a monolithic catalog",
    )
    p_query.add_argument(
        "query_csv",
        nargs="?",
        default=None,
        help="CSV holding the query column pair (omit with --queries-dir)",
    )
    p_query.add_argument(
        "--queries-dir",
        default=None,
        help="evaluate every column pair of every CSV in this directory as "
        "one batched multi-query round (amortized retrieval + scoring)",
    )
    p_query.add_argument("--key", help="join-key column (default: first categorical)")
    p_query.add_argument("--value", help="numeric column (default: first numeric)")
    _add_query_tuning_args(p_query)
    p_query.add_argument(
        "--profile",
        action="store_true",
        help="print the retrieval / re-rank phase split the engine measures",
    )
    p_query.set_defaults(func=cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived HTTP query service with request coalescing",
        description="Serve a catalog over HTTP (POST /query, "
        "POST /estimate, GET /catalog/info, GET /healthz). The catalog "
        "loads once and stays warm; concurrent queries coalesce into "
        "batched execution with responses bit-identical to per-request "
        "evaluation. SIGTERM/SIGINT drain gracefully.",
    )
    p_serve.add_argument(
        "catalog",
        nargs="?",
        default=None,
        help="catalog file from `index` (JSON or .arena); omit with "
        "--catalog-dir",
    )
    p_serve.add_argument(
        "--catalog-dir",
        default=None,
        help="sharded catalog directory from `index --shards`",
    )
    _add_query_tuning_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (0 picks a free one, printed on startup)",
    )
    p_serve.add_argument(
        "--max-batch",
        type=_positive_int,
        default=16,
        help="coalescing window size: flush as soon as this many requests "
        "are pending (default 16)",
    )
    p_serve.add_argument(
        "--max-wait-ms",
        type=_non_negative_float,
        default=0.0,
        help="coalescing window time: flush once the oldest pending "
        "request has waited this long. Default 0: idle requests execute "
        "immediately and batches form only under load",
    )
    p_serve.add_argument(
        "--slow-query-ms",
        type=_non_negative_float,
        default=None,
        help="log queries whose server-side wall time breaches this "
        "threshold as single-line JSON records with the per-phase "
        "breakdown (default: disabled)",
    )
    p_serve.add_argument(
        "--slow-query-log",
        default=None,
        metavar="PATH",
        help="append slow-query records to this file instead of stderr "
        "(needs --slow-query-ms)",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_stats = sub.add_parser(
        "stats",
        help="operational summary of a running service",
        description="Fetch /healthz and /metrics from a running "
        "`repro-sketch serve` instance and print a one-shot summary: "
        "liveness, coalescer window behaviour, shard errors, query "
        "latency quantiles and per-phase means reconstructed from the "
        "Prometheus histogram buckets.",
    )
    p_stats.add_argument(
        "url",
        help="service base URL (e.g. http://127.0.0.1:8765; the scheme "
        "may be omitted)",
    )
    p_stats.add_argument(
        "--timeout",
        type=_positive_float,
        default=5.0,
        help="per-request timeout in seconds (default 5)",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_est = sub.add_parser("estimate", help="estimate one after-join correlation")
    p_est.add_argument("left_csv")
    p_est.add_argument("right_csv")
    p_est.add_argument("--left-key")
    p_est.add_argument("--left-value")
    p_est.add_argument("--right-key")
    p_est.add_argument("--right-value")
    p_est.add_argument("--sketch-size", type=_positive_int, default=256)
    p_est.add_argument("--aggregate", default="mean")
    p_est.add_argument(
        "--estimator",
        default="pearson",
        choices=("pearson", "spearman", "rin", "qn", "pm1"),
    )
    p_est.set_defaults(func=cmd_estimate)

    p_catalog = sub.add_parser(
        "catalog", help="catalog management, for a file or a manifest directory"
    )
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_path = "catalog file (JSON or .arena) or manifest directory"
    p_catalog_info = catalog_sub.add_parser(
        "info",
        help="sketch count, scheme, size, format, on-disk bytes; a "
        "directory's per-shard layout from the manifest alone",
    )
    p_catalog_info.add_argument("catalog", help=catalog_path)
    p_catalog_info.set_defaults(func=cmd_info)
    p_catalog_compact = catalog_sub.add_parser(
        "compact",
        help="fold the pending delta layer (appended sketches + "
        "tombstones) of the catalog or every shard into fresh frozen "
        "structures and re-save",
    )
    p_catalog_compact.add_argument("catalog", help=catalog_path)
    p_catalog_compact.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the compacted catalog here instead of in place",
    )
    p_catalog_compact.set_defaults(func=cmd_compact)
    p_catalog_convert = catalog_sub.add_parser(
        "convert",
        help="rewrite a catalog in the other format: .arena mmap arena "
        "or JSON (chosen by the output extension)",
    )
    p_catalog_convert.add_argument(
        "catalog", help="input catalog file (JSON or .arena)"
    )
    p_catalog_convert.add_argument(
        "-o",
        "--output",
        required=True,
        help="output catalog path; the extension picks the format",
    )
    p_catalog_convert.set_defaults(func=cmd_convert)
    p_catalog_verify = catalog_sub.add_parser(
        "verify",
        help="checksum a snapshot's payload, or every shard's, without "
        "loading it and list quarantine candidates; exit 1 on mismatch, "
        "a missing shard or an arena of another version",
    )
    p_catalog_verify.add_argument("catalog", help=catalog_path)
    p_catalog_verify.set_defaults(func=cmd_catalog_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
