"""Command-line interface: ``repro-sketch``.

The operations of a join-correlation deployment, as subcommands:

* ``index``    — sketch every ⟨categorical, numeric⟩ column pair of every
  CSV file in a directory and persist the catalog (offline). The output
  extension picks the format: ``.arena`` writes the binary snapshot — a
  zero-copy mmap arena, O(metadata) cold starts — anything else the
  portable JSON. ``--lsh`` additionally builds the MinHash-LSH
  retrieval index so an ``.arena`` snapshot ships it warm.
* ``query``    — run a top-k join-correlation query against a saved
  catalog, using one column pair of a query CSV (online). ``--retrieval
  lsh`` serves the candidate phase from the approximate MinHash-LSH
  backend (``--bands``/``--rows`` tune it); ``--queries-dir`` evaluates
  every column pair of every CSV in a directory as one batched
  multi-query round trip (:meth:`JoinCorrelationEngine.query_batch`).
* ``serve``    — a long-lived HTTP query service over a warm catalog
  (monolithic or ``--catalog-dir`` sharded): ``POST /query`` sketches a
  client-supplied column pair and answers through a request-coalescing
  window (``--max-batch``/``--max-wait-ms``) with responses
  bit-identical to per-request evaluation; ``POST /estimate``,
  ``GET /catalog/info`` and ``GET /healthz`` ride along. SIGTERM/SIGINT
  drain gracefully. Shares the ``query`` verb's tuning flags — one
  options-building helper feeds both, so they cannot diverge.
* ``estimate`` — one-off: estimate the after-join correlation between two
  CSV column pairs directly from freshly built sketches.
* ``catalog``  — catalog management; ``catalog info <path>`` reports
  statistics, format, on-disk size and pending delta/tombstone state
  (``info <path>`` is the shorthand); ``catalog compact <path>`` folds
  the delta layer into fresh frozen structures and re-saves;
  ``catalog verify <path>`` checksums a snapshot's payload without
  loading it (exit 1 on mismatch).
* ``shard``    — sharded-catalog management: ``shard build`` partitions a
  CSV collection across N shards into a manifest directory
  (:mod:`repro.serving`); ``shard info`` reports the layout and per-shard
  delta state from the manifest alone, without materializing any shard;
  ``shard compact`` compacts every shard in place; ``shard verify``
  checksums every shard snapshot and lists quarantine candidates.
  ``query --catalog-dir <dir>`` serves queries from such a directory,
  with results bit-identical to a monolithic catalog;
  ``--on-shard-error partial`` trades that exactness for availability,
  serving the surviving shards when one is broken.

Missing or corrupt catalog/CSV inputs print a one-line ``error:`` and
exit with status 2 instead of a traceback — as do files in a retired
format (``.npz`` snapshots, pre-arena manifest directories), which are
refused by name, never parsed.

Examples::

    repro-sketch index data/portal/ -o catalog.arena --sketch-size 256
    repro-sketch query catalog.arena taxi.csv --key date --value pickups -k 10
    repro-sketch query catalog.arena taxi.csv --scorer rb_cib --profile
    repro-sketch query catalog.arena --queries-dir my_tables/ -k 5
    repro-sketch query catalog.arena taxi.csv --retrieval lsh --bands 32 --rows 2
    repro-sketch serve catalog.arena --port 8765 --max-batch 16
    repro-sketch serve --catalog-dir catalog-dir/
    repro-sketch estimate left.csv right.csv --left-key date --right-key day
    repro-sketch catalog info catalog.arena
    repro-sketch shard build data/portal/ -o catalog-dir/ --shards 4
    repro-sketch shard info catalog-dir/
    repro-sketch query --catalog-dir catalog-dir/ taxi.csv
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.core.estimation import estimate as estimate_pair
from repro.core.sketch import CorrelationSketch
from repro.index.catalog import SketchCatalog, _refuse_retired_snapshot
from repro.index.engine import RETRIEVAL_BACKENDS, JoinCorrelationEngine
from repro.index.lsh import DEFAULT_BANDS, DEFAULT_ROWS
from repro.index.options import QueryOptions
from repro.index.snapshot import detect_format
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


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, clear message otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float, clear message otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a float >= 0, clear message otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


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


def _load_catalog(path: str | Path) -> SketchCatalog:
    """Load a single-file catalog, mapping failures to one-line errors."""
    path = Path(path)
    if path.is_dir():
        raise _fail(
            f"{path} is a directory — sharded catalogs are served with "
            "--catalog-dir (or inspected with `shard info`)"
        )
    try:
        return SketchCatalog.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise _fail(f"cannot load catalog {path}: {exc}") from exc


def _refuse_retired(path: str | Path, *, sniff: bool = True) -> None:
    """The retired-format refusal as a one-line error, for the verbs that
    would otherwise do work first (``index``) or report the file as
    damaged (``catalog verify``)."""
    try:
        _refuse_retired_snapshot(Path(path), sniff=sniff)
    except ValueError as exc:
        raise _fail(str(exc)) from exc


def _load_sharded(directory: str | Path):
    """Load a sharded-catalog manifest directory (lazy shards)."""
    from repro.serving import ShardedCatalog

    try:
        return ShardedCatalog.load(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise _fail(f"cannot load sharded catalog {directory}: {exc}") from exc


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


def _build_query_sketch(
    table: Table, pair: ColumnPair, catalog: SketchCatalog
) -> CorrelationSketch:
    sketch = CorrelationSketch(
        catalog.sketch_size,
        aggregate=catalog.aggregate,
        hasher=catalog.hasher,
        name=pair.pair_id,
    )
    keys, values = table.pair_arrays(pair)
    sketch.update_array(keys, values)
    return sketch


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
    _refuse_retired(args.output, sniff=False)  # before the ingest, not after
    catalog = SketchCatalog(
        sketch_size=args.sketch_size, aggregate=args.aggregate
    )
    t0 = time.perf_counter()
    n_pairs = _ingest_csvs(catalog, csv_files, args.verbose)
    if args.lsh:
        if Path(args.output).suffix == ".arena":
            # Build the LSH index now so the snapshot ships it warm — the
            # serving process then probes --retrieval lsh without a rebuild.
            catalog.lsh_index(bands=args.lsh_bands, rows=args.lsh_rows)
        else:
            # JSON persists no LSH members; building one here would be
            # silently thrown away.
            print(
                "warning: --lsh ignored — only .arena snapshots persist the "
                "LSH index (JSON catalogs rebuild it lazily)",
                file=sys.stderr,
            )
    catalog.save(args.output)
    elapsed = time.perf_counter() - t0
    print(
        f"indexed {n_pairs} column pairs from {len(csv_files)} files "
        f"in {elapsed:.2f}s -> {args.output}"
    )
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


def _build_session(catalog_path, catalog_dir, options):
    """Load a catalog (file or manifest dir) and wrap it in a warm
    :class:`~repro.serving.session.QuerySession`; returns
    ``(session, catalog, executor_label)``."""
    from repro.serving import QuerySession, ShardRouter

    if catalog_dir is not None:
        catalog = _load_sharded(catalog_dir)
        session = QuerySession(
            ShardRouter.from_options(catalog, options), options
        )
        label = f"sharded ({catalog.n_shards} shards)"
    else:
        catalog = _load_catalog(catalog_path)
        session = QuerySession(
            JoinCorrelationEngine.from_options(catalog, options), options
        )
        label = "monolithic"
    return session, catalog, label


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
    if args.catalog_dir is not None and args.catalog is not None:
        # `query --catalog-dir DIR some.csv` parses the CSV into the
        # catalog positional; reinterpret it as the query CSV.
        if args.query_csv is None:
            args.query_csv = args.catalog
            args.catalog = None
        else:
            raise SystemExit(
                "error: provide either a catalog file or --catalog-dir, "
                "not both"
            )
    if args.catalog is None and args.catalog_dir is None:
        raise SystemExit(
            "error: provide a catalog file or --catalog-dir"
        )
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
    if args.on_shard_error is not None and args.catalog_dir is None:
        raise SystemExit(
            "error: --on-shard-error decides what a lost shard does and "
            "needs --catalog-dir"
        )
    options = _options_from_args(args)
    session, catalog, executor_label = _build_session(
        args.catalog, args.catalog_dir, options
    )
    if args.queries_dir is not None:
        return _run_query_batch(catalog, session, executor_label, args)

    table = _read_csv_table(args.query_csv)
    pair = _resolve_pair(table, args.key, args.value)
    sketch = _build_query_sketch(table, pair, catalog)

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
    catalog, session, executor_label: str, args: argparse.Namespace
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
            sketches.append(_build_query_sketch(table, pair, catalog))
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
    if args.catalog_dir is not None and args.catalog is not None:
        raise SystemExit(
            "error: provide either a catalog file or --catalog-dir, "
            "not both"
        )
    if args.catalog is None and args.catalog_dir is None:
        raise SystemExit(
            "error: provide a catalog file or --catalog-dir"
        )
    if args.on_shard_error is not None and args.catalog_dir is None:
        raise SystemExit(
            "error: --on-shard-error decides what a lost shard does and "
            "needs --catalog-dir"
        )
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
    session, catalog, executor_label = _build_session(
        args.catalog, args.catalog_dir, options
    )
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
    print(f"serving    : {source} ({len(catalog)} sketches, {executor_label})")
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
    # Snapshot-loaded sketches are views over the stored arrays, so info
    # on a binary catalog copies nothing.
    sizes = [catalog.sketch_columns(sid).size for sid in catalog]
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
    """``catalog compact``: fold the delta layer into fresh frozen
    structures and persist the result (in place unless ``-o``)."""
    path = Path(args.catalog)
    catalog = _load_catalog(path)
    delta, tombstones = catalog.delta_size, catalog.tombstone_count
    t0 = time.perf_counter()
    version = catalog.compact()
    output = Path(args.output) if args.output is not None else path
    try:
        catalog.save(output)
    except (OSError, ValueError) as exc:
        raise _fail(f"cannot write catalog {output}: {exc}") from exc
    elapsed = time.perf_counter() - t0
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


def _verify_status(path: Path) -> tuple[str, bool]:
    """Checksum one snapshot file: (human status, is_failure).

    ``verify_snapshot`` answers True (payload matches), False (bit rot),
    or None (a format with no checksum: JSON, or a pre-checksum arena);
    an unreadable/truncated container is itself a failure.
    """
    from repro.index.snapshot import verify_snapshot

    try:
        verdict = verify_snapshot(path)
    except (OSError, ValueError, KeyError) as exc:
        return f"FAILED (unreadable: {exc})", True
    if verdict is True:
        return "ok", False
    if verdict is False:
        return "FAILED (checksum mismatch)", True
    return f"unchecked (no checksum: {detect_format(path)})", False


def cmd_catalog_verify(args: argparse.Namespace) -> int:
    """``catalog verify``: checksum one snapshot without loading it."""
    path = Path(args.catalog)
    if path.is_dir():
        raise _fail(
            f"{path} is a directory — sharded catalogs are verified with "
            "`shard verify`"
        )
    if not path.is_file():
        raise _fail(f"cannot verify catalog {path}: no such file")
    _refuse_retired(path)
    status, failed = _verify_status(path)
    print(f"{path}: {status}")
    if failed:
        print(
            "1 file failed verification — loading with "
            "on_corruption='quarantine' sets the damaged file aside",
            file=sys.stderr,
        )
    return 1 if failed else 0


def cmd_shard_verify(args: argparse.Namespace) -> int:
    """``shard verify``: checksum every shard snapshot a manifest names,
    reporting quarantine candidates without materializing any shard."""
    from repro.serving import read_manifest

    directory = Path(args.catalog_dir)
    try:
        manifest = read_manifest(directory)
        files = [entry["file"] for entry in manifest["shards"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _fail(f"cannot read sharded catalog {directory}: {exc}") from exc
    bad = []
    for index, name in enumerate(files):
        shard_path = directory / name
        if not shard_path.is_file():
            status, failed = "FAILED (missing file)", True
        else:
            status, failed = _verify_status(shard_path)
        if failed:
            bad.append(name)
        print(f"  shard {index:>4} : {status}  {name}")
    if bad:
        print(
            f"{len(bad)} of {len(files)} shard(s) failed verification — "
            f"quarantine candidates: {', '.join(bad)}; serving with "
            "on_corruption='quarantine' sets them aside and degrades "
            "gracefully",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(files)} shard(s) verified")
    return 0


def cmd_shard_compact(args: argparse.Namespace) -> int:
    """``shard compact``: compact every shard of a manifest directory and
    rewrite its snapshots + manifest."""
    directory = Path(args.catalog_dir)
    catalog = _load_sharded(directory)
    # Materialize every shard up front so the pre-compaction delta and
    # tombstone totals count loaded state, not cold-shard zeros.
    deltas = sum(
        catalog.shard(i).delta_size for i in range(catalog.n_shards)
    )
    tombstones = sum(catalog.tombstone_counts())
    t0 = time.perf_counter()
    versions = catalog.compact()
    try:
        catalog.save(directory)
    except OSError as exc:
        raise _fail(f"cannot write sharded catalog {directory}: {exc}") from exc
    elapsed = time.perf_counter() - t0
    print(
        f"compacted {catalog.n_shards} shard(s): folded {deltas} delta "
        f"sketch(es) and {tombstones} tombstone(s) in {elapsed:.2f}s "
        f"-> {directory} (index versions "
        f"{'/'.join(str(v) for v in versions)})"
    )
    return 0


def cmd_shard_build(args: argparse.Namespace) -> int:
    from repro.serving import ShardedCatalog

    directory = Path(args.directory)
    csv_files = sorted(directory.glob("*.csv"))
    if not csv_files:
        print(f"error: no CSV files under {directory}", file=sys.stderr)
        return 1
    catalog = ShardedCatalog(
        args.shards, sketch_size=args.sketch_size, aggregate=args.aggregate
    )
    t0 = time.perf_counter()
    n_pairs = _ingest_csvs(catalog, csv_files, args.verbose)
    if args.lsh:
        # Build every shard's LSH index now so the snapshots ship warm
        # for `query --catalog-dir --retrieval lsh`.
        for index in range(catalog.n_shards):
            catalog.shard(index).lsh_index(
                bands=args.lsh_bands, rows=args.lsh_rows
            )
    catalog.save(args.output)
    elapsed = time.perf_counter() - t0
    sizes = "/".join(str(n) for n in catalog.shard_sizes())
    print(
        f"sharded {n_pairs} column pairs from {len(csv_files)} files across "
        f"{catalog.n_shards} shards ({sizes}) in {elapsed:.2f}s "
        f"-> {args.output}"
    )
    return 0


def _print_shard_info(directory: Path) -> int:
    """Report a sharded catalog's layout from the manifest alone."""
    from repro.serving import MANIFEST_NAME, read_manifest

    try:
        manifest = read_manifest(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise _fail(f"cannot read sharded catalog {directory}: {exc}") from exc
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
    missing = []
    for name in files:
        shard_path = directory / name
        if shard_path.is_file():
            disk += shard_path.stat().st_size
        else:
            missing.append(name)
    for line in header:
        print(line)
    print(f"on-disk bytes: {disk:,}")
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


def cmd_shard_info(args: argparse.Namespace) -> int:
    return _print_shard_info(Path(args.catalog_dir))


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
        "pages shared across processes) — anything else portable JSON",
    )
    p_index.add_argument("--sketch-size", type=_positive_int, default=256)
    p_index.add_argument("--aggregate", default="mean")
    p_index.add_argument(
        "--lsh",
        action="store_true",
        help="also build the MinHash-LSH retrieval index before saving; "
        "an .arena output then ships it warm for `query --retrieval lsh`",
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
        help="sharded catalog directory from `shard build`; queries are "
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
        help="sharded catalog directory from `shard build`",
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

    p_catalog = sub.add_parser("catalog", help="catalog management")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    p_catalog_info = catalog_sub.add_parser(
        "info", help="sketch count, scheme, size, format, on-disk bytes"
    )
    p_catalog_info.add_argument("catalog", help="catalog file (JSON or .arena)")
    p_catalog_info.set_defaults(func=cmd_info)
    p_catalog_compact = catalog_sub.add_parser(
        "compact",
        help="fold the pending delta layer (appended sketches + "
        "tombstones) into fresh frozen structures and re-save",
    )
    p_catalog_compact.add_argument("catalog", help="catalog file (JSON or .arena)")
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
        help="checksum a snapshot's payload without loading it; exit 1 "
        "on mismatch",
    )
    p_catalog_verify.add_argument(
        "catalog", help="catalog file (.arena or JSON)"
    )
    p_catalog_verify.set_defaults(func=cmd_catalog_verify)

    # Shorthand kept for compatibility with earlier releases.
    p_info = sub.add_parser("info", help="catalog statistics (alias of `catalog info`)")
    p_info.add_argument("catalog")
    p_info.set_defaults(func=cmd_info)

    p_shard = sub.add_parser("shard", help="sharded catalog management")
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)
    p_shard_build = shard_sub.add_parser(
        "build",
        help="shard-index every CSV in a directory into a manifest dir",
    )
    p_shard_build.add_argument("directory", help="directory containing CSV files")
    p_shard_build.add_argument(
        "-o",
        "--output",
        required=True,
        help="output catalog directory (manifest.json + per-shard "
        "arena snapshots: O(metadata) shard loads, file-backed pages "
        "shared through the page cache); serve it with `query "
        "--catalog-dir`",
    )
    p_shard_build.add_argument(
        "--shards",
        type=_positive_int,
        default=4,
        help="number of shards (default 4); each table routes to the "
        "least-loaded shard",
    )
    p_shard_build.add_argument("--sketch-size", type=_positive_int, default=256)
    p_shard_build.add_argument("--aggregate", default="mean")
    p_shard_build.add_argument(
        "--lsh",
        action="store_true",
        help="also build every shard's MinHash-LSH index before saving, so "
        "the snapshots ship warm for `query --catalog-dir --retrieval lsh`",
    )
    p_shard_build.add_argument(
        "--lsh-bands", type=_positive_int, default=DEFAULT_BANDS,
        help="LSH bands for --lsh",
    )
    p_shard_build.add_argument(
        "--lsh-rows", type=_positive_int, default=DEFAULT_ROWS,
        help="LSH rows per band for --lsh",
    )
    p_shard_build.add_argument("-v", "--verbose", action="store_true")
    p_shard_build.set_defaults(func=cmd_shard_build)

    p_shard_info = shard_sub.add_parser(
        "info",
        help="layout, per-shard sizes and on-disk bytes, from the manifest "
        "alone (no shard is materialized)",
    )
    p_shard_info.add_argument("catalog_dir", help="catalog directory from `shard build`")
    p_shard_info.set_defaults(func=cmd_shard_info)

    p_shard_compact = shard_sub.add_parser(
        "compact",
        help="compact every shard's delta layer and rewrite the manifest "
        "directory in place",
    )
    p_shard_compact.add_argument(
        "catalog_dir", help="catalog directory from `shard build`"
    )
    p_shard_compact.set_defaults(func=cmd_shard_compact)

    p_shard_verify = shard_sub.add_parser(
        "verify",
        help="checksum every shard snapshot the manifest names and list "
        "quarantine candidates; exit 1 if any fails",
    )
    p_shard_verify.add_argument(
        "catalog_dir", help="catalog directory from `shard build`"
    )
    p_shard_verify.set_defaults(func=cmd_shard_verify)
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
