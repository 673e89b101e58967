"""Seeded fixtures: tables, snapshots, query sketches, request bodies, CSVs.

Everything is generated from ``--seed`` through
``repro.data.opendata.make_nyc_like_collection`` (the real NYC Open Data
and World Bank snapshots of the paper's section 5 are not in the
repository). Fixture generation is the benchmark's own work and is never
part of a reported time; the program is only ever handed the files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from repro.data.opendata import make_nyc_like_collection
from repro.index.catalog import SketchCatalog
from repro.serving.shards import ShardedCatalog
from repro.table.csv_io import write_csv
from repro.table.table import ColumnPair, Table

#: The paper's NYC setting (section 5.5): sketch size 256, retrieval
#: depth 100, top-10 result lists.
SKETCH_SIZE = 256
DEPTH = 100
K = 10
KEY_UNIVERSE = 4000
KEY_FRACTION_RANGE = (0.02, 0.7)
#: The seed whose tables define every op list's shape (see
#: :func:`shaped_tables`), and how many tables are generated per table used.
REFERENCE_SEED = 0
POOL_FACTOR = 3


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale. ``record`` is sized so that one run
    (fixtures + set-up passes + measured rounds) fits the driver's time
    cap on the 2-vCPU host; ``layers`` is the reduced copy of a workload
    that another workload's traced run measures its layers on; ``smoke``
    only proves the plumbing."""

    name: str
    corpus_tables: int
    query_tables: int
    setup_passes: int
    quality_ops: int
    point_trace_ops: int
    trace_rounds: int
    # rounds are given at ``RUN_SECONDS`` and scale with ``--seconds``
    point_ops: int
    point_rounds: int
    point_cold: int
    batch_ops: int
    batch_size: int
    batch_rounds: int
    batch_cold: int
    batch_trace_ops: int
    http_ops: int
    http_rounds: int
    http_cold: int
    http_shards: int
    http_trace_ops: int
    churn_base: int
    churn_steps: int
    churn_rounds: int
    churn_compact_every: int
    churn_trace_ops: int


#: The measured phase the record scale's round counts are sized for.
RUN_SECONDS = 12

RECORD = Scale(
    name="record",
    corpus_tables=300,
    query_tables=110,
    setup_passes=5,
    quality_ops=100,
    point_trace_ops=64,
    trace_rounds=5,
    point_ops=120,
    point_rounds=20,
    point_cold=30,
    batch_ops=100,
    batch_size=2,
    batch_rounds=5,
    batch_cold=10,
    batch_trace_ops=24,
    http_ops=100,
    http_rounds=11,
    http_cold=10,
    http_shards=4,
    http_trace_ops=48,
    churn_base=50,
    churn_steps=100,
    churn_rounds=6,
    churn_compact_every=8,
    churn_trace_ops=48,
)

LAYERS = replace(
    RECORD,
    name="layers",
    corpus_tables=120,
    query_tables=30,
    quality_ops=0,
    trace_rounds=3,
    point_trace_ops=24,
    point_cold=4,
    batch_trace_ops=8,
    batch_cold=2,
    http_trace_ops=16,
    http_cold=2,
    churn_base=12,
    churn_trace_ops=16,
)

SMOKE = Scale(
    name="smoke",
    corpus_tables=40,
    query_tables=12,
    setup_passes=2,
    quality_ops=4,
    point_trace_ops=6,
    trace_rounds=2,
    point_ops=12,
    point_rounds=2,
    point_cold=3,
    batch_ops=6,
    batch_size=2,
    batch_rounds=2,
    batch_cold=2,
    batch_trace_ops=4,
    http_ops=8,
    http_rounds=2,
    http_cold=2,
    http_shards=2,
    http_trace_ops=6,
    churn_base=10,
    churn_steps=16,
    churn_rounds=2,
    churn_compact_every=4,
    churn_trace_ops=8,
)

SCALES = {scale.name: scale for scale in (RECORD, LAYERS, SMOKE)}

#: Fewest replay rounds any reported time may rest on.
MIN_ROUNDS = 5


def rounds_for(rounds_at_run_seconds: int, seconds: float, scale: Scale) -> int:
    """Replay rounds for a measured phase of ``--seconds``.

    A fixed function of the argument, never of how fast the program ran:
    both commits of a comparison replay the same number of rounds, so
    the minimum is taken over equally many samples on each side.
    """
    if scale.name != "record":
        return rounds_at_run_seconds
    return max(MIN_ROUNDS, round(rounds_at_run_seconds * seconds / RUN_SECONDS))


def make_tables(seed: int, n_tables: int) -> list[Table]:
    return make_nyc_like_collection(
        n_tables=n_tables,
        seed=seed,
        key_universe=KEY_UNIVERSE,
        key_fraction_range=KEY_FRACTION_RANGE,
    ).tables


def has_pairs_as_csv(table: Table) -> bool:
    """False for zip-code-keyed tables: ``read_csv`` types an all-digit
    key column as numeric, so read back from a file such a table has no
    ⟨key, value⟩ pair and a churn step on it would index nothing
    (``table.files_without_pairs`` guards that this stays 0)."""
    return "zips_key" not in table.column_names


def repeats_keys(table: Table) -> bool:
    keys = table.categorical(table.categorical_names()[0]).values
    return len(set(keys)) < len(keys)


def _shape(table: Table) -> tuple[tuple, int]:
    """What a table costs the program, as (stratum, size): its key
    domain, whether keys repeat, its numeric column count — and its
    row count."""
    key = table.categorical_names()[0]
    return (key, repeats_keys(table), len(table.numeric_names())), len(table)


def _head(table: Table, rows: int) -> Table:
    """The first ``rows`` rows of ``table``. The generator shuffles a
    table's rows, so its head is a uniform sample of them."""
    if len(table) <= rows:
        return table
    columns = [
        type(column)(column.name, column.values[:rows])
        for column in map(table.column, table.column_names)
    ]
    return Table(table.name, columns)


def shaped_tables(seed: int, count: int, keep=None) -> list[Table]:
    """``count`` tables generated from ``seed``, shaped like the
    reference seed's.

    Table sizes are heavy-tailed, so 100-odd tables drawn afresh per seed
    give a different size mix each time, and latency percentiles that
    differ by tens of percent between seeds for that reason alone. The
    op list's *shape* is therefore fixed: slot ``i`` takes, from a pool
    generated from ``seed``, the smallest unused table of the same
    stratum as the reference seed's ``i``-th table that has at least as
    many rows, cut to exactly that many (the largest one left, uncut,
    where the pool holds none that long). Cut, not merely nearest: big
    tables are few, the nearest one is up to 2.6x off, and then the
    operations around the 90th percentile change places between seeds.
    Keys, values, correlations and names all still come from ``seed``.
    ``keep`` filters both sides (it must pass at least half the tables).
    """
    generate = count if keep is None else 2 * count
    reference = list(filter(keep, make_tables(REFERENCE_SEED, generate)))
    pool: dict[tuple, list[tuple[int, Table]]] = {}
    for table in filter(keep, make_tables(seed, POOL_FACTOR * generate)):
        stratum, size = _shape(table)
        pool.setdefault(stratum, []).append((size, table))
    if len(reference) < count:
        raise ValueError(f"reference seed gives {len(reference)} tables, need {count}")

    def take(stratum: tuple, size: int) -> Table:
        # Same stratum if any table of it is left; else relax the column
        # count, then the repeats, before giving up on the key domain.
        for level in (3, 2, 1):
            matches = sorted(
                # long enough before too short, then the nearest
                (have < size, abs(have - size), other, j)
                for other, items in pool.items()
                if other[:level] == stratum[:level]
                for j, (have, _) in enumerate(items)
            )
            for _, _, other, j in matches:
                cut = _head(pool[other][j][1], size)
                # a head that lost its repeated keys is another stratum
                if _shape(cut)[0] == other:
                    del pool[other][j]
                    return cut
        raise ValueError(f"seed {seed}: no table left in key domain {stratum[0]}")

    # Longest slot first: whatever is long enough for it is long enough
    # for every later one, so no slot takes a table another one needed.
    shapes = [_shape(slot) for slot in reference[:count]]
    tables: list = [None] * count
    for i in sorted(range(count), key=lambda i: -shapes[i][1]):
        tables[i] = take(*shapes[i])
    return tables


def query_refs(tables: list[Table], count: int) -> list[tuple[Table, ColumnPair]]:
    """The first ``count`` column pairs of the held-out tables, in order."""
    refs = [(t, pair) for t in tables for pair in t.column_pairs()]
    if len(refs) < count:
        raise ValueError(
            f"held-out tables give {len(refs)} column pairs, need {count}"
        )
    return refs[:count]


def build_catalog(tables: list[Table]) -> SketchCatalog:
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
    catalog.add_tables(tables)
    catalog.frozen_postings()
    return catalog


def write_query_catalog(
    refs: list[tuple[Table, ColumnPair]], path: Path
) -> list[str]:
    """Sketch the query pairs under the corpus configuration and save
    them as a snapshot the runner loads; returns the ids in op order."""
    catalog = SketchCatalog(sketch_size=SKETCH_SIZE)
    ids = [catalog.add_column_pair(table, pair) for table, pair in refs]
    catalog.frozen_postings()
    catalog.save(path)
    return ids


def write_sharded(catalog: SketchCatalog, n_shards: int, directory: Path) -> None:
    """The same sketches, hash-placed over ``n_shards`` arena shards."""
    sharded = ShardedCatalog(n_shards, sketch_size=SKETCH_SIZE)
    sharded.add_sketches((sid, catalog.get(sid)) for sid in catalog)
    sharded.compact()
    sharded.save(directory, layout="arena")


def request_body(table: Table, pair: ColumnPair, **extra) -> bytes:
    """A ``POST /query`` body carrying the raw column pair (strict JSON:
    a missing numeric cell travels as ``null``)."""
    keys, values = table.pair_arrays(pair)
    payload = {
        "keys": keys.tolist(),
        "values": [None if math.isnan(v) else v for v in values.tolist()],
        "name": pair.pair_id,
        **extra,
    }
    return json.dumps(payload).encode()


def write_csvs(tables: list[Table], directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in tables:
        path = directory / f"{table.name}.csv"
        write_csv(table, path)
        paths.append(str(path))
    return paths


def spans_path(scale: Scale, work: Path, workload: str) -> Path:
    """Where a traced run writes its span log: beside the work
    directories, where it outlives the run — unless the run is only a
    reduced copy filling in another workload's layers."""
    keep = scale.name == "record"
    return (work.parent if keep else work) / f"spans-{workload}.jsonl"


def directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())
