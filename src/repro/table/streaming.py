"""Streaming sketch construction from CSV files.

The motivating setting of the paper is data too large to download and
join; the sketches themselves only ever need one pass and O(sketch size)
memory. This module closes the loop for CSV sources: build every
⟨categorical, numeric⟩ column-pair sketch of a file *without
materializing the table* — type inference runs on a buffered prefix,
then rows stream through the sketches one at a time.

For files smaller than the prefix buffer the result is identical to
``read_csv`` + ``SketchCatalog.add_table``; for larger files memory stays
constant where the eager path grows linearly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.table.csv_io import unique_header
from repro.table.types import ColumnType, infer_column_type, is_missing, try_parse_float


def _sniff_types(
    header: Sequence[str],
    prefix_rows: list[list[str]],
    categorical_threshold: float,
) -> list[ColumnType]:
    types = []
    for i, _name in enumerate(header):
        cells = [row[i] for row in prefix_rows]
        types.append(
            infer_column_type(cells, categorical_threshold=categorical_threshold)
        )
    return types


def stream_sketch_csv(
    path: str | Path,
    sketch_size: int,
    *,
    aggregate: str = "mean",
    hasher: KeyHasher | None = None,
    delimiter: str = ",",
    type_inference_rows: int = 1000,
    categorical_threshold: float = 0.0,
    encoding: str = "utf-8",
) -> dict[str, CorrelationSketch]:
    """Build all column-pair sketches of a CSV file in one streaming pass.

    Args:
        path: CSV file with a header row.
        sketch_size: bottom-``n`` size for every sketch.
        aggregate: streaming aggregate for repeated keys.
        hasher: hashing scheme (catalog-wide).
        delimiter: field separator.
        type_inference_rows: rows buffered for type sniffing before
            streaming begins. Memory usage is O(buffer + sketches).
        categorical_threshold: id-code heuristic for type inference.
        encoding: file encoding.

    Returns:
        ``{pair_id: sketch}`` with ids of the form
        ``"<file>::<key>-><value>"`` matching ``ColumnPair.pair_id``.

    Raises:
        ValueError: on empty files or rows with the wrong width.
    """
    path = Path(path)
    if hasher is None:
        hasher = KeyHasher()

    with open(path, encoding=encoding, newline="") as f:
        if f.read(1) != "\ufeff":  # a byte-order mark is not part of the header
            f.seek(0)
        reader = csv.reader(f, delimiter=delimiter)
        try:
            header = unique_header(next(reader))
        except StopIteration:
            raise ValueError(f"CSV {path.name!r} is empty") from None
        width = len(header)

        prefix: list[list[str]] = []
        for row in reader:
            if not row:
                continue  # blank line — common in hand-edited CSV files
            if len(row) != width:
                raise ValueError(
                    f"CSV {path.name!r} line {reader.line_num}: expected "
                    f"{width} fields, got {len(row)}"
                )
            prefix.append(row)
            if len(prefix) >= type_inference_rows:
                break

        types = _sniff_types(header, prefix, categorical_threshold)
        key_cols = [i for i, t in enumerate(types) if t is ColumnType.CATEGORICAL]
        value_cols = [i for i, t in enumerate(types) if t is ColumnType.NUMERIC]

        sketches: dict[str, CorrelationSketch] = {}
        layout: list[tuple[int, int, CorrelationSketch]] = []
        for ki in key_cols:
            for vi in value_cols:
                pair_id = f"{path.name}::{header[ki]}->{header[vi]}"
                sketch = CorrelationSketch(
                    sketch_size, aggregate=aggregate, hasher=hasher, name=pair_id
                )
                sketches[pair_id] = sketch
                layout.append((ki, vi, sketch))

        if not layout:
            return {}

        def feed(row: list[str]) -> None:
            for ki, vi, sketch in layout:
                key_cell = row[ki]
                if is_missing(key_cell):
                    continue
                value = try_parse_float(row[vi])
                if value is None:
                    value = math.nan
                sketch.update(key_cell.strip(), value)

        for row in prefix:
            feed(row)
        # Error positions come from reader.line_num — the *physical* line
        # of the last row parsed. Deriving them from the logical row count
        # (enumerate over the reader seeded with len(prefix)) undercounts
        # whenever blank lines were skipped inside the prefix region
        # (blank rows never enter `prefix` but do advance the file), and
        # whenever a quoted field spans multiple lines.
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ValueError(
                    f"CSV {path.name!r} line {reader.line_num}: expected "
                    f"{width} fields, got {len(row)}"
                )
            feed(row)
    return sketches


def iter_csv_rows(
    path: str | Path, *, delimiter: str = ",", encoding: str = "utf-8"
) -> Iterator[list[str]]:
    """Yield raw CSV body rows one at a time (header skipped)."""
    with open(Path(path), encoding=encoding, newline="") as f:
        reader = csv.reader(f, delimiter=delimiter)
        next(reader, None)
        yield from reader
