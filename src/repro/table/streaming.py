"""Streaming sketch construction from CSV files.

The motivating setting of the paper is data too large to download and
join; the sketches themselves only ever need one pass and O(sketch size)
memory. This module closes the loop for CSV sources: build every
⟨categorical, numeric⟩ column-pair sketch of a file *without
materializing the table*. Type inference runs on a buffered prefix; then
the rows are read in blocks, and each block's columns are parsed the way
``read_csv`` parses them and fed to every sketch through
:meth:`~repro.core.sketch.CorrelationSketch.update_array`, which lands on
the sketch the rows offered one at a time would build.

For files smaller than the prefix buffer the result is identical to
``read_csv`` + ``SketchCatalog.add_table``; for larger files memory stays
constant where the eager path grows linearly.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path
from typing import Iterator

from repro.core.sketch import CorrelationSketch
from repro.hashing import KeyHasher
from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.csv_io import csv_rows, key_cells, numeric_cells, unique_header
from repro.table.table import ColumnPair, Table
from repro.table.types import ColumnType, infer_column_type

#: Rows per block after the type-inference prefix (which is the first
#: block): large enough that the per-block array work dwarfs the Python
#: overhead, small enough to keep memory flat.
BLOCK_ROWS = 8192


def _blocks(
    rows: Iterator[list[str]], reader, name: str, width: int, first: int
) -> Iterator[list[list[str]]]:
    """The body ``rows`` in blocks: ``first`` rows, then ``BLOCK_ROWS`` each.

    Blank lines — common in hand-edited CSV files — are skipped. A row of
    the wrong width raises at its *physical* line, ``reader.line_num``:
    blank lines and quoted fields spanning lines advance the file without
    adding a row, so a row count would undercount.
    """
    block: list[list[str]] = []
    size = first
    for row in rows:
        if not row:
            continue
        if len(row) != width:
            raise ValueError(
                f"CSV {name!r} line {reader.line_num}: expected "
                f"{width} fields, got {len(row)}"
            )
        block.append(row)
        if len(block) >= size:
            yield block
            block, size = [], BLOCK_ROWS
    if block:
        yield block


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
            streaming begins. Memory usage is O(buffer + block + sketches).
        categorical_threshold: id-code heuristic for type inference.
        encoding: file encoding.

    Returns:
        ``{pair_id: sketch}`` with ids of the form
        ``"<file>::<key>-><value>"`` matching ``ColumnPair.pair_id``.

    Raises:
        ValueError: on empty files, rows with the wrong width or a line
            ``csv.reader`` refuses.
    """
    path = Path(path)
    if hasher is None:
        hasher = KeyHasher()

    with open(path, encoding=encoding, newline="") as f:
        if f.read(1) != "\ufeff":  # a byte-order mark is not part of the header
            f.seek(0)
        reader = csv.reader(f, delimiter=delimiter)
        rows = csv_rows(reader, path.name)
        try:
            header = unique_header(next(rows))
        except StopIteration:
            raise ValueError(f"CSV {path.name!r} is empty") from None
        blocks = _blocks(rows, reader, path.name, len(header), type_inference_rows)
        prefix = next(blocks, [])
        prefix_columns = list(zip(*prefix)) or [()] * len(header)
        types = [
            infer_column_type(cells, categorical_threshold=categorical_threshold)
            for cells in prefix_columns
        ]
        keys = [i for i, t in enumerate(types) if t is ColumnType.CATEGORICAL]
        values = [i for i, t in enumerate(types) if t is ColumnType.NUMERIC]
        if not keys or not values:
            return {}

        sketches = {
            pair_id: CorrelationSketch(
                sketch_size, aggregate=aggregate, hasher=hasher, name=pair_id
            )
            for pair_id in (
                ColumnPair(path.name, header[k], header[v]).pair_id
                for k in keys
                for v in values
            )
        }
        for columns in chain([prefix_columns], (list(zip(*b)) for b in blocks)):
            table = Table(
                path.name,
                [CategoricalColumn(header[i], key_cells(columns[i])) for i in keys]
                + [NumericColumn(header[i], numeric_cells(columns[i])) for i in values],
            )
            for pair in table.column_pairs():
                sketches[pair.pair_id].update_array(*table.pair_arrays(pair))
    return sketches
