"""Row-at-a-time reference for :func:`repro.table.csv_io.read_csv_text`.

The reader under ``src/`` finishes each column in bulk passes and
tokenizes quote-free rectangular text without ``csv.reader``; this module
is the definition those passes are held to. It tokenizes with
``csv.reader`` only, walks rows cell by cell, infers each column's type
with its own full walk over the first ``SAMPLE_LIMIT`` non-missing cells
and builds every value through :func:`repro.table.types.is_missing` /
:func:`repro.table.types.try_parse_float` — the single definition of what
a cell means. Not a test file: imported by bare name (see
``tests/README.md``, "Ingest parity").
"""

import csv
import io
import math

import numpy as np

from repro.table.column import CategoricalColumn, NumericColumn
from repro.table.table import Table
from repro.table.types import is_missing, try_parse_float

SAMPLE_LIMIT = 1000


def _column_kind(cells, categorical_threshold):
    inspected = numeric = 0
    distinct = set()
    for cell in cells:
        if inspected >= SAMPLE_LIMIT:
            break
        if is_missing(cell):
            continue
        inspected += 1
        distinct.add(cell.strip())
        if try_parse_float(cell) is not None:
            numeric += 1
    if inspected == 0:
        return None
    if numeric < inspected:
        return "categorical"
    if categorical_threshold > 0 and len(distinct) / inspected <= categorical_threshold:
        return "categorical"
    return "numeric"


def read_csv_text_oracle(text, name, *, delimiter=",", categorical_threshold=0.0):
    if text.startswith("\ufeff"):  # one byte-order mark is not content
        text = text[1:]
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ValueError(f"CSV {name!r} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"CSV {name!r} is empty")
    header = []
    names = [h.strip() for h in rows[0]]
    for i, h in enumerate(names):
        if h not in names[:i]:
            header.append(h)
            continue
        suffix = 1  # the first .N no other header uses
        while f"{h}.{suffix}" in names or f"{h}.{suffix}" in header:
            suffix += 1
        header.append(f"{h}.{suffix}")
    width = len(header)
    columns_cells = [[] for _ in range(width)]
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise ValueError(
                f"CSV {name!r} line {line_no}: expected {width} fields, "
                f"got {len(row)}"
            )
        for i, cell in enumerate(row):
            columns_cells[i].append(cell)

    columns = []
    for col_name, cells in zip(header, columns_cells):
        kind = _column_kind(cells, categorical_threshold)
        if kind == "numeric":
            values = np.empty(len(cells), dtype=np.float64)
            for i, cell in enumerate(cells):
                parsed = None if is_missing(cell) else try_parse_float(cell)
                values[i] = math.nan if parsed is None else parsed
            columns.append(NumericColumn(col_name, values))
        elif kind == "categorical":
            columns.append(
                CategoricalColumn(
                    col_name, [None if is_missing(c) else c.strip() for c in cells]
                )
            )
    return Table(name, columns)


def assert_tables_identical(got: Table, expected: Table) -> None:
    """Same name, columns, types and cells; floats bit for bit."""
    assert got.name == expected.name
    assert got.column_names == expected.column_names
    assert len(got) == len(expected)
    for column_name in expected.column_names:
        a, b = got.column(column_name), expected.column(column_name)
        assert type(a) is type(b), column_name
        if isinstance(b, NumericColumn):
            assert a.values.dtype == b.values.dtype == np.float64
            assert a.values.tobytes() == b.values.tobytes(), column_name
        else:
            assert a.values == b.values, column_name
