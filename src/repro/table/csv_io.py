"""CSV reading with automatic column-type detection.

Stand-in for the Tablesaw parsing step of Section 5.1: datasets arrive as
"plain CSV text files" and column types are detected automatically. The
text is tokenized once, transposed, and each column is finished in one
C-level pass; :mod:`repro.table.types` stays the definition of what a
cell means, and any column a bulk pass cannot vouch for is handed to it
cell by cell. Produces a :class:`~repro.table.table.Table`.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.table.column import CategoricalColumn, Column, NumericColumn
from repro.table.table import Table
from repro.table.types import (
    MISSING_TOKENS,
    ColumnType,
    infer_column_type,
    is_missing,
    try_parse_float,
)

#: The missing tokens exactly as ``is_missing`` spells them, rewritten to
#: a cell ``float`` reads as NaN.
_MISSING_AS_NAN = dict.fromkeys(MISSING_TOKENS, "nan")


def unique_header(raw: Sequence[str]) -> list[str]:
    """Column names of a header row: stripped, and duplicates
    disambiguated with ``.N`` suffixes the way spreadsheet tools do,
    skipping a suffix another header already uses (``x, x, x.1`` →
    ``x, x.2, x.1``)."""
    header = [h.strip() for h in raw]
    if len(set(header)) != len(header):
        taken = set(header)
        count: dict[str, int] = {}
        unique = []
        for h in header:
            if h not in count:
                count[h] = 0
                unique.append(h)
                continue
            name = h
            while name in taken:
                count[h] += 1
                name = f"{h}.{count[h]}"
            taken.add(name)
            unique.append(name)
        header = unique
    return header


def _split_columns(
    text: str, delimiter: str
) -> tuple[list[str], list[list[str]]] | None:
    """``(header, column cells)`` of quote-free rectangular text, by
    ``str.split`` and a stride per column.

    Returns None whenever ``csv.reader`` could read the text any other
    way — a quote character, a bare ``\\r`` or mixed line endings, a blank
    first line, lines with differing delimiter counts, a line past the
    field size limit, a delimiter ``csv`` itself would refuse — so that
    it stays the one definition of the format and the one source of
    format errors.
    """
    if len(delimiter) != 1 or delimiter in '"\r\n' or '"' in text:
        return None
    lines = text.split("\r\n" if "\r\n" in text else "\n")
    if not lines[0]:
        return None
    lines = list(filter(None, lines))  # csv.reader yields [] for a blank line
    delimiters = lines[0].count(delimiter)
    if set(map(str.count, lines, repeat(delimiter))) != {delimiters}:
        return None
    if len(max(lines, key=len)) > csv.field_size_limit():
        return None
    flat = delimiter.join(lines)
    if "\r" in flat or "\n" in flat:
        return None
    cells = flat.split(delimiter)
    width = delimiters + 1
    return cells[:width], [cells[width + i :: width] for i in range(width)]


def csv_rows(reader, name: str) -> Iterator[list[str]]:
    """``reader``'s rows; a line ``csv`` cannot parse (a field past
    ``csv.field_size_limit()``, …) raises ``ValueError`` at its line, so
    callers catch one exception type for every malformed file."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"CSV {name!r} line {reader.line_num}: {exc}") from None


def _reader_columns(
    text: str, name: str, delimiter: str
) -> tuple[list[str], list[Sequence[str]]]:
    """``(header, column cells)`` through ``csv.reader``, which sees the
    text as it sees a file opened with ``newline=""``: a line feed, a
    carriage return + line feed and a bare carriage return each end a
    line."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    rows = list(csv_rows(reader, name))
    if not rows:
        raise ValueError(f"CSV {name!r} is empty")
    width = len(rows[0])
    if not set(map(len, rows)) <= {width, 0}:
        for line_no, row in enumerate(rows[1:], start=2):
            if row and len(row) != width:
                raise ValueError(
                    f"CSV {name!r} line {line_no}: expected {width} fields, "
                    f"got {len(row)}"
                )
    # Blank lines — common in hand-edited CSV files — are skipped.
    body = filter(None, rows[1:])
    return rows[0], list(zip(*body)) or [()] * width


def _float_map(cells: Sequence[str]) -> np.ndarray:
    """``float`` of every cell after the exact-token missing map (raises
    ``ValueError`` at the first cell it cannot read as written).

    ``float`` and :func:`try_parse_float` agree on every cell ``float``
    accepts, except that the latter rejects infinities; ``$``, thousands
    separators, padded or upper-case missing tokens and text are left to
    the per-cell definitions.
    """
    return np.fromiter(
        map(float, map(_MISSING_AS_NAN.get, cells, cells)),
        dtype=np.float64,
        count=len(cells),
    )


def _parse_numeric(cells: Sequence[str]) -> np.ndarray | None:
    """The column as float64 when ``float`` reads every cell as written,
    none is infinite and one is finite (else the type is the per-cell
    definitions' question)."""
    try:
        values = _float_map(cells)
    except ValueError:
        return None
    if np.isinf(values).any() or np.isnan(values).all():
        return None
    return values


def numeric_cells(cells: Sequence[str]) -> np.ndarray:
    """Cells of a numeric column as float64: each is what
    :func:`try_parse_float` reads, NaN where it reads nothing."""
    try:
        values = _float_map(cells)
    except ValueError:
        return np.fromiter(
            (math.nan if (v := try_parse_float(c)) is None else v for c in cells),
            dtype=np.float64,
            count=len(cells),
        )
    values[np.isinf(values)] = math.nan
    return values


def key_cells(cells: Sequence[str]) -> list[str | None]:
    """Cells of a categorical column: stripped, None where missing."""
    stripped = list(map(str.strip, cells))
    if MISSING_TOKENS.isdisjoint(map(str.lower, stripped)):
        return stripped
    return [None if is_missing(c) else c for c in stripped]


def _build_column(
    name: str, cells: Sequence[str], categorical_threshold: float
) -> Column | None:
    values = _parse_numeric(cells)
    if values is not None and categorical_threshold <= 0:
        return NumericColumn(name, values)
    ctype = infer_column_type(cells, categorical_threshold=categorical_threshold)
    if ctype is ColumnType.UNSUPPORTED:
        return None
    if ctype is ColumnType.NUMERIC:
        return NumericColumn(name, numeric_cells(cells) if values is None else values)
    return CategoricalColumn(name, key_cells(cells))


def read_csv_text(
    text: str,
    name: str,
    *,
    delimiter: str = ",",
    categorical_threshold: float = 0.0,
) -> Table:
    """Parse CSV text into a typed :class:`Table`.

    Args:
        text: full CSV content including the header row; one leading
            byte-order mark is dropped.
        name: name for the resulting table.
        delimiter: field separator.
        categorical_threshold: forwarded to type inference — numeric-looking
            columns with at most this distinct ratio become categorical
            (id-code heuristic; 0 disables).

    Raises:
        ValueError: on empty input, rows with inconsistent width or a line
            ``csv.reader`` refuses.
    """
    text = text.removeprefix("\ufeff")
    raw_header, columns_cells = _split_columns(text, delimiter) or _reader_columns(
        text, name, delimiter
    )
    columns: list[Column] = []
    for col_name, cells in zip(unique_header(raw_header), columns_cells):
        built = _build_column(col_name, cells, categorical_threshold)
        if built is not None:
            columns.append(built)
    return Table(name, columns)


def read_csv(
    path: str | Path,
    *,
    delimiter: str = ",",
    categorical_threshold: float = 0.0,
    encoding: str = "utf-8",
) -> Table:
    """Read a CSV file from disk into a typed :class:`Table`."""
    path = Path(path)
    with open(path, encoding=encoding, newline="") as f:
        text = f.read()
    return read_csv_text(
        text,
        path.name,
        delimiter=delimiter,
        categorical_threshold=categorical_threshold,
    )


def write_csv(table: Table, path: str | Path, *, delimiter: str = ",") -> None:
    """Write a :class:`Table` to disk (NaN / None serialize as empty)."""
    path = Path(path)
    names = table.column_names
    cols = [table.column(n) for n in names]
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, delimiter=delimiter)
        writer.writerow(names)
        for i in range(len(table)):
            row = []
            for col in cols:
                if isinstance(col, NumericColumn):
                    v = col.values[i]
                    row.append("" if math.isnan(v) else repr(float(v)))
                else:
                    v = col.values[i]
                    row.append("" if v is None else v)
            writer.writerow(row)
