"""Column type inference (the Tablesaw stand-in).

The paper parses open-data CSV files with the Tablesaw Java library to
"automatically parse and detect the basic data types for each column"
(Section 5.1). Join-correlation queries only care about two roles:
*categorical* columns (join-key candidates) and *numeric* columns
(correlation candidates), so the detector classifies each column into
``NUMERIC``, ``CATEGORICAL`` or ``UNSUPPORTED`` (e.g. empty / all-missing).

Rules, applied to a sample of non-missing cell strings:

* every cell parses as a float → ``NUMERIC``;
* otherwise → ``CATEGORICAL`` (dates, zip codes with letters, free text —
  all are legitimate join keys; no need to distinguish);
* integer-looking columns with *very few* distinct values relative to the
  row count can be forced categorical via ``categorical_threshold`` — this
  mirrors how id-like numeric codes (zip codes, precinct numbers) act as
  join keys in open data.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

#: Strings treated as missing cells, lower-cased.
MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "-", "--"})


class ColumnType(enum.Enum):
    """The column roles the query model distinguishes."""

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    UNSUPPORTED = "unsupported"


def is_missing(cell: str) -> bool:
    """True when a raw cell string denotes a missing value."""
    return cell.strip().lower() in MISSING_TOKENS


def try_parse_float(cell: str) -> float | None:
    """Parse a cell as a float, tolerating thousands separators and $.

    Returns None when the cell is not numeric. Currency symbols and comma
    grouping appear throughout the World Bank Finances data, so ``$1,234.50``
    parses as 1234.5.
    """
    text = cell.strip()
    if not text:
        return None
    if text.startswith("$"):
        text = text[1:]
    if "," in text:
        text = text.replace(",", "")
    try:
        value = float(text)
    except ValueError:
        return None
    if math.isinf(value):
        return None
    return value


def infer_column_type(
    cells: Sequence[str] | Iterable[str],
    *,
    sample_limit: int = 1000,
    categorical_threshold: float = 0.0,
) -> ColumnType:
    """Infer the type of a column from its raw cell strings.

    Args:
        cells: raw cell strings (header excluded).
        sample_limit: inspect at most this many non-missing cells.
        categorical_threshold: when > 0, a numeric column whose distinct
            ratio (distinct / inspected) is at or below the threshold is
            classified categorical (id-code heuristic). 0 disables it.
    """
    inspected = 0
    distinct: set[str] = set()
    for cell in cells:
        if inspected >= sample_limit:
            break
        if is_missing(cell):
            continue
        if try_parse_float(cell) is None:
            return ColumnType.CATEGORICAL
        inspected += 1
        distinct.add(cell.strip())

    if inspected == 0:
        return ColumnType.UNSUPPORTED
    if (
        categorical_threshold > 0
        and len(distinct) / inspected <= categorical_threshold
    ):
        return ColumnType.CATEGORICAL
    return ColumnType.NUMERIC
