"""Ingest parity: the columnar CSV reader against the per-cell oracle.

``read_csv_text`` tokenizes quote-free rectangular text with ``str.split``
and finishes each column in bulk passes; ``csv_reader_oracle`` does it the
way the definitions read — ``csv.reader``, then ``is_missing`` /
``try_parse_float`` one cell at a time. Whatever the text, the two must
agree: identical tables (floats bit for bit) or the same error with the
same message and line number.
"""

import csv

import pytest
from hypothesis import given, settings, strategies as st

from csv_reader_oracle import assert_tables_identical, read_csv_text_oracle
from repro.table.csv_io import read_csv_text
from repro.table.types import ColumnType

# Cells chosen for where ``float``, ``try_parse_float`` and ``is_missing``
# part ways, plus quoted fields csv.reader alone may tokenize.
CELLS = [
    "", "1", "2.5", "-3e2", "+4", "1.", ".5", " 7 ", "\t5", "1_000", "１２",
    "$1,234.50", "$5", "1,234", "nan", "NaN", " nan", "-nan", "+nan",
    "inf", "-inf", "Infinity", "1e400", "-1e400",
    "NA", " NA ", "na", "n/a", "N/A", "null", "None", "-", "--", " - ",
    "abc", "a b", " padded ", "é", "日本", "0x10", "1e", "x\x0by", "a\x00b",
    '"a,b"', '"line1\nline2"', '"line1\r\nline2"', '"say ""hi"""', '"7"',
    '" NA "', 'mid"quote', '""',
]
HEADERS = ["k", "x", " x ", "x.1", "value", "", "K", '"q,h"', "é"]
TERMINATORS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    delimiter = draw(st.sampled_from([",", ",", ";", "\t", "|"]))
    cell = st.sampled_from(CELLS)
    # Mostly one kind of cell per column, so columns do come out numeric.
    column_cells = [
        draw(st.one_of(cell, st.sampled_from(["1", "2.5", "", "-3e2", "nan"])))
        for _ in range(width)
    ]
    n_rows = draw(st.integers(min_value=0, max_value=12))
    lines = [delimiter.join(draw(st.sampled_from(HEADERS)) for _ in range(width))]
    for _ in range(n_rows):
        shape = draw(st.integers(min_value=0, max_value=39))
        if shape in (0, 3):
            lines.append("")  # blank line
            continue
        row = [
            draw(cell) if draw(st.booleans()) else column_cells[i]
            for i in range(width)
        ]
        if shape == 1:
            row.append(draw(cell))  # ragged: one field too many
        elif shape == 2 and width > 1:
            row.pop()  # ragged: one too few
        lines.append(delimiter.join(row))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        terminators = [draw(st.sampled_from(TERMINATORS)) for _ in lines]
    else:
        terminators = [draw(st.sampled_from(TERMINATORS[:2]))] * len(lines)
    if draw(st.booleans()):
        terminators[-1] = ""  # no newline at end of file
    text = "".join(line + end for line, end in zip(lines, terminators))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        text = "\ufeff" + text
    threshold = draw(st.sampled_from([0.0, 0.0, 0.5, 1.0]))
    return text, delimiter, threshold


def _both(text, **kwargs):
    try:
        expected = read_csv_text_oracle(text, "t.csv", **kwargs)
    except (ValueError, csv.Error) as exc:
        with pytest.raises(type(exc)) as caught:
            read_csv_text(text, "t.csv", **kwargs)
        assert str(caught.value) == str(exc)
        return None
    got = read_csv_text(text, "t.csv", **kwargs)
    assert_tables_identical(got, expected)
    return got


@given(case=csv_texts())
@settings(max_examples=600, deadline=None)
def test_read_csv_text_matches_per_cell_oracle(case):
    text, delimiter, threshold = case
    _both(text, delimiter=delimiter, categorical_threshold=threshold)


NAMED_INPUTS = {
    "empty": "",
    "one-newline": "\n",
    # the header is that blank first row
    "blank-first-line": "\n\nk,x\na,1\n",
    # one column: blank lines are skipped rows, not empty cells
    "one-column-blank-lines": "k\n\na\n\nb\n",
    "crlf-blank-line": "k,x\r\na,1\r\n\r\nb,2\r\n",
    # classic Mac line endings: a bare \r ends a line, as in a file
    # opened with newline=""
    "bare-cr": "k,x\ra,1\rb,2\r",
    "mixed-terminators": "k,x\na,1\r\nb,2\n",
    "ragged-line-3": "k,x\na,1\nb\nc,3\n",
    # blank lines count: logical row 4
    "ragged-after-blank-lines": "k,x\n\n\na,1,2\n",
    "ragged-after-quoted-newline": 'k,x\n"a\nb",1\nc,2,3\n',
    "duplicate-and-padded-headers": "k,x,x, x \na,1,2,3\n",
    "padded-cells": " k , x \n a , 1 \n",
    "currency-splits-on-comma": "k,x\na,$1,234.50\n",
    "quoted-currency": 'k,x\na,"$1,234.50"\nb,"1,000"\n',
    "padded-missing-token": "k,x\na, NA \nb,1\n",
    "upper-case-nan": "k,x\na,NaN\nb,1\n",
    # all missing: the column is dropped
    "all-nan": "k,x\na,nan\nb,nan\n",
    # not a missing token: a numeric column of NaNs
    "all-minus-nan": "k,x\na,-nan\nb,-nan\n",
    "minus-nan-among-values": "k,x\na,-nan\nb,nan\nc,1\n",
    # an infinity among the inspected cells makes the column categorical
    "inf": "k,x\na,inf\nb,1\n",
    "overflowing-exponent": "k,x\na,1e400\nb,1\n",
    "underscore-and-fullwidth-digits": "k,x\na,1_000\nb,１２\n",
    "all-empty-cells": "k,x\n,\n,\n",
    "header-only": "k\n",
    "header-only-no-newline": "k,x",
    "bom": "\ufeffk,x\na,1\n",
    "bom-before-quoted-header": '\ufeff"k",x\na,1\n',
    # only one mark is dropped
    "two-boms": "\ufeff\ufeffk,x\na,1\n",
}


@pytest.mark.parametrize("name", NAMED_INPUTS)
def test_named_inputs_match_oracle(name):
    _both(NAMED_INPUTS[name])


def test_type_inference_still_inspects_only_the_first_thousand():
    """Cells past the inspected prefix never change the type: text or an
    infinity there is a missing value of a numeric column."""
    body = "".join(f"k{i},{i}\n" for i in range(1000))
    for late in ("abc", "inf", "$7", " NA "):
        table = _both("k,x\n" + body + f"late,{late}\n")
        assert table.column("x").type is ColumnType.NUMERIC
    early = _both("k,x\nfirst,inf\n" + body)
    assert early.column("x").type is ColumnType.CATEGORICAL


def test_oversized_field_is_csv_readers_call():
    """A line past ``csv.field_size_limit()`` goes to ``csv.reader``,
    whose limit and error wording apply, raised as the ``ValueError``
    every malformed file raises, at its line."""
    big = "y" * (csv.field_size_limit() + 1)
    with pytest.raises(ValueError, match="line 2: field larger than field limit"):
        read_csv_text(f"k,x\n{big},1\n", "t.csv")
    _both(f"k,x\n{'y' * 1000},1\n")


@pytest.mark.parametrize(
    "delimiter",
    ['"', "\n", "\r", ";;", ""],
    ids=["quote", "newline", "carriage-return", "two-characters", "empty"],
)
def test_delimiters_csv_refuses_are_still_refused(delimiter):
    try:
        read_csv_text_oracle("k;;x\na;;1\n", "t.csv", delimiter=delimiter)
    except (TypeError, ValueError, csv.Error) as exc:
        with pytest.raises(type(exc)):
            read_csv_text("k;;x\na;;1\n", "t.csv", delimiter=delimiter)
    else:
        _both("k;;x\na;;1\n", delimiter=delimiter)
