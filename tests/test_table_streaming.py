"""Tests for streaming sketch construction from CSV files."""

import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.table.streaming as streaming
from repro.hashing import KeyHasher
from repro.index.catalog import SketchCatalog
from repro.table.csv_io import read_csv, unique_header
from repro.table.streaming import stream_sketch_csv
from repro.table.types import is_missing, try_parse_float
from row_sketch_oracle import pair_rows, row_sketch
from test_ingest_parity import AGGREGATES, assert_full_state_equal
from test_table_csv_parity import csv_texts


@pytest.fixture()
def csv_file(tmp_path):
    rng = np.random.default_rng(0)
    n = 3000
    lines = ["date,zone,pickups,fares"]
    for i in range(n):
        date = f"2021-{1 + i // 28 % 12:02d}-{1 + i % 28:02d}"
        zone = f"z{i % 40}"
        pickups = f"{rng.normal(100, 20):.3f}"
        fares = f"{rng.normal(500, 90):.3f}" if i % 17 else ""
        lines.append(f"{date},{zone},{pickups},{fares}")
    path = tmp_path / "taxi.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_streaming_matches_eager_path(csv_file, monkeypatch):
    """Streaming sketches must equal, in full state, the row-at-a-time
    build over the loaded table's rows — here through the 1 000-row
    prefix and 32 blocks of 64 rows, each block boundary a batch boundary
    of ``update_array`` (``fares`` has holes)."""
    monkeypatch.setattr(streaming, "BLOCK_ROWS", 64)
    streamed = stream_sketch_csv(csv_file, 64)
    table = read_csv(csv_file)
    for pair in table.column_pairs():
        expected = row_sketch(pair_rows(table, pair), 64, name=pair.pair_id)
        assert_full_state_equal(streamed[pair.pair_id], expected)


def test_all_pairs_present(csv_file):
    streamed = stream_sketch_csv(csv_file, 32)
    # 2 categorical (date, zone) x 2 numeric (pickups, fares).
    assert len(streamed) == 4
    assert "taxi.csv::date->pickups" in streamed
    assert "taxi.csv::zone->fares" in streamed


def test_small_prefix_buffer_still_correct(csv_file):
    small = stream_sketch_csv(csv_file, 32, type_inference_rows=10)
    full = stream_sketch_csv(csv_file, 32, type_inference_rows=10_000)
    for pair_id, sketch in small.items():
        assert sketch.key_hashes() == full[pair_id].key_hashes()


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        stream_sketch_csv(path, 16)


def test_header_only_yields_empty_sketches(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("k,v\n")
    # No rows -> no type information -> no sketchable pairs.
    assert stream_sketch_csv(path, 16) == {}


def test_ragged_row_in_prefix_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="expected 2 fields"):
        stream_sketch_csv(path, 16)


def test_ragged_row_after_prefix_rejected(tmp_path):
    rows = ["k,v"] + [f"a{i},1" for i in range(50)] + ["broken"]
    path = tmp_path / "bad2.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="fields"):
        stream_sketch_csv(path, 16, type_inference_rows=10)


def test_error_line_number_is_physical(tmp_path):
    """A ragged row is reported at its true file line (here 53: header +
    50 good rows + 1 trailing blank + the bad row)."""
    rows = ["k,v"] + [f"a{i},1" for i in range(50)] + ["", "broken"]
    path = tmp_path / "bad3.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 53"):
        stream_sketch_csv(path, 16, type_inference_rows=10)


def test_error_line_number_with_blank_lines_in_prefix(tmp_path):
    """Regression: blank lines inside the type-inference prefix advance
    the file but never enter the buffered prefix, so counting from
    ``len(prefix)`` undercounted every later error position. Here the
    bad row sits on physical line 9 (header + 5 rows + 2 blanks + 1)."""
    rows = ["k,v", "a,1", "", "b,2", "", "c,3", "d,4", "e,5", "broken"]
    path = tmp_path / "bad4.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 9"):
        stream_sketch_csv(path, 16, type_inference_rows=3)


def test_error_line_number_in_prefix_region(tmp_path):
    """Ragged rows inside the prefix region also report their line."""
    rows = ["k,v", "a,1", "", "broken,x,y"]
    path = tmp_path / "bad5.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="line 4"):
        stream_sketch_csv(path, 16)


def test_catalog_streaming_integration(csv_file, tmp_path):
    eager = SketchCatalog(sketch_size=64)
    eager.add_table(read_csv(csv_file))

    streaming = SketchCatalog(sketch_size=64)
    ids = streaming.add_csv_streaming(csv_file)
    assert sorted(ids) == sorted(eager)
    for sid in eager:
        assert streaming.get(sid).key_hashes() == eager.get(sid).key_hashes()


@pytest.mark.parametrize(
    "content, encoding, expected_ids",
    [
        # duplicate header names: both readers suffix the second one
        (
            "k,x,x\na,1,10\nb,2,20\nc,3,30\n",
            "utf-8",
            ["f.csv::k->x", "f.csv::k->x.1"],
        ),
        # a UTF-8 byte-order mark (Excel / World Bank exports) is not
        # part of the first header name
        ("k,x\na,1\nb,2\n", "utf-8-sig", ["f.csv::k->x"]),
        ('"k",x, x \na,1,5\nb,2,6\n', "utf-8-sig", ["f.csv::k->x", "f.csv::k->x.1"]),
        # the suffix a duplicate would take is another header's name: the
        # next free one (both readers used to make two "x.1" columns)
        (
            "x,x,x.1,k\n1,2,3,a\n4,5,6,b\n",
            "utf-8",
            ["f.csv::k->x", "f.csv::k->x.2", "f.csv::k->x.1"],
        ),
    ],
    ids=["duplicate-names", "bom", "bom-quoted-padded", "suffix-taken"],
)
def test_streaming_equals_eager_on_header_edge_cases(
    tmp_path, content, encoding, expected_ids
):
    """``stream_sketch_csv`` promises the ``read_csv`` + ``add_table``
    result for files shorter than the prefix: same pair ids, same
    sketches."""
    path = tmp_path / "f.csv"
    path.write_text(content, encoding=encoding)
    eager = SketchCatalog(sketch_size=8)
    assert eager.add_table(read_csv(path)) == expected_ids
    streamed = stream_sketch_csv(path, 8)
    assert list(streamed) == expected_ids
    for sid in expected_ids:
        assert streamed[sid].name == sid
        assert streamed[sid].rows_seen == eager.get(sid).rows_seen
        assert streamed[sid].entries() == eager.get(sid).entries()
        assert (streamed[sid].value_min, streamed[sid].value_max) == (
            eager.get(sid).value_min,
            eager.get(sid).value_max,
        )



# -- differential: any text, against the eager reader and the row feed --------
#
# ``csv_texts`` (the CSV parity suite's generator) draws quoted fields,
# blank lines, ragged rows, bare ``\r`` and mixed line endings, padded and
# duplicate headers, a byte-order mark, four delimiters and the cells where
# ``float``, ``try_parse_float`` and ``is_missing`` part ways.


def _written(tmp: str, text: str) -> Path:
    path = Path(tmp) / "t.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return path


def _outcome(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, type(exc)


@given(
    case=csv_texts(),
    n=st.integers(min_value=1, max_value=6),
    aggregate=st.sampled_from(AGGREGATES),
)
@settings(max_examples=100, deadline=None)
def test_short_files_equal_read_csv_add_table(case, n, aggregate):
    """A file shorter than the prefix is sketched exactly as ``read_csv``
    + ``add_table`` sketch it — same pair ids in the same order, every
    sketch in full state — or both refuse it."""
    text, delimiter, threshold = case
    hasher = KeyHasher(bits=64, seed=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = _written(tmp, text)
        streamed, stream_error = _outcome(
            lambda: stream_sketch_csv(
                path, n, aggregate=aggregate, hasher=hasher,
                delimiter=delimiter, categorical_threshold=threshold,
            )
        )
        catalog = SketchCatalog(sketch_size=n, aggregate=aggregate, hasher=hasher)
        ids, eager_error = _outcome(
            lambda: catalog.add_table(
                read_csv(path, delimiter=delimiter, categorical_threshold=threshold)
            )
        )
    assert stream_error == eager_error
    if eager_error is None:
        assert list(streamed) == ids
        for sid in ids:
            assert_full_state_equal(streamed[sid], catalog.get(sid))


@given(
    case=csv_texts(),
    prefix=st.integers(min_value=1, max_value=4),
    block=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=6),
    aggregate=st.sampled_from(AGGREGATES),
)
@settings(max_examples=100, deadline=None)
def test_blocks_equal_the_row_feed(case, prefix, block, n, aggregate):
    """Prefix and blocks of one to four rows: every sketch equals the
    row-at-a-time build over the file's rows in order — each row with a
    key offers ``(key.strip(), try_parse_float(value) or NaN)`` — in full
    state. (Which pairs exist is the prefix's type sniff, read off the
    result.)"""
    text, delimiter, threshold = case
    hasher = KeyHasher(bits=32, seed=4)
    with tempfile.TemporaryDirectory() as tmp:
        path = _written(tmp, text)
        with mock.patch.object(streaming, "BLOCK_ROWS", block):
            streamed, error = _outcome(
                lambda: stream_sketch_csv(
                    path, n, aggregate=aggregate, hasher=hasher,
                    delimiter=delimiter, type_inference_rows=prefix,
                    categorical_threshold=threshold,
                )
            )
        if error is not None:
            return
        with open(path, encoding="utf-8-sig", newline="") as f:
            reader = csv.reader(f, delimiter=delimiter)
            header = unique_header(next(reader, []))
            rows = [row for row in reader if row]
    columns = {
        f"t.csv::{key}->{value}": (k, v)
        for k, key in enumerate(header)
        for v, value in enumerate(header)
    }
    for sid, sketch in streamed.items():
        k, v = columns[sid]
        feed = (
            (row[k].strip(), math.nan if (x := try_parse_float(row[v])) is None else x)
            for row in rows
            if not is_missing(row[k])
        )
        expected = row_sketch(feed, n, aggregate=aggregate, hasher=hasher, name=sid)
        assert_full_state_equal(sketch, expected)
