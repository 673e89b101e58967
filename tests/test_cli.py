"""Tests for the repro-sketch command-line interface."""

import csv
import re
import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def portal(tmp_path):
    """A small CSV portal: query table + correlated + noise candidates."""
    rng = np.random.default_rng(0)
    n = 400
    dates = [f"2021-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(n)]
    signal = rng.standard_normal(n)

    def write(name, column, values):
        lines = [f"date,{column}"]
        lines += [f"{d},{v:.5f}" for d, v in zip(dates, values)]
        (tmp_path / name).write_text("\n".join(lines) + "\n")

    write("query.csv", "target", signal)
    write("good.csv", "feature", 0.9 * signal + 0.4 * rng.standard_normal(n))
    write("noise.csv", "junk", rng.standard_normal(n))
    return tmp_path


def _index(portal, tmp_path, extra=()):
    catalog = tmp_path / "catalog.json"
    rc = main(["index", str(portal), "-o", str(catalog), *extra])
    assert rc == 0
    return catalog


def _index_shards(portal, tmp_path, shards=3, extra=()):
    catalog_dir = tmp_path / "catalog-dir"
    rc = main(
        ["index", str(portal), "-o", str(catalog_dir),
         "--shards", str(shards), *extra]
    )
    assert rc == 0
    return catalog_dir


def test_index_creates_catalog(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path)
    assert catalog.exists()
    out = capsys.readouterr().out
    assert "indexed 3 column pairs" in out


def test_index_verbose_lists_files(portal, tmp_path, capsys):
    _index(portal, tmp_path, extra=["-v"])
    out = capsys.readouterr().out
    assert "good.csv" in out


def test_index_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["index", str(empty), "-o", str(tmp_path / "c.json")])
    assert rc == 1
    assert "no CSV files" in capsys.readouterr().err


def test_index_skips_a_file_csv_reader_refuses(portal, tmp_path, capsys):
    """A field past ``csv.field_size_limit()`` makes a junk file like any
    other: ``index`` skips it with a warning and indexes the rest, and
    ``estimate`` prints one line (both used to end in a ``csv.Error``
    traceback)."""
    big = "y" * (csv.field_size_limit() + 1)
    (portal / "zz_junk.csv").write_text(f"date,x\n{big},1\n")
    _index(portal, tmp_path)
    captured = capsys.readouterr()
    assert "indexed 3 column pairs" in captured.out
    assert "skipping zz_junk.csv: CSV 'zz_junk.csv' line 2: field larger" in captured.err
    rc = main(["estimate", str(portal / "zz_junk.csv"), str(portal / "good.csv")])
    assert rc == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_index_reads_classic_mac_line_endings(portal, tmp_path):
    """A bare ``\\r`` ends a line, as in any file ``csv`` reads with
    ``newline=""``: the same tables with ``\\r`` endings index to the same
    catalog, byte for byte (``read_csv`` used to refuse them)."""
    expected = _index(portal, tmp_path).read_bytes()
    for path in portal.glob("*.csv"):
        path.write_text(path.read_text().replace("\n", "\r"), newline="")
    (tmp_path / "mac").mkdir()
    assert _index(portal, tmp_path / "mac").read_bytes() == expected


def test_query_ranks_correlated_first(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(
        [
            "query",
            str(catalog),
            str(portal / "query.csv"),
            "--scorer",
            "rp",
            "-k",
            "3",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert lines[0].split()[1].startswith("good.csv")


def test_query_explicit_pair_selection(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(
        [
            "query", str(catalog), str(portal / "query.csv"),
            "--key", "date", "--value", "target", "--scorer", "rp",
        ]
    )
    assert rc == 0
    assert "query pair : query.csv::date->target" in capsys.readouterr().out


def test_query_unknown_pair_errors(portal, tmp_path):
    catalog = _index(portal, tmp_path)
    with pytest.raises(SystemExit, match="no pair"):
        main(["query", str(catalog), str(portal / "query.csv"), "--key", "zip"])


def test_estimate_between_two_csvs(portal, capsys):
    rc = main(
        ["estimate", str(portal / "query.csv"), str(portal / "good.csv")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "estimated correlation: +0.9" in out or "estimated correlation: +0.8" in out
    assert "sketch-join sample" in out


def test_estimate_with_spearman(portal, capsys):
    rc = main(
        [
            "estimate", str(portal / "query.csv"), str(portal / "good.csv"),
            "--estimator", "spearman",
        ]
    )
    assert rc == 0
    assert "(spearman)" in capsys.readouterr().out


def test_info_reports_statistics(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(["catalog", "info", str(catalog)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sketches     : 3" in out
    assert "sketch size  : 256" in out


def test_unknown_scorer_rejected(portal, tmp_path):
    catalog = _index(portal, tmp_path)
    with pytest.raises(SystemExit):
        main(["query", str(catalog), str(portal / "query.csv"), "--scorer", "magic"])


def test_query_min_overlap_prunes_everything(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(
        [
            "query", str(catalog), str(portal / "query.csv"),
            "--min-overlap", "1000000",
        ]
    )
    assert rc == 0
    assert "no joinable candidates found" in capsys.readouterr().out


def test_index_npz_output_and_catalog_info(portal, tmp_path, capsys):
    """The retired format is refused by name at every verb that could
    meet it — before any work, with a one-line error and nothing written
    or renamed — and `catalog info` reports format and on-disk bytes for
    the two formats that remain."""
    npz = tmp_path / "catalog.npz"
    assert main(["index", str(portal), "-o", str(npz)]) == 2
    assert not npz.exists()
    assert "retired .npz snapshot format" in capsys.readouterr().err

    npz.write_bytes(b"PK\x03\x04 whatever a zip of .npy members held")
    json_catalog = _index(portal, tmp_path)
    capsys.readouterr()
    for argv in (
        ["catalog", "info", str(npz)],
        ["catalog", "verify", str(npz)],
        ["query", str(npz), str(portal / "query.csv")],
        ["catalog", "compact", str(json_catalog), "-o", str(npz)],
        ["catalog", "convert", str(json_catalog), "-o", str(npz)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "retired .npz" in err
    assert sorted(p.name for p in tmp_path.glob("catalog.*")) == [
        "catalog.json", "catalog.npz"
    ]

    arena = tmp_path / "catalog.arena"
    assert main(["index", str(portal), "-o", str(arena)]) == 0
    capsys.readouterr()
    assert main(["catalog", "info", str(arena)]) == 0
    out = capsys.readouterr().out
    assert "format       : arena" in out
    assert "on-disk bytes:" in out
    assert "sketches     : 3" in out
    assert main(["catalog", "info", str(json_catalog)]) == 0
    assert "format       : json" in capsys.readouterr().out


def test_query_against_binary_catalog_matches_json(portal, tmp_path, capsys):
    arena = tmp_path / "catalog.arena"
    assert main(["index", str(portal), "-o", str(arena)]) == 0
    json_catalog = _index(portal, tmp_path)
    capsys.readouterr()

    def ranking(catalog):
        assert main(
            ["query", str(catalog), str(portal / "query.csv"), "--scorer", "rp"]
        ) == 0
        out = capsys.readouterr().out
        return [l.split() for l in out.splitlines() if l and l[0].isdigit()]

    assert ranking(arena) == ranking(json_catalog)


def test_query_profile_prints_phase_split(portal, tmp_path, capsys):
    """--profile renders the per-phase trace table, one line per
    top-level span of the query's trace."""
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(
        ["query", str(catalog), str(portal / "query.csv"), "--profile",
         "--scorer", "rp"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "profile    : retrieval" in out
    for phase in ("assemble", "score", "merge"):
        assert phase in out, f"missing phase line {phase!r}:\n{out}"
    assert "ms (" in out  # each line carries duration and share


def test_query_rng_mode_flag(portal, tmp_path, capsys):
    """Both rng modes run and rank the clearly-correlated candidate first."""
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    for mode in ("batched", "compat"):
        rc = main(
            ["query", str(catalog), str(portal / "query.csv"),
             "--scorer", "rb_cib", "--rng-mode", mode]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert lines[0].split()[1].startswith("good.csv"), mode
    with pytest.raises(SystemExit):
        main(["query", str(catalog), str(portal / "query.csv"),
              "--rng-mode", "magic"])


def test_query_lsh_backend_matches_inverted(portal, tmp_path, capsys):
    """--retrieval lsh runs the approximate backend; on this tiny
    full-overlap portal its recall is 1, so rankings match exactly."""
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    query = ["query", str(catalog), str(portal / "query.csv"), "--scorer", "rp"]

    def ranking(extra):
        assert main(query + extra) == 0
        out = capsys.readouterr().out
        return out, [l.split() for l in out.splitlines() if l and l[0].isdigit()]

    inverted_out, inverted_ranked = ranking([])
    assert "retrieval  : inverted" in inverted_out
    lsh_out, lsh_ranked = ranking(["--retrieval", "lsh", "--bands", "32", "--rows", "2"])
    assert "retrieval  : lsh" in lsh_out
    assert lsh_ranked == inverted_ranked


def test_query_queries_dir_batch(portal, tmp_path, capsys):
    """--queries-dir evaluates every pair in the directory as one batch
    and reports per-query result blocks."""
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(
        ["query", str(catalog), "--queries-dir", str(portal), "--scorer", "rp", "-k", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "queries    : 3 column pair(s)" in out
    assert "batch time :" in out
    # The query pair's own block must rank its planted match first.
    block = out[out.index("query.csv::date->target"):]
    first_row = [l for l in block.splitlines() if l and l[0].isdigit()][0]
    assert first_row.split()[1].startswith("good.csv")


def test_query_csv_and_queries_dir_mutually_exclusive(portal, tmp_path):
    catalog = _index(portal, tmp_path)
    with pytest.raises(SystemExit, match="either a query CSV or --queries-dir"):
        main(["query", str(catalog), str(portal / "query.csv"),
              "--queries-dir", str(portal)])


def test_queries_dir_rejects_pair_selection_flags(portal, tmp_path):
    """--key/--value select one pair of one CSV; silently ignoring them
    in batch mode would answer a different question than asked."""
    catalog = _index(portal, tmp_path)
    with pytest.raises(SystemExit, match="every column pair"):
        main(["query", str(catalog), "--queries-dir", str(portal),
              "--key", "date"])


def test_queries_dir_profile_prints_phase_split(portal, tmp_path, capsys):
    """Batch --profile aggregates trace spans: shared batch passes
    counted once, per-query slices summed."""
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    rc = main(["query", str(catalog), "--queries-dir", str(portal),
               "--scorer", "rp", "-k", "1", "--profile"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "profile    : retrieval" in out
    for phase in ("assemble", "score", "merge"):
        assert phase in out, f"missing phase line {phase!r}:\n{out}"


def test_index_lsh_flag_ships_warm_snapshot(portal, tmp_path, capsys):
    """index --lsh builds the LSH index before saving, so the .arena
    snapshot serves --retrieval lsh without a per-process rebuild."""
    arena = tmp_path / "warm.arena"
    assert main(["index", str(portal), "-o", str(arena), "--lsh",
                 "--lsh-bands", "32", "--lsh-rows", "2"]) == 0
    assert "--lsh ignored" not in capsys.readouterr().err
    assert main(["catalog", "info", str(arena)]) == 0
    assert "lsh index    : warm (bands=32 rows=2)" in capsys.readouterr().out
    rc = main(["query", str(arena), str(portal / "query.csv"),
               "--retrieval", "lsh", "--bands", "32", "--rows", "2",
               "--scorer", "rp", "-k", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert lines[0].split()[1].startswith("good.csv")


def test_catalog_info_reports_lsh_state(portal, tmp_path, capsys):
    """catalog info says whether the snapshot ships a warm LSH index."""
    from repro.index.catalog import SketchCatalog

    arena = tmp_path / "catalog.arena"
    assert main(["index", str(portal), "-o", str(arena)]) == 0
    capsys.readouterr()
    assert main(["catalog", "info", str(arena)]) == 0
    assert "lsh index    : none" in capsys.readouterr().out

    catalog = SketchCatalog.load(arena)
    catalog.lsh_index(bands=32, rows=2)
    warm = tmp_path / "warm.arena"
    catalog.save(warm)
    assert main(["catalog", "info", str(warm)]) == 0
    assert "lsh index    : warm (bands=32 rows=2)" in capsys.readouterr().out


def test_query_seed_controls_random_scorer(portal, tmp_path, capsys):
    """Same seed -> same ranking; the stochastic scorer makes differing
    seeds overwhelmingly likely to produce different orders."""
    catalog = _index(portal, tmp_path)
    capsys.readouterr()

    def run(extra):
        rc = main(
            ["query", str(catalog), str(portal / "query.csv"),
             "--scorer", "random", *extra]
        )
        assert rc == 0
        out = capsys.readouterr().out
        return [l.split()[1] for l in out.splitlines() if l and l[0].isdigit()]

    assert run(["--seed", "3"]) == run(["--seed", "3"])
    runs = {tuple(run(["--seed", str(s)])) for s in range(8)}
    assert len(runs) > 1


def test_query_requires_some_input(portal, tmp_path):
    catalog = _index(portal, tmp_path)
    with pytest.raises(SystemExit, match="provide a query CSV"):
        main(["query", str(catalog)])


def test_index_lsh_with_json_output_warns_and_skips(portal, tmp_path, capsys):
    """JSON persists no LSH members, so --lsh must not silently pretend."""
    out = tmp_path / "catalog.json"
    assert main(["index", str(portal), "-o", str(out), "--lsh"]) == 0
    captured = capsys.readouterr()
    assert "only .arena snapshots persist the LSH index" in captured.err


# -- hardening: missing/corrupt inputs exit 2 with one-line errors -----------


def test_query_missing_catalog_exits_2(portal, tmp_path, capsys):
    rc = main(["query", str(tmp_path / "nope.json"), str(portal / "query.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load catalog")
    assert "Traceback" not in err


def test_query_corrupt_catalog_exits_2(portal, tmp_path, capsys):
    bad = tmp_path / "bad.arena"
    bad.write_bytes(b"RSKARENA this is not a real arena")
    rc = main(["query", str(bad), str(portal / "query.csv")])
    assert rc == 2
    assert "error: cannot load catalog" in capsys.readouterr().err


def test_info_missing_catalog_exits_2(tmp_path, capsys):
    rc = main(["catalog", "info", str(tmp_path / "nope.arena")])
    assert rc == 2
    assert "error: cannot load catalog" in capsys.readouterr().err


def test_info_corrupt_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json")
    rc = main(["catalog", "info", str(bad)])
    assert rc == 2
    assert "error: cannot load catalog" in capsys.readouterr().err


def test_estimate_missing_csv_exits_2(portal, tmp_path, capsys):
    rc = main(["estimate", str(tmp_path / "nope.csv"), str(portal / "good.csv")])
    assert rc == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_query_directory_as_catalog_suggests_catalog_dir(portal, tmp_path, capsys):
    rc = main(["query", str(tmp_path), str(portal / "query.csv")])
    assert rc == 2
    assert "--catalog-dir" in capsys.readouterr().err


def test_index_output_in_missing_directory_exits_2(portal, tmp_path, capsys):
    """Refused before the ingest runs, not with a traceback after it."""
    rc = main(["index", str(portal), "-o", str(tmp_path / "nope" / "c.arena")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write catalog")
    assert "Traceback" not in captured.err and "indexed" not in captured.out


def test_index_shards_onto_a_file_exits_2(portal, tmp_path, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("not a directory")
    rc = main(["index", str(portal), "-o", str(occupied), "--shards", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot write catalog")
    assert occupied.read_text() == "not a directory"


@pytest.mark.parametrize(
    "argv",
    [
        ["shard", "build", "p", "-o", "d"],
        ["shard", "info", "d"],
        ["shard", "compact", "d"],
        ["shard", "verify", "d"],
        ["info", "c.json"],
    ],
    ids=["shard-build", "shard-info", "shard-compact", "shard-verify", "info"],
)
def test_retired_verbs_are_argparse_errors(argv, capsys):
    """`index --shards` and `catalog info|compact|verify` take a manifest
    directory; the old spellings are unknown commands (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# -- validation: positive-integer arguments ----------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["query", "c.json", "q.csv", "-k", "0"],
        ["query", "c.json", "q.csv", "--depth", "-3"],
        ["query", "c.json", "q.csv", "--bands", "0"],
        ["query", "c.json", "q.csv", "--rows", "0"],
        ["serve", "c.json", "--max-batch", "0"],
        ["index", "p", "-o", "c.json", "--sketch-size", "0"],
        ["index", "p", "-o", "d", "--shards", "0"],
        ["index", "p", "-o", "d", "--shards", "-2"],
    ],
)
def test_nonpositive_arguments_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err


# -- sharded serving surface -------------------------------------------------


def test_shard_build_creates_manifest_directory(portal, tmp_path, capsys):
    """`index --shards` writes a manifest directory of arena shards."""
    catalog_dir = _index_shards(portal, tmp_path)
    out = capsys.readouterr().out
    assert "sharded 3 column pairs" in out
    assert (catalog_dir / "manifest.json").exists()
    assert (catalog_dir / "shard-0000.arena").exists()


def test_shard_info_reports_layout(portal, tmp_path, capsys):
    """`catalog info` on a manifest directory reports the shard layout."""
    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    rc = main(["catalog", "info", str(catalog_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shards       : 3" in out
    assert "sketches     : 3" in out
    assert "shard layout : arena" in out
    assert "shard-0002.arena" in out


def test_shard_info_missing_directory_exits_2(tmp_path, capsys):
    """A directory without a manifest is a one-line exit-2 error."""
    (tmp_path / "no-manifest").mkdir()
    rc = main(["catalog", "info", str(tmp_path / "no-manifest")])
    assert rc == 2
    assert "error: cannot read sharded catalog" in capsys.readouterr().err


def test_catalog_info_on_manifest_directory(portal, tmp_path, capsys):
    """`catalog info` on a sharded directory reports the sharded layout
    from the manifest instead of failing on a directory read."""
    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    rc = main(["catalog", "info", str(catalog_dir)])
    assert rc == 0
    assert "shards       : 3" in capsys.readouterr().out


def test_query_catalog_dir_matches_single_catalog(portal, tmp_path, capsys):
    """The acceptance check at CLI level: sharded scatter-gather output
    ranks identically to the monolithic catalog."""
    catalog = _index(portal, tmp_path)
    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()

    def ranking(argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        return [l.split()[1:3] for l in out.splitlines() if l and l[0].isdigit()]

    mono = ranking(["query", str(catalog), str(portal / "query.csv"), "--scorer", "rp"])
    shard = ranking(
        ["query", "--catalog-dir", str(catalog_dir), str(portal / "query.csv"),
         "--scorer", "rp"]
    )
    assert shard == mono


def test_query_catalog_dir_batch(portal, tmp_path, capsys):
    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    rc = main(
        ["query", "--catalog-dir", str(catalog_dir), "--queries-dir",
         str(portal), "--scorer", "rp", "-k", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "queries    : 3 column pair(s)" in out
    assert "executor   : sharded (3 shards)" in out


def test_query_catalog_and_dir_mutually_exclusive(portal, tmp_path):
    catalog = _index(portal, tmp_path)
    catalog_dir = _index_shards(portal, tmp_path)
    with pytest.raises(SystemExit, match="not both"):
        main(["query", str(catalog), str(portal / "query.csv"),
              "--catalog-dir", str(catalog_dir)])


def test_query_requires_catalog_or_dir(portal):
    with pytest.raises(SystemExit, match="catalog file or --catalog-dir"):
        main(["query", "--queries-dir", str(portal)])


@pytest.mark.parametrize("verb", ["query", "serve"])
@pytest.mark.parametrize(
    "flag", [["--workers", "2"], ["--deadline-ms", "50"]],
    ids=["workers", "deadline-ms"],
)
def test_retired_fanout_flags_are_argparse_errors(verb, flag, capsys):
    """There is no shard thread pool or deadline to configure: the flags
    are unknown arguments (exit status 2), never silently ignored."""
    with pytest.raises(SystemExit) as exc:
        main([verb, "--catalog-dir", "d", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# -- incremental maintenance (compact / delta reporting) ----------------------


def test_shard_build_lsh_and_query(portal, tmp_path, capsys):
    """`index --shards --lsh` ships every shard's LSH index warm."""
    catalog_dir = _index_shards(
        portal, tmp_path, extra=["--lsh", "--lsh-bands", "32", "--lsh-rows", "2"]
    )
    assert "--lsh ignored" not in capsys.readouterr().err
    rc = main(
        ["query", "--catalog-dir", str(catalog_dir), str(portal / "query.csv"),
         "--retrieval", "lsh", "--bands", "32", "--rows", "2",
         "--scorer", "rp", "-k", "1"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert lines[0].split()[1].startswith("good.csv")


def test_shard_build_empty_directory_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["index", str(empty), "-o", str(tmp_path / "d"), "--shards", "2"])
    assert rc == 1
    assert "no CSV files" in capsys.readouterr().err


def test_shard_info_manifest_missing_keys_exits_2(tmp_path, capsys):
    """A version-valid manifest missing config keys is a one-line exit-2
    error, not a KeyError traceback."""
    import json

    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {"version": 3, "layout": "arena", "n_shards": 1,
             "shards": [{"file": "shard-0000.arena", "sketches": 0, "ids": []}]}
        )
    )
    rc = main(["catalog", "info", str(tmp_path)])
    assert rc == 2
    assert "corrupt manifest" in capsys.readouterr().err


def test_catalog_info_reports_delta_state(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path, extra=["-o", str(tmp_path / "c.arena")])
    catalog = tmp_path / "c.arena"
    from repro.index.catalog import SketchCatalog

    loaded = SketchCatalog.load(catalog)
    loaded.frozen_postings()  # compact: empty the build-time delta
    loaded.remove_sketch("noise.csv::date->junk")
    loaded.save(catalog)
    capsys.readouterr()
    rc = main(["catalog", "info", str(catalog)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta layer  : 0 pending sketch(es), 1 tombstone(s)" in out
    assert "index version: 1" in out


def test_catalog_compact_folds_and_bumps_version(portal, tmp_path, capsys):
    _index(portal, tmp_path, extra=["-o", str(tmp_path / "c.arena")])
    catalog = tmp_path / "c.arena"
    from repro.index.catalog import SketchCatalog

    loaded = SketchCatalog.load(catalog)
    loaded.frozen_postings()
    loaded.remove_sketch("noise.csv::date->junk")
    loaded.save(catalog)
    capsys.readouterr()
    out_path = tmp_path / "compacted.arena"
    rc = main(["catalog", "compact", str(catalog), "-o", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "folded 0 delta sketch(es) and 1 tombstone(s)" in out
    compacted = SketchCatalog.load(out_path)
    assert compacted.tombstone_count == 0
    assert compacted.index_version == 2
    assert "noise.csv::date->junk" not in compacted
    # The original is untouched when -o is given.
    assert SketchCatalog.load(catalog).tombstone_count == 1


def test_catalog_compact_missing_file_exits_2(tmp_path, capsys):
    rc = main(["catalog", "compact", str(tmp_path / "nope.arena")])
    assert rc == 2
    assert "cannot load catalog" in capsys.readouterr().err


def test_shard_info_and_compact_report_delta(portal, tmp_path, capsys):
    """`catalog info` / `catalog compact` on a manifest directory report
    and fold every shard's delta; compaction rewrites the same arena
    files in place, nothing beside them."""
    catalog_dir = _index_shards(portal, tmp_path)
    from repro.serving import ShardedCatalog
    from repro.table.csv_io import read_csv

    late = tmp_path / "late.csv"
    late.write_text(
        (portal / "query.csv").read_text()
    )
    loaded = ShardedCatalog.load(catalog_dir)
    loaded.add_table(read_csv(late))
    loaded.save(catalog_dir)
    capsys.readouterr()
    rc = main(["catalog", "info", str(catalog_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta layer  : 1 pending sketch(es), 0 tombstone(s)" in out
    assert "delta=1" in out
    before = sorted(p.name for p in catalog_dir.iterdir())
    rc = main(["catalog", "compact", str(catalog_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "compacted 3 shard(s): folded 1 delta sketch(es)" in out
    assert sorted(p.name for p in catalog_dir.iterdir()) == before
    rc = main(["catalog", "info", str(catalog_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta layer  : 0 pending sketch(es), 0 tombstone(s)" in out
    assert "v2 delta=0" in out
    assert "shard layout : arena" in out


# -- arena layout (zero-copy snapshots) ---------------------------------------


def test_index_arena_output_and_catalog_info(
    portal, tmp_path, capsys, monkeypatch
):
    """-o catalog.arena writes the mmap arena; `catalog info` reports
    the storage backend and mapped/materialized byte split."""
    arena = tmp_path / "catalog.arena"
    assert main(["index", str(portal), "-o", str(arena)]) == 0
    capsys.readouterr()

    rc = main(["catalog", "info", str(arena)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "format       : arena" in out
    assert "storage      : mmap" in out
    assert "arena        :" in out
    assert "sketches     : 3" in out
    # The entries line comes from the arena's offsets: info wakes no entry.
    from repro.index.catalog import SketchCatalog
    from repro.index.snapshot import _EntrySource

    loaded = SketchCatalog.load(arena)
    sizes = [loaded.get(sid).columnar().size for sid in loaded]
    wakes, sketch_of = [], _EntrySource.sketch_of
    monkeypatch.setattr(_EntrySource, "sketch_of",
                        lambda self, *args: wakes.append(args) or sketch_of(self, *args))
    assert main(["catalog", "info", str(arena)]) == 0
    line = f"entries      : min={min(sizes)} max={max(sizes)} total={sum(sizes)}"
    assert line in capsys.readouterr().out.splitlines() and wakes == []
    loaded = SketchCatalog.load(arena)  # woken and delta entries count their columns
    loaded.add_sketch("extra", loaded.get(next(iter(loaded))))
    assert loaded.entry_counts() == sizes + sizes[:1] and len(wakes) == 1
    # Heap-backed catalogs report their storage line too.
    json_catalog = _index(portal, tmp_path)
    capsys.readouterr()
    assert main(["catalog", "info", str(json_catalog)]) == 0
    out = capsys.readouterr().out
    assert "storage      : heap" in out
    assert "0 mapped" in out


def _bytes_per_sketch(out: str) -> dict[str, float]:
    line = next(l for l in out.splitlines() if l.startswith("bytes/sketch : "))
    groups, total = re.fullmatch(
        r"bytes/sketch : (.*) \(total ([0-9.]+)\)", line
    ).groups()
    parsed = dict(part.rsplit(" ", 1) for part in groups.split(", "))
    return {name: float(v) for name, v in parsed.items()} | {"total": float(total)}


def test_catalog_info_splits_arena_bytes_per_sketch(portal, tmp_path, capsys):
    """`catalog info` prints the arena's bytes per sketch by group; the
    groups sum exactly to the bytes on disk, for a file and for a shard
    directory (the manifest counted as header)."""
    from repro.index.snapshot import BYTE_GROUPS, arena_bytes_by_group
    from repro.serving import MANIFEST_NAME

    arena = tmp_path / "catalog.arena"
    assert main(["index", str(portal), "-o", str(arena)]) == 0
    groups = arena_bytes_by_group(arena)
    assert tuple(groups) == BYTE_GROUPS
    assert sum(groups.values()) == arena.stat().st_size
    assert min(groups.values()) >= 0 and groups["lsh"] == 0
    capsys.readouterr()
    assert main(["catalog", "info", str(arena)]) == 0
    line = _bytes_per_sketch(capsys.readouterr().out)
    assert line == {
        name: round(size / 3, 1) for name, size in groups.items()
    } | {"total": round(arena.stat().st_size / 3, 1)}

    catalog_dir = _index_shards(portal, tmp_path, shards=2)
    capsys.readouterr()
    assert main(["catalog", "info", str(catalog_dir)]) == 0
    line = _bytes_per_sketch(capsys.readouterr().out)
    files = [catalog_dir / MANIFEST_NAME, *sorted(catalog_dir.glob("shard-*.arena"))]
    assert line["total"] == round(sum(f.stat().st_size for f in files) / 3, 1)
    shard_groups = [arena_bytes_by_group(f) for f in files[1:]]
    assert line["header"] == round(
        (files[0].stat().st_size + sum(g["header"] for g in shard_groups)) / 3, 1
    )
    # A shard whose header cannot be read leaves the split out, not info.
    _truncate(files[2])
    assert main(["catalog", "info", str(catalog_dir)]) == 0
    out = capsys.readouterr().out
    assert "bytes/sketch : unavailable, unreadable shard(s): shard-0001.arena" in out


def test_catalog_verify_fails_a_restamped_key_id_past_the_vocabulary(
    portal, tmp_path, capsys
):
    """A key id past the entry vocabulary under a valid checksum: verify
    reports the shard corrupt and a quarantine candidate, exit 1."""
    from repro.index.arena import ArenaReader, write_arena

    catalog_dir = _index_shards(portal, tmp_path, shards=2)
    shard = catalog_dir / "shard-0001.arena"
    reader = ArenaReader(shard)
    arrays = {name: np.array(reader.array(name)) for name in reader.extents}
    arrays["key_ids"][0] = arrays["entry_vocab"].size
    meta = {
        k: v for k, v in reader.meta.items()
        if k not in ("arrays", "data_bytes", "payload_crc32")
    }
    write_arena(shard, meta, arrays)
    capsys.readouterr()
    assert main(["catalog", "verify", str(catalog_dir)]) == 1
    captured = capsys.readouterr()
    assert ": ok  shard-0000.arena" in captured.out
    assert "FAILED (corrupt arena" in captured.out and "key_ids holds" in captured.out
    assert "quarantine candidates: shard-0001.arena" in captured.err


def test_catalog_convert_round_trips_each_format(portal, tmp_path, capsys):
    json_catalog = _index(portal, tmp_path)
    arena = tmp_path / "catalog.arena"
    back = tmp_path / "back.json"
    capsys.readouterr()

    assert main(["catalog", "convert", str(json_catalog), "-o", str(arena)]) == 0
    out = capsys.readouterr().out
    assert "(json) ->" in out and "(arena)" in out
    assert main(["catalog", "convert", str(arena), "-o", str(back)]) == 0
    out = capsys.readouterr().out
    assert "(arena) ->" in out and "(json)" in out
    assert back.read_bytes() == json_catalog.read_bytes()

    def ranking(catalog):
        assert main(
            ["query", str(catalog), str(portal / "query.csv"), "--scorer", "rp"]
        ) == 0
        out = capsys.readouterr().out
        return [l.split() for l in out.splitlines() if l and l[0].isdigit()]

    assert ranking(arena) == ranking(json_catalog)
    assert ranking(back) == ranking(json_catalog)


def test_catalog_convert_missing_input_exits_2(tmp_path, capsys):
    rc = main(
        ["catalog", "convert", str(tmp_path / "nope.json"),
         "-o", str(tmp_path / "out.arena")]
    )
    assert rc == 2
    assert "error: cannot load catalog" in capsys.readouterr().err
    # convert rewrites one file; a manifest directory is refused.
    rc = main(["catalog", "convert", str(tmp_path), "-o", str(tmp_path / "o.json")])
    assert rc == 2
    assert "error: cannot convert" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_shard_build_arena_layout_and_compact_preserves_it(
    portal, tmp_path, capsys
):
    catalog_dir = _index_shards(portal, tmp_path)
    assert (catalog_dir / "shard-0000.arena").exists()
    capsys.readouterr()

    rc = main(["catalog", "info", str(catalog_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shard layout : arena" in out
    assert "shard-0002.arena" in out

    rc = main(
        ["query", "--catalog-dir", str(catalog_dir),
         str(portal / "query.csv"), "--scorer", "rp"]
    )
    assert rc == 0
    assert "good.csv" in capsys.readouterr().out

    # Compaction rewrites the same files in place, nothing beside them.
    before = sorted(p.name for p in catalog_dir.iterdir())
    assert main(["catalog", "compact", str(catalog_dir)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in catalog_dir.iterdir()) == before
    assert main(["catalog", "info", str(catalog_dir)]) == 0
    assert "shard layout : arena" in capsys.readouterr().out


# -- resilience surface: verify subcommands + the shard-failure flag ----------


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def test_policy_choices_mirror_serving_constant():
    from repro.cli import _ON_SHARD_ERROR_CHOICES
    from repro.serving import ON_SHARD_ERROR_POLICIES

    assert _ON_SHARD_ERROR_CHOICES == ON_SHARD_ERROR_POLICIES


@pytest.mark.parametrize("extension", ["arena"])
def test_catalog_verify_ok_then_mismatch(portal, tmp_path, capsys, extension):
    catalog = tmp_path / f"catalog.{extension}"
    assert main(["index", str(portal), "-o", str(catalog)]) == 0
    capsys.readouterr()
    assert main(["catalog", "verify", str(catalog)]) == 0
    assert ": ok" in capsys.readouterr().out
    _truncate(catalog)
    assert main(["catalog", "verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.out
    assert "rebuild it from its CSVs with `index`" in captured.err
    assert "on_corruption" not in captured.err


def test_catalog_verify_json_is_unchecked(portal, tmp_path, capsys):
    catalog = _index(portal, tmp_path)
    capsys.readouterr()
    assert main(["catalog", "verify", str(catalog)]) == 0
    assert "unchecked" in capsys.readouterr().out


def test_catalog_verify_missing_file_exits_2(tmp_path, capsys):
    assert main(["catalog", "verify", str(tmp_path / "nope.arena")]) == 2
    assert "error: cannot verify" in capsys.readouterr().err


def test_shard_verify_clean_corrupt_and_missing(portal, tmp_path, capsys):
    """`catalog verify` on a manifest directory: one ok line per shard,
    then a truncated and a missing shard are quarantine candidates."""
    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    assert main(["catalog", "verify", str(catalog_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok  shard-") == 3
    assert "all 3 shard(s) verified" in out
    _truncate(catalog_dir / "shard-0001.arena")
    (catalog_dir / "shard-0002.arena").unlink()
    assert main(["catalog", "verify", str(catalog_dir)]) == 1
    captured = capsys.readouterr()
    assert "FAILED (missing file)" in captured.out
    assert "quarantine candidates: shard-0001.arena, shard-0002.arena" in (
        captured.err
    )
    assert "--on-shard-error partial" in captured.err
    assert "on_corruption" not in captured.err


def _as_arena_version(path, version):
    """Rewrite an arena's header as another arena version's."""
    from repro.index.arena import ArenaReader, write_arena

    reader = ArenaReader(path)
    reserved = ("arrays", "data_bytes", "payload_crc32")
    meta = {k: v for k, v in reader.meta.items() if k not in reserved}
    meta["version"] = version
    write_arena(path, meta, {name: reader.array(name) for name in reader.extents})


def test_catalog_verify_refuses_another_arena_version(portal, tmp_path, capsys):
    """verify refuses what query refuses: exit 1, the version and the
    `catalog convert` bridge named, and no quarantine advice."""
    catalog = tmp_path / "catalog.arena"
    assert main(["index", str(portal), "-o", str(catalog)]) == 0
    _as_arena_version(catalog, 5)
    capsys.readouterr()
    assert main(["catalog", "verify", str(catalog)]) == 1
    captured = capsys.readouterr()
    assert "REFUSED (unsupported catalog arena version 5" in captured.out
    assert "catalog convert" in captured.out
    assert "quarantine" not in captured.err


def test_shard_verify_refuses_another_arena_version(portal, tmp_path, capsys):
    """The same refusal for one shard of a manifest directory."""
    catalog_dir = _index_shards(portal, tmp_path)
    _as_arena_version(catalog_dir / "shard-0001.arena", 5)
    capsys.readouterr()
    assert main(["catalog", "verify", str(catalog_dir)]) == 1
    captured = capsys.readouterr()
    refused = [line for line in captured.out.splitlines() if "REFUSED" in line]
    assert len(refused) == 1 and refused[0].endswith("shard-0001.arena")
    assert "unsupported catalog arena version 5" in refused[0]
    assert "catalog convert" in refused[0]
    assert "quarantine" not in captured.err
    assert "verified" not in captured.out


def test_catalog_compact_directory_with_truncated_shard_exits_2(
    portal, tmp_path, capsys
):
    catalog_dir = _index_shards(portal, tmp_path, shards=2)
    _truncate(catalog_dir / "shard-0001.arena")
    before = {p.name: p.read_bytes() for p in catalog_dir.iterdir()}
    capsys.readouterr()
    assert main(["catalog", "compact", str(catalog_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load sharded catalog")
    assert "Traceback" not in err
    assert {p.name: p.read_bytes() for p in catalog_dir.iterdir()} == before


def test_query_catalog_dir_with_truncated_shard(portal, tmp_path, capsys):
    """Under the default `raise` policy a broken shard is a one-line
    error before any query runs; `partial` answers from the survivor."""
    catalog_dir = _index_shards(portal, tmp_path, shards=2)
    _truncate(catalog_dir / "shard-0001.arena")
    capsys.readouterr()
    argv = ["query", "--catalog-dir", str(catalog_dir),
            str(portal / "query.csv"), "--scorer", "rp"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load sharded catalog")
    assert "truncated" in err and "Traceback" not in err
    assert main(argv + ["--on-shard-error", "partial"]) == 0
    assert "degraded   : 1/2 shard(s) answered, 1 dropped" in (
        capsys.readouterr().out
    )


def test_serve_catalog_dir_with_truncated_shard_exits_2(portal, tmp_path, capsys):
    """The default `raise` policy refuses to start on a broken shard,
    with a one-line error and no listening socket."""
    catalog_dir = _index_shards(portal, tmp_path, shards=2)
    _truncate(catalog_dir / "shard-0001.arena")
    capsys.readouterr()
    rc = main(["serve", "--catalog-dir", str(catalog_dir), "--port", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot load sharded catalog")
    assert "listening" not in captured.out


def test_query_on_shard_error_requires_catalog_dir(portal, tmp_path):
    catalog = _index(portal, tmp_path)
    with pytest.raises(SystemExit, match="catalog-dir"):
        main(
            ["query", str(catalog), str(portal / "query.csv"),
             "--on-shard-error", "partial"]
        )


def test_query_with_resilience_flags_matches_plain(portal, tmp_path, capsys):
    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    argv = ["query", "--catalog-dir", str(catalog_dir),
            str(portal / "query.csv"), "--scorer", "rp"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--on-shard-error", "partial"]) == 0
    guarded = capsys.readouterr().out

    def stable(text):  # identical modulo the wall-clock timing line
        return re.sub(r"\(\d+\.\d+ ms\)", "(ms)", text)

    assert stable(guarded) == stable(plain)
    assert "degraded" not in guarded


def test_query_partial_prints_degraded_line(portal, tmp_path, capsys):
    from repro.serving import injected

    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    with injected({"shard_probe": {"shard": 0, "kind": "exception"}}):
        rc = main(
            ["query", "--catalog-dir", str(catalog_dir),
             str(portal / "query.csv"), "--scorer", "rp",
             "--on-shard-error", "partial"]
        )
    assert rc == 0
    assert "degraded   : 2/3 shard(s) answered, 1 dropped" in (
        capsys.readouterr().out
    )


def test_query_batch_partial_flags_each_degraded(portal, tmp_path, capsys):
    from repro.serving import injected

    catalog_dir = _index_shards(portal, tmp_path)
    capsys.readouterr()
    with injected(
        {"shard_probe": {"shard": 1, "kind": "exception", "times": None}}
    ):
        rc = main(
            ["query", "--catalog-dir", str(catalog_dir),
             "--queries-dir", str(portal), "--scorer", "rp",
             "--on-shard-error", "partial"]
        )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("degraded   : 2/3 shard(s) answered, 1 dropped") == 3


# -- serve --------------------------------------------------------------------


def _subparser(name):
    import argparse

    from repro.cli import build_parser

    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise AssertionError("no subparsers found")


def test_query_and_serve_share_one_tuning_surface():
    """The query-tuning flags are built by one helper for both verbs —
    this pins that neither subparser can drift (names, defaults,
    choices, types) without the other noticing."""
    shared = [
        "-k", "--scorer", "--depth", "--retrieval", "--bands", "--rows",
        "--min-overlap", "--seed", "--rng-mode", "--on-shard-error",
    ]

    def tuning_actions(parser):
        actions = {}
        for action in parser._actions:
            for option in action.option_strings:
                if option in shared:
                    actions[option] = action
        return actions

    query_actions = tuning_actions(_subparser("query"))
    serve_actions = tuning_actions(_subparser("serve"))
    assert set(query_actions) == set(shared)
    assert set(serve_actions) == set(shared)
    for option in shared:
        q, s = query_actions[option], serve_actions[option]
        assert q.option_strings == s.option_strings
        assert q.default == s.default, option
        assert q.choices == s.choices, option
        assert q.type == s.type, option
        assert q.help == s.help, option


@pytest.mark.parametrize(
    ("extra", "message"),
    [
        ([], "provide a catalog file or --catalog-dir"),
        (["catalog.json", "--catalog-dir", "dir"], "not both"),
        (["catalog.json", "--slow-query-log", "slow.log"], "--slow-query-ms"),
        (["catalog.json", "--seed", "7"], "window composition"),
    ],
)
def test_serve_argument_validation(extra, message):
    with pytest.raises(SystemExit, match=message):
        main(["serve", *extra])


def test_serve_on_shard_error_requires_catalog_dir():
    with pytest.raises(SystemExit, match="needs --catalog-dir"):
        main(["serve", "catalog.json", "--on-shard-error", "partial"])


def test_serve_help_lists_window_flags(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    out = capsys.readouterr().out
    for flag in ("--host", "--port", "--max-batch", "--max-wait-ms"):
        assert flag in out
