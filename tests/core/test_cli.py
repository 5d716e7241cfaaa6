"""Tests for the operational CLI over the one durable index format, the
tiered index directory (build / query / batch / explain / stats /
compact)."""

import re

import pytest

from repro.cli import main
from repro.core.ads import AdInfo, Advertisement
from repro.core.matching import naive_broad_match
from repro.core.queries import Query
from repro.datagen.importers import load_corpus_csv
from repro.segment import TieredSegmentedIndex


@pytest.fixture()
def ads_csv(tmp_path):
    path = tmp_path / "ads.csv"
    path.write_text(
        "bid_phrase,listing_id,bid_price_micros\n"
        "used books,1,300\n"
        "books,2,200\n"
        "cheap used books,3,500\n"
    )
    return path


@pytest.fixture()
def trace_tsv(tmp_path):
    path = tmp_path / "trace.tsv"
    path.write_text("cheap used books\t50\nused books\t20\n")
    return path


@pytest.fixture()
def index_dir(tmp_path, ads_csv):
    out = tmp_path / "index"
    assert main(["build", "--ads", str(ads_csv), "--out", str(out)]) == 0
    return out


def listings(out):
    """The listing ids a ``query`` run printed, in print order."""
    return [int(n) for n in re.findall(r"^listing (\d+) ", out, re.M)]


class TestBuild:
    def test_plain_build(self, tmp_path, ads_csv, capsys):
        out_path = tmp_path / "plain"
        assert main(["build", "--ads", str(ads_csv), "--out", str(out_path)]) == 0
        assert (out_path / "MANIFEST.json").exists()
        out = capsys.readouterr().out
        assert "imported 3 ads" in out
        assert "generation 1" in out

    def test_build_with_optimize(self, tmp_path, ads_csv, trace_tsv, capsys):
        out_path = tmp_path / "opt"
        code = main(
            [
                "build",
                "--ads", str(ads_csv),
                "--out", str(out_path),
                "--workload", str(trace_tsv),
                "--optimize",
                "--max-words", "10",
            ]
        )
        assert code == 0
        assert "optimizing against 2 distinct queries" in capsys.readouterr().out
        assert (out_path / "MANIFEST.json").exists()

    def test_optimize_without_workload_errors(self, tmp_path, ads_csv):
        out_path = tmp_path / "x"
        code = main(
            [
                "build",
                "--ads", str(ads_csv),
                "--out", str(out_path),
                "--optimize",
            ]
        )
        assert code == 2
        assert not out_path.exists()

    def test_build_with_max_words_only(self, tmp_path, ads_csv):
        out_path = tmp_path / "mw"
        code = main(
            ["build", "--ads", str(ads_csv), "--out", str(out_path),
             "--max-words", "2"]
        )
        assert code == 0
        with TieredSegmentedIndex(out_path, read_only=True) as index:
            assert index.manifest.max_words == 2

    def test_build_refuses_an_out_that_holds_files(
        self, tmp_path, ads_csv, index_dir, capsys
    ):
        """``pack_corpus`` appends to an existing index, so a second
        build into the same directory would double every ad."""
        capsys.readouterr()
        before = sorted(p.name for p in index_dir.iterdir())
        assert main(
            ["build", "--ads", str(ads_csv), "--out", str(index_dir)]
        ) == 2
        assert "already holds files" in capsys.readouterr().err
        assert sorted(p.name for p in index_dir.iterdir()) == before
        stray = tmp_path / "file.txt"
        stray.write_text("x")
        assert main(["build", "--ads", str(ads_csv), "--out", str(stray)]) == 2

    def test_build_into_an_empty_directory(self, tmp_path, ads_csv):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["build", "--ads", str(ads_csv), "--out", str(empty)]) == 0
        with TieredSegmentedIndex(empty, read_only=True) as index:
            assert len(index) == 3


class TestQuery:
    def test_broad_query(self, index_dir, capsys):
        assert main(["query", str(index_dir), "cheap used books online"]) == 0
        out = capsys.readouterr().out
        assert "listing 3" in out and "listing 1" in out and "listing 2" in out
        assert "3 broad-match result(s)" in out

    def test_exact_query(self, index_dir, capsys):
        assert main(
            ["query", str(index_dir), "used books", "--match", "exact"]
        ) == 0
        out = capsys.readouterr().out
        assert "listing 1" in out
        assert "1 exact-match result(s)" in out

    def test_top_limits_output(self, index_dir, capsys):
        assert main(
            ["query", str(index_dir), "cheap used books", "--top", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("listing ") == 1

    def test_no_results(self, index_dir, capsys):
        assert main(["query", str(index_dir), "zz qq"]) == 0
        assert "0 broad-match result(s)" in capsys.readouterr().out

    def test_query_sees_committed_writes_only(self, index_dir, capsys):
        with TieredSegmentedIndex(index_dir) as index:
            index.insert(
                Advertisement.from_text("rare maps", AdInfo(listing_id=9))
            )
            assert main(["query", str(index_dir), "rare maps shop"]) == 0
            assert listings(capsys.readouterr().out) == []
            index.seal()
        assert main(["query", str(index_dir), "rare maps shop"]) == 0
        assert listings(capsys.readouterr().out) == [9]


class TestBatch:
    @pytest.fixture()
    def queries_file(self, tmp_path):
        path = tmp_path / "queries.txt"
        path.write_text(
            "cheap used books\n"
            "used books cheap\n"  # same word-set -> deduped
            "\n"
            "books\n"
            "zz qq\n"
        )
        return path

    def test_batch_summary(self, index_dir, queries_file, capsys):
        assert main(["batch", str(index_dir), str(queries_file)]) == 0
        out = capsys.readouterr().out
        assert "4 queries (3 distinct, 25% deduped)" in out
        assert "qps" in out

    def test_batch_show_per_query(self, index_dir, queries_file, capsys):
        assert main(
            ["batch", str(index_dir), str(queries_file), "--show"]
        ) == 0
        out = capsys.readouterr().out
        assert "'cheap used books': 3 result(s)" in out
        assert "'zz qq': 0 result(s)" in out

    def test_batch_exact_match(self, index_dir, queries_file, capsys):
        assert main(
            ["batch", str(index_dir), str(queries_file), "--match", "exact"]
        ) == 0
        assert "-> 2 results" in capsys.readouterr().out

    def test_batch_stdin(self, index_dir, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("books\n"))
        assert main(["batch", str(index_dir), "-"]) == 0
        assert "1 queries" in capsys.readouterr().out

    def test_batch_empty_input_errors(self, index_dir, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n")
        assert main(["batch", str(index_dir), str(empty)]) == 2


class TestExplainAndStats:
    def test_explain(self, index_dir, capsys):
        assert main(["explain", str(index_dir), "cheap used books"]) == 0
        out = capsys.readouterr().out
        assert "hash probes" in out and "matches: 3" in out

    def test_stats(self, index_dir, capsys):
        assert main(["stats", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "ads:                 3" in out
        assert "sealed segments:     1" in out
        assert "segment bytes:" in out

    def test_stats_replay_emits_metrics(self, index_dir, trace_tsv, capsys):
        """The replayed queries count into the registry: the index is
        opened with it, not handed it after the fact."""
        assert main(
            ["stats", str(index_dir), "--replay", str(trace_tsv),
             "--metrics-format", "prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_segment_queries_total 2" in out

    def test_stats_resilience_replay_is_gone(self, index_dir, trace_tsv):
        for flag in (["--resilience"], ["--deadline-ms", "5"], ["--priority", "low"]):
            with pytest.raises(SystemExit):
                main(["stats", str(index_dir), "--replay", str(trace_tsv), *flag])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestCompact:
    def test_default_mode_on_a_fresh_build_keeps_the_generation(
        self, index_dir, capsys
    ):
        capsys.readouterr()
        assert main(["compact", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "seal + 0 merge(s): generation 1 -> 1" in out
        assert "segments:            1 -> 1" in out

    def test_full_leaves_one_segment_and_the_same_answers(
        self, index_dir, capsys
    ):
        with TieredSegmentedIndex(index_dir) as index:
            index.insert(
                Advertisement.from_text(
                    "cheap books", AdInfo(listing_id=4, bid_price_micros=50)
                )
            )
            index.seal()
            assert index.delete(
                Advertisement.from_text(
                    "books", AdInfo(listing_id=2, bid_price_micros=200)
                )
            )
            index.seal()
        capsys.readouterr()
        assert main(["query", str(index_dir), "cheap used books"]) == 0
        before = capsys.readouterr().out
        assert listings(before) == [3, 1, 4]

        assert main(["compact", str(index_dir), "--full"]) == 0
        out = capsys.readouterr().out
        assert "full compaction" in out
        assert "segments:            2 -> 1" in out
        assert "tombstones:          1 -> 0" in out
        assert main(["query", str(index_dir), "cheap used books"]) == 0
        assert capsys.readouterr().out == before

    def test_merge_and_full_are_mutually_exclusive(self, index_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compact", str(index_dir), "--merge", "--full"])
        assert excinfo.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


class TestProfile:
    def test_profile_corpus_only(self, ads_csv, capsys):
        assert main(["profile", "--ads", str(ads_csv)]) == 0
        out = capsys.readouterr().out
        assert "== corpus ==" in out and "bid lengths" in out

    def test_profile_with_workload(self, ads_csv, trace_tsv, capsys):
        assert main(
            ["profile", "--ads", str(ads_csv), "--workload", str(trace_tsv)]
        ) == 0
        out = capsys.readouterr().out
        assert "== workload ==" in out and "traffic" in out


class TestRoundTrip:
    PHRASES = (
        "used books",
        "cheap used books",
        "books",
        "rare first edition books",
        "comic books",
        "cheap flights",
        "flights",
        "talk talk",
    )

    def test_build_optimize_query_explain_compact(self, tmp_path, capsys):
        """Every ad is retrievable by its own phrase exactly as the
        naive oracle says, before and after a full compaction."""
        ads_csv = tmp_path / "ads.csv"
        ads_csv.write_text(
            "bid_phrase,listing_id,bid_price_micros\n"
            + "".join(
                f"{phrase},{i},{100 * (i + 1)}\n"
                for i, phrase in enumerate(self.PHRASES)
            )
        )
        trace = tmp_path / "trace.tsv"
        trace.write_text(
            "cheap used books\t120\nused books\t80\ncomic books online\t25\n"
            "cheap flights paris\t40\ntalk talk greatest hits\t10\n"
        )
        index_dir = tmp_path / "index"
        assert main(
            ["build", "--ads", str(ads_csv), "--out", str(index_dir),
             "--workload", str(trace), "--optimize", "--max-words", "10"]
        ) == 0
        corpus = load_corpus_csv(ads_csv)

        def answers():
            outputs = []
            for phrase in self.PHRASES:
                capsys.readouterr()
                assert main(
                    ["query", str(index_dir), phrase, "--top", "100"]
                ) == 0
                out = capsys.readouterr().out
                want = naive_broad_match(corpus, Query.from_text(phrase))
                assert sorted(listings(out)) == sorted(
                    a.info.listing_id for a in want
                ), phrase
                outputs.append(out)
            return outputs

        before = answers()
        assert main(["explain", str(index_dir), "cheap used books"]) == 0
        assert "matches: 3" in capsys.readouterr().out
        assert main(["compact", str(index_dir), "--full"]) == 0
        assert answers() == before
