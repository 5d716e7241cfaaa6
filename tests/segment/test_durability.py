"""The tiered directory as the durable index: round trips through
``pack_corpus`` -> close -> read-only reopen, and the fsync ordering and
temp-file hygiene of the two writers every commit goes through (the
segment file and the manifest).  The crashpoint-by-crashpoint recovery
checks live in ``test_tiered.py`` and ``test_overlay.py``."""

import os
import stat
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import naive_broad_match
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.optimize.mapping import corpus_groups
from repro.segment import (
    Manifest,
    SegmentBuilder,
    TieredConfig,
    TieredSegmentedIndex,
)
from repro.segment.tiered import write_manifest

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def random_corpus(draw):
    ads = []
    for i in range(draw(st.integers(1, 15))):
        info = AdInfo(
            listing_id=i,
            campaign_id=draw(st.integers(0, 5)),
            bid_price_micros=draw(st.integers(0, 10**9)),
            exclusion_phrases=tuple(draw(st.lists(words, max_size=2))),
        )
        phrase = draw(st.lists(words, min_size=1, max_size=5))
        ads.append(Advertisement.from_text(" ".join(phrase), info))
    return AdCorpus(ads)


def every_field(ads):
    return sorted(
        (
            a.phrase,
            a.info.listing_id,
            a.info.campaign_id,
            a.info.bid_price_micros,
            a.info.exclusion_phrases,
        )
        for a in ads
    )


def pack_and_reopen(corpus, directory, mapping=None):
    TieredSegmentedIndex.pack_corpus(corpus, directory, mapping=mapping).close()
    return TieredSegmentedIndex(directory, read_only=True)


class TestRoundTripProperties:
    @given(random_corpus())
    @settings(max_examples=40, deadline=None)
    def test_reopen_preserves_every_ad(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            with pack_and_reopen(corpus, Path(tmp) / "index") as reopened:
                assert every_field(reopened.live_ads()) == every_field(corpus)

    @given(random_corpus(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_reopen_preserves_query_results(self, corpus, data):
        # A random-but-valid mapping: each word-set group placed at a
        # random non-empty subset of its words.
        mapping = {}
        for group in corpus_groups(corpus):
            locator = frozenset(
                data.draw(
                    st.sets(
                        st.sampled_from(sorted(group.words)),
                        min_size=1,
                        max_size=len(group.words),
                    )
                )
            )
            if locator != group.words:
                mapping[group.words] = locator
        probe = corpus[data.draw(st.integers(0, len(corpus) - 1))]
        query = Query(tokens=probe.phrase)
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "index"
            with pack_and_reopen(corpus, directory, mapping) as reopened:
                got = sorted(a.info.listing_id for a in reopened.query(query))
                placed = {}
                for segment in reopened.segments:
                    placed.update(segment.placements())
        want = sorted(a.info.listing_id for a in naive_broad_match(corpus, query))
        assert got == want
        assert placed == mapping

    def test_long_phrase_insert_survives_reopen(self, tmp_path):
        """An ad longer than ``max_words`` is inserted at the caller's
        subset locator (``insert`` does no placement search of its own)
        and is found there after a seal and a reopen."""
        long_ad = Advertisement.from_text("p q r s t u", AdInfo(listing_id=2))
        locator = frozenset({"p", "q", "r"})
        query = Query.from_text("p q r s t u v")
        with TieredSegmentedIndex.pack_corpus(
            [Advertisement.from_text("a b", AdInfo(listing_id=1))],
            tmp_path,
            config=TieredConfig(max_words=3),
        ) as index:
            with pytest.raises(ValueError, match="max_words"):
                index.insert(long_ad)
            index.insert(long_ad, locator)
            assert [a.info.listing_id for a in index.query(query)] == [2]
            index.seal()
        with TieredSegmentedIndex(tmp_path, read_only=True) as reopened:
            assert reopened.manifest.max_words == 3
            assert [a.info.listing_id for a in reopened.query(query)] == [2]
            assert reopened.segments[-1].placements() == {
                long_ad.words: locator
            }


@pytest.fixture()
def events(monkeypatch):
    """Every file fsync, directory fsync and rename, in order."""
    log = []
    real_fsync = os.fsync
    real_replace = Path.replace

    def fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        log.append(f"fsync-{kind}")
        return real_fsync(fd)

    def replace(self, target):
        log.append("rename")
        return real_replace(self, target)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(Path, "replace", replace)
    return log


class TestWriteOrdering:
    """A rename is durable only if the file was synced before it and
    the directory after it; either missing lets a power loss resurrect
    the old file or expose an empty new one."""

    def test_segment_write_syncs_file_rename_then_dir(self, tmp_path, events):
        index = WordSetIndex.from_corpus(
            [Advertisement.from_text("used books", AdInfo(listing_id=1))]
        )
        SegmentBuilder(index).write(tmp_path / "a.seg")
        assert events == ["fsync-file", "rename", "fsync-dir"]
        assert [p.name for p in tmp_path.iterdir()] == ["a.seg"]

    def test_manifest_commit_syncs_file_rename_then_dir(self, tmp_path, events):
        write_manifest(tmp_path / "MANIFEST.json", Manifest(generation=3))
        assert events == ["fsync-file", "rename", "fsync-dir"]
        assert [p.name for p in tmp_path.iterdir()] == ["MANIFEST.json"]

    def test_an_ordinary_error_removes_the_segment_temp(
        self, tmp_path, monkeypatch
    ):
        """Only an injected crash leaves its temp behind (as power loss
        would); a real I/O error cleans up and leaves the target alone."""

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        index = WordSetIndex.from_corpus(
            [Advertisement.from_text("used books", AdInfo(listing_id=1))]
        )
        with pytest.raises(OSError, match="disk full"):
            SegmentBuilder(index).write(tmp_path / "a.seg")
        assert list(tmp_path.iterdir()) == []
