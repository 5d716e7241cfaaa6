"""Shared fixtures: one packed segment and one booted cluster per
module — cluster boots cost ~a second, so tests share them."""

import socket

import pytest

from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.segment.builder import SegmentBuilder

requires_af_unix = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"),
    reason="worker sockets need AF_UNIX",
)


@pytest.fixture(scope="session")
def generated_corpus():
    return generate_corpus(CorpusConfig(num_ads=800, seed=11))


@pytest.fixture(scope="session")
def reference_index(generated_corpus):
    """The in-process twin every remote answer is compared against."""
    return WordSetIndex.from_corpus(generated_corpus.corpus)


@pytest.fixture(scope="session")
def segment_path(tmp_path_factory, reference_index):
    path = tmp_path_factory.mktemp("netserve") / "corpus.seg"
    SegmentBuilder(reference_index).write(path)
    return path
