"""Shared fixtures: one packed segment and one booted cluster per
module — cluster boots cost ~a second, so tests share them."""

import socket
import threading
import time

import pytest

from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.segment.builder import SegmentBuilder
from repro.serving import ServeRequest

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


class HeldDispatcher:
    """Park a ``_Worker``'s dispatcher inside one ``serve_batch`` call,
    so a backlog can be queued behind it and released all at once."""

    def __init__(self, worker):
        self.worker = worker
        self.release = threading.Event()
        self.replies = {}
        self._threads = []
        entered = threading.Event()
        original = worker.server.serve_batch

        def held_serve_batch(requests, **kwargs):
            if not entered.is_set():  # only the first batch is held
                entered.set()
                assert self.release.wait(10.0), "dispatcher never released"
            return original(requests, **kwargs)

        worker.server.serve_batch = held_serve_batch
        self.submit("held", ServeRequest.from_text("books", request_id="held"))
        assert entered.wait(5.0), "dispatcher never picked up the held serve"

    def submit(self, key, request):
        """``worker.handle`` a serve frame on its own thread — what a
        connection thread does — keeping the reply under ``key``."""

        def call():
            self.replies[key] = self.worker.handle(
                {"type": "serve", "request": request.to_dict()}
            )

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        self._threads.append(thread)

    def wait_queued(self, count):
        deadline = time.monotonic() + 5.0
        while self.worker._queue.qsize() < count:
            assert time.monotonic() < deadline, "backlog never queued"
            time.sleep(0.001)

    def join(self, timeout_s=10.0):
        """Release the dispatcher and collect every reply."""
        self.release.set()
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not thread.is_alive(), "a queued request never got a reply"
        return self.replies
