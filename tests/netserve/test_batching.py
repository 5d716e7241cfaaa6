"""The worker micro-batching dispatcher (PR 9).

Covers: batched serving stays bit-identical to serving in process, a
batch is exactly what queued while the dispatcher was busy and the
dispatcher never waits for more, result frames carry the generation
stamp, control frames (``stats``/``ping``) never queue
behind an in-flight serve batch, the manifest reload probe is throttled
off the per-request hot path (and a committed generation is still
picked up within the interval), and one poisoned request in a batch
degrades only itself.
"""

import queue
import socket
import threading
import time

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve.wire import recv_frame, send_frame
from repro.netserve.worker import WorkerConfig, _PendingServe, _Worker
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.serving import AdServer, ServeRequest

from tests.netserve.conftest import HeldDispatcher, requires_af_unix

pytestmark = requires_af_unix


def _ad(text, listing_id):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, bid_price_micros=100 + listing_id)
    )


def _sample_queries(generated_corpus, stride=97):
    ads = generated_corpus.corpus.ads
    return [
        Query(ads[i].phrase + ("extra", "words"))
        for i in range(0, len(ads), stride)
    ]


@pytest.fixture(scope="module")
def batched_cluster(segment_path):
    config = ClusterConfig(
        segment_path=str(segment_path),
        num_workers=1,
        conns_per_worker=8,
        default_deadline_ms=2_000.0,
        max_batch=8,
    )
    with ServingCluster(config) as running:
        yield running


class TestBatchedServing:
    def test_batched_results_equal_in_process_results(
        self, batched_cluster, reference_index, generated_corpus
    ):
        host, port = batched_cluster.address
        local = AdServer(reference_index)
        with ServeClient(host, port) as client:
            for query in _sample_queries(generated_corpus):
                remote = client.serve(ServeRequest(query=query))
                expected = local.serve(query)
                assert remote.to_dict() == expected.to_dict()

    def test_result_frames_carry_generation_stamp(self, batched_cluster):
        host, port = batched_cluster.address
        with ServeClient(host, port) as client:
            reply = client.request(
                {
                    "type": "serve",
                    "request": {"query": ["books"], "request_id": "g-1"},
                }
            )
        assert reply["type"] == "result"
        assert reply["request_id"] == "g-1"
        # A frozen packed segment serves generation 0 forever.
        assert reply["generation"] == 0

    def test_schema_error_answered_without_queuing(self, batched_cluster):
        host, port = batched_cluster.address
        with ServeClient(host, port) as client:
            reply = client.request(
                {"type": "serve", "request": {"query": "not-a-list"}}
            )
            assert reply["type"] == "error"
            assert client.ping()


class _RecordingQueue(queue.Queue):
    """Logs ``(block, timeout, got)`` for every ``get``, ``got`` being
    the item or None on Empty (``get_nowait`` is ``get(block=False)``)."""

    def __init__(self, maxsize=0):
        super().__init__(maxsize)
        self.gets = []

    def get(self, block=True, timeout=None):
        try:
            item = super().get(block, timeout)
        except queue.Empty:
            self.gets.append((block, timeout, None))
            raise
        self.gets.append((block, timeout, item))
        return item


class TestEventDrivenDispatch:
    MAX_BATCH = 8

    @pytest.fixture
    def worker(self, segment_path, tmp_path):
        worker = _Worker(
            WorkerConfig(
                segment_path=str(segment_path),
                socket_path=str(tmp_path / "unused.sock"),
                max_batch=self.MAX_BATCH,
            )
        )
        yield worker
        worker.close()

    def test_backlog_behind_busy_dispatcher_forms_exact_batches(
        self, worker, reference_index, generated_corpus
    ):
        """A batch is what accumulated while the previous one was being
        served: ``max_batch + 3`` queued behind one held serve come out
        as one full batch and one of 3, each reply its own."""
        backlog = self.MAX_BATCH + 3
        queries = _sample_queries(generated_corpus, stride=61)[:backlog]
        assert len(queries) == backlog
        batch_sizes = []
        serve_batch = worker.server.serve_batch

        def recording_serve_batch(requests):
            batch_sizes.append(len(requests))
            return serve_batch(requests)

        worker.server.serve_batch = recording_serve_batch
        held = HeldDispatcher(worker)
        histogram = worker.obs.histogram("worker.batch_size")
        assert (worker.batches, histogram.count, histogram.sum) == (1, 1, 1.0)
        for i, query in enumerate(queries):
            held.submit(i, ServeRequest(query=query, request_id=f"backlog-{i}"))
        held.wait_queued(len(queries))
        replies = held.join()

        # The held serve is a batch of one through the same call.
        assert batch_sizes == [1, self.MAX_BATCH, 3]
        assert worker.batches == 3
        assert (histogram.count, histogram.sum) == (3, 1.0 + len(queries))
        assert histogram.snapshot()["max"] == self.MAX_BATCH
        assert replies["held"]["type"] == "result"
        local = AdServer(reference_index)
        for i, query in enumerate(queries):
            reply = replies[i]
            assert reply["type"] == "result"
            assert reply["request_id"] == f"backlog-{i}"
            expected = local.serve(
                ServeRequest(query=query, request_id=f"backlog-{i}")
            )
            assert reply["result"] == expected.to_dict()

    def test_lone_request_is_served_without_waiting_for_batch_mates(
        self, worker
    ):
        """Holding one request, the dispatcher may only *poll* for more:
        a blocking or timed ``get`` after the first item is the timer
        this worker no longer has."""
        # The dispatcher re-reads ``_queue`` every turn, so a swap takes
        # effect once its current idle wait on the old queue lapses.
        recording = _RecordingQueue(maxsize=worker.config.queue_depth)
        worker._queue = recording
        reply = worker.handle(
            {"type": "serve", "request": {"query": ["books"]}}
        )
        assert reply["type"] == "result"
        assert worker.batches == 1

        gets = recording.gets
        first = next(
            i for i, (_, _, got) in enumerate(gets) if got is not None
        )
        # The idle wait may block; the top-up that follows must not, and
        # on an empty queue it ends the collect at once.
        assert gets[first][0] is True
        assert gets[first + 1] == (False, None, None)


class TestControlPlaneNotBatched:
    def test_stats_and_ping_answer_while_slow_batch_in_flight(
        self, segment_path, tmp_path
    ):
        """Regression: control frames must bypass the dispatch queue."""
        sock_path = str(tmp_path / "slow.sock")
        worker = _Worker(
            WorkerConfig(
                segment_path=str(segment_path), socket_path=sock_path
            )
        )
        original_serve_batch = worker.server.serve_batch

        def slow_serve_batch(requests, **kwargs):
            time.sleep(1.0)
            return original_serve_batch(requests, **kwargs)

        worker.server.serve_batch = slow_serve_batch
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            # Wait for a connect that succeeds, not for the socket file:
            # the path exists from ``bind`` on, but a connect refuses
            # until the worker has called ``listen``.
            deadline = time.monotonic() + 5.0
            while True:
                serve_conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    serve_conn.connect(sock_path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    serve_conn.close()
                    assert time.monotonic() < deadline, "worker never listened"
                    time.sleep(0.01)
            send_frame(
                serve_conn, {"type": "serve", "request": {"query": ["x"]}}
            )
            time.sleep(0.2)  # the slow batch is now mid-flight

            control_conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            control_conn.connect(sock_path)
            control_conn.settimeout(0.6)  # << the 1 s the batch needs
            started = time.perf_counter()
            send_frame(control_conn, {"type": "stats"})
            stats = recv_frame(control_conn)
            send_frame(control_conn, {"type": "ping"})
            pong = recv_frame(control_conn)
            control_ms = (time.perf_counter() - started) * 1e3
            assert stats["type"] == "stats"
            assert pong["type"] == "pong"
            assert control_ms < 600.0
            control_conn.close()

            serve_conn.settimeout(5.0)
            reply = recv_frame(serve_conn)
            assert reply["type"] == "result"
            serve_conn.close()
        finally:
            stop = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                stop.settimeout(2.0)
                stop.connect(sock_path)
                send_frame(stop, {"type": "shutdown"})
                recv_frame(stop)
            except OSError:
                pass
            finally:
                stop.close()
            thread.join(timeout=10.0)


class TestReloadThrottle:
    def _tiered_worker(self, tmp_path, interval):
        directory = tmp_path / "tiered"
        writer = TieredSegmentedIndex(
            directory, config=TieredConfig(seal_threshold=100)
        )
        writer.insert(_ad("reload w0 common", listing_id=1))
        writer.seal()
        worker = _Worker(
            WorkerConfig(
                segment_path=str(directory),
                socket_path=str(tmp_path / "sock"),
                reload_check_interval_s=interval,
            )
        )
        return writer, worker

    def _candidates(self, worker):
        reply = worker.handle(
            {"type": "serve", "request": {"query": ["reload", "w0", "common"]}}
        )
        assert reply["type"] == "result"
        return reply["result"]["outcome"]["candidates"]

    def test_manifest_probe_throttled_off_hot_path(
        self, tmp_path, monkeypatch
    ):
        """Serving N requests inside the interval stats the manifest at
        most once — the per-request filesystem probe is gone."""
        import repro.netserve.worker as worker_mod

        calls = {"n": 0}
        real = worker_mod.manifest_fingerprint

        def counting(path):
            calls["n"] += 1
            return real(path)

        monkeypatch.setattr(worker_mod, "manifest_fingerprint", counting)
        writer, worker = self._tiered_worker(tmp_path, interval=10.0)
        try:
            after_init = calls["n"]  # __init__ fingerprints once
            writer.insert(_ad("reload w0 common", listing_id=2))
            writer.seal()
            for _ in range(20):
                assert self._candidates(worker) == 1  # swap not seen yet
            assert calls["n"] == after_init
            assert worker.manifest_reloads == 0
        finally:
            worker.close()
            writer.close()

    def test_committed_generation_picked_up_within_interval(self, tmp_path):
        interval = 0.05
        writer, worker = self._tiered_worker(tmp_path, interval=interval)
        try:
            assert self._candidates(worker) == 1
            writer.insert(_ad("reload w0 common", listing_id=2))
            writer.seal()
            started = time.monotonic()
            deadline = started + 2.0
            while self._candidates(worker) != 2:
                assert time.monotonic() < deadline, (
                    "committed generation never picked up"
                )
                time.sleep(0.005)
            waited = time.monotonic() - started
            assert waited < 10 * interval, waited
            assert worker.manifest_reloads == 1
            assert worker.stats_payload()["generation"] == writer.generation
        finally:
            worker.close()
            writer.close()


class TestPoisonedBatch:
    def test_one_poisoned_request_degrades_only_itself(self, segment_path):
        worker = _Worker(
            WorkerConfig(
                segment_path=str(segment_path),
                socket_path="/tmp/unused-poison.sock",
                max_batch=4,
            )
        )
        try:
            original_serve_batch = worker.server.serve_batch
            batches = []

            def picky_serve_batch(requests):
                batches.append([r.request_id for r in requests])
                if any("poison" in r.query.tokens for r in requests):
                    raise RuntimeError("bad request state")
                return original_serve_batch(requests)

            worker.server.serve_batch = picky_serve_batch
            good = _PendingServe(
                ServeRequest(query=Query(("books",)), request_id="ok-1")
            )
            bad = _PendingServe(
                ServeRequest(query=Query(("poison",)), request_id="bad-1")
            )
            worker._serve_batch([good, bad])
            assert good.response["type"] == "result"
            assert good.response["request_id"] == "ok-1"
            assert bad.response["type"] == "error"
            assert bad.response["retryable"] is True
            assert bad.response["request_id"] == "bad-1"
            assert worker.errors == 1
            assert worker.served == 1
            # The batch, then each item re-served as a batch of its own.
            assert batches == [["ok-1", "bad-1"], ["ok-1"], ["bad-1"]]
        finally:
            worker.close()


class PoisonIndex:
    """A real index that raises on any query holding the word
    ``poison`` (and has no batch entry point, so a batch holding one
    fails as a whole)."""

    supports_deadline = True

    def __init__(self, inner):
        self.inner = inner

    def query(self, query, *args):
        if "poison" in query.words:
            raise RuntimeError("poisoned word-set")
        return self.inner.query(query, *args)


class TestWorkerIsolatesAFailingRequest:
    def test_only_the_failing_request_gets_an_error_frame(self, segment_path):
        """The real ``AdServer`` lets the batch's failure propagate; the
        worker alone re-serves each item as a batch of its own, so the
        good requests are answered and only the poisoned one errors."""
        worker = _Worker(
            WorkerConfig(
                segment_path=str(segment_path),
                socket_path="/tmp/unused-isolate.sock",
                max_batch=4,
            )
        )
        try:
            reference = AdServer(worker.index)
            worker.server.index = PoisonIndex(worker.index)
            texts = ("books", "poison books", "cheap used books")
            items = [
                _PendingServe(
                    ServeRequest(query=Query.from_text(text), request_id=f"r{i}")
                )
                for i, text in enumerate(texts)
            ]
            worker._serve_batch(items)
            good = [items[0], items[2]]
            for item in good:
                assert item.response["type"] == "result"
                want = reference.serve(ServeRequest(query=item.request.query))
                assert item.response["result"] == want.to_dict()
            bad = items[1].response
            assert bad["type"] == "error"
            assert bad["request_id"] == "r1"
            assert bad["retryable"] is True
            assert "poisoned word-set" in bad["error"]
            assert worker.errors == 1
            assert worker.served == 2
            assert worker.server.stats.queries == 2
        finally:
            worker.close()
