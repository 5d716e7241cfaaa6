"""Worker micro-batching on its selector loop, driven over its socket.

Covers: batched serving stays bit-identical to serving in process, a
batch is exactly what arrived while the previous one was being served
and the loop never waits for more, result frames carry the generation
stamp, a control frame (``stats``/``ping``) waits at most for the batch
in flight and is answered before any serve queued behind it, the
manifest reload probe is throttled off the per-request hot path (and a
committed generation is still picked up within the interval), and one
poisoned request in a batch degrades only itself.
"""

import contextlib
import socket
import time

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve.wire import recv_frame, send_frame
from repro.netserve.worker import SELECT_TIMEOUT_S, WorkerConfig
from repro.segment import TieredConfig, TieredSegmentedIndex
from repro.serving import AdServer, ServeRequest

from tests.netserve.conftest import requires_af_unix
from tests.netserve.worker_rig import RunningWorker

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


def _serve_frame(query, request_id):
    return {
        "type": "serve",
        "request": ServeRequest(query=query, request_id=request_id).to_dict(),
    }


class TestEventDrivenDispatch:
    MAX_BATCH = 8

    @pytest.fixture
    def rig(self, segment_path, tmp_path):
        config = WorkerConfig(
            segment_path=str(segment_path),
            socket_path=str(tmp_path / "batch.sock"),
            max_batch=self.MAX_BATCH,
        )
        with RunningWorker(config) as running:
            yield running

    def test_backlog_behind_busy_dispatcher_forms_exact_batches(
        self, rig, reference_index, generated_corpus
    ):
        """A batch is what arrived while the previous one was being
        served: ``max_batch + 3`` serves sent behind one held serve come
        out as one full batch and one of 3, each reply its own."""
        backlog = self.MAX_BATCH + 3
        queries = _sample_queries(generated_corpus, stride=61)[:backlog]
        assert len(queries) == backlog
        held, replies = rig.behind_held_batch(
            [_serve_frame(query, f"backlog-{i}") for i, query in enumerate(queries)]
        )

        # The held serve is a batch of one through the same call.
        assert [len(batch) for batch in rig.batches] == [1, self.MAX_BATCH, 3]
        assert sorted(sum(rig.batches[1:], [])) == sorted(
            f"backlog-{i}" for i in range(backlog)
        )
        batching = rig.stats()["batching"]
        assert batching["batches"] == 3
        assert batching["batch_size"]["count"] == 3
        assert batching["batch_size"]["mean"] == pytest.approx((1 + backlog) / 3)
        assert batching["batch_size"]["max"] == self.MAX_BATCH
        assert held["type"] == "result"
        local = AdServer(reference_index)
        for i, (query, reply) in enumerate(zip(queries, replies)):
            assert reply["type"] == "result"
            assert reply["request_id"] == f"backlog-{i}"
            expected = local.serve(
                ServeRequest(query=query, request_id=f"backlog-{i}")
            )
            assert reply["result"] == expected.to_dict()

    def test_lone_request_is_served_without_waiting_for_batch_mates(self, rig):
        """A lone serve is served in the turn that read it: it waits
        for no batch-mate, and no select timeout, before its batch."""
        reply = rig.serve(["books"])
        assert reply["type"] == "result"
        batching = rig.stats()["batching"]
        assert batching["batches"] == 1
        assert batching["batch_size"]["max"] == 1
        # A turn that slept before serving would show a whole select
        # timeout here.
        assert batching["queue_wait_ms"]["p50"] < SELECT_TIMEOUT_S * 1e3 / 4


class TestControlPlaneNotBatched:
    def test_stats_and_ping_answer_while_slow_batch_in_flight(
        self, segment_path, tmp_path
    ):
        """One thread serves and answers: a control frame waits for the
        batch in flight, but is answered before any serve queued behind
        that batch."""
        config = WorkerConfig(
            segment_path=str(segment_path), socket_path=str(tmp_path / "slow.sock")
        )
        with RunningWorker(config) as rig:
            in_flight, behind, control = (rig.connect() for _ in range(3))
            for conn in (in_flight, behind, control):
                assert rig.request({"type": "ping"}, conn)["type"] == "pong"
            rig.hold_next()
            send_frame(in_flight, _serve_frame(Query(("books",)), "in-flight"))
            assert rig.entered.wait(5.0), "the first serve never reached its batch"
            send_frame(behind, _serve_frame(Query(("books",)), "behind"))
            send_frame(control, {"type": "stats"})
            send_frame(control, {"type": "ping"})
            # Nothing answers while the batch is in flight...
            control.settimeout(0.3)
            with pytest.raises(socket.timeout):
                control.recv(1)
            rig.release.set()
            control.settimeout(5.0)
            stats = recv_frame(control)
            pong = recv_frame(control)
            assert stats["type"] == "stats"
            assert pong["type"] == "pong"
            # ...and the stats were taken before the serve behind it
            # was served: only the batch in flight is counted.
            assert stats["served"] == 1
            assert stats["batching"]["batches"] == 1
            assert recv_frame(in_flight)["request_id"] == "in-flight"
            assert recv_frame(behind)["request_id"] == "behind"
            assert rig.batches == [["in-flight"], ["behind"]]
            for conn in (in_flight, behind, control):
                conn.close()


class TestReloadThrottle:
    @contextlib.contextmanager
    def _tiered_worker(self, tmp_path, interval):
        directory = tmp_path / "tiered"
        writer = TieredSegmentedIndex(
            directory, config=TieredConfig(seal_threshold=100)
        )
        try:
            writer.insert(_ad("reload w0 common", listing_id=1))
            writer.seal()
            config = WorkerConfig(
                segment_path=str(directory),
                socket_path=str(tmp_path / "sock"),
                reload_check_interval_s=interval,
            )
            with RunningWorker(config) as rig:
                yield writer, rig
        finally:
            writer.close()

    def _candidates(self, rig):
        reply = rig.serve(["reload", "w0", "common"])
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
        with self._tiered_worker(tmp_path, interval=10.0) as (writer, rig):
            after_init = calls["n"]  # the worker fingerprints once at start
            writer.insert(_ad("reload w0 common", listing_id=2))
            writer.seal()
            for _ in range(20):
                assert self._candidates(rig) == 1  # swap not seen yet
            assert calls["n"] == after_init
            assert rig.stats()["tiered"]["manifest_reloads"] == 0

    def test_committed_generation_picked_up_within_interval(self, tmp_path):
        interval = 0.05
        with self._tiered_worker(tmp_path, interval=interval) as (writer, rig):
            assert self._candidates(rig) == 1
            writer.insert(_ad("reload w0 common", listing_id=2))
            writer.seal()
            started = time.monotonic()
            deadline = started + 2.0
            while self._candidates(rig) != 2:
                assert time.monotonic() < deadline, (
                    "committed generation never picked up"
                )
                time.sleep(0.005)
            waited = time.monotonic() - started
            assert waited < 10 * interval, waited
            stats = rig.stats()
            assert stats["tiered"]["manifest_reloads"] == 1
            assert stats["generation"] == writer.generation


class TestPoisonedBatch:
    def test_one_poisoned_request_degrades_only_itself(self, segment_path, tmp_path):
        def picky(serve_batch):
            def picky_serve_batch(requests):
                if any("poison" in r.query.tokens for r in requests):
                    raise RuntimeError("bad request state")
                return serve_batch(requests)

            return picky_serve_batch

        config = WorkerConfig(
            segment_path=str(segment_path),
            socket_path=str(tmp_path / "poison.sock"),
            max_batch=4,
        )
        with RunningWorker(config, wrap=picky) as rig:
            _, (good, bad) = rig.behind_held_batch(
                [
                    _serve_frame(Query(("books",)), "ok-1"),
                    _serve_frame(Query(("poison",)), "bad-1"),
                ]
            )
            assert good["type"] == "result"
            assert good["request_id"] == "ok-1"
            assert bad["type"] == "error"
            assert bad["retryable"] is True
            assert bad["request_id"] == "bad-1"
            stats = rig.stats()
            assert stats["errors"] == 1
            assert stats["served"] == 2  # the held warm-up serve and ok-1
            # The batch, then each item re-served as a batch of its own.
            assert rig.batches[1:] == [["ok-1", "bad-1"], ["ok-1"], ["bad-1"]]


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
    def test_only_the_failing_request_gets_an_error_frame(self, segment_path, tmp_path):
        """The real ``AdServer`` lets the batch's failure propagate; the
        worker alone re-serves each item as a batch of its own, so the
        good requests are answered and only the poisoned one errors."""
        config = WorkerConfig(
            segment_path=str(segment_path),
            socket_path=str(tmp_path / "isolate.sock"),
            max_batch=4,
        )
        with RunningWorker(config) as rig:
            reference = AdServer(rig.worker.index)
            rig.worker.server.index = PoisonIndex(rig.worker.index)
            texts = ("books", "poison books", "cheap used books")
            _, replies = rig.behind_held_batch(
                [
                    _serve_frame(Query.from_text(text), f"r{i}")
                    for i, text in enumerate(texts)
                ]
            )
            assert rig.batches[1] == ["r0", "r1", "r2"]
            for text, reply in (
                (texts[0], replies[0]),
                (texts[2], replies[2]),
            ):
                assert reply["type"] == "result"
                want = reference.serve(ServeRequest(query=Query.from_text(text)))
                assert reply["result"] == want.to_dict()
            bad = replies[1]
            assert bad["type"] == "error"
            assert bad["request_id"] == "r1"
            assert bad["retryable"] is True
            assert "poisoned word-set" in bad["error"]
            stats = rig.stats()
            assert stats["errors"] == 1
            assert stats["served"] == 3  # the held warm-up serve too
            assert rig.worker.server.stats.queries == 3
