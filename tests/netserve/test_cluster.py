"""End-to-end cluster tests: remote answers equal in-process answers,
stats carry the memory evidence, and overload sheds by priority."""

import asyncio
import gc
import socket
import time
from pathlib import Path

import pytest

from repro.core.queries import Query
from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve import cluster as cluster_module
from repro.netserve import worker as worker_module
from repro.resilience.admission import AdmissionConfig, Priority
from repro.resilience.deadline import DegradedReason
from repro.serving import AdServer, ServeRequest

from tests.netserve.conftest import requires_af_unix

pytestmark = requires_af_unix


@pytest.fixture(scope="module")
def cluster(segment_path):
    config = ClusterConfig(
        segment_path=str(segment_path),
        num_workers=2,
        default_deadline_ms=2_000.0,
    )
    with ServingCluster(config) as running:
        yield running


@pytest.fixture()
def client(cluster):
    host, port = cluster.address
    with ServeClient(host, port) as connected:
        yield connected


def _sample_queries(generated_corpus):
    ads = generated_corpus.corpus.ads
    return [
        Query(ads[i].phrase + ("extra", "words"))
        for i in range(0, len(ads), 97)
    ]


class TestServing:
    def test_ping(self, client):
        assert client.ping()

    def test_remote_results_equal_in_process_results(
        self, client, reference_index, generated_corpus
    ):
        local = AdServer(reference_index)
        for query in _sample_queries(generated_corpus):
            remote = client.serve(ServeRequest(query=query))
            expected = local.serve(query)
            assert remote.to_dict() == expected.to_dict()

    def test_request_id_echoes_through(self, cluster):
        host, port = cluster.address
        with ServeClient(host, port) as client:
            reply = client.request(
                {
                    "type": "serve",
                    "request": {"query": ["books"], "request_id": "r-42"},
                }
            )
        assert reply["type"] == "result"
        assert reply["request_id"] == "r-42"

    def test_error_frame_for_bad_request_then_connection_survives(
        self, client
    ):
        reply = client.request(
            {"type": "serve", "request": {"query": "not-a-list"}}
        )
        assert reply["type"] == "error"
        assert client.ping()

    def test_stats_report_both_workers_and_memory_fields(self, client):
        client.serve(ServeRequest.from_text("warm up query"))
        stats = client.stats()
        workers = stats["workers"]
        assert sorted(w["worker_id"] for w in workers) == [0, 1]
        total_served = sum(w["served"] for w in workers)
        assert total_served >= 1
        for worker in workers:
            assert worker["errors"] == 0
            assert "serve_ms" in worker
            # Memory fields are present; values are None off-/proc.
            assert "rss_bytes" in worker
            assert "segment_mapping" in worker
        frontend = stats["frontend"]
        assert frontend["num_workers"] == 2
        assert frontend["counters"]["frontend.requests"] >= 1

    def test_segment_mapping_is_shared_not_copied(self, client, segment_path):
        """The zero-copy claim, asserted directly: with two workers
        mapping one file, resident mapping pages are shared pages."""
        stats = client.stats()
        mappings = [w["segment_mapping"] for w in stats["workers"]]
        if any(m is None for m in mappings):
            pytest.skip("smaps unavailable on this platform")
        segment_bytes = segment_path.stat().st_size
        for mapping in mappings:
            assert mapping["private"] <= 0.25 * segment_bytes


class TestOverload:
    def test_token_bucket_sheds_low_before_high(self, segment_path):
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=1,
            # burst=1: a full bucket covers HIGH (needs 1.0 token) but
            # not LOW (needs 1.3 — its 30% reserve), so LOW sheds even
            # before any traffic and HIGH sheds once the bucket drains.
            admission=AdmissionConfig(rate_per_s=0.001, burst=1.0),
        )
        with ServingCluster(config) as cluster:
            host, port = cluster.address
            with ServeClient(host, port) as client:
                low = client.serve(
                    ServeRequest.from_text("books", priority=Priority.LOW)
                )
                high = client.serve(
                    ServeRequest.from_text("books", priority=Priority.HIGH)
                )
                # Bucket now empty: even HIGH sheds, flagged not dropped.
                drained = client.serve(
                    ServeRequest.from_text("books", priority=Priority.HIGH)
                )
        assert low.degraded_reason is DegradedReason.SHED_CAPACITY
        assert high.degraded_reason is DegradedReason.NONE
        assert drained.degraded_reason is DegradedReason.SHED_CAPACITY
        assert low.ads == []


class TestLifecycle:
    def test_stop_is_idempotent(self, segment_path):
        config = ClusterConfig(
            segment_path=str(segment_path), num_workers=1
        )
        cluster = ServingCluster(config)
        cluster.start()
        assert cluster.port is not None
        cluster.stop()
        cluster.stop()
        assert cluster.processes == []

    def test_workers_exit_on_stop(self, segment_path):
        config = ClusterConfig(
            segment_path=str(segment_path), num_workers=2
        )
        cluster = ServingCluster(config)
        cluster.start()
        procs = list(cluster.processes)
        cluster.stop()
        assert all(not p.is_alive() for p in procs)

    def test_stop_before_start_is_a_noop(self, segment_path):
        cluster = ServingCluster(
            ClusterConfig(segment_path=str(segment_path), num_workers=1)
        )
        cluster.stop()
        assert cluster.processes == []

    def test_failed_boot_raises_fast_and_leaks_nothing(self, tmp_path):
        """A worker that dies during boot (bad segment) must fail the
        ping gate immediately — not hang out the whole boot deadline —
        and the partial boot must clean up after itself."""
        config = ClusterConfig(
            segment_path=str(tmp_path / "no-such.seg"),
            num_workers=2,
            boot_timeout_s=30.0,
        )
        cluster = ServingCluster(config)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="died during boot"):
            cluster.start()
        # Failing fast is the point: nowhere near the 30s deadline.
        assert time.monotonic() - started < 15.0
        assert cluster.processes == []
        assert cluster.supervisor is None
        # __exit__ after the failed start stays safe (double cleanup).
        cluster.__exit__(None, None, None)

    def test_context_manager_propagates_boot_failure(self, tmp_path):
        config = ClusterConfig(
            segment_path=str(tmp_path / "missing.seg"), num_workers=1
        )
        with pytest.raises(RuntimeError):
            with ServingCluster(config):
                pytest.fail("boot must not succeed without a segment")

    def test_stale_socket_file_does_not_block_boot(self, segment_path):
        """A crashed predecessor's socket files must not poison the next
        boot: the cluster unlinks before forking."""
        import tempfile

        with tempfile.TemporaryDirectory(prefix="netserve-stale-") as tmp:
            stale = Path(tmp) / "w0.sock"
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(str(stale))
            sock.close()  # the file outlives the socket — the stale case
            assert stale.exists()
            config = ClusterConfig(
                segment_path=str(segment_path),
                num_workers=1,
                runtime_dir=tmp,
                supervise=False,
            )
            with ServingCluster(config) as cluster:
                host, port = cluster.address
                with ServeClient(host, port) as client:
                    assert client.ping()


class TestChildEntryPointsFreezeWhatTheyInherit:
    """Both child entry points move what ``fork`` handed them to the
    collector's permanent generation before they build anything, so a
    full collection in the child never writes to, and so copies, the
    parent's pages."""

    def test_worker_freezes_before_building_its_server(self, monkeypatch, tmp_path):
        assert gc.get_freeze_count() == 0
        seen = []

        class Opened(Exception):
            pass

        def open_index(path, **kwargs):
            seen.append(gc.get_freeze_count())
            raise Opened

        monkeypatch.setattr(worker_module, "PackedSegmentIndex", open_index)
        config = worker_module.WorkerConfig(
            segment_path=str(tmp_path / "unused.seg"),
            socket_path=str(tmp_path / "unused.sock"),
        )
        try:
            with pytest.raises(Opened):
                worker_module.run_worker(config)
        finally:
            gc.unfreeze()
        assert seen and seen[0] > 0

    def test_frontend_freezes_before_starting_its_loop(self, monkeypatch, tmp_path):
        assert gc.get_freeze_count() == 0
        seen = []

        def run(main):
            seen.append(gc.get_freeze_count())
            main.close()

        monkeypatch.setattr(asyncio, "run", run)
        try:
            cluster_module._run_frontend_process(
                ClusterConfig(segment_path="unused"), [], str(tmp_path / "port")
            )
        finally:
            gc.unfreeze()
        assert seen and seen[0] > 0
