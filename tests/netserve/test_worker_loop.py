"""The worker's selector loop: flow control, one thread, a clean exit.

A connection whose replies back up stops being read while the others
are served, and gets every reply, in order, once it reads again.  A
forked worker is one thread that sleeps in ``select`` when idle.  A
``shutdown`` frame and ``SIGTERM`` each end a worker within
``drain_timeout_s`` plus one select timeout, even with a reply stuck
on a client that reads nothing.
"""

import os
import selectors
import signal
import socket
import sys
import threading
import time

import pytest

from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve.wire import encode_frame, recv_frame
from repro.netserve.worker import SELECT_TIMEOUT_S, WorkerConfig
from repro.serving import ServeRequest

from tests.netserve.conftest import requires_af_unix
from tests.netserve.worker_rig import RunningWorker

pytestmark = requires_af_unix

#: Far more reply bytes than the socket between a worker and a client
#: that reads nothing can hold (four-ad slates of ~900 bytes).
PIPELINED = 200


def _full_slate_request(generated_corpus):
    """A request whose reply carries a full slate of ads."""
    return {"query": sorted(generated_corpus.templates[0])}


def _pipelined(request, count):
    return b"".join(
        encode_frame({"type": "serve", "request": {**request, "request_id": f"p{i}"}})
        for i in range(count)
    )


def _settled(read, interval_s=0.1, timeout_s=20.0):
    """``read()`` once it returns the same value three times running."""
    seen, stable = read(), 0
    deadline = time.monotonic() + timeout_s
    while stable < 3:
        assert time.monotonic() < deadline, "never settled"
        time.sleep(interval_s)
        now = read()
        stable = stable + 1 if now == seen else 0
        seen = now
    return seen


class TestFlowControl:
    def test_client_that_reads_nothing_is_paused(
        self, segment_path, generated_corpus, tmp_path
    ):
        config = WorkerConfig(
            segment_path=str(segment_path), socket_path=str(tmp_path / "flow.sock")
        )
        request = _full_slate_request(generated_corpus)
        with RunningWorker(config) as rig:
            probe = rig.serve(request["query"])
            assert len(probe["result"]["outcome"]["awards"]) == 4
            with rig.connect(timeout_s=30.0) as quiet, rig.connect() as other:
                quiet.sendall(_pipelined(request, PIPELINED))
                # The worker stops taking the quiet client's frames...
                served = _settled(lambda: rig.stats()["served"])
                assert served - 1 < PIPELINED
                # ...while another connection is still served.
                for i in range(10):
                    reply = rig.serve(request["query"], f"other-{i}", conn=other)
                    assert reply["request_id"] == f"other-{i}"
                assert rig.stats()["served"] == served + 10
                # Once it reads, every reply arrives, in order.
                for i in range(PIPELINED):
                    assert recv_frame(quiet)["request_id"] == f"p{i}"
            assert rig.stats()["served"] == 1 + PIPELINED + 10


    def test_control_replies_wait_for_the_reader_too(self, segment_path, tmp_path):
        """A reply the socket cannot take whole stops the connection's
        next frame, whatever its type: ``count`` pipelined frames of an
        unknown type, each answered with a ~4 KB error, come back
        complete and in order."""
        config = WorkerConfig(
            segment_path=str(segment_path), socket_path=str(tmp_path / "flow.sock")
        )
        count, padding = 200, "x" * 4000
        frames = b"".join(
            encode_frame({"type": f"t{i:04d}{padding}"}) for i in range(count)
        )
        with RunningWorker(config) as rig, rig.connect(timeout_s=30.0) as quiet:
            sender = threading.Thread(target=quiet.sendall, args=(frames,), daemon=True)
            sender.start()
            answered = _settled(lambda: rig.stats()["wire_errors"])
            assert answered < count  # the rest wait for the reader
            for i in range(count):
                reply = recv_frame(quiet)
                assert reply["type"] == "error"
                assert reply["error"] == f"unknown frame type 't{i:04d}{padding}'"
            sender.join(10.0)
            assert not sender.is_alive()
            assert rig.request({"type": "ping"}, quiet)["type"] == "pong"


def _tasks(pid):
    return os.listdir(f"/proc/{pid}/task")


def _wchan(pid):
    with open(f"/proc/{pid}/wchan", encoding="ascii") as fh:
        return fh.read().strip()


def _cpu_ticks(pid):
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or selectors.DefaultSelector is not selectors.EpollSelector,
    reason="reads the worker's threads and wait channel from Linux /proc",
)
def test_a_worker_is_one_thread_that_sleeps_in_select_when_idle(segment_path):
    config = ClusterConfig(
        segment_path=str(segment_path), num_workers=1, supervise=False
    )
    with ServingCluster(config) as cluster:
        host, port = cluster.address
        with ServeClient(host, port) as client:
            assert client.serve(ServeRequest.from_text("books")).query.tokens == ("books",)
            pid = client.stats()["workers"][0]["pid"]
        assert pid == cluster.processes[0].pid
        assert _tasks(pid) == [str(pid)]
        time.sleep(SELECT_TIMEOUT_S)
        ticks = _cpu_ticks(pid)
        samples = []
        for _ in range(10):
            samples.append(_wchan(pid))
            time.sleep(0.05)
        assert samples.count("ep_poll") >= 9, samples
        # Waking every select timeout costs next to nothing: no spin.
        assert _cpu_ticks(pid) - ticks <= 2


class TestCleanExit:
    """Each way of ending a worker ends it within ``drain_timeout_s``
    plus one select timeout, although a client that reads nothing
    holds a reply the worker cannot flush."""

    DRAIN_TIMEOUT_S = 1.0
    #: Process teardown after the loop ends, on a loaded host.
    SLACK_S = 2.0

    def _stuck_client(self, path, request):
        quiet = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        quiet.settimeout(30.0)
        quiet.connect(path)
        quiet.sendall(_pipelined(request, PIPELINED))
        return quiet

    def test_shutdown_frame_and_sigterm_each_end_a_worker(
        self, segment_path, generated_corpus
    ):
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=2,
            supervise=False,
            drain_timeout_s=self.DRAIN_TIMEOUT_S,
        )
        request = _full_slate_request(generated_corpus)
        bound = self.DRAIN_TIMEOUT_S + SELECT_TIMEOUT_S + self.SLACK_S
        with ServingCluster(config) as cluster:
            by_frame, by_signal = cluster.processes
            stuck = [self._stuck_client(path, request) for path in cluster.worker_sockets]
            try:
                time.sleep(0.5)  # both workers now hold unsent replies
                started = time.monotonic()
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                    conn.settimeout(5.0)
                    conn.connect(cluster.worker_sockets[0])
                    conn.sendall(encode_frame({"type": "shutdown"}))
                    assert recv_frame(conn) == {"type": "ok"}
                os.kill(by_signal.pid, signal.SIGTERM)
                for proc in (by_frame, by_signal):
                    proc.join(timeout=max(0.0, started + bound - time.monotonic()))
                    assert not proc.is_alive(), "worker outlived its drain budget"
                    assert proc.exitcode == 0
                assert time.monotonic() - started >= self.DRAIN_TIMEOUT_S
            finally:
                for quiet in stuck:
                    quiet.close()

    def test_cluster_stop_leaves_no_worker_running(self, segment_path, generated_corpus):
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=2,
            drain_timeout_s=self.DRAIN_TIMEOUT_S,
        )
        cluster = ServingCluster(config)
        cluster.start()
        procs = list(cluster.processes)
        stuck = [
            self._stuck_client(path, _full_slate_request(generated_corpus))
            for path in cluster.worker_sockets
        ]
        try:
            time.sleep(0.5)  # both workers now hold unsent replies
            started = time.monotonic()
            cluster.stop()
            elapsed = time.monotonic() - started
        finally:
            for quiet in stuck:
                quiet.close()
        # Each worker ended itself, gracefully, inside its budget: the
        # escalation to terminate/kill was never needed.
        assert not any(proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert self.DRAIN_TIMEOUT_S <= elapsed
        assert elapsed < self.DRAIN_TIMEOUT_S + SELECT_TIMEOUT_S + self.SLACK_S
