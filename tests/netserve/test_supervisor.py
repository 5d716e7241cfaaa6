"""Supervision tests: crash-loop arithmetic pure, everything else live.

The integration tests boot small supervised clusters and injure them
the way the chaos drill does — SIGKILL, SIGSTOP, a poisoned segment —
then assert the supervisor's counters, the respawned pids, and the
frontend's breaker bookkeeping all tell the same story.
"""

import os
import shutil
import signal
import time

import pytest

from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve.supervisor import (
    RestartBudget,
    SupervisorConfig,
    WorkerStatus,
)
from repro.netserve.worker import _SHUTDOWN, WorkerConfig, _PendingServe, _Worker
from repro.serving import ServeRequest

from tests.netserve.conftest import HeldDispatcher, requires_af_unix

pytestmark = requires_af_unix

#: Supervisor tuned for test speed: sub-second detection and respawn.
FAST = SupervisorConfig(
    poll_interval_s=0.1,
    ping_timeout_s=0.5,
    hang_misses=2,
    backoff_initial_s=0.05,
    backoff_max_s=0.5,
)


def wait_for(predicate, timeout_s=15.0, interval_s=0.1):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestRestartBudget:
    def test_backoff_doubles_then_caps(self):
        budget = RestartBudget(
            budget=10, window_s=100.0, initial_s=0.1, max_s=0.5
        )
        delays = [budget.note_failure(float(i)) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_budget_exhaustion_returns_none(self):
        budget = RestartBudget(budget=3, window_s=100.0, initial_s=0.1, max_s=1.0)
        assert budget.note_failure(0.0) is not None
        assert budget.note_failure(1.0) is not None
        assert budget.note_failure(2.0) is None

    def test_old_failures_age_out_of_the_window(self):
        budget = RestartBudget(budget=2, window_s=10.0, initial_s=0.1, max_s=1.0)
        assert budget.note_failure(0.0) == 0.1
        # 11s later the first failure left the window: back to initial
        # backoff instead of exhaustion.
        assert budget.note_failure(11.0) == 0.1
        assert budget.failures_in_window(11.0) == 1

    def test_flap_inside_window_exhausts(self):
        budget = RestartBudget(budget=2, window_s=10.0, initial_s=0.1, max_s=1.0)
        assert budget.note_failure(0.0) == 0.1
        assert budget.note_failure(5.0) is None

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            RestartBudget(budget=0, window_s=1.0, initial_s=0.1, max_s=1.0)


class TestSupervisorConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"poll_interval_s": 0.0},
            {"ping_timeout_s": -1.0},
            {"hang_misses": 0},
            {"backoff_initial_s": 0.0},
            {"backoff_initial_s": 2.0, "backoff_max_s": 1.0},
            {"crash_loop_budget": 0},
            {"ready_timeout_s": 0.0},
            {"mapping_private_fraction": 0.0},
            {"mapping_private_fraction": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SupervisorConfig(**kwargs)


@pytest.fixture()
def supervised(segment_path):
    config = ClusterConfig(
        segment_path=str(segment_path),
        num_workers=2,
        supervisor=FAST,
    )
    with ServingCluster(config) as cluster:
        yield cluster


class TestCrashRecovery:
    def test_sigkill_is_detected_and_respawned(self, supervised):
        supervisor = supervised.supervisor
        pids = dict(supervisor.running_workers())
        os.kill(pids[0], signal.SIGKILL)
        assert wait_for(
            lambda: supervisor.stats()["counters"]["supervisor.respawns"] >= 1
            and supervisor.all_running()
        )
        fresh = dict(supervisor.running_workers())
        assert fresh[0] != pids[0]
        assert fresh[1] == pids[1]
        counters = supervisor.stats()["counters"]
        assert counters["supervisor.deaths_detected"] >= 1
        # The cluster's own process table follows the respawn.
        assert supervised.processes[0].pid == fresh[0]
        # And the tier still serves.
        host, port = supervised.address
        with ServeClient(host, port) as client:
            assert client.serve(ServeRequest.from_text("books")).to_dict()

    def test_sigstopped_worker_is_declared_hung_and_replaced(
        self, supervised
    ):
        supervisor = supervised.supervisor
        pids = dict(supervisor.running_workers())
        os.kill(pids[1], signal.SIGSTOP)
        try:
            assert wait_for(
                lambda: supervisor.stats()["counters"][
                    "supervisor.hangs_detected"
                ]
                >= 1
                and supervisor.all_running()
            )
        finally:
            # The supervisor SIGKILLs the frozen pid itself; CONT is
            # cleanup in case the assertion failed before it could.
            try:
                os.kill(pids[1], signal.SIGCONT)
            except ProcessLookupError:
                pass
        fresh = dict(supervisor.running_workers())
        assert fresh[1] != pids[1]

    def test_breaker_resets_to_half_open_after_respawn(self, supervised):
        supervisor = supervised.supervisor
        pids = dict(supervisor.running_workers())
        os.kill(pids[0], signal.SIGKILL)
        assert wait_for(
            lambda: supervisor.stats()["counters"]["supervisor.respawns"] >= 1
        )
        frontend = supervised.frontend
        assert frontend is not None  # thread-mode cluster
        assert wait_for(
            lambda: any(
                m.name == "frontend.breaker_resets" and m.value >= 1
                for m in frontend.obs.collect()
            )
        )
        # The per-worker gauge reports a live state again (0=closed,
        # 1=half-open), not the failed sentinel (3).
        gauges = {
            m.name: m.value
            for m in frontend.obs.collect()
            if m.name.startswith("frontend.breaker_state.")
        }
        assert gauges["frontend.breaker_state.w0"] in (0.0, 1.0)

    def test_rolling_restart_replaces_every_pid_without_capacity_gap(
        self, supervised
    ):
        supervisor = supervised.supervisor
        before = dict(supervisor.running_workers())
        new_pids = supervised.rolling_restart()
        assert len(new_pids) == 2
        assert set(new_pids).isdisjoint(before.values())
        assert supervisor.all_running()
        counters = supervisor.stats()["counters"]
        assert counters["supervisor.rolling_restarts"] == 2
        # Planned restarts never touch the crash accounting.
        assert counters["supervisor.deaths_detected"] == 0
        assert counters["supervisor.crash_loops"] == 0
        host, port = supervised.address
        with ServeClient(host, port) as client:
            assert client.serve(ServeRequest.from_text("books")).to_dict()


class TestCrashLoop:
    def test_flapping_worker_is_retired_and_traffic_rebalanced(
        self, segment_path, tmp_path
    ):
        doomed = tmp_path / "doomed.seg"
        shutil.copy(segment_path, doomed)
        config = ClusterConfig(
            segment_path=str(doomed),
            num_workers=2,
            supervisor=SupervisorConfig(
                poll_interval_s=0.1,
                ping_timeout_s=0.5,
                backoff_initial_s=0.05,
                backoff_max_s=0.2,
                crash_loop_budget=2,
                crash_loop_window_s=30.0,
                ready_timeout_s=3.0,
            ),
        )
        with ServingCluster(config) as cluster:
            supervisor = cluster.supervisor
            # Poison every future boot: live workers keep their mapping
            # of the unlinked file, but a respawn cannot open it.
            doomed.unlink()
            pids = dict(supervisor.running_workers())
            os.kill(pids[0], signal.SIGKILL)
            assert wait_for(
                lambda: supervisor.stats()["workers"][0]["status"]
                == WorkerStatus.FAILED.value
            )
            counters = supervisor.stats()["counters"]
            assert counters["supervisor.crash_loops"] == 1
            assert counters["supervisor.respawn_failures"] >= 1
            # The frontend was told: worker 0 is out of rotation but
            # the survivor still serves.
            host, port = cluster.address
            with ServeClient(host, port) as client:
                assert wait_for(
                    lambda: client.stats()["frontend"]["failed_workers"]
                    == [0],
                    timeout_s=5.0,
                )
                assert client.serve(
                    ServeRequest.from_text("books")
                ).to_dict()
                stats = client.stats()
            assert stats["frontend"]["breakers"]["0"] == "failed"


class TestGracefulDrain:
    def _quiesced_worker(
        self, segment_path, tmp_path, drain_timeout_s, max_batch=1
    ):
        """A ``_Worker`` with its dispatcher already retired, so the
        drain path can be driven synchronously."""
        worker = _Worker(
            WorkerConfig(
                segment_path=str(segment_path),
                socket_path=str(tmp_path / "drain.sock"),
                drain_timeout_s=drain_timeout_s,
                max_batch=max_batch,
            )
        )
        worker._stop.set()
        worker._queue.put(_SHUTDOWN)
        worker._dispatcher.join(timeout=5.0)
        assert not worker._dispatcher.is_alive()
        worker._stop.clear()  # re-arm so test enqueues are observable
        return worker

    def test_queued_requests_are_served_not_errored(
        self, segment_path, tmp_path
    ):
        worker = self._quiesced_worker(segment_path, tmp_path, 5.0)
        try:
            items = [
                _PendingServe(ServeRequest.from_text(f"books {i}"))
                for i in range(3)
            ]
            for item in items:
                worker._queue.put(item)
            worker._drain_shutdown()
            for item in items:
                assert item.done.is_set()
                assert item.response["type"] == "result"
            assert worker.drained == 3
            assert worker.drain_errors == 0
        finally:
            worker.index.close()

    def test_drain_serves_in_chunks_of_max_batch(self, segment_path, tmp_path):
        """The drain is the dispatcher's own call: ``serve_batch`` over
        chunks of at most ``max_batch``, and a repeated shutdown
        sentinel does not end it while work is still queued."""
        worker = self._quiesced_worker(segment_path, tmp_path, 5.0, max_batch=3)
        try:
            sizes = []
            serve_batch = worker.server.serve_batch

            def recording_serve_batch(requests):
                sizes.append(len(requests))
                return serve_batch(requests)

            worker.server.serve_batch = recording_serve_batch
            items = [
                _PendingServe(ServeRequest.from_text(f"books {i}"))
                for i in range(7)
            ]
            for item in items[:-1]:
                worker._queue.put(item)
            worker._queue.put(_SHUTDOWN)
            worker._queue.put(items[-1])
            worker._drain_shutdown()
            assert sizes == [3, 3, 1]
            assert [item.response["type"] for item in items] == ["result"] * 7
            assert worker.drained == 7
            assert worker.batches == 0  # drain chunks are not dispatcher batches
        finally:
            worker.index.close()

    def test_zero_budget_falls_back_to_retryable_errors(
        self, segment_path, tmp_path
    ):
        worker = self._quiesced_worker(segment_path, tmp_path, 0.0)
        try:
            item = _PendingServe(ServeRequest.from_text("books"))
            worker._queue.put(item)
            worker._drain_shutdown()
            assert item.response["type"] == "error"
            assert item.response["retryable"] is True
            assert worker.drain_errors == 1
            assert worker.drained == 0
        finally:
            worker.index.close()

    def test_shutdown_behind_backlog_serves_batch_in_hand_and_queue(
        self, segment_path, tmp_path
    ):
        """A ``shutdown`` frame landing mid-backlog: the batch in hand is
        served, then everything still queued is drained — every request
        a ``result``, none an ``error``."""
        max_batch, drain_timeout_s = 4, 5.0
        worker = _Worker(
            WorkerConfig(
                segment_path=str(segment_path),
                socket_path=str(tmp_path / "drain.sock"),
                max_batch=max_batch,
                drain_timeout_s=drain_timeout_s,
            )
        )
        try:
            held = HeldDispatcher(worker)
            for i in range(max_batch + 1):
                held.submit(
                    i, ServeRequest.from_text(f"books {i}", request_id=f"q-{i}")
                )
            held.wait_queued(max_batch + 1)
            assert worker.handle({"type": "shutdown"}) == {"type": "ok"}
            # Admitted just before ``_stop`` was set, enqueued just after
            # the sentinel: the stragglers the drain exists for.
            late = [
                _PendingServe(
                    ServeRequest.from_text(f"late {i}", request_id=f"late-{i}")
                )
                for i in range(max_batch)
            ]
            for item in late:
                worker._queue.put(item)

            started = time.monotonic()
            replies = held.join(timeout_s=drain_timeout_s)
            worker._dispatcher.join(timeout=drain_timeout_s)
            assert not worker._dispatcher.is_alive()
            assert time.monotonic() - started < drain_timeout_s

            assert replies["held"]["type"] == "result"
            for i in range(max_batch + 1):
                assert replies[i]["type"] == "result"
                assert replies[i]["request_id"] == f"q-{i}"
            for i, item in enumerate(late):
                assert item.done.is_set()
                assert item.response["type"] == "result"
                assert item.response["request_id"] == f"late-{i}"
            # held | a full batch | one in hand when the sentinel
            # surfaced mid-collect | the rest through the drain.
            assert worker.batches == 3
            assert worker.served == 2 * max_batch + 2
            assert worker.drained == max_batch
            assert worker.drain_errors == 0
            assert worker.errors == 0
        finally:
            worker.close()
