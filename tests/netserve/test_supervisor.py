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
from repro.netserve.worker import WorkerConfig
from repro.serving import ServeRequest

from tests.netserve.conftest import requires_af_unix
from tests.netserve.worker_rig import RunningWorker

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


def _serves(texts):
    return [
        {"type": "serve", "request": {"query": text.split(), "request_id": f"q-{i}"}}
        for i, text in enumerate(texts)
    ]


class TestGracefulDrain:
    """A ``shutdown`` frame read in the same loop turn as a backlog of
    serves: the loop acks it, then drains the backlog."""

    def _drain(self, segment_path, tmp_path, count, drain_timeout_s=5.0, max_batch=1):
        """``count`` serves and a ``shutdown`` sent behind a held batch;
        the worker, its replies (the ack last) and the loop's run time
        after the release."""
        config = WorkerConfig(
            segment_path=str(segment_path),
            socket_path=str(tmp_path / "drain.sock"),
            drain_timeout_s=drain_timeout_s,
            max_batch=max_batch,
        )
        rig = RunningWorker(config)
        try:
            held, replies = rig.behind_held_batch(
                _serves(f"books {i}" for i in range(count)) + [{"type": "shutdown"}]
            )
            started = time.monotonic()
            rig.join(timeout_s=drain_timeout_s + 5.0)
            elapsed = time.monotonic() - started
        finally:
            rig.stop()
        assert held["type"] == "result"
        assert replies.pop() == {"type": "ok"}
        return rig, replies, elapsed

    def test_queued_requests_are_served_not_errored(self, segment_path, tmp_path):
        rig, replies, _ = self._drain(segment_path, tmp_path, 3)
        assert [reply["type"] for reply in replies] == ["result"] * 3
        assert [reply["request_id"] for reply in replies] == ["q-0", "q-1", "q-2"]
        assert rig.worker.drained == 3
        assert rig.worker.drain_errors == 0

    def test_drain_serves_in_chunks_of_max_batch(self, segment_path, tmp_path):
        """The drain serves through ``serve_batch`` like any batch, in
        chunks of at most ``max_batch``."""
        rig, replies, _ = self._drain(segment_path, tmp_path, 7, max_batch=3)
        assert [len(batch) for batch in rig.batches] == [1, 3, 3, 1]
        assert [reply["type"] for reply in replies] == ["result"] * 7
        assert rig.worker.drained == 7
        assert rig.worker.batches == 1  # drain chunks are not batches

    def test_zero_budget_falls_back_to_retryable_errors(self, segment_path, tmp_path):
        rig, replies, _ = self._drain(segment_path, tmp_path, 1, drain_timeout_s=0.0)
        (reply,) = replies
        assert reply["type"] == "error"
        assert reply["retryable"] is True
        assert reply["request_id"] == "q-0"
        assert rig.worker.drain_errors == 1
        assert rig.worker.drained == 0
        assert rig.batches == [[None]]  # only the held warm-up serve

    def test_shutdown_behind_backlog_serves_batch_in_hand_and_queue(
        self, segment_path, tmp_path
    ):
        """A ``shutdown`` frame landing mid-backlog: the batch in hand is
        served, then everything the loop had read is drained — every
        request a ``result``, none an ``error`` — well inside the
        budget."""
        max_batch, drain_timeout_s = 4, 5.0
        rig, replies, elapsed = self._drain(
            segment_path, tmp_path, max_batch + 1, drain_timeout_s, max_batch
        )
        assert elapsed < drain_timeout_s
        for i, reply in enumerate(replies):
            assert reply["type"] == "result"
            assert reply["request_id"] == f"q-{i}"
        # held | the backlog through the drain, in chunks.
        assert [len(batch) for batch in rig.batches] == [1, max_batch, 1]
        worker = rig.worker
        assert worker.batches == 1
        assert worker.served == max_batch + 2
        assert worker.drained == max_batch + 1
        assert worker.drain_errors == 0
        assert worker.errors == 0
