"""Scatter-gather simulation for sharded deployments (Section VII-B's
"split the data across servers" scenario).

Each shard runs on its own multi-core server.  A query is broadcast to all
shards (paying network latency per leg), each shard does its share of the
retrieval work, and the response completes when the **slowest** shard has
answered — the straggler effect that makes wide fan-outs latency-fragile
even as they divide CPU work.

Wide fan-outs are also *failure*-fragile: one dropped RPC stalls the whole
query.  The cluster therefore supports the standard production defences,
off by default so the base simulation is unchanged:

* **bounded retry with exponential backoff** (``max_retries``,
  ``retry_backoff_ms``) against transient per-shard failures (injected
  through the ``server.<shard>`` fault point of
  :class:`~repro.distsim.server.Server`);
* a **per-shard timeout** (``shard_timeout_ms``) measured from dispatch,
  covering network, queueing, service, and every retry of that leg;
* **graceful partial results** (``allow_partial``/``min_shards``): when
  some shards fail outright, the gather completes with the shards that
  answered instead of failing the query — the degradation every serving
  stack prefers over an empty ad slate.

Overload resilience (see :mod:`repro.resilience`), likewise off by
default with the base simulation bit-identical when unused:

* a **per-query deadline** (``deadline_ms``): per-shard timeouts derive
  from the remaining budget, retries the budget cannot cover are
  suppressed instead of dispatched, and at expiry the query completes
  with whatever shards answered (a flagged partial) rather than waiting
  out the straggler;
* **per-shard circuit breakers** (``breaker``): repeated leg failures
  open the shard's breaker and subsequent legs short-circuit locally —
  the retry-storm damper;
* **request hedging** (``hedge_ms``): when one straggler shard is the
  only leg outstanding after ``hedge_ms``, a duplicate leg races it;
* **admission control** (``admission``): arrivals shed against the
  cluster's total outstanding load before any leg dispatches.

Outcomes are reported through :mod:`repro.obs` counters:
``partial_results``, ``scatter.retries``, ``scatter.shard_timeouts``,
``scatter.shard_failures``, ``scatter.failed_queries``,
``scatter.shed_queries``, ``scatter.deadline_completions``,
``resilience.retries_suppressed``, ``resilience.hedges``, and the
breaker's ``resilience.breaker_*`` family.

Per-shard service times come from the same cost-model tables as the
two-tier cluster, scaled by each shard's share of the work.
"""

from __future__ import annotations

import random
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.queries import Query
from repro.distsim.events import EventQueue
from repro.distsim.metrics import RunMetrics
from repro.distsim.network import NetworkModel
from repro.distsim.server import Server
from repro.faults.injector import FaultInjector, active_injector
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.admission import AdmissionController, Priority
from repro.resilience.breaker import BreakerConfig, CircuitBreaker


@dataclass(frozen=True, slots=True)
class ScatterConfig:
    num_shards: int = 4
    cores_per_server: int = 4
    duration_ms: float = 5_000.0
    network_base_ms: float = 0.5
    network_jitter_ms: float = 0.3
    seed: int = 0
    #: Per-shard deadline from dispatch (covers retries); None = no timeout.
    shard_timeout_ms: float | None = None
    #: Re-dispatches after a failed leg before the leg is given up.
    max_retries: int = 0
    #: First backoff delay; doubles per retry (bounded exponential).
    retry_backoff_ms: float = 1.0
    #: Complete queries with the shards that answered instead of failing.
    allow_partial: bool = False
    #: Minimum successful shards for a usable partial result (default 1).
    min_shards: int | None = None
    #: End-to-end per-query budget; None = no deadline.
    deadline_ms: float | None = None
    #: Per-shard circuit-breaker tuning; None = no breakers.
    breaker: BreakerConfig | None = None
    #: Hedge the last outstanding shard after this delay; None = never.
    hedge_ms: float | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.cores_per_server < 1:
            raise ValueError("cores_per_server must be >= 1")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if self.network_base_ms < 0:
            raise ValueError("network_base_ms must be >= 0")
        if self.network_jitter_ms < 0:
            raise ValueError("network_jitter_ms must be >= 0")
        if self.shard_timeout_ms is not None and self.shard_timeout_ms <= 0:
            raise ValueError("shard_timeout_ms must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be >= 0")
        if self.min_shards is not None and not (
            1 <= self.min_shards <= self.num_shards
        ):
            raise ValueError("min_shards must be in [1, num_shards]")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        if self.hedge_ms is not None and self.hedge_ms <= 0:
            raise ValueError("hedge_ms must be positive")


class ScatterGatherCluster:
    """N shard servers answering every query in parallel."""

    def __init__(
        self,
        shard_service_ms: Callable[[int, Query], float],
        config: ScatterConfig = ScatterConfig(),
        obs: MetricsRegistry | None = None,
        faults: FaultInjector | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        self.shard_service_ms = shard_service_ms
        self.config = config
        self._faults = active_injector(faults)
        self._obs = active_or_none(obs)
        self.admission = admission
        #: Shard legs actually submitted to a server (dispatches plus
        #: retries plus hedges; breaker short-circuits excluded) — the
        #: quantity a retry storm amplifies.
        self.legs_attempted = [0] * config.num_shards
        #: Per-shard breakers from the most recent :meth:`run` (``None``
        #: until a run with ``config.breaker`` set).
        self.breakers: list[CircuitBreaker] | None = None
        #: The live event queue of the current :meth:`run` — the
        #: simulated-time clock source for an injected admission
        #: controller (``lambda: cluster.events.now``).
        self.events: EventQueue | None = None
        #: Queries shed by admission control before any leg dispatched.
        self.shed_queries = 0
        #: Queries force-completed at the deadline with a partial gather.
        self.deadline_completions = 0
        if self._obs is not None:
            self._obs.counter(
                "partial_results",
                help="Queries answered by fewer than all shards",
            )
            self._obs.counter(
                "scatter.retries", help="Shard legs re-dispatched"
            )
            self._obs.counter(
                "scatter.shard_timeouts", help="Shard legs that timed out"
            )
            self._obs.counter(
                "scatter.shard_failures",
                help="Shard legs given up after retries/timeout",
            )
            self._obs.counter(
                "scatter.failed_queries",
                help="Queries with too few shard answers to complete",
            )
            self._obs.counter(
                "scatter.shed_queries",
                help="Arrivals shed by admission control",
            )
            self._obs.counter(
                "scatter.deadline_completions",
                help="Queries force-completed partial at the deadline",
            )
            self._obs.counter(
                "resilience.retries_suppressed",
                help="Retries skipped because the budget could not cover them",
            )
            self._obs.counter(
                "resilience.hedges", help="Hedge legs dispatched"
            )

    def _count(self, name: str, amount: int = 1) -> None:
        if self._obs is not None:
            self._obs.counter(name).inc(amount)

    def run(self, queries: Sequence[Query], arrival_rate_qps: float) -> RunMetrics:
        if arrival_rate_qps <= 0:
            raise ValueError("arrival rate must be positive")
        if not queries:
            raise ValueError("need at least one query")
        config = self.config
        events = EventQueue()
        self.events = events
        network = NetworkModel(
            config.network_base_ms, config.network_jitter_ms, seed=config.seed
        )
        rng = random.Random(config.seed + 1)
        servers = [
            Server(
                events,
                cores=config.cores_per_server,
                name=f"shard{i}",
                faults=self._faults,
            )
            for i in range(config.num_shards)
        ]
        latencies: list[float] = []
        finish_times: list[float] = []
        duration = config.duration_ms
        mean_gap_ms = 1000.0 / arrival_rate_qps
        min_required = (
            config.min_shards if config.min_shards is not None else 1
        )
        breakers: list[CircuitBreaker] | None = None
        if config.breaker is not None:
            # Simulated-time breakers: reset windows advance with the
            # event clock, so runs are deterministic for a given seed.
            breakers = [
                CircuitBreaker(
                    config=config.breaker,
                    clock=lambda: events.now,
                    obs=self._obs,
                    name=f"shard{i}",
                )
                for i in range(config.num_shards)
            ]
        self.breakers = breakers

        def arrival(query_index: int, arrival_time: float) -> None:
            query = queries[query_index % len(queries)]
            start = events.now
            state = {"ok": 0, "failed": 0, "done": 0}
            settled = [False] * config.num_shards
            query_deadline = (
                start + config.deadline_ms
                if config.deadline_ms is not None
                else None
            )

            def schedule_next_arrival() -> None:
                next_time = arrival_time + rng.expovariate(1.0 / mean_gap_ms)
                if next_time < duration:
                    events.schedule_at(
                        next_time, lambda: arrival(query_index + 1, next_time)
                    )

            if self.admission is not None:
                depth = sum(server.load for server in servers)
                decision = self.admission.try_admit(
                    Priority.NORMAL, queue_depth=depth
                )
                if not decision.admitted:
                    self.shed_queries += 1
                    self._count("scatter.shed_queries")
                    schedule_next_arrival()
                    return

            def complete() -> None:
                if state["done"]:
                    return
                state["done"] = 1
                latencies.append(events.now - start)
                finish_times.append(events.now)

            def gather() -> None:
                if state["done"]:
                    return
                if state["failed"] == 0:
                    events.schedule(network.delay_ms(), complete)
                elif config.allow_partial and state["ok"] >= min_required:
                    self._count("partial_results")
                    events.schedule(network.delay_ms(), complete)
                else:
                    state["done"] = 1
                    self._count("scatter.failed_queries")

            def settle(shard: int, success: bool) -> None:
                if settled[shard]:
                    return
                settled[shard] = True
                state["ok" if success else "failed"] += 1
                if not success:
                    self._count("scatter.shard_failures")
                if state["ok"] + state["failed"] == config.num_shards:
                    gather()

            def dispatch(shard: int, attempt: int) -> None:
                if breakers is not None and not breakers[shard].allow():
                    # Short-circuit locally: the shard is known bad, the
                    # leg is never dispatched (no network, no queueing) —
                    # this is what bounds a retry storm.
                    settle(shard, False)
                    return

                def submit() -> None:
                    if settled[shard] or state["done"]:
                        return  # the leg's deadline already expired
                    service = self.shard_service_ms(shard, query)
                    self.legs_attempted[shard] += 1
                    servers[shard].submit(
                        service,
                        on_done=lambda: on_leg_done(shard),
                        on_fail=lambda: leg_failed(shard, attempt),
                    )

                events.schedule(network.delay_ms(), submit)

            def on_leg_done(shard: int) -> None:
                if breakers is not None:
                    breakers[shard].record_success()
                settle(shard, True)

            def leg_failed(shard: int, attempt: int) -> None:
                if breakers is not None:
                    breakers[shard].record_failure()
                if settled[shard] or state["done"]:
                    return
                if attempt < config.max_retries:
                    backoff = config.retry_backoff_ms * (2**attempt)
                    if (
                        query_deadline is not None
                        and events.now + backoff >= query_deadline
                    ):
                        # The budget cannot cover the retry: give the leg
                        # up instead of dispatching work whose answer
                        # would arrive after the query is over.
                        self._count("resilience.retries_suppressed")
                        settle(shard, False)
                        return
                    self._count("scatter.retries")
                    events.schedule(
                        backoff, lambda: dispatch(shard, attempt + 1)
                    )
                else:
                    settle(shard, False)

            def expire(shard: int) -> None:
                if not settled[shard] and not state["done"]:
                    if breakers is not None:
                        breakers[shard].record_failure()
                    self._count("scatter.shard_timeouts")
                    settle(shard, False)

            def force_complete() -> None:
                # The query's budget is spent: answer with the shards
                # gathered so far — a counted partial — or fail if even
                # the partial-result floor is unmet.
                if state["done"]:
                    return
                if config.allow_partial and state["ok"] >= min_required:
                    self.deadline_completions += 1
                    self._count("scatter.deadline_completions")
                    self._count("partial_results")
                    complete()
                else:
                    state["done"] = 1
                    self._count("scatter.failed_queries")

            def hedge() -> None:
                if state["done"]:
                    return
                unsettled = [
                    i for i in range(config.num_shards) if not settled[i]
                ]
                if len(unsettled) != 1:
                    return
                straggler = unsettled[0]
                if breakers is not None and not breakers[straggler].allow():
                    return
                self._count("resilience.hedges")

                def submit_hedge() -> None:
                    if settled[straggler] or state["done"]:
                        return
                    service = self.shard_service_ms(straggler, query)
                    self.legs_attempted[straggler] += 1
                    # A failed hedge is simply ignored: it exists to race
                    # the straggler, never to settle the leg as failed
                    # while the original is still in flight.
                    servers[straggler].submit(
                        service,
                        on_done=lambda: on_leg_done(straggler),
                        on_fail=None,
                    )

                events.schedule(network.delay_ms(), submit_hedge)

            shard_budget = config.shard_timeout_ms
            if query_deadline is not None and shard_budget is not None:
                # Per-shard timeouts never exceed the remaining budget.
                shard_budget = min(shard_budget, config.deadline_ms or 0.0)
            for i in range(config.num_shards):
                dispatch(i, attempt=0)
                if shard_budget is not None:
                    events.schedule(
                        shard_budget,
                        lambda shard=i: expire(shard),
                    )
            if config.deadline_ms is not None:
                events.schedule(config.deadline_ms, force_complete)
            if config.hedge_ms is not None:
                events.schedule(config.hedge_ms, hedge)

            schedule_next_arrival()

        events.schedule_at(0.0, lambda: arrival(0, 0.0))
        events.run(until=duration * 2)
        utilization = sum(
            server.utilization(duration) for server in servers
        ) / len(servers)
        return RunMetrics(
            latencies_ms=tuple(latencies),
            duration_ms=duration,
            cpu_utilization=utilization,
            offered_rps=arrival_rate_qps,
            completed_in_window=sum(1 for t in finish_times if t <= duration),
        )


def uniform_shard_service(
    total_service_ms: Callable[[Query], float], num_shards: int
) -> Callable[[int, Query], float]:
    """Each shard does 1/N of the query's total retrieval work (hash-
    partitioned corpora split candidate volume roughly evenly)."""

    def service(_shard: int, query: Query) -> float:
        return max(0.001, total_service_ms(query) / num_shards)

    return service


def measured_shard_service(
    shards: Sequence[object],
) -> Callable[[int, Query], float]:
    """Service-time callable backed by *live* shard indexes.

    Instead of an analytic cost model, time each shard's actual
    ``query()`` call (e.g. the ``.shards`` of a
    :class:`~repro.segment.ShardedSegmentedIndex`) and feed the measured
    milliseconds into the simulator, so scatter-gather tail behaviour
    reflects the real packed serving path.
    """

    def service(shard: int, query: Query) -> float:
        start = time.perf_counter()
        shards[shard].query(query)  # type: ignore[attr-defined]
        return max(0.001, (time.perf_counter() - start) * 1000.0)

    return service
