"""Breaker-guarded in-process shard fan-out.

:class:`~repro.core.sharded.ShardedWordSetIndex` and
:class:`~repro.segment.ShardedSegmentedIndex` gather every shard
sequentially in-process, so a shard that starts raising (mid-recovery,
a corrupted segment, an injected fault) would fail every query even
though the other shards hold most of the corpus.  :class:`FanoutGuard`
wraps the gather loop: per-shard
:class:`~repro.resilience.breaker.CircuitBreaker`\\ s short-circuit a
failing shard, ``allow_partial``/``min_shards`` decide whether the
surviving union is a usable answer, and every partial result is
flagged on the request's :class:`~repro.resilience.deadline.Deadline`
with :attr:`DegradedReason.PARTIAL_SHARDS` — never returned silently.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TypeVar

from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.deadline import ClockMs, Deadline, DegradedReason

__all__ = ["FanoutGuard", "ShardsUnavailableError"]

_Shard = TypeVar("_Shard")
_Result = TypeVar("_Result")


class ShardsUnavailableError(RuntimeError):
    """Too few shards answered to form a usable (even partial) result."""

    def __init__(self, ok: int, required: int, total: int) -> None:
        super().__init__(
            f"only {ok} of {total} shards answered; need >= {required}"
        )
        self.ok = ok
        self.required = required
        self.total = total


class FanoutGuard:
    """Per-shard breakers + partial-result policy for one sharded index.

    Parameters
    ----------
    num_shards:
        Number of shards the guarded index fans out to.
    breaker:
        Breaker tuning shared by every shard's breaker.
    allow_partial:
        When True, a query completes with the shards that answered; when
        False any shard failure propagates (breakers still record it).
    min_shards:
        Minimum successful shards for a usable partial result
        (default 1).
    clock / obs:
        Millisecond clock for the breakers and the shared metrics
        registry for the ``resilience.*`` counters.
    """

    def __init__(
        self,
        num_shards: int,
        breaker: BreakerConfig | None = None,
        allow_partial: bool = True,
        min_shards: int | None = None,
        clock: ClockMs | None = None,
        obs: MetricsRegistry | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if min_shards is not None and not 1 <= min_shards <= num_shards:
            raise ValueError("min_shards must be in [1, num_shards]")
        self.allow_partial = allow_partial
        self.min_shards = 1 if min_shards is None else min_shards
        self._obs = active_or_none(obs)
        self.breakers = [
            CircuitBreaker(
                config=breaker, clock=clock, obs=self._obs, name=f"shard{i}"
            )
            for i in range(num_shards)
        ]
        if self._obs is not None:
            self._obs.counter(
                "resilience.shard_errors",
                help="Shard queries that raised during guarded fan-out",
            )
            self._obs.counter(
                "resilience.partial_fanouts",
                help="Guarded fan-outs answered by fewer than all shards",
            )

    def gather(
        self,
        shards: Sequence[_Shard],
        call: Callable[[_Shard], list[_Result]],
        deadline: Deadline | None = None,
    ) -> list[_Result]:
        """Run ``call`` against every shard under breaker protection.

        Returns the union of the shards that answered.  Raises the
        shard's own exception when ``allow_partial`` is False, or
        :class:`ShardsUnavailableError` when fewer than ``min_shards``
        answered.
        """
        if len(shards) != len(self.breakers):
            raise ValueError(
                f"guard built for {len(self.breakers)} shards, "
                f"got {len(shards)}"
            )
        results: list[_Result] = []
        ok = 0
        degraded = 0
        for shard, breaker in zip(shards, self.breakers):
            if deadline is not None and deadline.expired():
                # Out of budget mid-gather: the shards already answered
                # are the result — flagged, never silent.
                deadline.mark_partial(DegradedReason.DEADLINE)
                if self._obs is not None:
                    self._obs.counter("resilience.partial_fanouts").inc()
                return results
            if not breaker.allow():
                # Fail fast: an open breaker means the shard is known
                # bad; without partial-result permission that fails the
                # query immediately instead of hammering the shard.
                if not self.allow_partial:
                    raise ShardsUnavailableError(
                        ok, len(shards), len(shards)
                    )
                degraded += 1
                continue
            try:
                matched = call(shard)
            except Exception:
                breaker.record_failure()
                degraded += 1
                if self._obs is not None:
                    self._obs.counter("resilience.shard_errors").inc()
                if not self.allow_partial:
                    raise
                continue
            breaker.record_success()
            ok += 1
            results.extend(matched)
        if degraded:
            if ok < self.min_shards:
                raise ShardsUnavailableError(
                    ok, self.min_shards, len(shards)
                )
            if deadline is not None:
                deadline.mark_partial(DegradedReason.PARTIAL_SHARDS)
            if self._obs is not None:
                self._obs.counter("resilience.partial_fanouts").inc()
        return results
