"""An LRU result cache in front of the broad-match index.

Search query frequencies follow a power law (Section V of the paper), so a
small cache keyed on the query's *word-set* absorbs a large fraction of
retrieval work.  Correctness requires invalidation on any corpus mutation;
since an inserted/deleted ad can affect any cached query containing its
words, the cache flushes wholesale on mutation (mutations are rare relative
to queries — the same asymmetry the paper leans on for deletions).

``CachedIndex`` wraps any :class:`~repro.core.protocols.RetrievalIndex`
(and optionally ``insert``/``delete``) and is itself a conforming
``RetrievalIndex``, a true drop-in for
:class:`repro.serving.server.AdServer`: all three match types are cached
(phrase/exact keyed on the exact token sequence, since they verify word
order), ``stats()``/``__len__`` and mutations delegate, and unknown
attributes fall through to the wrapped structure.  Cache counters live on
:attr:`CachedIndex.cache_stats` and — when an ``obs`` registry is attached
— on the shared ``cache.hits`` / ``cache.misses`` / ``cache.invalidations``
counters plus the ``span.cache`` lookup-latency histogram.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

from repro.core.ads import Advertisement
from repro.core.matching import MatchType
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query
from repro.obs.registry import MetricsRegistry, active_or_none
from repro.resilience.deadline import Deadline

#: Cache key: broad match folds to the word-set; phrase/exact verify token
#: order, so they key on the exact token sequence.
_CacheKey = tuple[MatchType, object]


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    #: Stale entries served through :meth:`CachedIndex.query_stale`
    #: (overload fallback — see :mod:`repro.resilience`).
    stale_hits: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedIndex:
    """LRU query-result cache over any retrieval structure.

    Parameters
    ----------
    index:
        The wrapped :class:`~repro.core.protocols.RetrievalIndex`.
    capacity:
        Maximum number of cached result lists (LRU eviction).
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry` recording
        cache hit/miss/invalidation counters and lookup-latency spans.
    """

    def __init__(
        self,
        index: RetrievalIndex,
        capacity: int = 1024,
        obs: MetricsRegistry | None = None,
        stale_capacity: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if stale_capacity is not None and stale_capacity < 0:
            raise ValueError("stale_capacity must be >= 0")
        self.index = index
        self.capacity = capacity
        self._cache: OrderedDict[_CacheKey, list[Advertisement]] = (
            OrderedDict()
        )
        # Stale store: invalidated entries demoted here instead of
        # discarded, so overload degradation can trade freshness for
        # availability (``query_stale``).  Bounded separately; entries
        # may reflect a pre-mutation corpus by construction.
        self.stale_capacity = (
            capacity if stale_capacity is None else stale_capacity
        )
        self._stale: OrderedDict[_CacheKey, list[Advertisement]] = (
            OrderedDict()
        )
        self.cache_stats = CacheStats()
        self._obs: MetricsRegistry | None = None
        self.bind_obs(obs)

    def bind_obs(self, obs: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        obs = active_or_none(obs)
        self._obs = obs
        if obs is not None:
            obs.counter("cache.hits", help="Result-cache hits")
            obs.counter("cache.misses", help="Result-cache misses")
            obs.counter(
                "cache.invalidations",
                help="Wholesale cache flushes on corpus mutation",
            )
            obs.counter(
                "cache.stale_hits",
                help="Stale results served as overload fallback",
            )

    # ------------------------------------------------------------------ #
    # Queries

    def query(
        self,
        query: Query,
        match_type: MatchType = MatchType.BROAD,
        deadline: Deadline | None = None,
    ) -> list[Advertisement]:
        """Process a query under any match semantics, through the cache.

        A ``deadline`` threads through to the wrapped index when it
        advertises ``supports_deadline``.  A result the budget flagged
        partial is returned but **never cached** — a cache hit must mean
        the complete answer, not an artifact of one overloaded moment.
        """
        obs = self._obs
        if match_type is MatchType.BROAD:
            key: _CacheKey = (match_type, query.words)
        else:
            key = (match_type, query.tokens)
        started = perf_counter() if obs is not None else 0.0
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_stats.hits += 1
            if obs is not None:
                obs.counter("cache.hits").inc()
                obs.histogram("span.cache").observe(
                    (perf_counter() - started) * 1e3
                )
            return list(cached)
        self.cache_stats.misses += 1
        if obs is not None:
            obs.counter("cache.misses").inc()
            obs.histogram("span.cache").observe(
                (perf_counter() - started) * 1e3
            )
        if deadline is not None and getattr(
            self.index, "supports_deadline", False
        ):
            result = self.index.query(query, match_type, deadline)
        else:
            result = self.index.query(query, match_type)
        if deadline is not None and deadline.partial:
            return result
        self._cache[key] = list(result)
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return result

    def query_stale(
        self, query: Query, match_type: MatchType = MatchType.BROAD
    ) -> list[Advertisement] | None:
        """A possibly-stale cached result, or ``None`` if never cached.

        The overload fallback (see :mod:`repro.resilience`): checks the
        live cache first, then the stale store populated by
        :meth:`invalidate`.  Never touches the wrapped index.
        """
        if match_type is MatchType.BROAD:
            key: _CacheKey = (match_type, query.words)
        else:
            key = (match_type, query.tokens)
        entry = self._cache.get(key)
        if entry is None:
            entry = self._stale.get(key)
        if entry is None:
            return None
        self.cache_stats.stale_hits += 1
        if self._obs is not None:
            self._obs.counter("cache.stale_hits").inc()
        return list(entry)

    # ------------------------------------------------------------------ #
    # Mutations pass through and invalidate.

    def insert(self, ad: Advertisement, locator=None, **kwargs) -> None:
        self.index.insert(ad, locator=locator, **kwargs)
        self.invalidate()

    def delete(self, ad: Advertisement) -> bool:
        removed = self.index.delete(ad)
        if removed:
            self.invalidate()
        return removed

    def invalidate(self) -> None:
        """Drop every cached result (corpus changed).

        Invalidated entries demote into the bounded stale store rather
        than vanishing, so :meth:`query_stale` can serve them during
        overload.
        """
        if self._cache:
            if self.stale_capacity > 0:
                self._stale.update(self._cache)
                while len(self._stale) > self.stale_capacity:
                    self._stale.popitem(last=False)
            self._cache.clear()
        self.cache_stats.invalidations += 1
        if self._obs is not None:
            self._obs.counter("cache.invalidations").inc()

    # ------------------------------------------------------------------ #
    # Delegation

    def stats(self):
        """Structural statistics of the wrapped index (not cache counters —
        those are :attr:`cache_stats`)."""
        return self.index.stats()

    def __len__(self) -> int:
        return len(self.index)

    def __getattr__(self, name: str):
        # True drop-in behaviour: anything the cache layer does not define
        # (``nodes``, ``placement``, ``check_invariants``, ``probe_plan``,
        # ...) falls through to the wrapped structure.  Dunder/private
        # lookups are excluded so failed internal protocol probes surface
        # normally.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.index, name)

    @property
    def cached_queries(self) -> int:
        return len(self._cache)

    @property
    def stale_queries(self) -> int:
        return len(self._stale)

    @property
    def supports_deadline(self) -> bool:
        """The cache is deadline-transparent: capability follows the
        wrapped index (defined eagerly so ``__getattr__`` fall-through
        never reports the wrong layer's answer)."""
        return bool(getattr(self.index, "supports_deadline", False))
