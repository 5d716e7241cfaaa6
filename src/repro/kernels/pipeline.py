"""The paper's Section IV-B query algorithm, front half, written once.

A broad-match query runs the same four steps against every hash-shaped
index (``WordSetIndex``, ``PackedSegmentIndex``,
``CompressedWordSetIndex``):

1. **plan** — cut the query to its rarest words, then prune to the
   locator vocabulary and the locator sizes present (:func:`plan_query`);
2. **keys** — enumerate the plan's subsets as an ordered stream of
   64-bit probe keys (:func:`probe_keys` per probe, or
   :func:`repro.kernels.flat.flat_probe_keys` as one array);
3. **membership** — test each key against the structure;
4. **node scan** — scan the hit nodes with early termination.

Step 1, the paper's power-set enumeration of step 2, the one rule for
whether the dict index tests a plan's keys in bulk or streams them
(:func:`bulk_membership`) and the plan memo (:class:`PlanMemo`) live
here and nowhere else.  ``WordSetIndex`` and ``CompressedWordSetIndex``
enumerate the power set; ``PackedSegmentIndex`` keeps step 1 and walks
its locator-prefix trie for step 2 instead
(:meth:`~repro.segment.packed.PackedSegmentIndex._walk`), testing each
key inline.  Each index keeps only what is its own: one probe body, one
membership test and one node-scan body.  Nothing in this module runs
per probe except the key generator itself.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Container, Iterable, Mapping, Sequence

from repro.core.queries import Query
from repro.core.subset_enum import sized_subsets, truncate_query
from repro.core.wordhash import word_contrib, wordhash
from repro.kernels import active_backend
from repro.perf.memohash import hashed_index_subsets
from repro.perf.prefilter import ProbePlan, naive_plan, plan_probes

__all__ = [
    "BULK_MIN_KEYS",
    "PlanMemo",
    "bulk_membership",
    "plan_query",
    "probe_keys",
]

HashFn = Callable[[frozenset[str]], int]

#: The canonical hash at import time.  An index passes the ``wordhash``
#: binding of its own module; comparing it against this detects a
#: swapped-in hash function (collision tests patch
#: ``repro.core.wordset_index.wordhash``), so probes always use the
#: function that placed the nodes.
_CANONICAL_WORDHASH = wordhash

#: ``WordSetIndex`` plans with at least this many probe keys take their
#: keys as one flat array (numpy only); smaller plans stream.  Set from
#: the measured per-plan crossover on the 100k-ad segment
#: (docs/performance.md); the packed index walks its prefix trie
#: instead and never asks.  Not an option.
BULK_MIN_KEYS = 64


def plan_query(
    words: frozenset[str],
    *,
    fast_path: bool,
    vocabulary: Container[str],
    size_histogram: Mapping[int, int],
    max_words: int | None,
    max_query_words: int,
    selectivity: Callable[[str], int] | None = None,
) -> ProbePlan:
    """The probe plan a broad-match over ``words`` executes.

    On the fast path the plan prunes to locator-vocabulary words and
    locator sizes actually present; with ``fast_path=False`` it is the
    paper's unpruned Section IV-B enumeration.  Either way the query is
    first cut to its ``max_query_words`` rarest words.  A plan depends
    only on the index's configuration and prefilter state, never on a
    request's deadline.
    """
    cut = truncate_query(words, max_query_words, selectivity)
    was_cut = cut != words
    if fast_path:
        return plan_probes(
            cut, vocabulary, size_histogram, max_words, truncated=was_cut
        )
    return naive_plan(cut, max_words, truncated=was_cut)


def probe_keys(
    plan: ProbePlan, hash_fn: HashFn = _CANONICAL_WORDHASH
) -> Iterable[int]:
    """Hash keys for every probe of ``plan``, in enumeration order."""
    if hash_fn is _CANONICAL_WORDHASH:
        contribs = [word_contrib(word) for word in plan.candidates]
        return (key for key, _ in hashed_index_subsets(contribs, plan.sizes))
    # Memoized contributions would disagree with where a swapped hash
    # placed the nodes; hash the materialized subsets instead.
    return (
        hash_fn(subset)
        for subset in sized_subsets(plan.candidates, plan.sizes)
    )


def bulk_membership(
    plan: ProbePlan, hash_fn: HashFn = _CANONICAL_WORDHASH
) -> bool:
    """The one rule for how ``plan``'s keys reach ``WordSetIndex``'s
    node scan.

    True (bulk) when the plan has at least :data:`BULK_MIN_KEYS` probe
    keys, ``hash_fn`` is the canonical hash and numpy serves
    (:func:`~repro.kernels.active_backend`): the index enumerates the
    plan's flat key array in one pass.  False (streamed) otherwise: the
    plan's key generator feeds the scan.
    Both end in the same node-scan body, so slates, counters and
    tracker charges do not depend on the answer, only speed does.
    """
    # Flat key arrays know only the canonical hash.  ``n`` candidate
    # words enumerate at most ``2**n - 1`` keys: an exact bound that
    # spares a lone short query the closed-form count.
    return (
        hash_fn is _CANONICAL_WORDHASH
        and 1 << len(plan.candidates) > BULK_MIN_KEYS
        and plan.probe_count() >= BULK_MIN_KEYS
        and active_backend() == "numpy"
    )


class PlanMemo:
    """Bounded word-set -> :class:`ProbePlan` LRU for a batch's plans.

    Plans depend only on an index's prefilter state, so one
    ``generation``'s plans are reusable until the next mutation; an
    immutable index never changes generation.
    """

    #: One power-law head.
    MAX_PLANS = 4096

    __slots__ = ("cache", "_generation")

    def __init__(self) -> None:
        self.cache: OrderedDict[frozenset[str], ProbePlan] = OrderedDict()
        self._generation = 0

    def plans(
        self,
        queries: Sequence[Query],
        plan: Callable[[frozenset[str]], ProbePlan],
        generation: int = 0,
    ) -> list[ProbePlan]:
        """``plan(query.words)`` for every query, memoized."""
        cache = self.cache
        if generation != self._generation:
            cache.clear()
            self._generation = generation
        out = []
        for query in queries:
            words = query.words
            cached = cache.get(words)
            if cached is None:
                cached = cache[words] = plan(words)
                if len(cache) > self.MAX_PLANS:
                    cache.popitem(last=False)
            else:
                cache.move_to_end(words)
            out.append(cached)
        return out

