"""The shared retrieval surface every index structure conforms to.

Historically each structure grew its own ad-hoc query methods
(``query_broad``, ``query(query, match_type)`` with a required second
argument, duck-typed consumers).  :class:`RetrievalIndex` is the one
contract now: consumers (:class:`~repro.serving.server.AdServer`,
:class:`~repro.perf.batch.BatchQueryEngine`, the CLI, the experiment
drivers) type against it, and the three concrete structures —
``WordSetIndex``, ``TrieWordSetIndex`` and ``ImpactOrderedIndex`` —
implement it, as do the inverted-index
baselines and the compressed hash replacement.

The PR 2 migration is complete: the primary structures expose only
``query`` — their ``query_broad`` DeprecationWarning aliases have been
removed.  The inverted-index baselines keep ``query_broad`` as their
documented primary entry point (it is *their* native surface, wrapped by
``query``), which is exactly the asymmetry the conformance tests pin.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.ads import Advertisement
from repro.core.matching import MatchType
from repro.core.queries import Query

__all__ = ["RetrievalIndex"]


@runtime_checkable
class RetrievalIndex(Protocol):
    """Anything that can retrieve ads for a query.

    The contract:

    * ``query(query, match_type=MatchType.BROAD)`` returns every matching
      :class:`~repro.core.ads.Advertisement` (broad match by default;
      phrase/exact verify token order on the same candidates);
    * ``stats()`` reports structural statistics (shape is
      implementation-defined: :class:`~repro.core.wordset_index.IndexStats`
      for the hash index, a dict for the tiered one, ...);
    * ``len(index)`` is the number of indexed advertisements.
    """

    def query(
        self, query: Query, match_type: MatchType = MatchType.BROAD
    ) -> list[Advertisement]:
        """All ads matching ``query`` under ``match_type``."""
        ...

    def stats(self) -> object:
        """Structural statistics of the index."""
        ...

    def __len__(self) -> int:
        """Number of indexed advertisements."""
        ...
