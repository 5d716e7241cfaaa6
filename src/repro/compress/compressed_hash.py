"""The compressed lookup structure of Fig 6: ``B^sig`` + ``B^off``.

Replaces the hash table ``H`` with two rank/select bit-arrays:

* ``B^sig`` of length ``2^s``: bit ``i`` is set iff some data node's
  locator hash has the ``s``-bit suffix ``i``.  Nodes whose suffixes
  collide are **merged** (their entries concatenated, keeping the global
  word-count ordering so early termination still works).
* ``B^off`` of length ``D_size`` (total node bytes): bit ``j`` is set iff a
  data node starts at byte offset ``j``.

Lookup of a node-locator ``W``:
``sw = suffix_s(wordhash(W))``; if ``B^sig[sw] == 0`` there is no node;
otherwise ``offset = select1(B^off, rank1(B^sig, sw + 1))``.

Every probe still verifies stored word-sets against the query, so the extra
collisions a short suffix introduces cost scan time, never correctness —
which is exactly the size/speed trade-off :mod:`repro.compress.suffix_opt`
tunes.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Mapping

from repro.core.ads import Advertisement
from repro.core.data_node import DataNode
from repro.core.matching import MatchType, apply_match_type
from repro.core.queries import Query
from repro.core.wordhash import hash_suffix, wordhash
from repro.core.wordset_index import WordSetIndex
from repro.compress.bitvector import BitVector
from repro.compress.sizing import h0_bits
from repro.cost.accounting import AccessTracker
from repro.kernels.pipeline import plan_query, probe_keys
from repro.perf.prefilter import ProbePlan


class CompressedWordSetIndex:
    """A read-only broad-match index backed by the Fig 6 bit-arrays.

    With ``vocabulary`` and ``size_histogram`` supplied (the
    :meth:`from_index` path does this automatically), queries run the
    same :class:`~repro.perf.prefilter.ProbePlan` pruning and memoized
    subset hashing as ``WordSetIndex(fast_path=True)``.  Built from raw
    nodes without that state, pruning stays off: a node's own locator is
    not enough to reconstruct the *placement* locators of hash-colliding
    groups, and pruning against incomplete locator state could skip a
    probe that must hit.
    """

    def __init__(
        self,
        nodes: Iterable[DataNode],
        suffix_bits: int,
        max_words: int | None = None,
        max_query_words: int = 16,
        tracker: AccessTracker | None = None,
        sig_encoding: str = "plain",
        offsets_encoding: str = "plain",
        vocabulary: Container[str] | None = None,
        size_histogram: Mapping[int, int] | None = None,
        fast_path: bool = True,
    ) -> None:
        if not 1 <= suffix_bits <= 48:
            raise ValueError("suffix_bits must be in [1, 48]")
        if sig_encoding not in ("plain", "rrr", "eliasfano"):
            raise ValueError(
                "sig_encoding must be 'plain', 'rrr', or 'eliasfano'"
            )
        if offsets_encoding not in ("plain", "eliasfano"):
            raise ValueError("offsets_encoding must be 'plain' or 'eliasfano'")
        self.suffix_bits = suffix_bits
        self.sig_encoding = sig_encoding
        self.offsets_encoding = offsets_encoding
        self.max_words = max_words
        self.max_query_words = max_query_words
        self.tracker = tracker
        self.fast_path = (
            fast_path and vocabulary is not None and size_histogram is not None
        )
        self._vocabulary: Container[str] = vocabulary or ()
        self._size_histogram: Mapping[int, int] = size_histogram or {}
        merged: dict[int, DataNode] = {}
        for node in nodes:
            suffix = hash_suffix(wordhash(node.locator), suffix_bits)
            target = merged.get(suffix)
            if target is None:
                # Copy so the source index's nodes stay untouched.
                target = DataNode(node.locator)
                merged[suffix] = target
            for entry in node.entries:
                target.add(entry.ad)
        self._suffix_order = sorted(merged)
        self._nodes = [merged[s] for s in self._suffix_order]
        self._build_bitarrays()

    @classmethod
    def from_index(
        cls,
        index: WordSetIndex,
        suffix_bits: int,
        tracker: AccessTracker | None = None,
        sig_encoding: str = "plain",
        offsets_encoding: str = "plain",
    ) -> CompressedWordSetIndex:
        return cls(
            index.nodes.values(),
            suffix_bits=suffix_bits,
            max_words=index.max_words,
            max_query_words=index.max_query_words,
            tracker=tracker,
            sig_encoding=sig_encoding,
            offsets_encoding=offsets_encoding,
            # The source index's *placement* locator state makes pruning
            # exact on the compressed path too (see the class docstring).
            vocabulary=index.indexed_vocabulary(),
            size_histogram=index.locator_size_histogram(),
            fast_path=index.fast_path,
        )

    def _build_bitarrays(self) -> None:
        if self.sig_encoding == "rrr":
            from repro.compress.rrr import RRRBitVector

            self.bsig = RRRBitVector.from_positions(
                1 << self.suffix_bits, self._suffix_order
            )
        elif self.sig_encoding == "eliasfano":
            from repro.compress.eliasfano import EliasFanoBitVector

            self.bsig = EliasFanoBitVector.from_positions(
                1 << self.suffix_bits, self._suffix_order
            )
        else:
            self.bsig = BitVector.from_positions(
                1 << self.suffix_bits, self._suffix_order
            )
        offsets = []
        position = 0
        for node in self._nodes:
            offsets.append(position)
            position += node.size_bytes()
        self._total_node_bytes = max(position, 1)
        self._offsets = offsets
        if self.offsets_encoding == "eliasfano":
            from repro.compress.eliasfano import EliasFano

            self.boff = EliasFano.from_bit_positions(
                self._total_node_bytes, offsets
            )
        else:
            self.boff = BitVector.from_positions(self._total_node_bytes, offsets)

    # ------------------------------------------------------------------ #

    def lookup(self, locator: frozenset[str]) -> DataNode | None:
        """The Fig 6 lookup: suffix -> rank over B^sig -> select over B^off.

        Returns the (possibly merged) node stored for the locator's hash
        suffix, or ``None`` when the suffix is absent.
        """
        sw = hash_suffix(wordhash(locator), self.suffix_bits)
        if not self.bsig[sw]:
            return None
        rank = self.bsig.rank1(sw + 1)
        offset = self.boff.select1(rank)
        node = self._nodes[rank - 1]
        assert self._offsets[rank - 1] == offset
        return node

    def probe_plan(self, words: frozenset[str]) -> ProbePlan:
        """The probe plan a broad-match over ``words`` executes —
        :func:`repro.kernels.pipeline.plan_query`, so the compressed
        path prunes exactly like the dict-backed index."""
        return plan_query(
            words,
            fast_path=self.fast_path,
            vocabulary=self._vocabulary,
            size_histogram=self._size_histogram,
            max_words=self.max_words,
            max_query_words=self.max_query_words,
        )

    def query(
        self, query: Query, match_type: MatchType = MatchType.BROAD
    ) -> list[Advertisement]:
        """Broad match over the compressed structure (verified, exact),
        then phrase/exact verification on the stored phrases — the
        shared :class:`RetrievalIndex` surface."""
        plan = self.probe_plan(query.words)
        words = plan.words
        tracker = self.tracker
        results: list[Advertisement] = []
        visited: set[int] = set()
        for key in probe_keys(plan):
            sw = hash_suffix(key, self.suffix_bits)
            if tracker is not None:
                # Two random bit-array touches: B^sig probe + B^off select.
                tracker.hash_probe(1)
            if sw in visited:
                continue
            visited.add(sw)
            if not self.bsig[sw]:
                continue
            rank = self.bsig.rank1(sw + 1)
            node = self._nodes[rank - 1]
            matched, scanned = node.scan(words)
            if tracker is not None:
                tracker.random_access(scanned)
                tracker.candidate(
                    sum(1 for e in node.entries if e.word_count <= len(words))
                )
            results.extend(matched)
        if tracker is not None:
            tracker.query_done()
        return apply_match_type(results, query, match_type)

    def stats(self) -> dict[str, float]:
        """Structural statistics (the :class:`RetrievalIndex` surface)."""
        return {
            "num_nodes": self.num_nodes(),
            "node_bytes": self.node_bytes(),
            "structure_bits": self.structure_bits(),
            "entropy_bits": self.entropy_bits(),
        }

    # ------------------------------------------------------------------ #
    # Size accounting.

    def __len__(self) -> int:
        return sum(len(node) for node in self._nodes)

    def num_nodes(self) -> int:
        return len(self._nodes)

    def node_bytes(self) -> int:
        return sum(node.size_bytes() for node in self._nodes)

    def structure_bits(self) -> int:
        """Actual bits of the two structures including rank directories.

        With the ``rrr`` / ``eliasfano`` encodings this is a genuinely
        compressed measurement; with ``plain`` it is the uncompressed
        broadword layout.
        """
        return self.bsig.size_bits() + self.boff.size_bits()

    def entropy_bits(self) -> float:
        """``n*H0(B^sig) + n*H0(B^off)`` — the compressed-size accounting
        used in the paper's 9:1 example (encoding-independent)."""
        num_suffixes = len(self._suffix_order)
        return h0_bits(1 << self.suffix_bits, num_suffixes) + h0_bits(
            self._total_node_bytes, len(self._offsets)
        )

    def average_entries_per_suffix(self) -> float:
        """Mean merged-node size — grows as ``suffix_bits`` shrinks."""
        if not self._nodes:
            return 0.0
        return sum(len(n) for n in self._nodes) / len(self._nodes)


def merged_node_count(locators: Iterable[frozenset[str]], suffix_bits: int) -> int:
    """Number of distinct ``s``-bit suffixes over the given locators."""
    return len(
        {hash_suffix(wordhash(loc), suffix_bits) for loc in locators}
    )
