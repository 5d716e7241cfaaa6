"""Core broad-match data structures: the paper's primary contribution.

This subpackage contains the hash-based word-set index (Section III of the
paper), the data-node layout, subset enumeration for query processing, and
the reference matching semantics used as a test oracle.
"""

from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.data_node import DataNode, NodeEntry
from repro.core.explain import QueryExplanation, explain_broad_match
from repro.core.impact_index import ImpactOrderedIndex
from repro.core.matching import (
    MatchType,
    broad_match,
    exact_match,
    naive_broad_match,
    phrase_match,
)
from repro.core.protocols import RetrievalIndex
from repro.core.queries import Query, Workload
from repro.core.subset_enum import (
    bounded_subsets,
    lookup_count,
    lookup_count_bounded,
    sized_subsets,
    subset_count,
    truncate_query,
)
from repro.core.tokens import fold_duplicates, tokenize, unfold_token
from repro.core.tree_index import TrieWordSetIndex
from repro.core.wordhash import wordhash
from repro.core.wordset_index import IndexStats, WordSetIndex

__all__ = [
    "AdCorpus",
    "AdInfo",
    "Advertisement",
    "DataNode",
    "ImpactOrderedIndex",
    "IndexStats",
    "MatchType",
    "NodeEntry",
    "Query",
    "QueryExplanation",
    "RetrievalIndex",
    "TrieWordSetIndex",
    "WordSetIndex",
    "Workload",
    "bounded_subsets",
    "broad_match",
    "exact_match",
    "explain_broad_match",
    "fold_duplicates",
    "lookup_count",
    "lookup_count_bounded",
    "naive_broad_match",
    "phrase_match",
    "sized_subsets",
    "subset_count",
    "tokenize",
    "truncate_query",
    "unfold_token",
    "wordhash",
]
