"""Match semantics: broad, phrase, and exact match, plus a naive oracle.

Definitions follow Section III of the paper:

* **broad match** — ``words(A) ⊆ Q`` (all bid words appear in the query);
* **phrase match** — the bid's tokens appear in the query *in order and
  contiguously*;
* **exact match** — bid tokens equal query tokens exactly.

``naive_broad_match`` scans the whole corpus; it is the correctness oracle
every index implementation is tested against.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.core.ads import AdCorpus, Advertisement
from repro.core.queries import Query
from repro.core.tokens import word_set


class MatchType(enum.Enum):
    """The three matching algorithms used in sponsored search."""

    BROAD = "broad"
    PHRASE = "phrase"
    EXACT = "exact"


def broad_match(ad_words: frozenset[str], query_words: frozenset[str]) -> bool:
    """``words(A) ⊆ Q``."""
    return ad_words <= query_words


def phrase_match(ad_phrase: Sequence[str], query_tokens: Sequence[str]) -> bool:
    """True iff ``ad_phrase`` occurs contiguously, in order, in the query."""
    n, m = len(ad_phrase), len(query_tokens)
    if n == 0 or n > m:
        return n == 0
    phrase = tuple(ad_phrase)
    return any(tuple(query_tokens[i : i + n]) == phrase for i in range(m - n + 1))


def exact_match(ad_phrase: Sequence[str], query_tokens: Sequence[str]) -> bool:
    """True iff bid and query are token-for-token identical."""
    return tuple(ad_phrase) == tuple(query_tokens)


def matches(ad: Advertisement, query: Query, match_type: MatchType) -> bool:
    """Apply the requested match semantics to one (ad, query) pair."""
    if match_type is MatchType.BROAD:
        return broad_match(ad.words, query.words)
    if match_type is MatchType.PHRASE:
        return phrase_match(ad.phrase, query.tokens)
    return exact_match(ad.phrase, query.tokens)


def apply_match_type(
    ads: list[Advertisement], query: Query, match_type: MatchType
) -> list[Advertisement]:
    """Narrow a broad-match candidate list to ``match_type`` semantics.

    Broad match returns the list unchanged; phrase and exact match verify
    token order against each candidate (Section III-B: all three match
    types share the same probes, only the final verification differs).
    """
    if match_type is MatchType.BROAD:
        return ads
    if match_type is MatchType.PHRASE:
        return [ad for ad in ads if phrase_match(ad.phrase, query.tokens)]
    return [ad for ad in ads if exact_match(ad.phrase, query.tokens)]


@dataclass(frozen=True, slots=True)
class RankedMatches:
    """A broad match read for an auction that keeps ``top`` ranked ads.

    ``count`` is the exact number of matching ads, ``excluded`` the exact
    number an exclusion phrase drops, and ``ads`` the best ``top`` of the
    rest by ``(-bid, listing_id)``, in the order the full match list
    would give them.  Every other match is excluded or ranks below
    ``top`` others, so no slot or price can read it.  Built by a ranked read
    (:meth:`repro.segment.packed.PackedSegmentIndex.query` with ``top``),
    consumed by :meth:`repro.serving.server.AdServer._finish`.
    """

    count: int
    excluded: int
    ads: tuple[Advertisement, ...]


#: exclusion phrase -> its folded word-set.  Tokenizing and folding a
#: phrase costs ~8x the subset test, and the same phrases are checked on
#: every query their ads match, so each is folded once per process.
#: Never evicted; bounded by the distinct exclusion phrases ever checked
#: (those of ads a query matched), which a corpus fixes.  Threads racing
#: on a miss store the same value.
_EXCLUSION_WORDS: dict[str, frozenset[str]] = {}


def excluded_by(phrases: Iterable[str], words: frozenset[str]) -> bool:
    """Whether any of ``phrases`` folds into a subset of ``words``: the
    one exclusion test, for :func:`passes_exclusions` and ranked reads."""
    memo = _EXCLUSION_WORDS
    for phrase in phrases:
        folded = memo.get(phrase)
        if folded is None:
            folded = memo[phrase] = word_set(phrase)
        if folded <= words:
            return True
    return False


def passes_exclusions(ad: Advertisement, query: Query) -> bool:
    """Secondary filter: an ad is excluded if any of its exclusion phrases is
    fully contained in the query (Section I-B's keyword-exclusion)."""
    return not excluded_by(ad.info.exclusion_phrases, query.words)


def naive_broad_match(
    corpus_or_ads: AdCorpus | Iterable[Advertisement], query: Query
) -> list[Advertisement]:
    """Reference broad-match: scan every ad.  O(n); test oracle only."""
    return [ad for ad in corpus_or_ads if broad_match(ad.words, query.words)]


def naive_match(
    corpus_or_ads: AdCorpus | Iterable[Advertisement],
    query: Query,
    match_type: MatchType,
) -> list[Advertisement]:
    """Reference matcher for any match type.  O(n); test oracle only."""
    return [ad for ad in corpus_or_ads if matches(ad, query, match_type)]
