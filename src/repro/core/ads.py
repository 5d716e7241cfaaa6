"""Advertisements, their metadata, and the ad corpus.

Mirrors the paper's notation (Section III-A): an advertisement ``A_i`` has a
bid ``phrase(A_i)`` and metadata ``info(A_i)`` (listing id, campaign id, bid
price, competitive-exclusion phrases, ...).  ``size(.)`` functions report the
in-memory byte footprint used by the cost model; we charge a compact binary
encoding (what a C implementation would store), not CPython object overhead,
because the cost model reasons about the paper's memory layout.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.core.tokens import phrase_tokens


@dataclass(frozen=True, slots=True)
class AdInfo:
    """Metadata attached to an advertisement (``info(A_i)`` in the paper)."""

    listing_id: int
    campaign_id: int = 0
    bid_price_micros: int = 0
    exclusion_phrases: tuple[str, ...] = ()

    def size_bytes(self) -> int:
        """Compact encoded size: ids + price + exclusion text."""
        phrases = self.exclusion_phrases
        return 8 + 4 + 4 + len("".join(phrases).encode("utf-8")) + len(phrases)


@dataclass(frozen=True, slots=True)
class Advertisement:
    """An ad: an ordered bid phrase plus metadata.

    ``words`` is the folded word-set used for broad match; ``phrase`` keeps
    word order for phrase-match and exact-match.
    """

    phrase: tuple[str, ...]
    info: AdInfo
    words: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", frozenset(self.phrase))

    @classmethod
    def from_text(cls, text: str, info: AdInfo) -> Advertisement:
        """Build an ad from raw bid text (tokenized, duplicates folded)."""
        return cls(phrase=phrase_tokens(text), info=info)

    def phrase_size_bytes(self) -> int:
        """``size(phrase(A_i))``: UTF-8 bytes plus one separator per word."""
        return len("".join(self.phrase).encode("utf-8")) + len(self.phrase)

    def size_bytes(self) -> int:
        """``size(A_i)`` = phrase + metadata footprint."""
        return self.phrase_size_bytes() + self.info.size_bytes()


class AdCorpus:
    """The corpus ``A = {A_1, ..., A_n}`` with word/word-set statistics.

    Exposes the two frequency views the paper leverages: per-keyword document
    frequency (how many bids contain a word — the skewed distribution that
    hurts inverted indexes, Fig 7) and per-word-set frequency (the Zipf
    distribution of Fig 2 that makes data nodes small).
    """

    def __init__(self, ads: Iterable[Advertisement] = ()) -> None:
        self._ads: list[Advertisement] = []
        self._word_freq: Counter[str] = Counter()
        self._wordset_freq: Counter[frozenset[str]] = Counter()
        for ad in ads:
            self.add(ad)

    def add(self, ad: Advertisement) -> None:
        """Append an ad and update corpus statistics."""
        self._ads.append(ad)
        self._word_freq.update(ad.words)
        self._wordset_freq[ad.words] += 1

    def __len__(self) -> int:
        return len(self._ads)

    def __iter__(self) -> Iterator[Advertisement]:
        return iter(self._ads)

    def __getitem__(self, index: int) -> Advertisement:
        return self._ads[index]

    @property
    def ads(self) -> Sequence[Advertisement]:
        return self._ads

    def word_frequency(self, word: str) -> int:
        """Number of bids whose word-set contains ``word``."""
        return self._word_freq[word]

    def wordset_frequency(self, words: frozenset[str]) -> int:
        """Number of ads sharing exactly this word-set."""
        return self._wordset_freq[words]

    def rarest_word(self, ad: Advertisement) -> str:
        """The ad's least corpus-frequent word (ties broken lexically).

        This is the indexing key of the paper's non-redundant inverted-index
        baseline (Section I-C / VII-A strategy I).
        """
        return min(ad.words, key=lambda w: (self._word_freq[w], w))

    def distinct_wordsets(self) -> set[frozenset[str]]:
        """All distinct bid word-sets present in the corpus."""
        return set(self._wordset_freq)

    def vocabulary(self) -> set[str]:
        """The word universe ``W``."""
        return set(self._word_freq)

    def length_histogram(self) -> dict[int, int]:
        """Histogram of bid lengths in words (Fig 1)."""
        histogram: Counter[int] = Counter()
        for ad in self._ads:
            histogram[len(ad.words)] += 1
        return dict(histogram)

    def wordset_frequencies_ranked(self) -> list[int]:
        """Word-set frequencies in descending order (Fig 2 / Fig 7 series)."""
        return sorted(self._wordset_freq.values(), reverse=True)

    def word_frequencies_ranked(self) -> list[int]:
        """Keyword document frequencies in descending order (Fig 7 series)."""
        return sorted(self._word_freq.values(), reverse=True)

    def total_size_bytes(self) -> int:
        """Compact encoded size of all ads (phrases + metadata)."""
        return sum(ad.size_bytes() for ad in self._ads)
