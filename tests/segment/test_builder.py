"""``encode_node``: differential against the encoder it replaced, and the
bytes of a whole built segment pinned.

Format version 2 replaced the version-1 node record, so the two encoders
no longer write the same bytes.  The version-1 encoder (the
helper-composed one, which wrote exactly the bytes of the one-pass
version-1 encoder) is kept here *verbatim* as the reference; every
generated node, encoded by each and decoded by its own format's decoder
(the version-1 one is ``test_runs``'s verbatim reference), must hold the
same ads, and the version-2 record must not depend on the order the
entries come in.
"""

import hashlib
from collections import Counter
from collections.abc import Sequence
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.deltas import delta_encode_prices, varint_encode, zigzag_encode
from repro.compress.frontcoding import front_encode
from repro.core.ads import AdInfo, Advertisement
from repro.core.data_node import NodeEntry
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.segment import builder
from repro.segment.builder import SegmentBuilder
from repro.segment.packed import PackedSegmentIndex
from tests.segment.test_runs import ReferencePackedSegmentIndex

# ---------------------------------------------------------------------- #
# The reference: the replaced code, verbatim.


def _encode_str(text: str) -> bytes:
    blob = text.encode("utf-8")
    return varint_encode(len(blob)) + blob


def encode_node(entries: Sequence[NodeEntry]) -> bytes:
    """One node record: entry count, delta-coded prices, front-coded entries.

    Layout (all ints LEB128 varints)::

        num_entries
        prices_len  prices_blob          # delta+zigzag bids, entry order
        per entry:
          word_count                     # |words(A)| — the scan-order key
          shared_tokens                  # front-coding vs previous phrase
          num_suffix_tokens  (len token)*
          zigzag(listing_id)  zigzag(campaign_id)
          num_exclusions  (len phrase)*

    The prices blob leads so a scan can decode one price per entry it
    touches, in step with the entry walk, and early termination never
    decodes prices (or anything else) past the cut.
    """
    prices = delta_encode_prices([e.ad.info.bid_price_micros for e in entries])
    out = bytearray(varint_encode(len(entries)))
    out += varint_encode(len(prices))
    out += prices
    coded = front_encode([e.ad.phrase for e in entries])
    for entry, phrase in zip(entries, coded):
        info = entry.ad.info
        out += varint_encode(entry.word_count)
        out += varint_encode(phrase.shared_tokens)
        out += varint_encode(len(phrase.suffix))
        for token in phrase.suffix:
            out += _encode_str(token)
        out += varint_encode(zigzag_encode(info.listing_id))
        out += varint_encode(zigzag_encode(info.campaign_id))
        out += varint_encode(len(info.exclusion_phrases))
        for exclusion in info.exclusion_phrases:
            out += _encode_str(exclusion)
    return bytes(out)


# ---------------------------------------------------------------------- #
# Differential


def entry(phrase, listing_id=1, campaign_id=0, bid=100, exclusions=()):
    return NodeEntry(
        Advertisement(
            phrase=tuple(phrase),
            info=AdInfo(
                listing_id=listing_id,
                campaign_id=campaign_id,
                bid_price_micros=bid,
                exclusion_phrases=tuple(exclusions),
            ),
        )
    )


LONG = "é" * 70  # 140 UTF-8 bytes: a two-byte length varint

tokens = st.one_of(
    st.sampled_from(["used", "books", "cheap", "café", "日本語", "🙂", LONG]),
    st.text(min_size=1, max_size=5),
    st.text(alphabet="aé語", min_size=128, max_size=150),
)
# Zigzag doubles an id: 2^21 and past needs a fourth varint byte.
ids = st.one_of(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.sampled_from([2**21, -(2**21), 2**63, -(2**63)]),
)
# Bids in entry order: deltas of either sign, small and >= 2^14.
bids = st.one_of(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=-(2**34), max_value=2**34),
)
exclusion_lists = st.one_of(
    st.just(()),
    st.lists(st.one_of(st.sampled_from(["free", "crédit"]), tokens), max_size=3),
)


@st.composite
def nodes(draw):
    """A node's entries.  Each phrase keeps 0..all tokens of the previous
    one and adds 0..3 drawn from a per-node pool, so shared prefixes run
    from none to the whole phrase; optionally the run repeats to >= 128
    entries, where the count and the prices length take two bytes."""
    pool = draw(st.lists(tokens, min_size=1, max_size=6, unique=True))
    entries: list[NodeEntry] = []
    previous: tuple[str, ...] = ()
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        keep = draw(st.integers(min_value=0, max_value=len(previous)))
        fresh = draw(
            st.lists(st.sampled_from(pool), min_size=0 if keep else 1, max_size=3)
        )
        phrase = previous[:keep] + tuple(fresh)
        entries.append(
            entry(
                phrase,
                draw(ids),
                draw(ids),
                draw(bids),
                draw(exclusion_lists),
            )
        )
        previous = phrase
    if entries and draw(st.booleans()):
        size = draw(st.integers(min_value=128, max_value=300))
        entries = [entries[i % len(entries)] for i in range(size)]
    return entries


def decoded(data):
    """The ads of a version-2 record, through the index's decoder."""
    runs, _ = PackedSegmentIndex._decode_entries(
        SimpleNamespace(_token_intern={}, _obs=None), data, None
    )
    return [ad for _, run in runs for ad in run]


def decoded_v1(data):
    """The ads of a version-1 record, through the replaced decoder."""
    ads, _ = ReferencePackedSegmentIndex._decode_entries(
        SimpleNamespace(_token_intern={}, _phrase_cache={}, _ad_intern={}),
        data,
        None,
    )
    return ads


@settings(max_examples=400, deadline=None)
@given(nodes(), st.randoms(use_true_random=False))
def test_encoder_matches_the_replaced_encoder(entries, rng):
    data = builder.encode_node(entries)
    want = Counter(entry.ad for entry in entries)
    assert Counter(decoded(data)) == want
    assert Counter(decoded_v1(encode_node(entries))) == want
    shuffled = list(entries)
    rng.shuffle(shuffled)
    assert builder.encode_node(shuffled) == data


def test_every_feature_in_one_node():
    """The cases the generator is built to reach, all in one node."""
    phrases = [
        ("café", "日本語", LONG),  # non-ASCII, a >= 128-byte token
        ("café", "日本語", LONG),  # whole phrase shared
        ("café", "books"),  # part shared
        ("used", "books"),  # none shared
        ("used",),
    ]
    listing = [0, -1, 2**21, -(2**21) - 5, 2**40]
    bids = [5_000_000, 5_000_100, 4_000_000, 4_000_000 + 2**14, 3]
    base = [
        entry(phrase, listing_id, -listing_id, bid, ("free", LONG) if i % 2 else ())
        for i, (phrase, listing_id, bid) in enumerate(zip(phrases, listing, bids))
    ]
    entries = [base[i % len(base)] for i in range(130)]
    data = builder.encode_node(entries)
    want = Counter(entry.ad for entry in entries)
    assert Counter(decoded(data)) == want
    assert Counter(decoded_v1(encode_node(entries))) == want
    assert builder.encode_node(entries[::-1]) == data
    # One row (one word, "used") of 130 entries: a two-byte count.
    used = builder.encode_node([entry(("used",), i) for i in range(130)])
    assert used[:9] == b"\x01\x01\x04used\x82\x01"


# ---------------------------------------------------------------------- #
# A whole segment, pinned

# sha256 of ``SegmentBuilder(...).build()`` over ``pinned_corpus()``.
# Re-taken when format version 2 changed the node record on purpose (the
# version-1 bytes were c4eb0ff4...5b97); a change that means to keep the
# bytes must keep this.
PARENT_SEGMENT_SHA256 = "7f95120e23b9acdba817881e1a3d09f95a9d8bb264e6b3a4e34bc12a7f3ec3f9"


def pinned_corpus():
    """3 000 seeded ads.  The generator orders a phrase's tokens by
    iterating a frozenset, which moves with ``PYTHONHASHSEED``; the word
    sets, ids, bids and exclusions do not.  Re-ordering each phrase
    (sorted, rotated by listing id) makes the corpus hash-seed free while
    keeping prefixes of every length for the front-coder."""
    ads = []
    for ad in generate_corpus(CorpusConfig(num_ads=3_000, seed=11)).corpus:
        words = sorted(ad.phrase)
        turn = ad.info.listing_id % len(words)
        ads.append(
            Advertisement(phrase=tuple(words[turn:] + words[:turn]), info=ad.info)
        )
    return ads


def test_built_segment_matches_the_parent_byte_for_byte():
    data = SegmentBuilder(WordSetIndex.from_corpus(pinned_corpus())).build()
    assert hashlib.sha256(data).hexdigest() == PARENT_SEGMENT_SHA256
