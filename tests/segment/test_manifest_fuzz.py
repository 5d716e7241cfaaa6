"""Fuzzing the tiered manifest decoder, in both forms it reads.

``MANIFEST.json`` is untrusted input: a torn write, a bad disk or any
writer can leave anything there, and whoever writes it can recompute
its checksum.  ``Manifest.decode`` must answer with
:class:`ManifestFormatError` or with a :class:`Manifest` that encodes
and decodes back to itself, never with ``RecursionError``, a bare
``ValueError``, ``AttributeError``, ``OverflowError`` or a hang.

Manifests are drawn by Hypothesis (segment records, tombstoned ads with
non-ASCII phrases, exclusion phrases and large ids, every index-shape
field) and encoded in the compact form ``encode`` writes today and in
the indented form older writers left.  The bytes are then truncated,
bit-flipped, spliced, replaced by random bytes, nested deeper than the
JSON decoder follows, given an integer past the interpreter's digit
limit, or — aimed past the checksum — changed structurally (a value at
the top, in ``index`` or anywhere replaced by an edge value or any JSON
value, or a key dropped) and re-checksummed.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.segment.tiered import Manifest, ManifestFormatError, SegmentRecord

#: Seconds one decode may take; the largest input is well under 1 MB.
HANG_S = 5.0

#: Either side of the JSON decoder's nesting limit (the recursion limit)
#: and of the 4300-digit limit on ``int(str)``.
DEPTHS = (10, 900, 5_000, 100_000)
DIGITS = (10, 4_300, 5_000)

LONG = "é" * 70

#: The keys a restructure leaves alone: without them nothing else is read.
PINNED = ("format", "version")

#: Values a field decoder may not expect: a float no ``int()`` takes,
#: numbers past any sane range, and every JSON type in an int's place.
EDGE_VALUES = (
    float("inf"), float("-inf"), 2**70, -1, True, "7", [1], {"k": 1}, None
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

ads = st.builds(
    lambda words, listing, campaign, bid, exclusions: Advertisement(
        phrase=tuple(words),
        info=AdInfo(
            listing_id=listing,
            campaign_id=campaign,
            bid_price_micros=bid,
            exclusion_phrases=tuple(exclusions),
        ),
    ),
    st.lists(st.sampled_from(["red", "shoes", "café", "日本語", LONG]),
             min_size=1, max_size=4),
    st.integers(-(2**40), 2**40),
    st.integers(0, 5),
    st.integers(0, 2**34),
    st.lists(st.sampled_from(["free", "ü"]), max_size=2),
)


@st.composite
def manifests(draw):
    seqs = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=6))
    segments = tuple(
        SegmentRecord(
            name=f"seg-{seq:06d}-L{level}.seg",
            level=level,
            seq=seq,
            num_ads=draw(st.integers(0, 10**6)),
        )
        for seq in seqs
        for level in [draw(st.integers(0, 5))]
    )
    return Manifest(
        generation=draw(st.integers(0, 10**9)),
        next_seq=max(seqs, default=-1) + 1,
        segments=segments,
        tombstones=tuple(
            draw(st.lists(st.tuples(ads, st.integers(1, 4)), max_size=5))
        ),
        max_words=draw(st.one_of(st.none(), st.integers(1, 12))),
        max_query_words=draw(st.integers(1, 32)),
        fast_path=draw(st.booleans()),
    )


def encode(body, indented):
    """``body`` checksummed, in the compact form ``Manifest.encode``
    writes or the indented form older writers left."""
    blob = json.dumps(body, sort_keys=True).encode("utf-8")
    checksum = hashlib.sha256(blob).hexdigest()
    if indented:
        return json.dumps(
            {**body, "checksum": checksum}, sort_keys=True, indent=1
        ).encode("utf-8")
    return blob[:-1] + b', "checksum": "' + checksum.encode() + b'"}'


def slots(value):
    """Every ``(container, key)`` below ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    found = []
    for key, child in items:
        found.append((value, key))
        found += slots(child)
    return found


@st.composite
def damaged(draw):
    """A manifest, one of its two encodings, then one kind of damage."""
    manifest = draw(manifests())
    indented = draw(st.booleans())
    data = bytearray(encode(manifest.body(), indented))
    kind = draw(
        st.sampled_from(
            ["intact", "truncate", "flip", "splice", "random", "deep",
             "digits", "restructure"]
        )
    )
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "flip":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) * 8 - 1))
            data[at // 8] ^= 1 << (at % 8)
    elif kind == "splice":
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data[start:end] = draw(st.binary(max_size=8))
    elif kind == "random":
        data = bytearray(draw(st.binary(max_size=64)))
    elif kind == "deep":
        opener = draw(st.sampled_from([b"[", b'{"k":', b'[{"k":']))
        colons = [i + 1 for i, c in enumerate(data) if c == ord(":")]
        at = draw(st.sampled_from(colons or [0]))
        data[at:at] = opener * draw(st.sampled_from(DEPTHS))
    elif kind == "digits":
        digits = [i for i, c in enumerate(data) if chr(c).isdigit()]
        at = draw(st.sampled_from(digits)) if digits else 0
        data[at:at] = b"9" * draw(st.sampled_from(DIGITS))
    elif kind == "restructure":
        body = manifest.body()
        scope = draw(st.sampled_from(["top", "index", "any"]))
        if scope == "top":
            targets = [(body, key) for key in body if key not in PINNED]
        elif scope == "index":
            targets = [(body["index"], key) for key in body["index"]]
        else:
            targets = slots(body)
        container, key = draw(st.sampled_from(targets))
        if draw(st.booleans()):
            container[key] = draw(st.sampled_from(EDGE_VALUES) | json_values)
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
        data = bytearray(encode(body, indented))
    return manifest, kind, bytes(data)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=damaged())
@example(case=(None, "deep", b"[" * 100_000))
@example(case=(None, "digits", b'{"generation": ' + b"9" * 5_000 + b"}"))
@example(
    case=(None, "restructure", encode(
        {**Manifest().body(), "generation": float("inf")}, False
    ))
)
@example(case=(None, "restructure", encode({**Manifest().body(), "index": [1]}, True)))
def test_damaged_bytes_are_a_typed_error_or_a_manifest(case):
    manifest, kind, data = case
    started = perf_counter()
    try:
        decoded = Manifest.decode(data)
    except ManifestFormatError:
        decoded = None
    finally:
        assert perf_counter() - started < HANG_S
    if kind == "intact":
        assert decoded == manifest
    if decoded is not None:
        assert isinstance(decoded, Manifest)
        assert Manifest.decode(decoded.encode()) == decoded


@settings(max_examples=50, deadline=None)
@given(manifest=manifests())
def test_the_compact_encoding_is_what_encode_writes(manifest):
    assert encode(manifest.body(), False) == manifest.encode()
    assert Manifest.decode(encode(manifest.body(), True)) == manifest
