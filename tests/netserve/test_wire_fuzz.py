"""Fuzzing the frame payload decoder: ``decode_payload`` behind both
codecs.

A frame body is untrusted input: any client may send one to the
frontend, and the frontend relays worker replies it did not write.
Whatever the body holds, the sync codec (``recv_frame``, the workers and
the sync client) and the async one (``read_raw_frame`` plus
``decode_payload``, the frontend) must answer with
:class:`FrameFormatError` or with a JSON object, never with
``RecursionError``, a bare ``ValueError`` or a hang.

The frontend cuts frames out of its byte stream with a
:class:`FrameSplitter`; whatever the bytes and wherever the chunk
boundaries fall, it must give the frames and the error that
``read_raw_frame`` gives on the same stream.

Bodies start as valid encodings: real ``result`` frames from an
:class:`AdServer`, ``serve`` frames from ``ServeRequest.to_dict`` and
arbitrary JSON objects.  They are then truncated, bit-flipped, spliced,
replaced by random bytes, nested deeper than the decoder follows, or
given an integer literal past the interpreter's digit limit.  The
intact body must decode to the object that was encoded.
"""

from __future__ import annotations

import asyncio
from time import perf_counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.core.wordset_index import WordSetIndex
from repro.netserve.wire import (
    HEADER,
    FrameFormatError,
    FrameSplitter,
    FrameTooLarge,
    TornFrame,
    decode_payload,
    encode_frame,
    read_raw_frame,
    recv_frame,
)
from repro.serving import AdServer, ServeRequest

#: Seconds one decode may take.  The largest body drawn is ~100 kB,
#: decoded in milliseconds; far past that is a hang.
HANG_S = 5.0

#: Nesting depths either side of the decoder's limit (the recursion
#: limit, 1000 by default) and integer lengths either side of the
#: 4300-digit limit on ``int(str)``.
DEPTHS = (10, 900, 5_000, 100_000)
DIGITS = (10, 4_300, 5_000)


def _result_frames():
    ads = [
        Advertisement.from_text(
            text,
            AdInfo(
                listing_id=listing,
                campaign_id=listing % 3,
                bid_price_micros=100_000 + 7_919 * listing,
                exclusion_phrases=("free",) if listing % 4 == 0 else (),
            ),
        )
        for listing, text in enumerate(
            ["cheap used books", "used books", "books", "rare books",
             "café books", "日本語 books", "free books", "books online"]
        )
    ]
    server = AdServer(WordSetIndex.from_corpus(ads), slots=3)
    frames = []
    for generation, text in enumerate(
        ["cheap used books", "books online", "nothing here", "café books"]
    ):
        result = server.serve(ServeRequest.from_text(text, request_id=text))
        frames.append(
            {
                "type": "result",
                "request_id": text,
                "generation": generation,
                "result": result.to_dict(),
            }
        )
    return frames


RESULT_FRAMES = _result_frames()

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=16,
)

serve_frames = st.builds(
    lambda words, request_id, deadline: {
        "type": "serve",
        "request": ServeRequest.from_text(
            " ".join(words), request_id=request_id, deadline_ms=deadline
        ).to_dict(),
    },
    st.lists(st.sampled_from(["cheap", "used", "books", "café", "日本語"]),
             min_size=1, max_size=6),
    st.one_of(st.none(), st.text(max_size=12)),
    st.one_of(st.none(), st.floats(0.1, 1e4)),
)

payloads = st.one_of(
    st.sampled_from(RESULT_FRAMES),
    serve_frames,
    st.dictionaries(st.text(max_size=6), json_values, max_size=5),
)


@st.composite
def damaged(draw):
    """A valid frame body, then one kind of damage."""
    payload = draw(payloads)
    body = encode_frame(payload)[HEADER.size:]
    kind = draw(
        st.sampled_from(
            ["intact", "truncate", "flip", "splice", "random", "deep", "digits"]
        )
    )
    data = bytearray(body)
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
        # Open arrays or objects after any colon (a value position,
        # unless the colon sits in a string), or before the body.
        opener = draw(st.sampled_from([b"[", b'{"k":', b'[{"k":']))
        depth = draw(st.sampled_from(DEPTHS))
        colons = [i + 1 for i, c in enumerate(data) if c == ord(":")]
        at = draw(st.sampled_from(colons or [0]))
        data[at:at] = opener * depth
    elif kind == "digits":
        # Lengthen a number already in the body, or add one.
        digits = [i for i, c in enumerate(data) if chr(c).isdigit()]
        at = draw(st.sampled_from(digits)) if digits else len(data) - 1
        data[at:at] = b"9" * draw(st.sampled_from(DIGITS))
    return payload, kind, bytes(data)


class BytesSocket:
    """Just enough of a socket for ``recv_frame``."""

    def __init__(self, data: bytes) -> None:
        self._data = memoryview(data)

    def recv(self, size: int) -> bytes:
        chunk, self._data = bytes(self._data[:size]), self._data[size:]
        return chunk


def decode_sync(body: bytes):
    return recv_frame(BytesSocket(HEADER.pack(len(body)) + body))


def decode_async(body: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(HEADER.pack(len(body)) + body)
        reader.feed_eof()
        frame = await read_raw_frame(reader)
        return decode_payload(frame[HEADER.size:])

    return asyncio.run(run())


def timed(decode, body):
    """``decode(body)``: a JSON object or ``FrameFormatError`` (then
    ``None``), in under ``HANG_S``."""
    started = perf_counter()
    try:
        payload = decode(body)
    except FrameFormatError:
        return None
    finally:
        assert perf_counter() - started < HANG_S
    assert isinstance(payload, dict)
    return payload


@pytest.mark.parametrize("decode", [decode_sync, decode_async])
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=damaged())
@example(case=({}, "deep", b"[" * 100_000))
@example(case=({}, "deep", b'{"k":' * 5_000 + b"1" + b"}" * 5_000))
@example(case=({}, "digits", b'{"n": ' + b"9" * 5_000 + b"}"))
def test_a_damaged_body_is_a_typed_error_or_an_object(decode, case):
    payload, kind, body = case
    decoded = timed(decode, body)
    if kind == "intact":
        assert decoded == payload


# ------------------------------------------------------------------ #
# The incremental splitter against the stream reader

#: A small budget, so over-budget prefixes are common.
SPLIT_BUDGET = 64


@st.composite
def streams(draw):
    """Whole frames (zero-length and at the budget too), over-budget
    prefixes, random bytes, and a cut list splitting it into chunks."""
    parts = draw(
        st.lists(
            st.one_of(
                st.binary(max_size=SPLIT_BUDGET).map(
                    lambda body: HEADER.pack(len(body)) + body
                ),
                st.just(HEADER.pack(SPLIT_BUDGET) + b"x" * SPLIT_BUDGET),
                st.integers(SPLIT_BUDGET + 1, (1 << 32) - 1).map(HEADER.pack),
                st.binary(max_size=12),
            ),
            max_size=8,
        )
    )
    data = b"".join(parts)
    cuts = sorted(draw(st.sets(st.integers(1, max(len(data) - 1, 1)), max_size=10)))
    return data, [c for c in cuts if c < len(data)]


def read_stream(data):
    """``read_raw_frame`` over the whole stream: frames, then the error
    type that ended it (``None`` at a clean end)."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        try:
            while (frame := await read_raw_frame(reader, SPLIT_BUDGET)) is not None:
                frames.append(frame)
        except (FrameTooLarge, TornFrame) as exc:
            return frames, type(exc)
        return frames, None

    return asyncio.run(run())


def split_stream(data, cuts):
    """The splitter fed chunk by chunk: frames, the error type, and how
    many bytes had been fed when it was raised."""
    splitter = FrameSplitter(SPLIT_BUDGET)
    frames = []
    fed = 0
    for start, end in zip([0, *cuts], [*cuts, len(data)]):
        splitter.feed(data[start:end])
        fed = end
        try:
            while (frame := splitter.next_frame()) is not None:
                frames.append(frame)
        except FrameTooLarge:
            return frames, FrameTooLarge, fed
    try:
        splitter.eof()
    except TornFrame:
        return frames, TornFrame, fed
    return frames, None, fed


@settings(max_examples=400, deadline=None)
@given(case=streams())
@example(case=(HEADER.pack(SPLIT_BUDGET + 1) + b"y" * 500, [2, 4, 300]))
@example(case=(HEADER.pack(0) * 3 + HEADER.pack(5) + b"ab", [1, 5, 9]))
def test_splitter_gives_the_stream_readers_frames_and_errors(case):
    data, cuts = case
    frames, error = read_stream(data)
    got, got_error, fed = split_stream(data, cuts)
    assert got == frames
    assert all(isinstance(frame, bytes) for frame in got)
    assert got_error is error
    if error is FrameTooLarge:
        # Raised by the chunk that completed the over-budget header,
        # before any later byte of its body was taken in.
        header_end = sum(map(len, frames)) + HEADER.size
        assert fed == min(b for b in [*cuts, len(data)] if b >= header_end)
