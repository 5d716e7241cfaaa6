"""Length-prefixed JSON framing — the serving tier's wire protocol.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of compact UTF-8 JSON encoding a single object.  The
object's ``"type"`` key routes it: ``serve``/``stats``/``ping``/
``shutdown`` travel frontend→worker (and client→frontend), ``result``/
``stats``/``pong``/``error`` travel back.  A ``serve`` frame's
``"request"`` value is exactly :meth:`~repro.serving.request
.ServeRequest.to_dict`; a ``result`` frame's ``"result"`` value is
exactly :meth:`~repro.serving.server.ServeResult.to_dict` — the
dataclass schema *is* the wire format.  A worker ``result`` frame also
carries a ``"generation"`` int: the serving data generation (tiered
manifest generation, or 0 for a frozen packed segment) that the
frontend's result cache keys its invalidation on.

Fault taxonomy (every subclass of :class:`WireError`):

* :class:`FrameTooLarge` — the length prefix exceeds the frame budget.
  Read **before** allocating, so an adversarial prefix cannot balloon
  memory.
* :class:`TornFrame` — the peer disconnected mid-frame (a partial
  header or a payload shorter than its prefix promised).  Clean EOF
  *between* frames is not an error: readers return ``None``.
* :class:`FrameFormatError` — the payload is not a JSON object, or
  not one the decoder can read (nesting past its depth, an integer
  literal past its digit limit).

Three readers share these rules: a blocking-socket codec (the sync
client, the cluster's probes), a stream reader (:func:`read_raw_frame`,
the load generator) and an incremental :class:`FrameSplitter` that the
frontend's protocol callbacks and the workers' selector loops feed with
whatever bytes arrived.  The stream reader and the splitter hand out
raw frames, header included, so the frontend can relay a frame without
re-encoding it.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "FrameFormatError",
    "FrameSplitter",
    "FrameTooLarge",
    "TornFrame",
    "WireError",
    "decode_payload",
    "encode_frame",
    "read_raw_frame",
    "recv_frame",
    "recv_raw_frame",
    "send_frame",
]

#: 4-byte big-endian unsigned frame length.
HEADER = struct.Struct(">I")

#: Default per-frame size budget.  Generous for ad slates (a full
#: 4-slot result is a few KiB) while bounding what a corrupt or
#: malicious length prefix can make a reader allocate.
DEFAULT_MAX_FRAME_BYTES = 1 << 20


class WireError(Exception):
    """Base class for every framing fault."""


class FrameTooLarge(WireError):
    """A length prefix exceeds the configured frame budget."""


class TornFrame(WireError):
    """The connection ended mid-frame (partial header or payload)."""


class FrameFormatError(WireError):
    """A complete frame's payload is not a JSON object."""


def encode_frame(
    payload: dict[str, Any],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes:
    """One header+payload frame for ``payload`` (compact JSON)."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_frame_bytes:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds budget {max_frame_bytes}"
        )
    return HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> dict[str, Any]:
    """Decode one frame body; the payload must be a JSON object."""
    try:
        payload = json.loads(body)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an integer past the digit
        # limit; RecursionError: nesting past the decoder's depth.
        raise FrameFormatError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameFormatError("frame payload must be a JSON object")
    return payload


def _check_length(length: int, max_frame_bytes: int) -> None:
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"frame of {length} bytes exceeds budget {max_frame_bytes}"
        )


# ------------------------------------------------------------------ #
# Blocking-socket codec (the sync client, the cluster's probes)


def _recv_exact(sock: socket.socket, length: int) -> bytes | None:
    """Exactly ``length`` bytes, ``None`` on EOF before the first byte,
    :class:`TornFrame` on EOF after it."""
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise TornFrame(
                f"peer closed mid-read: got {length - remaining} "
                f"of {length} bytes"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if len(chunks) != 1 else chunks[0]


def recv_raw_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes | None:
    """One frame body (undecoded), ``None`` on clean EOF between frames."""
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    _check_length(length, max_frame_bytes)
    if length == 0:
        return b""
    body = _recv_exact(sock, length)
    if body is None:
        raise TornFrame(
            f"peer closed after header: got 0 of {length} payload bytes"
        )
    return body


def recv_frame(
    sock: socket.socket,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> dict[str, Any] | None:
    """One decoded payload, ``None`` on clean EOF between frames."""
    body = recv_raw_frame(sock, max_frame_bytes)
    if body is None:
        return None
    return decode_payload(body)


def send_frame(
    sock: socket.socket,
    payload: dict[str, Any],
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> None:
    """Encode and send one frame."""
    sock.sendall(encode_frame(payload, max_frame_bytes))


# ------------------------------------------------------------------ #
# Asyncio stream reader (the load generator)


async def read_raw_frame(
    reader: asyncio.StreamReader,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> bytes | None:
    """One full frame **including its header** (relay-ready bytes),
    ``None`` on clean EOF between frames."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TornFrame(
            f"peer closed mid-header: got {len(exc.partial)} "
            f"of {HEADER.size} bytes"
        ) from exc
    (length,) = HEADER.unpack(header)
    _check_length(length, max_frame_bytes)
    if length == 0:
        return header
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TornFrame(
            f"peer closed mid-frame: got {len(exc.partial)} "
            f"of {length} payload bytes"
        ) from exc
    return header + body


# ------------------------------------------------------------------ #
# Incremental splitter (the frontend's callbacks, the workers' loops)


class FrameSplitter:
    """Cut a byte stream that arrives in arbitrary chunks into frames.

    :meth:`feed` each chunk as it arrives, then call :meth:`next_frame`
    until it returns ``None``; :meth:`eof` when the peer closes.  The
    frames, errors and their order are those :func:`read_raw_frame`
    gives on the same bytes: a frame is returned header included, an
    over-budget length prefix raises :class:`FrameTooLarge` as soon as
    its header is complete (before any of its body is kept waiting for
    the rest), and a partial frame at EOF raises :class:`TornFrame`.
    """

    __slots__ = ("max_frame_bytes", "_buffer", "_start")

    def __init__(self, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer: bytes | bytearray = b""
        self._start = 0

    def feed(self, data: bytes) -> None:
        """Append one received chunk."""
        if not self._buffer:
            self._buffer = data
            return
        if self._start or not isinstance(self._buffer, bytearray):
            # Keep only the unread tail: at most one partial frame.
            self._buffer = bytearray(self._buffer[self._start:])
            self._start = 0
        self._buffer += data

    @property
    def buffered(self) -> int:
        """Bytes fed but not yet handed out as a frame."""
        return len(self._buffer) - self._start

    def next_frame(self) -> bytes | None:
        """The next complete frame, or ``None`` until more bytes arrive."""
        buffer = self._buffer
        start = self._start
        size = len(buffer)
        if size - start < HEADER.size:
            return None
        (length,) = HEADER.unpack_from(buffer, start)
        _check_length(length, self.max_frame_bytes)
        end = start + HEADER.size + length
        if end > size:
            return None
        frame = bytes(buffer) if start == 0 and end == size else bytes(
            buffer[start:end]
        )
        if end == size:
            self._buffer = b""
            self._start = 0
        else:
            self._start = end
        return frame

    def eof(self) -> None:
        """The peer closed: :class:`TornFrame` if a frame is partial."""
        held = self.buffered
        if not held:
            return
        if held < HEADER.size:
            raise TornFrame(
                f"peer closed mid-header: got {held} of {HEADER.size} bytes"
            )
        (length,) = HEADER.unpack_from(self._buffer, self._start)
        raise TornFrame(
            f"peer closed mid-frame: got {held - HEADER.size} "
            f"of {length} payload bytes"
        )
