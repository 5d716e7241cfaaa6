"""Spans the benchmark records around calls into the program's layers.

A span carries a name, start, end, the span that caused it and a
request id.  Spans stay in memory and are written out when the run
ends.  A layer's *self time* is its span minus the part its child spans
cover, which is what lets the per-layer numbers add up to the
end-to-end one.

The program itself is not instrumented in this PR.  Calls the benchmark
makes itself are wrapped with :meth:`Tracer.span`; calls the program
makes internally (``AdServer.serve`` into ``run_gsp_auction``, say) are
reached by temporarily replacing the public function with a recording
wrapper (:meth:`Tracer.patched`), in the traced run only.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections.abc import Callable, Iterator
from typing import Any

__all__ = ["Patch", "Tracer"]

#: (owner object, attribute name, span name)
Patch = tuple[Any, str, str]


class _Span:
    """One open span.  A class, not a generator-based context manager:
    entering and leaving costs half as much, and on ``net_zipf`` four
    spans wrap a 200 us request."""

    __slots__ = ("_tracer", "_name", "_request_id", "_id", "_parent", "_started")

    def __init__(self, tracer: Tracer, name: str, request_id: str | None) -> None:
        self._tracer = tracer
        self._name = name
        self._request_id = request_id

    def __enter__(self) -> None:
        tracer = self._tracer
        stack = tracer._stack()
        self._id = next(tracer._ids)
        self._parent = -1
        if stack:
            self._parent, inherited = stack[-1]
            if self._request_id is None:
                self._request_id = inherited
        stack.append((self._id, self._request_id))
        self._started = tracer._clock()

    def __exit__(self, *exc: object) -> None:
        tracer = self._tracer
        ended = tracer._clock()
        tracer._stack().pop()
        tracer.spans.append(
            (self._id, self._name, self._started, ended, self._parent, self._request_id)
        )


class Tracer:
    """In-memory span recorder; thread-aware (one stack per thread)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._local = threading.local()
        # One row per finished span:
        # (id, name, start_ns, end_ns, parent id or -1, request id)
        self.spans: list[tuple[int, str, int, int, int, str | None]] = []
        self._ids = itertools.count()

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, request_id: str | None = None) -> _Span:
        """Context manager recording one span; without a ``request_id``
        of its own it carries that of the span that caused it."""
        return _Span(self, name, request_id)

    @contextlib.contextmanager
    def patched(self, patches: list[Patch]) -> Iterator[None]:
        """Replace each ``owner.attr`` (a module function or a plain
        method on a class) with a wrapper that records a span named
        ``name``; everything is restored on exit."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, original: Any, name: str) -> Any:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        return wrapper

    # ---------------------------------------------------------- #
    # Reading the trace

    def self_times_ns(self) -> dict[str, list[int]]:
        """Per span name, every span's duration minus its children's."""
        child_time: dict[int, int] = {}
        for _, _, started, ended, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0) + ended - started
        out: dict[str, list[int]] = {}
        for span_id, name, started, ended, _, _ in self.spans:
            out.setdefault(name, []).append(
                ended - started - child_time.get(span_id, 0)
            )
        return out

    def durations_ns(self, name: str) -> list[int]:
        return [row[3] - row[2] for row in self.spans if row[1] == name]

    def count(self, name: str) -> int:
        return sum(1 for row in self.spans if row[1] == name)

    def dump(self, path: str) -> None:
        """One JSON line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, started, ended, parent, request_id in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": started,
                            "end_ns": ended,
                            "parent": parent if parent >= 0 else None,
                            "request_id": request_id,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
