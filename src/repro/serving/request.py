"""``ServeRequest`` — the one request object the serving stack speaks.

Historically :meth:`~repro.serving.server.AdServer.serve` took a loose
argument list (``query, user_id, priority, deadline``) that every new
serving feature widened.  ``ServeRequest`` collapses that list into a
single dataclass, and — because it round-trips losslessly to plain dicts
and JSON — the same object *is* the wire format of the network serving
tier (:mod:`repro.netserve`): an in-process ``server.serve(request)``
and a frame sent to a remote worker carry exactly the same schema.

Two deadline representations coexist deliberately:

* ``deadline_ms`` — the *relative* budget in milliseconds.  This is the
  only form that serializes: an absolute expiry is meaningless on
  another machine's clock, so the wire carries the remaining budget and
  the receiving worker starts its own :class:`~repro.resilience.deadline
  .Deadline` on receipt.
* ``deadline`` — an in-process :class:`~repro.resilience.deadline
  .Deadline` object for callers that already built one (tests with
  manual clocks, the batch engine).  It wins over ``deadline_ms`` and is
  **never** serialized.

The dict codecs for :class:`~repro.core.ads.Advertisement` and the
auction outcome live here too, so
:meth:`~repro.serving.server.ServeResult.to_dict` and the network tier
share one encoding of ad identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.resilience.admission import Priority
from repro.resilience.deadline import ClockMs, Deadline

__all__ = [
    "ServeRequest",
    "WireSchemaError",
    "ad_from_dict",
    "ad_to_dict",
]


class WireSchemaError(ValueError):
    """A dict/JSON payload does not decode into a valid schema object."""


def ad_to_dict(ad: Advertisement) -> dict[str, Any]:
    """Encode one ad's full identity (phrase order preserved)."""
    info = ad.info
    encoded: dict[str, Any] = {
        "phrase": list(ad.phrase),
        "listing_id": info.listing_id,
        "campaign_id": info.campaign_id,
        "bid_price_micros": info.bid_price_micros,
    }
    if info.exclusion_phrases:
        encoded["exclusion_phrases"] = list(info.exclusion_phrases)
    return encoded


def ad_from_dict(payload: dict[str, Any]) -> Advertisement:
    """Decode :func:`ad_to_dict` output back into an equal ad."""
    try:
        return Advertisement(
            phrase=tuple(payload["phrase"]),
            info=AdInfo(
                listing_id=payload["listing_id"],
                campaign_id=payload.get("campaign_id", 0),
                bid_price_micros=payload.get("bid_price_micros", 0),
                exclusion_phrases=tuple(
                    payload.get("exclusion_phrases", ())
                ),
            ),
        )
    except (KeyError, TypeError) as exc:
        raise WireSchemaError(f"bad advertisement payload: {exc}") from exc


@dataclass(frozen=True, slots=True)
class ServeRequest:
    """One serving request: the query plus every per-request knob.

    Parameters
    ----------
    query:
        The search query.
    user_id:
        Caller identity for frequency capping; must be JSON-scalar
        (str/int/None) to cross the wire.
    priority:
        Admission-control class the netserve frontend sheds by (lowest
        first under overload); :class:`~repro.serving.server.AdServer`
        does not read it.
    deadline_ms:
        Relative retrieval budget in milliseconds; the serialized form.
        ``None`` leaves the request unbudgeted.
    deadline:
        In-process :class:`Deadline` override (never serialized); wins
        over ``deadline_ms``.
    request_id:
        Optional correlation id echoed through logs and traces.
    """

    query: Query
    user_id: str | int | None = None
    priority: Priority = Priority.NORMAL
    deadline_ms: float | None = None
    deadline: Deadline | None = field(default=None, compare=False)
    request_id: str | None = None

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise WireSchemaError("deadline_ms must be positive")

    @classmethod
    def from_text(cls, text: str, **kwargs: Any) -> ServeRequest:
        """Convenience: build from raw query text."""
        return cls(query=Query.from_text(text), **kwargs)

    def resolve_deadline(self, clock: ClockMs | None = None) -> Deadline | None:
        """The effective in-process budget: the ``deadline`` object when
        present, else a fresh one started now from ``deadline_ms``."""
        if self.deadline is not None:
            return self.deadline
        if self.deadline_ms is not None:
            return Deadline.after_ms(self.deadline_ms, clock=clock)
        return None

    # -------------------------------------------------------------- #
    # Wire round-trip

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready form (``deadline`` objects never serialize)."""
        encoded: dict[str, Any] = {"query": list(self.query.tokens)}
        if self.user_id is not None:
            encoded["user_id"] = self.user_id
        if self.priority is not Priority.NORMAL:
            encoded["priority"] = self.priority.name.lower()
        if self.deadline_ms is not None:
            encoded["deadline_ms"] = self.deadline_ms
        if self.request_id is not None:
            encoded["request_id"] = self.request_id
        return encoded

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> ServeRequest:
        """Decode :meth:`to_dict` output (tolerant of absent defaults)."""
        if not isinstance(payload, dict):
            raise WireSchemaError("request payload must be an object")
        tokens = payload.get("query")
        if not isinstance(tokens, (list, tuple)) or not all(
            isinstance(token, str) for token in tokens
        ):
            raise WireSchemaError("request 'query' must be a token list")
        user_id = payload.get("user_id")
        if user_id is not None and not isinstance(user_id, (str, int)):
            raise WireSchemaError("request 'user_id' must be str/int/null")
        priority_name = payload.get("priority", "normal")
        try:
            priority = Priority.from_name(priority_name)
        except (ValueError, AttributeError) as exc:
            raise WireSchemaError(str(exc)) from exc
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                raise WireSchemaError(
                    "request 'deadline_ms' must be a positive number"
                )
        request_id = payload.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            raise WireSchemaError("request 'request_id' must be a string")
        return cls(
            query=Query(tokens=tuple(tokens)),
            user_id=user_id,
            priority=priority,
            deadline_ms=deadline_ms,
            request_id=request_id,
        )

    def to_json(self) -> str:
        """Compact JSON of :meth:`to_dict` (the wire payload text)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> ServeRequest:
        """Decode :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise WireSchemaError(f"bad request JSON: {exc}") from exc
        return cls.from_dict(payload)
