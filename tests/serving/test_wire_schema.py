"""``ServeRequest``/``ServeResult`` dict/JSON round-trips — the wire
schema contract, tested with no network tier anywhere in sight."""

import json

import pytest

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.resilience.admission import Priority
from repro.resilience.deadline import Deadline, DegradedReason, ManualClock
from repro.serving import AdServer, ServeRequest, ServeResult, WireSchemaError
from repro.serving.request import ad_from_dict, ad_to_dict
from repro.core.wordset_index import WordSetIndex


def ad(text, listing_id=0, campaign_id=0, bid=0, exclusions=()):
    return Advertisement.from_text(
        text,
        AdInfo(
            listing_id=listing_id,
            campaign_id=campaign_id,
            bid_price_micros=bid,
            exclusion_phrases=exclusions,
        ),
    )


CORPUS = [
    ad("cheap used books", 1, campaign_id=9, bid=500),
    ad("used books", 2, bid=300),
    ad("books", 3, bid=200),
    ad("books used cheap", 6, bid=450),
    ad("summer sale shoes", 8, bid=100, exclusions=("winter boots",)),
]


class TestAdCodec:
    def test_round_trip_preserves_identity_and_phrase_order(self):
        original = ad("cheap used books", 7, campaign_id=3, bid=123,
                      exclusions=("rare maps",))
        decoded = ad_from_dict(ad_to_dict(original))
        assert decoded == original
        assert decoded.phrase == ("cheap", "used", "books")

    def test_missing_phrase_raises_schema_error(self):
        with pytest.raises(WireSchemaError):
            ad_from_dict({"listing_id": 1})


class TestServeRequestRoundTrip:
    def test_full_round_trip(self):
        request = ServeRequest.from_text(
            "cheap used books",
            user_id="u1",
            priority=Priority.HIGH,
            deadline_ms=125.5,
            request_id="req-1",
        )
        assert ServeRequest.from_dict(request.to_dict()) == request
        assert ServeRequest.from_json(request.to_json()) == request

    def test_defaults_are_omitted_from_the_wire(self):
        encoded = ServeRequest.from_text("books").to_dict()
        assert encoded == {"query": ["books"]}

    def test_deadline_object_never_serializes(self):
        clock = ManualClock()
        request = ServeRequest.from_text(
            "books", deadline=Deadline.after_ms(50.0, clock=clock)
        )
        assert "deadline" not in request.to_dict()
        # The round-tripped request is equal: ``deadline`` is excluded
        # from comparison exactly because it cannot cross the wire.
        assert ServeRequest.from_dict(request.to_dict()) == request

    def test_resolve_deadline_prefers_the_object(self):
        clock = ManualClock()
        explicit = Deadline.after_ms(50.0, clock=clock)
        request = ServeRequest.from_text(
            "books", deadline_ms=500.0, deadline=explicit
        )
        assert request.resolve_deadline(clock) is explicit

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"query": "not a list"},
            {"query": ["ok", 3]},
            {"query": ["ok"], "user_id": 1.5},
            {"query": ["ok"], "priority": "urgent"},
            {"query": ["ok"], "deadline_ms": -5},
            {"query": ["ok"], "deadline_ms": "fast"},
            {"query": ["ok"], "request_id": 9},
            "not an object",
        ],
    )
    def test_bad_payloads_raise_schema_errors(self, payload):
        with pytest.raises(WireSchemaError):
            ServeRequest.from_dict(payload)

    def test_nonpositive_deadline_rejected_at_construction(self):
        with pytest.raises(WireSchemaError):
            ServeRequest.from_text("books", deadline_ms=0)


class TestServeResultRoundTrip:
    def _result(self, text="books used cheap extra"):
        server = AdServer(WordSetIndex.from_corpus(CORPUS), slots=3)
        return server.serve(Query.from_text(text))

    def test_round_trip_is_equal(self):
        result = self._result()
        assert result.ads, "fixture query must award slots"
        assert ServeResult.from_dict(result.to_dict()) == result
        assert ServeResult.from_json(result.to_json()) == result

    def test_award_ordering_and_ad_identity_survive(self):
        result = self._result()
        decoded = ServeResult.from_dict(
            json.loads(result.to_json())
        )
        assert [a.info.listing_id for a in decoded.ads] == [
            a.info.listing_id for a in result.ads
        ]
        for ours, theirs in zip(result.outcome.awards, decoded.outcome.awards):
            assert ours.ad.phrase == theirs.ad.phrase
            assert ours.price_micros == theirs.price_micros
            assert ours.slot == theirs.slot

    def test_degraded_reason_survives(self):
        result = self._result()
        flagged = ServeResult(
            query=result.query,
            outcome=result.outcome,
            degraded_reason=DegradedReason.SHED_CAPACITY,
        )
        decoded = ServeResult.from_dict(flagged.to_dict())
        assert decoded.degraded_reason is DegradedReason.SHED_CAPACITY
        assert decoded.degraded

    def test_unknown_reason_raises_schema_error(self):
        encoded = self._result().to_dict()
        encoded["degraded_reason"] = "melted"
        with pytest.raises(WireSchemaError):
            ServeResult.from_dict(encoded)

    @pytest.mark.parametrize(
        "reason", ["stale_cache", "partial_shards", "truncated", "probes_capped"]
    )
    def test_retired_stale_cache_reason_raises_schema_error(self, reason):
        """A peer still sending a retired reason is refused cleanly."""
        encoded = self._result().to_dict()
        encoded["degraded_reason"] = reason
        with pytest.raises(WireSchemaError):
            ServeResult.from_dict(encoded)

    def test_missing_outcome_raises_schema_error(self):
        with pytest.raises(WireSchemaError):
            ServeResult.from_dict({"query": ["books"]})


class TestServeRequestApi:
    """The redesigned ``serve(ServeRequest)`` entry point."""

    def _servers(self, **kwargs):
        return (
            AdServer(WordSetIndex.from_corpus(CORPUS), **kwargs),
            AdServer(WordSetIndex.from_corpus(CORPUS), **kwargs),
        )

    def test_request_object_matches_legacy_signature_bit_for_bit(self):
        legacy, redesigned = self._servers(frequency_cap=1)
        for text in ("books", "cheap used books", "summer sale shoes"):
            query = Query.from_text(text)
            old = legacy.serve(query, user_id="u1")
            new = redesigned.serve(ServeRequest(query=query, user_id="u1"))
            assert old.to_dict() == new.to_dict()
        assert legacy.stats.snapshot() == redesigned.stats.snapshot()

    def test_mixing_request_object_and_kwargs_is_an_error(self):
        server, _ = self._servers()
        request = ServeRequest.from_text("books")
        with pytest.raises(TypeError):
            server.serve(request, user_id="u1")
        with pytest.raises(TypeError):
            server.serve(request, deadline=Deadline.unlimited())

    def test_serve_batch_mixing_styles_is_an_error(self):
        server, _ = self._servers()
        with pytest.raises(TypeError):
            server.serve_batch(
                [ServeRequest.from_text("books"), Query.from_text("books")]
            )

    def test_serve_batch_of_requests_carries_per_item_user_ids(self):
        sequential, batched = self._servers(frequency_cap=1)
        requests = [
            ServeRequest.from_text("books", user_id="u1"),
            ServeRequest.from_text("books", user_id="u1"),
            ServeRequest.from_text("books", user_id="u2"),
        ]
        expected = [sequential.serve(r) for r in requests]
        got = batched.serve_batch(requests)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in expected]
