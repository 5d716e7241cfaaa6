"""Singleflight coalescing and the generation-aware result cache (PR 9).

Pure-logic property tests for :mod:`repro.netserve.coalesce`, a
hypothesis test of the frontend's singleflight addressing over sockets
(every coalesced client gets its own ``request_id``-stamped,
bit-identical reply, also when the leader's client has gone), and
live-cluster tests for coalescing, cache
hits, and cache invalidation on a tiered generation bump.
"""

import copy
import json
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ads import AdInfo, Advertisement
from repro.netserve import ClusterConfig, ServeClient, ServingCluster
from repro.netserve.coalesce import (
    GenerationalLRUCache,
    canonical_serve_key,
    restamp_result,
)
from repro.netserve.frontend import FrontendConfig
from repro.netserve.wire import (
    HEADER,
    WireError,
    decode_payload,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.segment import TieredConfig, TieredSegmentedIndex

from tests.netserve.conftest import requires_af_unix
from tests.netserve.frontend_rig import read_raw, running_frontend, wait_for

pytestmark = requires_af_unix


def _ad(text, listing_id):
    return Advertisement.from_text(
        text, AdInfo(listing_id=listing_id, bid_price_micros=100 + listing_id)
    )


def _counter(obs, name):
    return next(
        (m.value for m in obs.collect() if m.name == name), 0
    )


def _without_request_id(reply):
    return json.dumps(
        {k: v for k, v in reply.items() if k != "request_id"},
        sort_keys=True,
    )


class TestCanonicalServeKey:
    def test_order_and_duplicates_fold_to_one_key(self):
        a = canonical_serve_key({"query": ["b", "a", "a", "c"]})
        b = canonical_serve_key({"query": ["c", "b", "a"]})
        assert a is not None
        assert a == b

    def test_request_id_is_excluded(self):
        a = canonical_serve_key({"query": ["x"], "request_id": "r-1"})
        b = canonical_serve_key({"query": ["x"], "request_id": "r-2"})
        assert a == b

    def test_answer_changing_fields_split_keys(self):
        base = {"query": ["x"]}
        keys = {
            canonical_serve_key(base),
            canonical_serve_key({**base, "user_id": "u1"}),
            canonical_serve_key({**base, "user_id": "u2"}),
            canonical_serve_key({**base, "priority": "high"}),
            canonical_serve_key({**base, "deadline_ms": 50}),
        }
        assert None not in keys
        assert len(keys) == 5

    def test_int_and_float_deadlines_fold(self):
        a = canonical_serve_key({"query": ["x"], "deadline_ms": 50})
        b = canonical_serve_key({"query": ["x"], "deadline_ms": 50.0})
        assert a == b

    def test_malformed_requests_are_not_shareable(self):
        assert canonical_serve_key({}) is None
        assert canonical_serve_key({"query": "not-a-list"}) is None
        assert canonical_serve_key({"query": ["ok", 7]}) is None
        assert canonical_serve_key({"query": ["x"], "user_id": 1.5}) is None
        assert canonical_serve_key({"query": ["x"], "priority": 3}) is None
        assert (
            canonical_serve_key({"query": ["x"], "deadline_ms": "fast"})
            is None
        )


class TestRestampResult:
    SHARED = {
        "type": "result",
        "request_id": "leader",
        "generation": 4,
        "result": {
            "query": ["a", "b"],
            "degraded_reason": "none",
            "outcome": {"reserve_micros": 1, "candidates": 2, "awards": []},
        },
    }

    def test_readdresses_and_restores_token_order(self):
        reply = restamp_result(
            self.SHARED, {"query": ["b", "a"], "request_id": "me"}
        )
        assert reply["request_id"] == "me"
        assert reply["result"]["query"] == ["b", "a"]
        assert reply["result"]["outcome"] == self.SHARED["result"]["outcome"]
        assert reply["generation"] == 4

    def test_removes_request_id_when_client_sent_none(self):
        reply = restamp_result(self.SHARED, {"query": ["a", "b"]})
        assert "request_id" not in reply

    def test_shared_payload_is_never_mutated(self):
        before = copy.deepcopy(self.SHARED)
        restamp_result(self.SHARED, {"query": ["b", "a"], "request_id": "x"})
        assert self.SHARED == before

    def test_matching_token_order_shares_the_result_dict(self):
        reply = restamp_result(
            self.SHARED, {"query": ["a", "b"], "request_id": "x"}
        )
        assert reply["result"] is self.SHARED["result"]


class TestGenerationalLRUCache:
    def test_put_get_and_lru_eviction(self):
        cache = GenerationalLRUCache(2)
        assert cache.put("a", 0, {"v": 1})
        assert cache.put("b", 0, {"v": 2})
        assert cache.get("a") == {"v": 1}  # refreshes "a"
        assert cache.put("c", 0, {"v": 3})  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert len(cache) == 2

    def test_generation_bump_flushes_and_blocks_stragglers(self):
        cache = GenerationalLRUCache(4)
        cache.put("a", 0, {"v": 1})
        assert cache.observe_generation(1) is True
        assert cache.get("a") is None
        # A straggler worker still on generation 0 cannot repopulate.
        assert cache.put("a", 0, {"v": "stale"}) is False
        assert cache.get("a") is None
        # Backwards/equal observations are no-ops.
        assert cache.observe_generation(0) is False
        assert cache.observe_generation(1) is False
        assert cache.generation == 1
        assert cache.put("a", 1, {"v": "fresh"}) is True
        assert cache.get("a") == {"v": "fresh"}

    def test_bump_with_empty_cache_is_not_an_invalidation(self):
        cache = GenerationalLRUCache(4)
        assert cache.observe_generation(3) is False
        assert cache.generation == 3
        assert cache.stats()["invalidations"] == 0

    @settings(deadline=None, max_examples=60)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("put"),
                    st.integers(0, 3),
                    st.integers(0, 4),
                ),
                st.tuples(st.just("get"), st.integers(0, 3), st.just(0)),
                st.tuples(st.just("bump"), st.integers(0, 4), st.just(0)),
            ),
            max_size=60,
        )
    )
    def test_matches_reference_model(self, ops):
        """Any op sequence: bounded, monotonic, never serves across a
        generation bump, never accepts an off-generation put."""
        cache = GenerationalLRUCache(2)
        model: dict = {}
        model_gen = 0
        for op, a, b in ops:
            if op == "put":
                accepted = cache.put(f"k{a}", b, {"gen": b, "key": a})
                assert accepted is (b == model_gen)
                if accepted:
                    model[f"k{a}"] = {"gen": b, "key": a}
                    while len(model) > 2:
                        # model mirrors LRU eviction: drop the entry the
                        # cache itself no longer holds
                        for key in list(model):
                            if cache.get(key) is None:
                                cache.misses -= 1  # undo probe accounting
                                del model[key]
                                break
                        else:
                            raise AssertionError("cache over capacity")
            elif op == "get":
                got = cache.get(f"k{a}")
                assert got == model.get(f"k{a}")
            else:
                bumped = cache.observe_generation(a)
                if a > model_gen:
                    model_gen = a
                    assert bumped is bool(model)
                    model.clear()
                else:
                    assert bumped is False
            assert cache.generation == model_gen
            assert len(cache) == len(model) <= 2


class HeldWorker:
    """A fake worker that answers a serve only once ``release`` is set.

    Each connection is served on its own thread, so every trip the
    frontend has in flight is parked at once; ``dispatched`` records
    the canonical key of every serve that reached it.
    """

    def __init__(self, path):
        self.release = threading.Event()
        self.dispatched = []
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(16)
        self._listener.settimeout(0.1)
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn:
            while True:
                try:
                    payload = recv_frame(conn)
                except (WireError, OSError):
                    return
                if payload is None:
                    return
                if payload.get("type") != "serve":
                    send_frame(conn, {"type": payload.get("type")})
                    continue
                request = payload["request"]
                self.dispatched.append(canonical_serve_key(request))
                assert self.release.wait(10.0), "held serve never released"
                send_frame(conn, self._result(request))

    @staticmethod
    def _result(request):
        words = sorted(set(request["query"]))
        return {
            "type": "result",
            "request_id": request.get("request_id"),
            "generation": 0,
            "result": {
                "query": list(request["query"]),
                "degraded_reason": "none",
                "outcome": {
                    "reserve_micros": 1,
                    "candidates": len(words),
                    "awards": [
                        {"listing_id": i, "word": w} for i, w in enumerate(words)
                    ],
                },
            },
        }

    def close(self):
        self.release.set()
        self._stop.set()
        self._thread.join(5.0)
        self._listener.close()


@pytest.fixture(scope="module")
def held_rig(tmp_path_factory):
    """A coalescing frontend (no cache) over one :class:`HeldWorker`."""
    path = str(tmp_path_factory.mktemp("held") / "held.sock")
    worker = HeldWorker(path)
    config = FrontendConfig(coalesce=True, conns_per_worker=4)
    try:
        with running_frontend([path], config) as frontend:
            yield worker, frontend
    finally:
        worker.close()


class TestSingleflightAddressing:
    """Black-box: clients on their own connections, one fake worker
    that holds every reply until all of them have been read, so any
    set of requests hypothesis draws ends up fully coalesced — the
    strongest setting for the addressing property."""

    @settings(deadline=None, max_examples=40)
    @given(
        clients=st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    min_size=1,
                    max_size=4,
                ),
                st.sampled_from(["normal", "high"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_every_client_gets_its_own_bit_identical_reply(self, held_rig, clients):
        worker, frontend = held_rig
        requests = [
            {"query": list(tokens), "priority": priority, "request_id": f"c{i}"}
            for i, (tokens, priority) in enumerate(clients)
        ]
        coalesced, replies = self._drive(worker, frontend, requests)
        distinct = {canonical_serve_key(r) for r in requests}
        # Exactly one worker round trip per canonical key.
        assert len(worker.dispatched) == len(distinct)
        assert set(worker.dispatched) == distinct
        shared_by_key: dict = {}
        for request, reply in zip(requests, replies):
            # Addressed to this client, echoing this client's order.
            assert reply["request_id"] == request["request_id"]
            assert reply["result"]["query"] == request["query"]
            body = dict(reply)
            del body["request_id"]
            body["result"] = {
                k: v for k, v in reply["result"].items() if k != "query"
            }
            key = canonical_serve_key(request)
            # Everything else is bit-identical across coalesced clients.
            if key in shared_by_key:
                assert shared_by_key[key] == body
            else:
                shared_by_key[key] = body
        assert coalesced == len(requests) - len(distinct)

    def test_followers_are_answered_after_the_leader_disconnects(self, held_rig):
        worker, frontend = held_rig
        requests = [
            {"query": ["alpha", "beta"], "request_id": "leader"},
            {"query": ["beta", "alpha"], "request_id": "f1"},
            {"query": ["alpha", "beta", "beta"], "request_id": "f2"},
            {"query": ["alpha", "beta"], "request_id": "f3"},
        ]
        coalesced, replies = self._drive(
            worker, frontend, requests, leader_leaves=True
        )
        assert worker.dispatched == [canonical_serve_key(requests[0])]
        assert coalesced == 3
        assert [r["request_id"] for r in replies] == ["f1", "f2", "f3"]
        assert [r["result"]["query"] for r in replies] == [
            r["query"] for r in requests[1:]
        ]

    @staticmethod
    def _drive(worker, frontend, requests, leader_leaves=False):
        """Send every request on its own connection, the first before
        the rest; release the worker once the frontend has read them
        all; the coalesced-count delta and the replies still awaited."""
        worker.dispatched.clear()
        worker.release.clear()
        coalesced = _counter(frontend.obs, "frontend.coalesced")
        served = _counter(frontend.obs, "frontend.requests")
        conns = [
            socket.create_connection(("127.0.0.1", frontend.port), timeout=10.0)
            for _ in requests
        ]
        try:
            frames = [encode_frame({"type": "serve", "request": r}) for r in requests]
            conns[0].sendall(frames[0])
            wait_for(lambda: len(worker.dispatched) == 1, what="the leader's trip")
            if leader_leaves:
                conns[0].close()
            for conn, frame in zip(conns[1:], frames[1:]):
                conn.sendall(frame)
            wait_for(
                lambda: _counter(frontend.obs, "frontend.requests")
                == served + len(requests),
                what="every frame read",
            )
            worker.release.set()
            live = conns[1:] if leader_leaves else conns
            replies = [decode_payload(read_raw(c)[HEADER.size:]) for c in live]
        finally:
            for conn in conns:
                conn.close()
        return _counter(frontend.obs, "frontend.coalesced") - coalesced, replies


class TestLivePipeline:
    def test_identical_inflight_requests_coalesce(self, segment_path):
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=1,
            conns_per_worker=1,  # serialize worker trips: queues overlap
            coalesce=True,
        )
        with ServingCluster(config) as cluster:
            host, port = cluster.address
            replies = []
            lock = threading.Lock()

            def hammer(tid):
                with ServeClient(host, port) as client:
                    for i in range(25):
                        reply = client.request(
                            {
                                "type": "serve",
                                "request": {
                                    "query": ["books", "extra"],
                                    "request_id": f"t{tid}-{i}",
                                },
                            }
                        )
                        with lock:
                            replies.append((f"t{tid}-{i}", reply))

            threads = [
                threading.Thread(target=hammer, args=(tid,))
                for tid in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(host, port) as client:
                stats = client.stats()
        counters = stats["frontend"]["counters"]
        assert counters["frontend.coalesced"] > 0
        assert len(replies) == 8 * 25
        for request_id, reply in replies:
            assert reply["type"] == "result"
            assert reply["request_id"] == request_id
        assert len({_without_request_id(r) for _, r in replies}) == 1

    def test_cache_hit_answers_without_a_worker_trip(self, segment_path):
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=1,
            cache_entries=64,
        )
        with ServingCluster(config) as cluster:
            host, port = cluster.address
            with ServeClient(host, port) as client:
                request = {"query": ["books", "extra"]}
                first = client.request(
                    {"type": "serve", "request": {**request, "request_id": "a"}}
                )
                served_after_first = client.stats()["workers"][0]["served"]
                second = client.request(
                    {"type": "serve", "request": {**request, "request_id": "b"}}
                )
                stats = client.stats()
        assert first["request_id"] == "a"
        assert second["request_id"] == "b"
        assert _without_request_id(first) == _without_request_id(second)
        counters = stats["frontend"]["counters"]
        assert counters["frontend.cache_hits"] == 1
        assert counters["frontend.cache_misses"] == 1
        # The hit never reached the worker.
        assert stats["workers"][0]["served"] == served_after_first
        assert stats["frontend"]["cache"]["entries"] == 1

    def test_degraded_reply_is_not_cached(self, segment_path):
        # A budget spent before the first node scan: the worker flags the
        # reply ``deadline``, so the frontend must not remember it and the
        # repeat goes back to the worker.
        config = ClusterConfig(
            segment_path=str(segment_path),
            num_workers=1,
            cache_entries=64,
        )
        serve = {
            "type": "serve",
            "request": {"query": ["books", "extra"], "deadline_ms": 1e-9},
        }
        with ServingCluster(config) as cluster:
            host, port = cluster.address
            with ServeClient(host, port) as client:
                first = client.request(serve)
                served_after_first = client.stats()["workers"][0]["served"]
                second = client.request(serve)
                stats = client.stats()
        assert first["result"]["degraded_reason"] == "deadline"
        assert second["result"]["degraded_reason"] == "deadline"
        counters = stats["frontend"]["counters"]
        assert counters["frontend.cache_hits"] == 0
        assert counters["frontend.cache_misses"] == 2
        assert stats["workers"][0]["served"] == served_after_first + 1
        assert stats["frontend"]["cache"]["entries"] == 0

    def test_cache_invalidated_on_tiered_generation_bump(self, tmp_path):
        directory = tmp_path / "tiered"
        writer = TieredSegmentedIndex(
            directory, config=TieredConfig(seal_threshold=100)
        )
        writer.insert(_ad("cache inval probe", listing_id=1))
        writer.seal()
        config = ClusterConfig(
            segment_path=str(directory),
            num_workers=1,
            cache_entries=64,
            reload_check_interval_s=0.0,  # reload eagerly: test the cache
        )
        try:
            with ServingCluster(config) as cluster:
                host, port = cluster.address
                with ServeClient(host, port) as client:
                    probe = {"query": ["cache", "inval", "probe"]}
                    first = client.request(
                        {"type": "serve", "request": dict(probe)}
                    )
                    assert first["result"]["outcome"]["candidates"] == 1
                    assert first["generation"] == writer.generation
                    cached = client.request(
                        {"type": "serve", "request": dict(probe)}
                    )
                    assert cached["generation"] == first["generation"]

                    writer.insert(_ad("cache inval probe", listing_id=2))
                    writer.seal()
                    # Fresh-keyed misses must reach the worker; one of
                    # them observes the committed generation and flushes
                    # the cache.
                    deadline = time.monotonic() + 10.0
                    n = 0
                    while True:
                        miss = client.request(
                            {
                                "type": "serve",
                                "request": {"query": [f"miss-{n}"]},
                            }
                        )
                        if miss["generation"] == writer.generation:
                            break
                        assert time.monotonic() < deadline, (
                            "worker never picked up the new generation"
                        )
                        n += 1
                        time.sleep(0.01)
                    fresh = client.request(
                        {"type": "serve", "request": dict(probe)}
                    )
                    assert fresh["generation"] == writer.generation
                    assert fresh["result"]["outcome"]["candidates"] == 2
                    stats = client.stats()
            counters = stats["frontend"]["counters"]
            assert counters["frontend.cache_hits"] >= 1
            assert counters["frontend.cache_invalidations"] >= 1
            assert (
                stats["frontend"]["cache"]["generation"] == writer.generation
            )
        finally:
            writer.close()
