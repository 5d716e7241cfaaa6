"""Spans: parents, request ids, self times, and patches that undo."""

import json
import types

from spans import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_is_the_span_minus_what_its_children_cover(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("request", "r1"):
        clock.now += 10
        with tracer.span("encode"):
            clock.now += 30
        with tracer.span("wait"):
            clock.now += 50
            with tracer.span("decode"):
                clock.now += 5
        clock.now += 5

    assert tracer.durations_ns("request") == [100]
    assert tracer.self_times_ns() == {
        "request": [15],
        "encode": [30],
        "wait": [50],
        "decode": [5],
    }
    # Children carry the request id of the span that caused them.
    assert {row[5] for row in tracer.spans} == {"r1"}

    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    by_name = {row["name"]: row for row in rows}
    assert by_name["request"]["parent"] is None
    assert by_name["decode"]["parent"] == by_name["wait"]["id"]
    assert by_name["wait"]["end_ns"] - by_name["wait"]["start_ns"] == 55


def test_a_patched_function_records_a_span_and_is_restored():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work() -> str:
        clock.now += 7
        return "done"

    owner = types.SimpleNamespace(work=work)
    with tracer.patched([(owner, "work", "layer.work")]):
        assert owner.work() == "done"
    assert owner.work is work
    assert tracer.durations_ns("layer.work") == [7]
    assert tracer.count("layer.work") == 1
