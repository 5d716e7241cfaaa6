"""Benches for the serving layer: pipeline throughput."""

import pytest

from repro.optimize.remap import build_index
from repro.serving.server import AdServer


@pytest.fixture(scope="module")
def plain_index(corpus):
    return build_index(corpus, None)


def test_bench_adserver_pipeline(benchmark, plain_index, trace):
    server = AdServer(plain_index, slots=4, reserve_micros=1_000)

    def serve_batch():
        for query in trace[:300]:
            server.serve(query)
        return server.stats.impressions

    impressions = benchmark(serve_batch)
    assert impressions > 0

