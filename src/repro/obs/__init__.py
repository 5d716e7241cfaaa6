"""repro.obs — the unified observability layer.

One :class:`MetricsRegistry` instance correlates everything a query does
across the serving stack: hash probes and node scans in the index, dedup
in :class:`~repro.perf.batch.BatchQueryEngine`, filter drops and auction
outcomes in :class:`~repro.serving.server.AdServer`, and per-stage span
timings for each of those layers.

Usage::

    from repro import obs

    registry = obs.MetricsRegistry()
    index = WordSetIndex.from_corpus(corpus, obs=registry)
    server = AdServer(index, obs=registry)
    server.serve(query)

    print(obs.to_prometheus(registry))   # scrape-format text
    registry.snapshot()                  # JSON-ready dict

Instrumentation is **off by default**: components take ``obs=None`` (or
the shared :data:`NULL_REGISTRY`) and normalise it away at construction,
so the uninstrumented hot path is unchanged — the fast-path benchmark
gates the no-op overhead at <= 5%.

See ``docs/observability.md`` for the span taxonomy and metric catalog.
"""

from repro.obs.export import (
    prometheus_name,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    NULL_REGISTRY,
    SPAN_PREFIX,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Span,
    active_or_none,
    uniform_histogram,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "NULL_REGISTRY",
    "SPAN_PREFIX",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "active_or_none",
    "prometheus_name",
    "to_json",
    "to_prometheus",
    "uniform_histogram",
    "write_metrics",
]
