"""Operational command-line interface.

Everything an operator needs without writing Python.  Every command
that reads an index takes one kind: the tiered index directory ``build``
writes (:class:`~repro.segment.tiered.TieredSegmentedIndex`)::

    python -m repro.cli build --ads ads.csv --out DIR \
        [--workload trace.tsv --optimize --max-words 10]
    python -m repro.cli query DIR "cheap used books" \
        [--match broad|phrase|exact] [--top 5] [--deadline-ms 5] \
        [--metrics-out m.prom]
    python -m repro.cli batch DIR queries.txt \
        [--match broad] [--show] [--deadline-ms 50] [--metrics-out m.json]
    python -m repro.cli explain DIR "cheap used books"
    python -m repro.cli stats DIR \
        [--replay queries.txt] [--metrics-format prom|json] \
        [--metrics-out m.prom]
    python -m repro.cli compact DIR [--merge | --full]
    python -m repro.cli serve DIR --workers 4 \
        [--host 127.0.0.1 --port 7707] [--deadline-ms 50] \
        [--rate-per-s 500 --burst 32 --max-queue-depth 64]
    python -m repro.cli loadgen queries.txt --port 7707 \
        [--duration-s 5 --concurrency 8] [--deadline-ms 50] \
        [--priority low|normal|high] [--out report.json]

``build`` imports a corpus (CSV; see :mod:`repro.datagen.importers`),
optionally optimizes the mapping against an imported workload, and
packs it into a new tiered directory as one L0 segment under a
committed manifest.  ``query``/``batch``/``explain``/``stats`` open the
committed generation read-only — opening *is* the recovery, see
``docs/durability.md``.  ``batch`` reads one query per line (``-`` for
stdin) and runs them as one batch, probing each distinct word-set
once; ``explain`` profiles the probes of an in-memory index rebuilt
from the directory's live ads and placements.
``compact`` seals and merges the directory in place.

``serve`` boots the network tier of :mod:`repro.netserve`: forked
worker processes sharing the directory's mmap'd segments behind an
asyncio frontend speaking the length-prefixed ``ServeRequest``/
``ServeResult`` wire protocol, each worker reloading when a new
generation commits; workers are supervised by default (crash/hang
detection and respawn — ``--no-supervise`` opts out).  ``loadgen``
drives a running tier closed-loop and prints the SLO report (QPS,
latency percentiles, shed rate, per-worker split); see
``docs/serving-tier.md``.  ``chaos`` boots a fresh supervised cluster
and SIGKILLs/SIGSTOPs workers under load, gating on zero hangs and full
recovery (:mod:`repro.netserve.chaos`).

``--deadline-ms`` runs queries under a :mod:`repro.resilience` budget:
retrieval stops before its next node scan when the budget expires and the
(flagged) partial result is reported as such.  ``stats --replay``
replays a trace against the index with metrics enabled and prints them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.ads import AdCorpus
from repro.core.explain import explain_broad_match
from repro.core.matching import MatchType
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.cost.model import CostModel
from repro.datagen.importers import load_corpus_csv, load_workload_tsv
from repro.datagen.stats import profile_corpus, profile_workload
from repro.obs import MetricsRegistry
from repro.obs.export import to_json, to_prometheus, write_metrics
from repro.optimize.mapping import Mapping, OptimizerConfig, optimize_mapping
from repro.optimize.remap import long_phrase_mapping
from repro.perf.batch import BatchQueryEngine
from repro.resilience.deadline import Deadline
from repro.segment.tiered import TieredConfig, TieredSegmentedIndex


def _request_deadline(args: argparse.Namespace) -> Deadline | None:
    ms = getattr(args, "deadline_ms", None)
    return Deadline.after_ms(ms) if ms is not None else None


def _report_partial(deadline: Deadline | None) -> None:
    if deadline is not None and deadline.partial:
        reasons = ", ".join(r.value for r in deadline.partial_reasons)
        print(f"PARTIAL result (budget degraded: {reasons})")


def _cmd_build(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(
            f"error: --out {out} already holds files; build writes a new "
            "index directory",
            file=sys.stderr,
        )
        return 2
    corpus = load_corpus_csv(args.ads, delimiter=args.delimiter)
    print(f"imported {len(corpus):,} ads from {args.ads}")
    mapping: Mapping
    if args.optimize:
        if not args.workload:
            print("error: --optimize requires --workload", file=sys.stderr)
            return 2
        workload = load_workload_tsv(args.workload)
        print(
            f"optimizing against {len(workload):,} distinct queries "
            f"({workload.total_frequency:,} total) ..."
        )
        mapping = optimize_mapping(
            corpus,
            workload,
            CostModel(),
            OptimizerConfig(max_words=args.max_words),
        )
        print(
            f"mapping: {mapping.remapped_count():,} groups re-mapped to "
            f"{mapping.num_locators():,} locators"
        )
    elif args.max_words is not None:
        mapping = long_phrase_mapping(corpus, args.max_words)
    else:
        mapping = Mapping({})
    placements = {
        words: locator
        for words, locator in mapping.as_dict().items()
        if words != locator
    }
    with TieredSegmentedIndex.pack_corpus(
        corpus,
        out,
        config=TieredConfig(max_words=mapping.max_words),
        mapping=placements,
    ) as tiered:
        stats = tiered.stats()
    print(
        f"wrote {out} (generation {stats['generation']}, "
        f"{stats['segment_bytes']:,} segment bytes)"
    )
    return 0


def _match_type(name: str) -> MatchType:
    return {
        "broad": MatchType.BROAD,
        "phrase": MatchType.PHRASE,
        "exact": MatchType.EXACT,
    }[name]


def _metrics_registry(args: argparse.Namespace) -> MetricsRegistry | None:
    """A live registry when ``--metrics-out`` was passed, else ``None``."""
    return MetricsRegistry() if getattr(args, "metrics_out", None) else None


def _flush_metrics(
    registry: MetricsRegistry | None, args: argparse.Namespace
) -> None:
    if registry is not None:
        write_metrics(registry, args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")


def _open_index(
    args: argparse.Namespace, registry: MetricsRegistry | None = None
) -> TieredSegmentedIndex:
    """The committed generation of the directory ``args.index``,
    read-only, reporting into ``registry``."""
    return TieredSegmentedIndex(args.index, read_only=True, obs=registry)


def _rebuild(tiered: TieredSegmentedIndex) -> WordSetIndex:
    """An in-memory index over the live ads under the segments' merged
    placements: the structure ``explain`` profiles."""
    placements: dict[frozenset[str], frozenset[str]] = {}
    for segment in tiered.segments:
        placements.update(segment.placements())
    manifest = tiered.manifest
    return WordSetIndex.from_corpus(
        AdCorpus(tiered.live_ads()),
        mapping=placements,
        max_words=manifest.max_words,
        max_query_words=manifest.max_query_words,
    )


def _cmd_query(args: argparse.Namespace) -> int:
    registry = _metrics_registry(args)
    with _open_index(args, registry) as index:
        deadline = _request_deadline(args)
        results = index.query(
            Query.from_text(args.query), _match_type(args.match), deadline
        )
        results.sort(key=lambda ad: -ad.info.bid_price_micros)
        for ad in results[: args.top]:
            print(
                f"listing {ad.info.listing_id}  "
                f"bid {ad.info.bid_price_micros}  "
                f"phrase {' '.join(ad.phrase)!r}"
            )
        print(f"({len(results)} {args.match}-match result(s))")
        _report_partial(deadline)
        _flush_metrics(registry, args)
    return 0


def _read_batch_queries(path: str) -> list[Query]:
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    return [Query.from_text(line) for line in lines if line.strip()]


def _cmd_batch(args: argparse.Namespace) -> int:
    queries = _read_batch_queries(args.queries)
    if not queries:
        print("error: no queries in input", file=sys.stderr)
        return 2
    registry = _metrics_registry(args)
    # The summary line reads the engine's ``batch.*`` counters, so the
    # engine always reports into a registry, the exported one if any.
    counts = registry if registry is not None else MetricsRegistry()
    with _open_index(args, registry) as tiered:
        engine = BatchQueryEngine(tiered, obs=counts)
        deadline = _request_deadline(args)
        start = time.perf_counter()
        batches = engine.query_batch(queries, _match_type(args.match), deadline)
        elapsed = time.perf_counter() - start
    if args.show:
        for query, results in zip(queries, batches):
            print(f"{' '.join(query.tokens)!r}: {len(results)} result(s)")
    total = sum(len(results) for results in batches)
    queried = counts.counter("batch.queries").value
    distinct = counts.counter("batch.distinct_wordsets").value
    print(
        f"{queried:,.0f} queries ({distinct:,.0f} distinct, "
        f"{1 - distinct / queried:.0%} deduped) -> {total:,} results "
        f"in {elapsed * 1e3:.1f} ms "
        f"({queried / max(elapsed, 1e-9):,.0f} qps)"
    )
    _report_partial(deadline)
    _flush_metrics(registry, args)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    with _open_index(args) as tiered:
        index = _rebuild(tiered)
    explanation = explain_broad_match(index, Query.from_text(args.query))
    print(explanation.summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    registry = MetricsRegistry() if args.replay else None
    with _open_index(args, registry) as tiered:
        stats = tiered.stats()
        print(f"ads:                 {stats['num_ads']:,}")
        print(f"generation:          {stats['generation']}")
        print(f"sealed segments:     {len(stats['segments'])}")
        for level, count in stats["levels"].items():
            print(f"  level {level}:           {count} segment(s)")
        print(f"overlay ads:         {stats['overlay_ads']:,}")
        print(f"tombstones:          {stats['tombstones']:,}")
        print(f"read amplification:  {stats['read_amplification']}")
        print(f"read amp bound:      {stats['read_amp_bound']}")
        print(f"segment bytes:       {stats['segment_bytes']:,}")
        if registry is not None:
            for query in _read_batch_queries(args.replay):
                tiered.query(query)
            _emit_replay_metrics(registry, args)
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with TieredSegmentedIndex(args.directory) as tiered:
        before = tiered.stats()
        if args.full:
            tiered.compact()
            action = "full compaction"
        elif args.merge:
            merged = tiered.maybe_merge()
            action = f"{merged} ratio-triggered merge(s)"
        else:
            tiered.seal()
            merged = tiered.maybe_merge()
            action = f"seal + {merged} merge(s)"
        after = tiered.stats()
        print(f"{action}: generation {before['generation']} -> "
              f"{after['generation']}")
        print(f"segments:            {len(before['segments'])} -> "
              f"{len(after['segments'])}")
        print(f"read amplification:  {before['read_amplification']} -> "
              f"{after['read_amplification']}")
        print(f"tombstones:          {before['tombstones']:,} -> "
              f"{after['tombstones']:,}")
    return 0


def _emit_replay_metrics(
    registry: MetricsRegistry, args: argparse.Namespace
) -> None:
    if args.metrics_out:
        _flush_metrics(registry, args)
    elif args.metrics_format == "json":
        print(to_json(registry))
    else:
        print(to_prometheus(registry), end="")


def _cmd_profile(args: argparse.Namespace) -> int:
    corpus = load_corpus_csv(args.ads, delimiter=args.delimiter)
    print("== corpus ==")
    print(profile_corpus(corpus).summary())
    if args.workload:
        print("== workload ==")
        print(profile_workload(load_workload_tsv(args.workload)).summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.netserve import ClusterConfig, ServingCluster
    from repro.resilience.admission import AdmissionConfig

    admission = None
    if args.rate_per_s is not None or args.max_queue_depth is not None:
        admission = AdmissionConfig(
            rate_per_s=args.rate_per_s,
            burst=args.burst,
            max_queue_depth=args.max_queue_depth,
        )
    config = ClusterConfig(
        segment_path=args.index,
        num_workers=args.workers,
        host=args.host,
        port=args.port,
        conns_per_worker=args.conns_per_worker,
        default_deadline_ms=args.deadline_ms,
        admission=admission,
        frontend_process=True,
        max_batch=args.max_batch,
        reload_check_interval_s=args.reload_check_interval_s,
        coalesce=args.coalesce,
        cache_entries=args.cache_entries,
        supervise=not args.no_supervise,
        drain_timeout_s=args.drain_timeout_s,
    )
    with ServingCluster(config) as cluster:
        host, port = cluster.address
        batching = (
            f"max_batch {args.max_batch}, coalesce "
            f"{'on' if args.coalesce else 'off'}, cache "
            f"{args.cache_entries}"
        )
        supervision = (
            "unsupervised" if args.no_supervise else "supervised"
        )
        print(
            f"serving {args.index} on {host}:{port} "
            f"({args.workers} worker(s), {supervision}, {batching}, "
            "Ctrl-C to stop)"
        )
        try:
            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            print("shutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.netserve import LoadGenConfig, run_loadgen
    from repro.resilience.admission import Priority

    queries = _read_batch_queries(args.queries)
    if not queries:
        print("error: no queries in input", file=sys.stderr)
        return 2
    report = run_loadgen(
        LoadGenConfig(
            host=args.host,
            port=args.port,
            duration_s=args.duration_s,
            concurrency=args.concurrency,
            deadline_ms=args.deadline_ms,
            priority=Priority.from_name(args.priority),
            user_ids=args.user_ids,
            zipf_s=args.zipf_s,
            zipf_seed=args.zipf_seed,
        ),
        queries,
    )
    latency = report["latency_ms"]
    print(
        f"qps {report['qps']:,.1f}  "
        f"p50 {latency['p50']:.2f}ms  p95 {latency['p95']:.2f}ms  "
        f"p99 {latency['p99']:.2f}ms"
    )
    print(
        f"ok {report['ok']}  shed {report['shed']}  "
        f"degraded {report['degraded']}  errors {report['errors']}  "
        f"shed_rate {report['shed_rate']:.3f}"
    )
    if report["errors"]:
        print(
            f"  timeouts {report.get('timeouts', 0)}  "
            f"connection_errors {report.get('connection_errors', 0)}  "
            f"error_frames {report.get('error_frames', 0)}"
        )
    traffic = report.get("traffic") or {}
    coalescing = report.get("coalescing") or {}
    if traffic.get("mode") == "zipf":
        fraction = traffic.get("unique_query_fraction")
        print(
            f"traffic zipf(s={traffic.get('zipf_s')})  "
            f"unique_query_fraction "
            f"{fraction if fraction is None else f'{fraction:.3f}'}  "
            f"coalesced {coalescing.get('coalesced', 0)}  "
            f"cache_hits {coalescing.get('cache_hits', 0)}"
        )
    for worker in report["workers"]:
        if worker.get("unreachable"):
            print(f"worker {worker.get('worker_id')}: unreachable")
            continue
        print(
            f"worker {worker['worker_id']}: {worker['qps']:,.1f} qps "
            f"({worker['served']} served)"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0 if report["errors"] == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.netserve.chaos import main as chaos_main

    argv = [
        "--workers", str(args.workers),
        "--kills", str(args.kills),
        "--sigstops", str(args.sigstops),
        "--chaos-duration-s", str(args.duration_s),
        "--seed", str(args.seed),
    ]
    if args.out:
        argv += ["--out", args.out]
    return chaos_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Broad-match index operations."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser(
        "build", help="import ads and write a tiered index directory"
    )
    build.add_argument("--ads", required=True, help="ad corpus CSV")
    build.add_argument(
        "--out", required=True, help="new (or empty) index directory"
    )
    build.add_argument("--delimiter", default=",")
    build.add_argument("--workload", help="query trace TSV for --optimize")
    build.add_argument(
        "--optimize",
        action="store_true",
        help="run the set-cover mapping optimizer against --workload",
    )
    build.add_argument("--max-words", type=int, default=None)
    build.set_defaults(handler=_cmd_build)

    query = sub.add_parser("query", help="run one query against an index")
    query.add_argument("index")
    query.add_argument("query")
    query.add_argument(
        "--match", choices=("broad", "phrase", "exact"), default="broad"
    )
    query.add_argument("--top", type=int, default=10)
    query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query retrieval budget; an expired budget returns a "
        "flagged partial result instead of blowing the deadline",
    )
    query.add_argument(
        "--metrics-out",
        default=None,
        help="write metrics after the query (.json -> JSON snapshot, "
        "anything else -> Prometheus text exposition)",
    )
    query.set_defaults(handler=_cmd_query)

    batch = sub.add_parser(
        "batch", help="run a file of queries as one deduplicated batch"
    )
    batch.add_argument("index")
    batch.add_argument(
        "queries", help="file with one query per line ('-' for stdin)"
    )
    batch.add_argument(
        "--match", choices=("broad", "phrase", "exact"), default="broad"
    )
    batch.add_argument(
        "--show", action="store_true", help="print per-query result counts"
    )
    batch.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="budget covering the whole batch; unprobed positions get "
        "empty results and the batch is reported partial",
    )
    batch.add_argument(
        "--metrics-out",
        default=None,
        help="write metrics after the batch (.json -> JSON snapshot, "
        "anything else -> Prometheus text exposition)",
    )
    batch.set_defaults(handler=_cmd_batch)

    explain = sub.add_parser("explain", help="profile one broad-match query")
    explain.add_argument("index")
    explain.add_argument("query")
    explain.set_defaults(handler=_cmd_explain)

    stats = sub.add_parser("stats", help="index statistics")
    stats.add_argument("index")
    stats.add_argument(
        "--replay",
        default=None,
        help="replay a file of queries ('-' for stdin) with metrics "
        "enabled and print/write the collected metrics",
    )
    stats.add_argument(
        "--metrics-format",
        choices=("prom", "json"),
        default="prom",
        help="exposition format for --replay output on stdout",
    )
    stats.add_argument(
        "--metrics-out",
        default=None,
        help="write --replay metrics to a file instead of stdout",
    )
    stats.set_defaults(handler=_cmd_stats)

    compact = sub.add_parser(
        "compact",
        help="seal and merge a tiered-segment directory",
    )
    compact.add_argument("directory", help="tiered index directory")
    mode = compact.add_mutually_exclusive_group()
    mode.add_argument(
        "--merge",
        action="store_true",
        help="only run ratio-triggered merges (no seal)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="seal and fold every tier into a single segment",
    )
    compact.set_defaults(handler=_cmd_compact)

    profile = sub.add_parser(
        "profile", help="Section I-B diagnostics for a corpus/workload"
    )
    profile.add_argument("--ads", required=True)
    profile.add_argument("--delimiter", default=",")
    profile.add_argument("--workload")
    profile.set_defaults(handler=_cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="boot the network serving tier over an index directory",
    )
    serve.add_argument("index", help="tiered index directory (see 'build')")
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--conns-per-worker", type=int, default=2)
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="server-side budget for requests that carry none",
    )
    serve.add_argument(
        "--rate-per-s",
        type=float,
        default=None,
        help="admission token-bucket refill rate (enables shedding)",
    )
    serve.add_argument("--burst", type=float, default=32.0)
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="in-flight backlog beyond which requests shed",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=1,
        help="worker micro-batch size (1 = scalar serving)",
    )
    serve.add_argument(
        "--reload-check-interval-s",
        type=float,
        default=0.25,
        help="tiered mode: manifest-probe throttle between batches",
    )
    serve.add_argument(
        "--coalesce",
        action="store_true",
        help="singleflight identical in-flight serve requests",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=0,
        help="frontend result-cache capacity (0 disables)",
    )
    serve.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable the self-healing worker supervisor (crashed "
        "workers then stay dead)",
    )
    serve.add_argument(
        "--drain-timeout-s",
        type=float,
        default=5.0,
        help="graceful-stop budget: serve already-queued requests for "
        "up to this long before erroring them",
    )
    serve.set_defaults(handler=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a serving tier closed-loop and print the SLO report",
    )
    loadgen.add_argument(
        "queries", help="file with one query per line ('-' for stdin)"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    loadgen.add_argument("--duration-s", type=float, default=5.0)
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--deadline-ms", type=float, default=None)
    loadgen.add_argument(
        "--priority", choices=("low", "normal", "high"), default="normal"
    )
    loadgen.add_argument(
        "--user-ids",
        type=int,
        default=0,
        help="cycle this many synthetic user ids through requests",
    )
    loadgen.add_argument(
        "--zipf-s",
        type=float,
        default=None,
        help="draw queries Zipf(s)-distributed (duplicate-heavy traffic)",
    )
    loadgen.add_argument("--zipf-seed", type=int, default=0)
    loadgen.add_argument("--out", default=None, help="write report JSON")
    loadgen.set_defaults(handler=_cmd_loadgen)

    chaos = sub.add_parser(
        "chaos",
        help="kill-driven resilience drill against a fresh supervised "
        "cluster (SIGKILL/SIGSTOP workers under load, gate on recovery)",
    )
    chaos.add_argument("--workers", type=int, default=3)
    chaos.add_argument("--kills", type=int, default=2)
    chaos.add_argument("--sigstops", type=int, default=1)
    chaos.add_argument("--duration-s", type=float, default=6.0)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--out", default=None, help="write drill report JSON")
    chaos.set_defaults(handler=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
