"""Pinned benchmark inputs and the seeded, stratified draw from them.

The corpus, the query pools and the oracle's answers never change with
``--seed``: they are generated once per scale, cached under the
benchmark's scratch directory and kept out of ``setup_s``.  A seed only
chooses *which* pool entries a run uses, and it chooses them stratified:
the pool is sorted by how much work an entry causes and cut into 20
equal strata, and every seed - and every unit of a run - draws the same
count from every stratum.  Measured on seeds 1-10 for the 4 600 queries
of a ``net_uniq`` run, mean candidates per query spreads 1.5 % with a
plain sample and 0.6 % stratified; from unit to unit within a run,
27 % plain and 5 % stratified, which is what keeps the median over
units steady.

Generation depends on string hashing (the corpus generator iterates
frozensets), so it must run under the ``PYTHONHASHSEED`` that
``run.py`` pins.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.ads import AdInfo, Advertisement
from repro.core.queries import Query
from repro.core.wordset_index import WordSetIndex
from repro.datagen.corpus import CorpusConfig, generate_corpus
from repro.datagen.querygen import QueryConfig, generate_workload
from repro.perf.bench import make_long_queries
from repro.serving.request import ServeRequest
from repro.serving.server import AdServer

__all__ = [
    "FULL",
    "QUICK",
    "Inputs",
    "Pool",
    "Scale",
    "ensure_cached",
    "load_inputs",
    "stratified_draw",
    "stratified_units",
]

#: Bump when anything below changes what is generated.
INPUT_VERSION = 1
STRATA = 20
LONG_QUERY_WORDS = 16
FRESH_LISTING_BASE = 10_000_000


@dataclass(frozen=True, slots=True)
class Scale:
    """How large the pinned inputs are."""

    name: str
    num_ads: int
    pool_size: int
    long_pool_size: int
    fresh_pool_size: int


#: The ROADMAP ladder's middle rung: ~30 B/ad packed.  The long pool
#: holds little more than one run draws (112 of a stratum's 120): what
#: a long query costs in memory follows its probe count, whose tail is
#: heavy (2 % of the queries own 18 % of the probe keys), so seeds must
#: mostly share their queries for resident memory to repeat.
FULL = Scale("full", 100_000, 20_000, 2_400, 40_000)
#: The ``--quick`` smoke: same shapes, a tenth of the size.
QUICK = Scale("quick", 8_000, 2_000, 800, 4_000)


@dataclass(slots=True)
class Pool:
    """Queries sorted by ``weight`` - the oracle slate size, which is
    what a query's cost follows (4 us per candidate against 0.2 us per
    hash probe, measured on sixteen-word queries) - with the oracle's
    ``ServeResult.to_dict()`` for each."""

    tokens: list[tuple[str, ...]]
    weight: list[int]
    expected: list[dict[str, Any]]

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(slots=True)
class Inputs:
    scale: Scale
    ads: list[Advertisement]
    #: Short web-like queries.
    pool: Pool
    #: Sixteen-word queries.
    long_pool: Pool
    #: Ads not in the corpus, for ingest; sorted by phrase length.
    fresh: list[Advertisement]


def _sample_stratum(
    pool_size: int, stratum: int, strata: int, want: int, rng: random.Random
) -> list[int]:
    lo = stratum * pool_size // strata
    hi = (stratum + 1) * pool_size // strata
    if want > hi - lo:
        raise ValueError(
            f"stratum {stratum} holds {hi - lo} entries, {want} requested"
        )
    return rng.sample(range(lo, hi), want)


def stratified_draw(
    pool_size: int, count: int, rng: random.Random, strata: int = STRATA
) -> list[int]:
    """``count`` distinct indices into a weight-sorted pool: the same
    number from each of ``strata`` equal slices for every ``rng``
    (a remainder goes to the first strata), in shuffled order."""
    base, extra = divmod(count, strata)
    chosen: list[int] = []
    for stratum in range(strata):
        want = base + (1 if stratum < extra else 0)
        chosen.extend(_sample_stratum(pool_size, stratum, strata, want, rng))
    rng.shuffle(chosen)
    return chosen


def stratified_units(
    pool_size: int,
    units: int,
    per_stratum: int,
    rng: random.Random,
    strata: int = STRATA,
) -> list[list[int]]:
    """``units`` lists of ``strata * per_stratum`` indices, each list
    holding ``per_stratum`` from every stratum and no index used twice:
    every unit of a run, and every run, does the same amount of work."""
    columns = [
        _sample_stratum(pool_size, stratum, strata, units * per_stratum, rng)
        for stratum in range(strata)
    ]
    out = []
    for unit in range(units):
        picked = [
            index
            for column in columns
            for index in column[unit * per_stratum : (unit + 1) * per_stratum]
        ]
        rng.shuffle(picked)
        out.append(picked)
    return out


# ------------------------------------------------------------------ #
# Generation


def _ad_row(ad: Advertisement) -> tuple[Any, ...]:
    info = ad.info
    return (
        ad.phrase,
        info.listing_id,
        info.campaign_id,
        info.bid_price_micros,
        info.exclusion_phrases,
    )


def _ad_from_row(row: tuple[Any, ...]) -> Advertisement:
    phrase, listing_id, campaign_id, bid, exclusions = row
    return Advertisement(
        phrase=phrase,
        info=AdInfo(
            listing_id=listing_id,
            campaign_id=campaign_id,
            bid_price_micros=bid,
            exclusion_phrases=exclusions,
        ),
    )


def _build_pool(
    queries: list[Query], oracle: WordSetIndex, server: AdServer
) -> dict[str, list[Any]]:
    weights = [len(oracle.query(query)) for query in queries]
    order = sorted(range(len(queries)), key=lambda i: (weights[i], i))
    return {
        "tokens": [queries[i].tokens for i in order],
        "weight": [weights[i] for i in order],
        "expected": [
            server.serve(ServeRequest(query=queries[i])).to_dict()
            for i in order
        ],
    }


def _generate(scale: Scale) -> dict[str, Any]:
    generated = generate_corpus(CorpusConfig(num_ads=scale.num_ads, seed=1))
    workload = generate_workload(
        generated,
        QueryConfig(
            num_distinct=scale.pool_size,
            total_frequency=10 * scale.pool_size,
            seed=2,
        ),
    )
    oracle = WordSetIndex.from_corpus(generated.corpus)
    # The cluster's defaults: 4 slots, reserve 1; no budgets or caps,
    # so the oracle's answer does not depend on request order.
    server = AdServer(oracle)

    short = workload.distinct_queries()
    short_pool = _build_pool(short, oracle, server)

    seen: set[frozenset[str]] = set()
    long_queries = []
    for query in make_long_queries(
        generated, workload, scale.long_pool_size, LONG_QUERY_WORDS, seed=3
    ):
        if query.words not in seen:
            seen.add(query.words)
            long_queries.append(query)
    long_pool = _build_pool(long_queries, oracle, server)

    rng = random.Random(4)
    fresh = []
    for i in range(scale.fresh_pool_size):
        words = list(rng.choice(generated.templates))
        rng.shuffle(words)
        listing_id = FRESH_LISTING_BASE + i
        fresh.append(
            (
                tuple(words),
                listing_id,
                listing_id % 997,
                int(rng.lognormvariate(13.0, 1.0)),
                (),
            )
        )
    fresh.sort(key=lambda row: (len(row[0]), row[1]))

    return {
        "ads": [_ad_row(ad) for ad in generated.corpus],
        "pool": short_pool,
        "long_pool": long_pool,
        "fresh": fresh,
    }


def generate_bytes(scale: Scale) -> bytes:
    """The cache file's content; equal bytes for equal scale.  Refuses
    to run under an unpinned hash seed, which would cache another
    corpus under the pinned one's name."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise RuntimeError(
            "input generation needs PYTHONHASHSEED=0 "
            "(bench/run.py and bench/check.sh set it)"
        )
    return pickle.dumps(_generate(scale), protocol=4)


def _cache_path(scratch: Path, scale: Scale) -> Path:
    tag = hashlib.sha256(
        repr((INPUT_VERSION, scale, STRATA, LONG_QUERY_WORDS)).encode()
    ).hexdigest()[:12]
    return scratch / "inputs" / f"{scale.name}-{tag}.pkl"


def ensure_cached(scratch: Path, scale: Scale) -> bool:
    """Generate and cache the inputs for ``scale`` unless they are
    cached already (tmp + rename, so a concurrent run never reads a
    torn file); True if this call generated them."""
    path = _cache_path(scratch, scale)
    if path.exists():
        return False
    data = generate_bytes(scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
    return True


def load_inputs(scratch: Path, scale: Scale) -> Inputs:
    """The cached inputs for ``scale``."""
    ensure_cached(scratch, scale)
    # Only ever bytes that generate_bytes() wrote.
    raw = pickle.loads(_cache_path(scratch, scale).read_bytes())
    return Inputs(
        scale=scale,
        ads=[_ad_from_row(row) for row in raw["ads"]],
        pool=Pool(**raw["pool"]),
        long_pool=Pool(**raw["long_pool"]),
        fresh=[_ad_from_row(row) for row in raw["fresh"]],
    )
