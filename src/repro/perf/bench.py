"""The long-query workload generator shared by the drills and the benchmark.

Long broad-match queries are the regime where naive subset enumeration
explodes (a 12-word query probes ``2^12 - 1`` subsets), so every harness
that wants the probe kernels to do real work builds its queries here:
``bench/inputs.py`` (the one benchmark — see ``bench/README.md``),
:mod:`repro.netserve.smoke` and :mod:`repro.netserve.chaos`.
"""

from __future__ import annotations

import random

from repro.core.queries import Query


def make_long_queries(
    generated,
    workload,
    num_queries: int,
    query_len: int,
    seed: int = 0,
) -> list[Query]:
    """Long broad-match queries: a real workload query's words padded with
    corpus-vocabulary and out-of-vocabulary noise up to ``query_len``."""
    rng = random.Random(seed)
    vocabulary = generated.vocabulary
    base_queries = workload.distinct_queries()
    queries: list[Query] = []
    for i in range(num_queries):
        words = list(rng.choice(base_queries).words)
        while len(words) < query_len:
            if rng.random() < 0.5:
                candidate = rng.choice(vocabulary)
            else:
                candidate = f"oov{rng.randrange(10 * query_len * num_queries)}"
            if candidate not in words:
                words.append(candidate)
        rng.shuffle(words)
        queries.append(Query(tokens=tuple(words[:query_len])))
    return queries
