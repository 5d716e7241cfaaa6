"""The locator-trie walk written plainly, for tests that need its keys.

:meth:`repro.segment.packed.PackedSegmentIndex._walk` hands its scan
only the keys that hit ``B^sig`` and the number it tested.
:func:`walk` lists every key it tests, in its order, built the slow
and obvious way: level 1 is the plan's candidates, and each level
extends, by every later candidate, the subsets of the last one whose
key the segment's ``prefixes`` filter holds
(:func:`repro.segment.format.prefix_filter_positions`).  A level's keys
are listed when its size is one the plan probes.
"""

from __future__ import annotations

from repro.core.wordhash import word_contrib
from repro.perf.prefilter import ProbePlan
from repro.segment.format import prefix_filter_positions


def filter_holds(prefix_filter: bytes | memoryview, key: int) -> bool:
    """Are both of ``key``'s bits set in ``prefix_filter``?"""
    num_bits = len(prefix_filter) * 8
    return all(
        prefix_filter[bit >> 3] >> (bit & 7) & 1
        for bit in prefix_filter_positions(key, num_bits)
    )


def walk(packed, plan: ProbePlan) -> tuple[list[int], int]:
    """Every key ``packed``'s walk over ``plan`` tests, in order, and
    the number of filter tests it makes (one per subset below the
    plan's largest size with a later candidate to add)."""
    contribs = [word_contrib(word) for word in plan.candidates]
    largest = max(plan.sizes, default=0)
    level = [(key, at) for at, key in enumerate(contribs)]
    keys: list[int] = []
    tests = 0
    for size in range(1, largest + 1):
        if size in plan.sizes:
            keys.extend(key for key, _ in level)
        if size == largest:
            break
        extendable = [(key, last) for key, last in level if last + 1 < len(contribs)]
        tests += len(extendable)
        level = [
            (key ^ contribs[later], later)
            for key, last in extendable
            if filter_holds(packed._prefix_filter, key)
            for later in range(last + 1, len(contribs))
        ]
    return keys, tests


def walked_keys(packed, plan: ProbePlan) -> list[int]:
    """:func:`walk`'s keys, its filter tests counted in ``packed``'s
    ``segment.prefix_tests`` as the index's own walk counts them."""
    keys, tests = walk(packed, plan)
    if packed._obs is not None:
        packed._obs.counter("segment.prefix_tests").inc(tests)
    return keys
