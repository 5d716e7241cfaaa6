"""Resident-size accounting for the packed-vs-dict comparison.

The benchmark gate ("packed serving uses >= 4x less resident memory than
the dict-backed index") needs an honest measurement of what a live Python
structure actually occupies: every reachable object, counted once.
``sys.getsizeof`` alone sees only the top object; this module walks the
full reference graph via ``gc.get_referents`` with identity
deduplication, so shared strings and interned ints are never
double-charged.

Classes, modules, and functions reachable from instances (every object
references its type) are excluded — they are code, not data, and exist
regardless of which index structure is resident.
"""

from __future__ import annotations

import gc
import sys
from collections.abc import Iterable
from types import BuiltinFunctionType, FunctionType, MethodType, ModuleType
from typing import Any

#: Reachable objects that are code/infrastructure, not resident data.
_EXCLUDED_TYPES = (
    type,
    ModuleType,
    FunctionType,
    BuiltinFunctionType,
    MethodType,
)


def deep_sizeof(*roots: object, exclude: Iterable[object] = ()) -> int:
    """Total bytes of every distinct object reachable from ``roots``.

    ``exclude`` objects (and anything only reachable through them) are
    skipped — used to keep an mmap's mapped region out of the Python-side
    accounting, since the file bytes are charged separately.
    """
    seen: set[int] = {id(obj) for obj in exclude}
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, _EXCLUDED_TYPES):
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def runs_sizeof(runs: list[tuple[frozenset[str], list[Any]]]) -> int:
    """``deep_sizeof(runs)`` for one fully decoded packed node, walked in
    the decoder's shape.  Identity dedup is paid only where one decode
    can share: tokens (interned, so a word-set's elements are its
    phrases' tokens), word-sets, phrases, small ints, the empty tuple and
    strings of at most one character (CPython singletons)."""
    seen: set[int] = set()
    add = seen.add
    getsizeof = sys.getsizeof
    total = getsizeof(runs)
    for pair in runs:
        word_set, ads = pair
        total += getsizeof(pair) + getsizeof(ads)
        if id(word_set) not in seen:
            add(id(word_set))
            total += getsizeof(word_set)
        # Slotted instances of one class all have one size.
        total += len(ads) * (getsizeof(ads[0]) + getsizeof(ads[0].info))
        for ad in ads:
            phrase = ad.phrase
            if id(phrase) not in seen:
                add(id(phrase))
                total += getsizeof(phrase)
                for token in phrase:
                    if id(token) not in seen:
                        add(id(token))
                        total += getsizeof(token)
            info = ad.info
            for number in (info.listing_id, info.campaign_id, info.bid_price_micros):
                if -5 <= number <= 256:
                    if id(number) in seen:
                        continue
                    add(id(number))
                total += getsizeof(number)
            exclusions = info.exclusion_phrases
            for item in (exclusions, *exclusions):
                if len(item) <= 1:
                    if id(item) in seen:
                        continue
                    add(id(item))
                total += getsizeof(item)
    return total
