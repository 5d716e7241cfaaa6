"""Stable, order-independent hashing of word sets.

The paper's index is keyed by ``wordhash : 2^W -> N``.  We need the hash to
be (a) independent of word order (it hashes a *set*), (b) stable across
processes and runs (CPython's ``hash`` on ``str`` is salted), and (c) cheap.

We hash each word with 64-bit FNV-1a and combine the per-word hashes with
XOR; XOR is commutative/associative, so the combination is order-free, and
because individual word hashes are well mixed, collisions between distinct
small sets are rare (and tolerated: data nodes store full phrases and every
probe verifies them, as the paper requires).

A word's mixed hash — its *contribution* to every set containing it — is
memoized once per process by :func:`word_contrib`, and :func:`wordhash`
is the XOR of memoized contributions.  Inserts, deletes, point lookups,
shard routing and probe-key enumeration (:mod:`repro.perf.memohash`,
:mod:`repro.kernels.flat`) therefore share one definition and one cache.
The memo is never evicted (only :func:`clear_contrib_cache` empties it);
it is bounded by the distinct words ever inserted or probed: the words of
inserted ads, the candidate words of probed queries
(the fast path's prefilter keeps only locator-vocabulary words;
``fast_path=False`` hashes every query word), and the words of ads routed
by ``wordhash % num_shards``.  Deletes and point lookups of ads an index
cannot hold return before hashing (placement and header-vocabulary
pre-tests), so they do not grow it.
"""

from __future__ import annotations

from collections.abc import Iterable

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

# XOR of identical hashes cancels; the set {a, a} cannot occur (sets), but the
# empty set would hash to 0 and collide with nothing useful — give it a fixed
# non-zero value so downstream suffix arithmetic stays uniform.
_EMPTY_SET_HASH = 0x9E3779B97F4A7C15

#: word -> mixed 64-bit contribution to any set hash containing it.
_MEMO: dict[str, int] = {}


def fnv1a(word: str) -> int:
    """64-bit FNV-1a hash of a single word (UTF-8 bytes)."""
    value = _FNV_OFFSET
    for byte in word.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    return value


def _mix(value: int) -> int:
    """Final avalanche (splitmix64 finalizer) applied to each word hash.

    FNV-1a alone has weak high-bit diffusion for short keys; XOR-combining
    unmixed values would correlate sets sharing words.  The finalizer makes
    each word hash behave like a random 64-bit value.
    """
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK64
    return value ^ (value >> 31)


def word_contrib(word: str) -> int:
    """The word's XOR contribution to ``wordhash`` of any containing set."""
    contrib = _MEMO.get(word)
    if contrib is None:
        contrib = _MEMO[word] = _mix(fnv1a(word))
    return contrib


def clear_contrib_cache() -> int:
    """Drop all memoized contributions; returns how many were cached."""
    size = len(_MEMO)
    _MEMO.clear()
    return size


def wordhash(words: Iterable[str]) -> int:
    """Order-independent 64-bit hash of a set of words.

    >>> wordhash({"used", "books"}) == wordhash(["books", "used"])
    True
    """
    unique = words if isinstance(words, (set, frozenset)) else set(words)
    if not unique:
        return _EMPTY_SET_HASH
    combined = 0
    memo = _MEMO
    for word in unique:
        # A memoized 0 falls through to ``word_contrib``, which returns it.
        combined ^= memo.get(word) or word_contrib(word)
    return combined


def hash_suffix(value: int, bits: int) -> int:
    """Return the low-order ``bits``-bit suffix of a hash value.

    Used by the compressed lookup structure of Section VI (``B^sig`` is
    indexed by the s-bit suffix of ``wordhash``).
    """
    if bits <= 0:
        raise ValueError("suffix size must be positive")
    if bits >= 64:
        return value
    return value & ((1 << bits) - 1)
