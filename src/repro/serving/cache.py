"""LRU result cache for served selectivity estimates.

Query optimizers re-probe the same predicates many times during plan
enumeration, so the service memoises ``(model key, model version,
predicate) -> estimate``.  Three design points:

* **Version-scoped keys.**  The model version is part of the cache key,
  so a hot-swap can never serve a stale estimate even if invalidation
  races with a read.  Explicit :meth:`EstimateCache.invalidate` is still
  called on every publish to evict the dead version's entries promptly
  instead of letting them age out of the LRU.
* **Structural predicate keys.**  :func:`predicate_cache_key` derives a
  hashable token from the predicate's structure without lowering it to
  geometry, so a cache *hit* costs a dict lookup, not a region
  construction.  A plain box predicate is keyed on its float rows
  (:func:`~repro.core.predicate.box_rows`, ``("P", row bytes)``), the
  same bytes a remote burst carries in its
  :class:`~repro.core.predicate.BoxBatch`: a scalar read, an in-process
  batch and a remote burst share one entry per box, and a worker answers
  a hit from the bytes alone, with no predicate object.
* **Optional TinyLFU admission.**  With ``admission="tinylfu"``, a
  :class:`FrequencySketch` (count-min, 4-bit counters, periodic halving)
  gates entry to a full cache: a new key must have been looked up at
  least twice recently *and* be recently-more-popular than the LRU
  victim it would evict.  Lookups (hits and misses alike) are what
  count as accesses, so a key that keeps being asked for is admitted
  eventually — but a one-pass scan, whose keys are each looked up
  exactly once, stops flushing the hot working set.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Sequence

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import (
    BoxBatch,
    BoxPredicate,
    Conjunction,
    Disjunction,
    Negation,
    Predicate,
    TruePredicate,
    box_rows,
)
from repro.core.region import Region
from repro.exceptions import ServingError

__all__ = [
    "EstimateCache",
    "FrequencySketch",
    "predicate_cache_key",
    "predicate_cache_keys",
]


def predicate_cache_key(predicate: Predicate | Hyperrectangle | Region) -> Hashable:
    """A hashable token such that equal tokens imply equal estimates.

    A box predicate's token is its rows (:func:`box_rows`), which equal
    rows lower to equal bounds; ``RangeConstraint(d, v, v + w)`` and
    ``EqualityConstraint(d, v, w)`` therefore share one token.  Other
    tokens mirror the predicate's syntax tree; two syntactically
    different spellings of the same predicate may get different tokens
    (costing only a duplicate cache entry, never a wrong answer).
    Raises :class:`ServingError` for a predicate with no such token,
    such as a box holding a constraint subclass: a repr- or id-based key
    could collide after address reuse and serve another predicate's
    estimate.
    """
    if isinstance(predicate, Hyperrectangle):
        return ("H", predicate.bounds.tobytes())
    if isinstance(predicate, Region):
        return ("R", tuple(box.bounds.tobytes() for box in predicate.boxes))
    if isinstance(predicate, BoxPredicate):
        rows = box_rows(predicate)
        if rows is None:
            raise ServingError(
                f"cannot build a cache key for {predicate!r}: only a plain "
                "BoxPredicate of RangeConstraint and EqualityConstraint "
                "has rows"
            )
        return ("P", rows)
    if isinstance(predicate, TruePredicate):
        return ("T",)
    if isinstance(predicate, Conjunction):
        return ("A", tuple(predicate_cache_key(c) for c in predicate.children))
    if isinstance(predicate, Disjunction):
        return ("O", tuple(predicate_cache_key(c) for c in predicate.children))
    if isinstance(predicate, Negation):
        return ("N", predicate_cache_key(predicate.child))
    raise ServingError(
        f"cannot build a cache key for {type(predicate).__name__}"
    )


def predicate_cache_keys(
    predicates: Sequence[Predicate | Hyperrectangle | Region] | BoxBatch,
) -> list[Hashable | None]:
    """One :func:`predicate_cache_key` token per predicate, in order.

    A :class:`BoxBatch` yields ``("P", batch.key(i))`` straight from its
    row bytes, with no predicate object.  A predicate with no token
    (:func:`predicate_cache_key` raises) gets None: it is still
    estimable through ``to_region``, just served uncached.
    """
    if isinstance(predicates, BoxBatch):
        return [("P", predicates.key(index)) for index in range(len(predicates))]
    tokens: list[Hashable | None] = []
    for predicate in predicates:
        try:
            tokens.append(predicate_cache_key(predicate))
        except ServingError:
            tokens.append(None)
    return tokens


def _model_key_of(key: Hashable) -> Hashable | None:
    """The model-key component of a cache key (None for foreign keys).

    Service-shaped cache keys are exactly ``(model_key, version,
    predicate_token)`` 3-tuples with an integer version.  The arity and
    version check matter: predicate tokens themselves are 1–2-tuples
    (``("H", bytes)``, ``("T",)``), so a bare token cached directly must
    *not* be attributed to its first element — a ``("H", ...)`` entry
    under a phantom model key ``"H"`` would be silently dropped by
    ``invalidate("H")`` and counted by ``entries_for("H")``.
    """
    if isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], int):
        return key[0]
    return None


class FrequencySketch:
    """A count-min sketch of access frequencies (the TinyLFU filter).

    Four rows of 4-bit-saturating counters (stored as ``uint8`` capped
    at 15); :meth:`estimate` is the minimum over the rows.  After
    ``10 * capacity`` increments every counter is halved — the classic
    TinyLFU aging step, which makes the sketch track *recent* popularity
    instead of all of history (a one-pass scan can never saturate it).

    A *doorkeeper* set absorbs first sightings: a key's first access in
    each sample period only records membership, and only repeat accesses
    touch the count-min rows.  Without it a heavy one-pass scan floods
    the rows with single-count increments and the resulting collision
    noise hands fresh keys phantom frequencies (enough to beat an aged
    victim and defeat admission).  The doorkeeper contributes 1 to
    :meth:`estimate` and is cleared at every aging step.
    """

    _ROW_SEEDS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F)
    _MIX = 0x9E3779B97F4A7C15
    _MAX = 15

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ServingError("sketch capacity must be at least 1")
        width = 1 << max(8, int(capacity).bit_length())
        self._mask = width - 1
        self._rows = np.zeros((len(self._ROW_SEEDS), width), dtype=np.uint8)
        self._doorkeeper: set[Hashable] = set()
        self._increments = 0
        self._sample_size = 10 * capacity

    def _columns(self, key: Hashable) -> list[int]:
        h = hash(key)
        return [
            (((h ^ seed) * self._MIX) >> 17) & self._mask
            for seed in self._ROW_SEEDS
        ]

    def increment(self, key: Hashable) -> None:
        """Record one access to ``key`` (ages the sketch periodically)."""
        if key not in self._doorkeeper:
            self._doorkeeper.add(key)
        else:
            rows = self._rows
            for row, column in enumerate(self._columns(key)):
                if rows[row, column] < self._MAX:
                    rows[row, column] += 1
        self._increments += 1
        if self._increments >= self._sample_size:
            self._rows >>= 1
            self._doorkeeper.clear()
            self._increments //= 2

    def estimate(self, key: Hashable) -> int:
        """Approximate recent access count of ``key`` (0–15)."""
        rows = self._rows
        counted = min(
            int(rows[row, column])
            for row, column in enumerate(self._columns(key))
        )
        if key in self._doorkeeper:
            counted += 1
        return min(counted, self._MAX)


class EstimateCache:
    """A thread-safe LRU cache of selectivity estimates.

    ``admission="tinylfu"`` puts a TinyLFU frequency filter in front of
    the LRU: at capacity a *new* key is admitted only if its recent
    lookup frequency (a :class:`FrequencySketch`, incremented on every
    ``get`` — hits and misses alike) is at least 2 and exceeds the LRU
    victim's.  One-pass scans — plan enumeration over thousands of
    never-repeated predicates — then bounce off the filter instead of
    flushing the hot working set.
    Default is plain LRU admission.
    """

    def __init__(
        self,
        capacity: int = 4096,
        admission: str | None = None,
    ) -> None:
        if capacity < 1:
            raise ServingError("cache capacity must be at least 1")
        if admission not in (None, "lru", "tinylfu"):
            raise ServingError(
                f"unknown admission policy {admission!r}; "
                "expected None, 'lru', or 'tinylfu'"
            )
        self._capacity = capacity
        self._sketch = (
            FrequencySketch(capacity) if admission == "tinylfu" else None
        )
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, float]" = OrderedDict()

    @property
    def capacity(self) -> int:
        """Maximum number of cached estimates."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries_for(self, model_key: object) -> int:
        """How many cached estimates ``model_key`` currently holds."""
        with self._lock:
            return sum(1 for key in self._entries if _model_key_of(key) == model_key)

    def get(self, key: Hashable) -> float | None:
        """Return the cached estimate, refreshing its recency; None on miss."""
        with self._lock:
            if self._sketch is not None:
                self._sketch.increment(key)
            value = self._entries.get(key)
            if value is None:
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: float) -> None:
        """Insert an estimate, evicting the least recently used if full.

        Under TinyLFU admission, a new key arriving at a full cache is
        admitted only if it was accessed at least twice recently (a
        one-pass scan key is, by definition, looked up once — it can
        never displace anything) AND its access frequency beats the
        prospective LRU victim's.  Frequency is counted by ``get`` (an
        access), not here: misses still count, so a key that keeps
        coming back wins admission eventually.
        """
        with self._lock:
            if self._sketch is not None:
                if (
                    key not in self._entries
                    and len(self._entries) >= self._capacity
                ):
                    frequency = self._sketch.estimate(key)
                    victim = next(iter(self._entries))
                    if frequency < 2 or frequency <= self._sketch.estimate(
                        victim
                    ):
                        return
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def invalidate(self, model_key: object) -> int:
        """Drop every entry belonging to ``model_key`` (on hot-swap).

        Cache keys are ``(model_key, version, predicate_token)`` tuples;
        this removes all versions for the model.  Returns the number of
        evicted entries.
        """
        with self._lock:
            dead = [
                key
                for key in self._entries
                if _model_key_of(key) == model_key
            ]
            for key in dead:
                del self._entries[key]
            return len(dead)

    def clear(self) -> None:
        """Drop everything (the frequency sketch keeps its history)."""
        with self._lock:
            self._entries.clear()
