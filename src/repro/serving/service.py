"""The selectivity-serving front-end.

:class:`SelectivityService` is what the engine (and any outside client)
talks to.  It composes the rest of the subsystem:

* reads — :meth:`SelectivityService.estimate` and
  :meth:`SelectivityService.estimate_batch` resolve the current
  :class:`~repro.serving.snapshot.ModelSnapshot` from the
  :class:`~repro.serving.registry.EstimatorRegistry`, consult the
  version-scoped :class:`~repro.serving.cache.EstimateCache`, and evaluate
  misses against the immutable snapshot (batch misses through one
  vectorised kernel call when the model supports raw-bounds batching, a
  loop fallback otherwise).  Reads never block on training.
* writes — :meth:`SelectivityService.observe` appends feedback to the
  model's mutable trainer, tracks the served-vs-true error, and asks the
  :class:`~repro.serving.policy.RefitPolicy` whether a refit is due; due
  refits run on the :class:`~repro.serving.scheduler.RefitScheduler`
  (background by default) and publish a fresh snapshot version, which
  invalidates the cache for that model.
  :meth:`SelectivityService.apply_feedback` is the batch/deferred variant
  of the same path: already-priced observations, taken from the caller's
  queue and absorbed in one lock hold, optionally non-blocking — the
  replay target for the cluster's
  :class:`~repro.cluster.buffer.ObservationBuffer`.
* metrics — every call is recorded on a
  :class:`~repro.serving.stats.ServingStats`.

The service is generic over the
:class:`~repro.estimators.backend.TrainableBackend` protocol:
``register_model`` accepts QuickSel, any adapted baseline estimator
(ST-Holes, ISOMER, AutoHist, …), or a bare query-driven/scan-based
estimator (coerced via :func:`~repro.estimators.backend.as_backend`) —
all behind the same snapshot/version discipline.  Each served key has
exactly one trainer; its writes, refits, exports and unregister all run
under that trainer's lock.

The batch-API contract: ``estimate_batch(table, predicates)`` returns an
``np.ndarray`` elementwise equal (to < 1e-9) to calling ``estimate`` per
predicate against the *same* snapshot version, in input order.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import BoxBatch, Predicate
from repro.core.region import Region
from repro.estimators.backend import TrainableBackend, as_backend
from repro.exceptions import ServingError
from repro.serving.cache import (
    EstimateCache,
    predicate_cache_key,
    predicate_cache_keys,
)
from repro.serving.policy import RefitDecision, RefitPolicy
from repro.serving.registry import (
    EstimatorRegistry,
    ModelKey,
    SnapshotCell,
    group_by_key,
    normalize_key,
)
from repro.serving.scheduler import RefitScheduler
from repro.serving.snapshot import ModelSnapshot
from repro.serving.stats import ServingStats

__all__ = ["FastSlot", "SelectivityService"]

PredicateLike = Predicate | Hyperrectangle | Region
T = TypeVar("T")


def _backend_name(trainer: object) -> str:
    return getattr(trainer, "name", None) or type(trainer).__name__


class _ServedModel:
    """One key's trainer, plus the write-path state kept beside it.

    ``label`` is the backend name the key's errors are recorded under.
    """

    __slots__ = (
        "key",
        "trainer",
        "label",
        "lock",
        "pending",
        "errors",
        "retired",
    )

    def __init__(
        self,
        key: ModelKey,
        trainer: TrainableBackend,
        error_window: int,
    ) -> None:
        self.key = key
        self.trainer = trainer
        self.label = _backend_name(trainer)
        self.lock = threading.RLock()
        self.pending = 0
        self.errors: deque[float] = deque(maxlen=error_window)
        # Flipped (under ``lock``) when the slot leaves its key on
        # unregister.  A caller that fetched the slot before that
        # re-resolves instead of feeding or publishing a retired trainer.
        self.retired = False


class FastSlot:
    """Single-dispatch scalar reads for one model key.

    A slot resolves everything per-*key* exactly once — the registry's
    stable :class:`~repro.serving.registry.SnapshotCell`, the result
    cache, and the stats sink — so each :meth:`estimate` costs one
    GIL-atomic ``cell.snapshot`` read, one cache round-trip, and an
    *amortised* stats flush, instead of
    :meth:`SelectivityService.estimate`'s per-request chain of key
    normalisation → registry lock → cache → stats lock.  Publishes are
    observed instantly (the cell is swapped in place); a withdrawn key
    makes the next call re-resolve through the registry and raise the
    usual :class:`~repro.exceptions.ServingError`.

    ``flush_every`` scalar calls are accumulated before one bulk
    :meth:`~repro.serving.stats.ServingStats.record_estimates`; with
    ``flush_every=1`` every call records immediately (the exact
    semantics of :meth:`SelectivityService.estimate`, which routes
    through such a slot).  Buffered slots (``flush_every > 1``) are
    single-burst objects: use one per thread and :meth:`flush` (or rely
    on the owner's flush hooks) before reading the stats.

    On top of the shared (locked) :class:`EstimateCache`, a slot keeps
    a small *snapshot-scoped memo* keyed by predicate identity: an
    optimizer that re-probes the same predicate objects during plan
    enumeration is answered by one unlocked dict lookup, skipping even
    the structural cache-key derivation.  The memo is correct by
    construction — an estimate for a given snapshot never changes, the
    memo is discarded whenever the snapshot object does (publish,
    re-register), and a call only ever inserts into the memo it
    read beside its own snapshot — and bounded at ``_MEMO_LIMIT``
    entries.
    """

    __slots__ = (
        "key",
        "_registry",
        "_cell",
        "_cache",
        "_stats",
        "_flush_every",
        "_pending",
        "_pending_hits",
        "_pending_latencies",
        "_memo",
    )

    _MEMO_LIMIT = 4096

    def __init__(
        self,
        key: ModelKey,
        registry: EstimatorRegistry,
        cell: SnapshotCell,
        cache: EstimateCache,
        stats: ServingStats,
        flush_every: int = 64,
    ) -> None:
        if flush_every < 1:
            raise ServingError("flush_every must be at least 1")
        self.key = key
        self._registry = registry
        self._cell = cell
        self._cache = cache
        self._stats = stats
        self._flush_every = flush_every
        self._pending = 0
        self._pending_hits = 0
        self._pending_latencies: list[float] = []
        # (snapshot, {id(predicate): (predicate, value)}) as one
        # attribute, read once per call: a reader that priced against an
        # older snapshot inserts into that snapshot's dict, never into
        # the one a later publish started.  The predicate is stored to
        # pin it alive, so its id cannot be recycled while memoised.
        self._memo: tuple[
            ModelSnapshot | None, dict[int, tuple[PredicateLike, float]]
        ] = (None, {})

    def snapshot(self) -> ModelSnapshot:
        """The key's current snapshot, lock-free on the happy path."""
        snapshot = self._cell.snapshot
        if snapshot is None:
            # The key was withdrawn (and possibly re-registered with a
            # fresh cell): re-resolve once through the registry, which
            # raises the usual ServingError if the key is gone.
            self._cell = self._registry.cell(self.key)
            snapshot = self._cell.snapshot
            if snapshot is None:
                raise ServingError(
                    f"no model registered for key {self.key}"
                )
        return snapshot

    def estimate(self, predicate: PredicateLike) -> float:
        """One scalar estimate against the key's current snapshot."""
        start = time.perf_counter()
        snapshot = self.snapshot()
        memo_snapshot, memo = self._memo
        if memo_snapshot is not snapshot:
            memo = {}
            self._memo = (snapshot, memo)
        memo_entry = memo.get(id(predicate))
        if memo_entry is not None:
            value = memo_entry[1]
            hit = True
        else:
            try:
                cache_key = (
                    self.key,
                    snapshot.version,
                    predicate_cache_key(predicate),
                )
            except ServingError:
                cache_key = None
            hit = False
            if cache_key is not None:
                cached = self._cache.get(cache_key)
                if cached is not None:
                    value = cached
                    hit = True
                else:
                    value = float(snapshot.estimate(predicate))
                    self._cache.put(cache_key, value)
            else:
                value = float(snapshot.estimate(predicate))
            if len(memo) < self._MEMO_LIMIT:
                memo[id(predicate)] = (predicate, value)
        elapsed = time.perf_counter() - start
        if self._flush_every == 1:
            self._stats.record_estimate(elapsed, hit)
        else:
            self._pending += 1
            if hit:
                self._pending_hits += 1
            self._pending_latencies.append(elapsed)
            if self._pending >= self._flush_every:
                self.flush()
        return value

    def flush(self) -> None:
        """Push any buffered request accounting into the stats sink."""
        if not self._pending:
            return
        pending = self._pending
        hits = self._pending_hits
        latencies = self._pending_latencies
        self._pending = 0
        self._pending_hits = 0
        self._pending_latencies = []
        self._stats.record_estimates(pending, hits, latencies)

    def __repr__(self) -> str:
        return f"FastSlot(key={self.key}, flush_every={self._flush_every})"


class SelectivityService:
    """Versioned, cached, batch-capable selectivity estimation service."""

    def __init__(
        self,
        cache: EstimateCache | None = None,
        policy: RefitPolicy | None = None,
        scheduler: RefitScheduler | None = None,
    ) -> None:
        # `is not None` rather than `or`: an injected empty cache is
        # falsy (it has __len__), and `or` would silently replace it
        # with a default-capacity one.
        self._registry = EstimatorRegistry()
        self._cache = cache if cache is not None else EstimateCache()
        self._policy = policy if policy is not None else RefitPolicy()
        self._owns_scheduler = scheduler is None
        self._scheduler = scheduler if scheduler is not None else RefitScheduler()
        self._stats = ServingStats()
        self._served: dict[ModelKey, _ServedModel] = {}
        # Per-key immediate-flush slots the scalar/batch read paths
        # route through, keyed by the caller's raw ``table`` argument,
        # so repeat reads skip key normalisation and the registry lock.
        self._fast_slots: dict[object, FastSlot] = {}
        self._lock = threading.RLock()
        self._closed = False
        self._registry.add_listener(self._on_publish)

    # ------------------------------------------------------------------
    # Composition surface
    # ------------------------------------------------------------------
    @property
    def registry(self) -> EstimatorRegistry:
        """The snapshot registry this service serves from."""
        return self._registry

    @property
    def cache(self) -> EstimateCache:
        """The shared estimate result cache."""
        return self._cache

    @property
    def policy(self) -> RefitPolicy:
        """The refit-trigger policy."""
        return self._policy

    @property
    def scheduler(self) -> RefitScheduler:
        """The refit scheduler (inline or background)."""
        return self._scheduler

    @property
    def stats(self) -> ServingStats:
        """Operational metrics for this service."""
        return self._stats

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def register_model(
        self,
        table: str | ModelKey,
        trainer: TrainableBackend,
        refit_backlog: bool = True,
        initial_errors: Sequence[float] = (),
    ) -> ModelKey:
        """Put a trainable backend behind the model key ``table`` names.

        ``trainer`` may be anything satisfying the
        :class:`~repro.estimators.backend.TrainableBackend` protocol
        (QuickSel natively) or a bare query-driven/scan-based estimator,
        which is wrapped via
        :func:`~repro.estimators.backend.as_backend`.  The registry
        immediately serves either the backend's existing model
        (published as version 1) or the uniform bootstrap snapshot
        (version 0) if it has not been trained yet.  The backend becomes
        service-owned: feed it feedback only through :meth:`observe`
        from now on.

        ``refit_backlog=False`` registers the backend *as is*: its
        current model is served unchanged and any unabsorbed feedback is
        carried as pending toward the refit policy instead of being
        trained in here.  Shard migration uses this so a hand-off
        republishes the exact model the source was serving.

        ``initial_errors`` seeds the drift window (oldest first) so a
        hand-off also carries the accumulated drift evidence — a model
        one bad query away from a drift-triggered refit stays one bad
        query away after it moves (see :meth:`drift_errors`).
        """
        key = normalize_key(table)
        window = max(self._policy.drift_window, self._policy.min_drift_observations)
        self._install(
            _ServedModel(key, as_backend(trainer), window),
            refit_backlog,
            initial_errors,
        )
        return key

    def unregister_model(self, table: str | ModelKey) -> TrainableBackend:
        """Withdraw a key and hand back its backend (shard migration).

        Waits for an in-flight refit of the key to publish (by taking the
        trainer lock) before removing the registry snapshot, so the
        hand-off never races a publish.  A refit still *queued* on the
        scheduler when the key leaves fails harmlessly there; callers
        that care should :meth:`drain` first.  The returned backend
        carries all absorbed feedback and can be re-registered elsewhere
        without retraining from scratch.
        """
        key = normalize_key(table)

        def withdraw(served: _ServedModel) -> TrainableBackend:
            with self._lock:
                del self._served[key]
            served.retired = True
            self._registry.remove(key)
            return served.trainer

        trainer = self._with_slot(key, withdraw)
        self._purge_fast_slots(key)
        self._cache.invalidate(key)
        self._stats.forget_backend_errors(key)
        return trainer

    def model_keys(self) -> Sequence[ModelKey]:
        """All model keys this service owns a trainer for."""
        with self._lock:
            return tuple(self._served)

    def snapshot_for(self, table: str | ModelKey) -> ModelSnapshot:
        """The snapshot currently serving a key (metrics/debug surface)."""
        return self._registry.current(normalize_key(table))

    def feedback_count(self, table: str | ModelKey) -> int:
        """Total observations absorbed by a key's backend (incl. unpublished)."""
        return self._with_slot(
            normalize_key(table),
            lambda served: served.trainer.observed_count,
        )

    def drift_errors(self, table: str | ModelKey) -> tuple[float, ...]:
        """The key's recent served-vs-true error window, oldest first.

        This is the drift trigger's evidence; migration reads it before
        the hand-off and replays it into the destination via
        ``register_model(initial_errors=...)``.
        """
        return self._with_slot(
            normalize_key(table),
            lambda served: tuple(served.errors),
        )

    def export_trainer(
        self,
        table: str | ModelKey,
        serializer: Callable[[TrainableBackend], object] | None = None,
    ) -> object:
        """Serialise a key's live trainer *without* withdrawing it.

        The checkpoint layer's non-destructive twin of
        :meth:`unregister_model`: ``serializer`` (default
        :func:`copy.deepcopy`) runs under the served model's lock, so the
        captured trainer is internally consistent even while feedback and
        refits race on — and the key keeps serving throughout.  An
        unregister landing between the slot lookup and the lock is
        re-resolved, so the export is always of the key's current
        trainer.
        """
        if serializer is None:
            serializer = copy.deepcopy
        return self._with_slot(
            normalize_key(table),
            lambda served: serializer(served.trainer),
        )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def fast_slot(
        self, table: str | ModelKey, flush_every: int = 64
    ) -> FastSlot:
        """A single-dispatch read handle for one key (burst fast path).

        Resolves the key's snapshot cell, cache, and stats sink once;
        the returned :class:`FastSlot` then serves scalar estimates with
        no key normalisation, no registry lock, and stats buffered
        across ``flush_every`` calls (call
        :meth:`FastSlot.flush` — or use ``flush_every=1`` — before
        reading the stats).  Estimates are identical to
        :meth:`estimate`, including caching and version semantics.
        """
        key = normalize_key(table)
        return FastSlot(
            key,
            self._registry,
            self._registry.cell(key),
            self._cache,
            self._stats,
            flush_every=flush_every,
        )

    def _fast_slot_for(self, table: str | ModelKey) -> FastSlot:
        """The service's internal immediate-flush slot for a key.

        Keyed by the raw ``table`` argument, so a repeat read costs one
        dict hit; a miss builds the key with :func:`normalize_key`.
        Slots survive unregister/re-register cycles by re-resolving
        their cell through the registry (see :meth:`FastSlot.snapshot`).
        """
        slot = self._fast_slots.get(table)
        if slot is not None:
            return slot
        key = normalize_key(table)
        slot = FastSlot(
            key,
            self._registry,
            self._registry.cell(key),
            self._cache,
            self._stats,
            flush_every=1,
        )
        with self._lock:
            return self._fast_slots.setdefault(table, slot)

    def _purge_fast_slots(self, key: ModelKey) -> None:
        """Drop the internal slot aliases pointing at a withdrawn key."""
        with self._lock:
            stale = [
                alias
                for alias, slot in self._fast_slots.items()
                if slot.key == key
            ]
            for alias in stale:
                del self._fast_slots[alias]

    def estimate(self, table: str | ModelKey, predicate: PredicateLike) -> float:
        """Estimate one predicate's selectivity from the current snapshot."""
        return self._fast_slot_for(table).estimate(predicate)

    def estimate_batch(
        self,
        table: str | ModelKey,
        predicates: Sequence[PredicateLike] | BoxBatch,
    ) -> np.ndarray:
        """Estimate a burst of predicates against one snapshot version.

        All predicates are answered by the *same* model version (resolved
        once at entry).  Cache hits are filled directly; all misses are
        evaluated in a single vectorised pass and then cached.  A missed
        cache key is looked up and priced once per call however often it
        repeats: every repeat gets that first value bit for bit (the
        vectorised pass can price one box an ulp apart at two
        positions) and counts as a miss.

        ``predicates`` may be a :class:`~repro.core.predicate.BoxBatch`,
        the float rows a remote burst arrives as.  Its cache keys are its
        row bytes (:meth:`~repro.core.predicate.BoxBatch.key`, the key
        :func:`~repro.serving.cache.predicate_cache_key` gives the same
        box as an object), so a hit builds no predicate object; only the
        misses are rebuilt from their rows and lowered.
        """
        slot = self._fast_slot_for(table)
        key = slot.key
        start = time.perf_counter()
        snapshot = slot.snapshot()
        version = snapshot.version
        results = np.empty(len(predicates))
        miss_indices: list[int] = []
        miss_keys = []
        # A missed token's first position in this call; key and version
        # are fixed per call, so the token alone identifies the entry.
        pending: dict[object, int] = {}
        repeats: list[tuple[int, int]] = []
        for index, token in enumerate(predicate_cache_keys(predicates)):
            if pending and token in pending:
                repeats.append((index, pending[token]))
                continue
            cache_key = None if token is None else (key, version, token)
            cached = None if cache_key is None else self._cache.get(cache_key)
            if cached is not None:
                results[index] = cached
            else:
                miss_indices.append(index)
                miss_keys.append(cache_key)
                if token is not None:
                    pending[token] = index
        if miss_indices:
            values = snapshot.estimate_many(
                [predicates[index] for index in miss_indices]
            )
            for index, cache_key, value in zip(miss_indices, miss_keys, values):
                value = float(value)
                results[index] = value
                if cache_key is not None:
                    self._cache.put(cache_key, value)
        for index, source in repeats:
            results[index] = results[source]
        self._stats.record_batch(
            len(predicates),
            len(predicates) - len(miss_indices) - len(repeats),
            time.perf_counter() - start,
        )
        return results

    def estimate_batch_mixed(
        self, pairs: Sequence[tuple[str | ModelKey, PredicateLike]]
    ) -> np.ndarray:
        """Estimate a burst spanning several model keys, in input order.

        The burst is grouped by key (:func:`group_by_key`) and each group
        goes through :meth:`estimate_batch` (one snapshot resolve + one
        vectorised miss pass per key); results land back in the positions
        their pairs came in.  The sharded cluster groups the same way and
        fans the groups out across shards; the remote client groups once
        and the gateway fans its groups out across workers.
        """
        results = np.empty(len(pairs))
        for key, (indices, predicates) in group_by_key(pairs).items():
            results[indices] = self.estimate_batch(key, predicates)
        return results

    def current_estimate(
        self, table: str | ModelKey, predicate: PredicateLike
    ) -> float:
        """The estimate the current snapshot serves, off the metrics books.

        Identical to :meth:`estimate` (same snapshot, same cache) but not
        recorded as a read request — the write path uses it to price the
        served-vs-true error without polluting read latency percentiles.
        """
        key = normalize_key(table)
        snapshot = self._registry.current(key)
        value, _ = self._estimate_cached(key, snapshot, predicate)
        return value

    # ------------------------------------------------------------------
    # Writes (the learning loop)
    # ------------------------------------------------------------------
    def observe(
        self,
        table: str | ModelKey,
        predicate: PredicateLike,
        selectivity: float,
    ) -> bool:
        """Record engine feedback and maybe trigger a background refit.

        Returns True if this observation triggered a refit submission
        (which may itself be coalesced into an already-queued one).
        """
        key = normalize_key(table)
        snapshot = self._registry.current(key)
        served_estimate, _ = self._estimate_cached(key, snapshot, predicate)
        decision = self._with_slot(
            key, self._absorb, ((predicate, selectivity, served_estimate),)
        )
        self._stats.add("observations")
        return self._maybe_refit(key, decision)

    def apply_feedback(
        self,
        table: str | ModelKey,
        take: Callable[[], Sequence[tuple[PredicateLike, float, float]]],
        blocking: bool = True,
    ) -> bool | None:
        """Absorb a batch of already-priced observations under one lock.

        ``take`` runs under the key's trainer lock and returns
        ``(predicate, true_selectivity, served_estimate)`` triples — the
        estimate each observation was served with, priced by the caller
        (see :meth:`current_estimate`) *before* queueing.  The batch is
        absorbed in the same lock hold.  This is the replay half of the
        cluster's non-blocking write path: the shard's ``take`` pops its
        :class:`~repro.cluster.buffer.ObservationBuffer` queue, so the
        trainer lock alone orders replays.

        With ``blocking=False`` the call returns ``None`` immediately, and
        never calls ``take``, if the trainer lock is held (a refit in
        flight).  Otherwise returns whether the batch triggered a refit
        submission.
        """
        key = normalize_key(table)
        feedback: list[tuple[PredicateLike, float, float]] = []

        def absorb(slot: _ServedModel) -> RefitDecision | bool:
            feedback.extend(take())
            return bool(feedback) and self._absorb(slot, feedback)

        decision = self._with_slot(key, absorb, blocking=blocking)
        if decision is None:
            return None
        self._stats.add("observations", len(feedback))
        try:
            return self._maybe_refit(key, decision)
        except ServingError:
            # The batch IS absorbed by now; a failed refit submission
            # (scheduler shut down mid-teardown) must not escape as an
            # error — the shard would put the batch back in its buffer
            # and a later replay would apply the same feedback twice.
            return False

    def refit_now(self, table: str | ModelKey) -> ModelSnapshot:
        """Retrain synchronously on the caller's thread and publish."""
        key = normalize_key(table)
        self._refit(key)
        return self._registry.current(key)

    def drain(self, timeout: float | None = None) -> None:
        """Wait until every submitted refit has published.

        Migration relies on this to hand off the exact snapshot being
        served.
        """
        self._scheduler.drain(timeout)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Release the service: stop the scheduler it created.

        A scheduler injected by the caller is left running (other
        services may share it); only a service-created scheduler is shut
        down.  Idempotent: closing twice is a no-op.  The service must
        not be used afterwards.
        """
        with self._lock:
            if self._closed:
                return
        if self._owns_scheduler:
            # May raise if a long refit is still running; the closed
            # flag is only set after everything released, so the caller
            # can retry close() instead of it becoming a silent no-op.
            self._scheduler.shutdown()
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _install(
        self,
        slot: _ServedModel,
        refit_backlog: bool,
        initial_errors: Sequence[float],
    ) -> None:
        """Put ``slot`` behind its key and publish its model.

        A key that is already served is refused under the service lock
        before the trainer is touched (refusing a duplicate must not
        refit anything: the key's existing trainer may be mid-refit
        under its own lock) and again right before the insert, for the
        register/register race.  A backend carrying feedback its model
        has not absorbed (no model yet, or observations recorded after
        the last refit) is refitted first, outside the locks — otherwise
        that backlog would serve stale or uniform estimates until fresh
        traffic filled the refit policy's triggers.  A failed refit
        leaves nothing registered, so the call can simply be retried.
        """
        key, trainer = slot.key, slot.trainer

        def refuse_duplicate() -> None:
            if key in self._served:
                raise ServingError(f"model key {key} is already registered")

        with self._lock:
            refuse_duplicate()
        if refit_backlog and trainer.observed_count > trainer.trained_count:
            trainer.refit()
        fitted_on = trainer.trained_count
        with self._lock:
            refuse_duplicate()
            self._registry.register(key, trainer.domain)
            slot.pending = trainer.observed_count - fitted_on
            slot.errors.extend(initial_errors)  # maxlen keeps the newest
            self._served[key] = slot
        # Publish only under the slot's lock so an initial publish cannot
        # interleave with a refit's.
        with slot.lock:
            model = trainer.snapshot_model()
            if model is not None and not slot.retired:
                self._registry.publish(key, model, fitted_on)

    def _with_slot(
        self,
        key: ModelKey,
        action: Callable[..., T],
        *args: object,
        blocking: bool = True,
    ) -> T | None:
        """Run ``action(slot, *args)`` under the lock of ``key``'s slot.

        A slot retired by an unregister between the lookup and the lock
        is re-resolved once — the key may have been registered again —
        so no caller feeds, exports or publishes a trainer that has left
        its key.  Raises :class:`ServingError` if the key is not served;
        returns None without running ``action`` when ``blocking=False``
        and the lock is busy.
        """
        for _ in range(2):
            slot = self._served_model(key)
            if not slot.lock.acquire(blocking=blocking):
                return None
            try:
                if not slot.retired:
                    return action(slot, *args)
            finally:
                slot.lock.release()
        raise ServingError(f"the slot for key {key} kept changing; retry")

    def _absorb(
        self,
        slot: _ServedModel,
        feedback: Sequence[tuple[PredicateLike, float, float]],
    ) -> RefitDecision:
        """Feed priced observations to a slot's trainer and ask the policy.

        ``feedback`` holds ``(predicate, true_selectivity, estimate)``
        triples; the caller holds the slot's lock.
        """
        errors = [
            abs(estimate - selectivity)
            for _, selectivity, estimate in feedback
        ]
        slot.trainer.observe_many(
            [(predicate, selectivity) for predicate, selectivity, _ in feedback]
        )
        slot.pending += len(feedback)
        slot.errors.extend(errors)
        self._stats.record_backend_errors(slot.key, slot.label, errors)
        return self._policy.decide(slot.pending, slot.errors)

    def _maybe_refit(self, key: ModelKey, decision: RefitDecision) -> bool:
        if not decision:
            return False
        self._stats.add("refits_triggered")
        if decision.trigger == "drift":
            # Counted on top of refits_triggered: the ratio is the share
            # of refits forced by the model being wrong, not just stale.
            self._stats.add("drift_refits_triggered")
        self._scheduler.submit(key, lambda: self._refit(key))
        return True

    def _served_model(self, key: ModelKey) -> _ServedModel:
        with self._lock:
            try:
                return self._served[key]
            except KeyError as error:
                raise ServingError(
                    f"no trainer registered for key {key}; "
                    "call register_model() first"
                ) from error

    def _estimate_cached(
        self, key: ModelKey, snapshot: ModelSnapshot, predicate: PredicateLike
    ) -> tuple[float, bool]:
        (token,) = predicate_cache_keys([predicate])
        cache_key = None if token is None else (key, snapshot.version, token)
        if cache_key is not None:
            cached = self._cache.get(cache_key)
            if cached is not None:
                return cached, True
        value = float(snapshot.estimate(predicate))
        if cache_key is not None:
            self._cache.put(cache_key, value)
        return value, False

    def _refit(self, key: ModelKey) -> None:
        # The publish happens under the same lock as the training so two
        # concurrent refits for one key (background worker + refit_now)
        # cannot publish out of order and leave a staler model as the
        # highest version; an unregister and re-register landing between
        # lookup and lock must not let this job publish the retired
        # trainer's model over the new one (_with_slot re-resolves).
        self._with_slot(key, self._refit_locked)
        self._stats.add("refits_completed")

    def _refit_locked(self, slot: _ServedModel) -> ModelSnapshot:
        """Retrain a slot's trainer and publish; caller holds its lock."""
        slot.trainer.refit()
        model = slot.trainer.snapshot_model()
        if model is None:
            raise ServingError(
                f"backend {slot.label} produced no model after refit "
                f"for key {slot.key}"
            )
        slot.pending = 0
        slot.errors.clear()
        return self._registry.publish(slot.key, model, slot.trainer.trained_count)

    def _on_publish(self, key: ModelKey, snapshot: ModelSnapshot) -> None:
        # Version-scoped keys already guarantee correctness; eager
        # invalidation just frees the dead version's cache space.
        self._cache.invalidate(key)

    def __repr__(self) -> str:
        return (
            f"SelectivityService(models={len(self._served)}, "
            f"scheduler={self._scheduler.mode!r})"
        )
