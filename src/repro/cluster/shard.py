"""One shard of the serving cluster.

A :class:`ShardWorker` is a complete, self-contained serving stack — its
own :class:`~repro.serving.registry.EstimatorRegistry`,
:class:`~repro.serving.cache.EstimateCache`,
:class:`~repro.serving.scheduler.RefitScheduler`, and
:class:`~repro.serving.stats.ServingStats`, composed into a private
:class:`~repro.serving.service.SelectivityService` — plus the cluster's
non-blocking write path: an
:class:`~repro.cluster.buffer.ObservationBuffer` in front of the
trainers.

Reads delegate straight to the service (snapshot + cache, the PR 1
vectorised fast path intact).  Writes go through the buffer:

1. :meth:`ShardWorker.observe` prices the observation against the
   current snapshot (a lock-free read), enqueues it, and *tries* to
   replay — a non-blocking trainer-lock acquire.  A replay takes the
   key's queue inside the same lock hold that absorbs it, so the
   trainer lock alone orders replays.  If a refit holds the lock, the
   observation stays queued and the call returns in microseconds.
2. After every snapshot publish the shard's registry listener replays
   the key's backlog.  The publish happens on the refit thread while it
   still (re-entrantly) holds the trainer lock, so that replay cannot be
   refused.  A write that lands after it but before the refit releases
   the lock waits for the key's next observe/flush/drain/publish:
   delayed, never lost.

Nothing in a shard knows about routing; the
:class:`~repro.cluster.service.ShardedSelectivityService` owns the ring
and hands each shard only the keys it serves.

A key's learned state leaves and re-enters a shard as one
:class:`KeyState` value (:meth:`ShardWorker.export_state` /
:meth:`ShardWorker.install_state`).  An in-process resize, a wire
migration between worker processes and a disk checkpoint are three
transports of that one value; only the backend codec differs.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any, TypedDict

import numpy as np

from repro.core.predicate import BoxBatch
from repro.estimators.backend import TrainableBackend
from repro.exceptions import ServingError
from repro.serving.cache import EstimateCache
from repro.serving.policy import RefitPolicy
from repro.serving.registry import ModelKey
from repro.serving.scheduler import RefitScheduler
from repro.serving.service import FastSlot, SelectivityService
from repro.serving.snapshot import ModelSnapshot
from repro.serving.stats import ServingStats
from repro.cluster.buffer import BufferedObservation, ObservationBuffer

__all__ = ["KeyState", "ShardWorker"]


class KeyState(TypedDict):
    """One key's complete serving state, as a plain dict.

    ``trainer`` holds the backend as the exporting codec left it: the
    live object in process, bytes on the wire and on disk.
    ``feedback_count`` is how many observations the trainer had absorbed
    when the state was taken.  The drift window carries the evidence
    the drift trigger relies on, and the per-backend error windows the
    key's served-error statistics.  ``leftovers`` are observations a
    withdrawing export found still buffered; a state without them (a
    checkpoint) installs too.

    Older checkpoint files also carry ``lifetime_totals`` (the lifetime
    error ledger of a removed refit trigger) and, from before the
    challenger role was removed, ``challenger``, ``challenger_errors``
    and ``shadow_frac``; :meth:`ShardWorker.install_state` reads only
    the fields above, so those are ignored.
    """

    key: ModelKey
    trainer: object
    feedback_count: int
    drift_errors: tuple[float, ...]
    backend_windows: dict[str, tuple[float, ...]]
    leftovers: tuple[BufferedObservation, ...]


def _identity(value):
    return value


def _triples(
    items: Sequence[BufferedObservation],
) -> list[tuple[object, float, float]]:
    return [
        (item.predicate, item.selectivity, item.served_estimate)
        for item in items
    ]


class ShardWorker:
    """A single shard: full serving stack plus buffered, non-blocking writes."""

    def __init__(
        self,
        shard_id: str,
        policy: RefitPolicy | None = None,
        cache_capacity: int = 4096,
        scheduler_mode: str = "background",
    ) -> None:
        self._shard_id = shard_id
        self._scheduler = RefitScheduler(scheduler_mode)
        self._service = SelectivityService(
            cache=EstimateCache(cache_capacity),
            policy=policy,
            scheduler=self._scheduler,
        )
        self._buffer = ObservationBuffer()
        # Per-key fast slots for scalar reads: snapshot cell, cache, and
        # stats sink resolved once per key, request accounting buffered
        # and flushed whenever the stats surface is read (see ``stats``)
        # or the shard drains/closes/hands a key off.
        self._read_slots: dict[ModelKey, FastSlot] = {}
        # Replay buffered feedback the moment each refit publishes; the
        # service's own cache-invalidation listener was registered first,
        # so replays always price against a clean cache.
        self._service.registry.add_listener(self._on_publish)

    # ------------------------------------------------------------------
    # Composition surface
    # ------------------------------------------------------------------
    @property
    def shard_id(self) -> str:
        """This shard's stable identity on the ring."""
        return self._shard_id

    @property
    def service(self) -> SelectivityService:
        """The shard-private serving stack."""
        return self._service

    @property
    def buffer(self) -> ObservationBuffer:
        """The shard's write-path buffer."""
        return self._buffer

    @property
    def stats(self) -> ServingStats:
        """The shard's metrics surface (flushes buffered read accounting)."""
        self._flush_read_slots()
        return self._service.stats

    @property
    def scheduler(self) -> RefitScheduler:
        """The shard's refit scheduler."""
        return self._scheduler

    def stats_view(self) -> dict[str, Any]:
        """This shard's stats as one plain, picklable view.

        The input of the fleet fold
        (:func:`~repro.cluster.stats.merge_worker_stats`), in process and
        over the wire.  The counters, latencies and error windows come
        from one :meth:`~repro.serving.stats.ServingStats.view`, read
        through :attr:`stats` so buffered read accounting is flushed
        first.
        """
        view = self.stats.view()
        return {
            "shard_id": self._shard_id,
            "counters": view["counters"],
            "latencies": view["latencies"],
            "buffer": self._buffer.counters(),
            "refits_coalesced": self._scheduler.coalesced,
            "backend_error_windows": view["backend_error_windows"],
            "model_keys": len(self.model_keys()),
        }

    # ------------------------------------------------------------------
    # Model lifecycle (the cluster routes, we serve)
    # ------------------------------------------------------------------
    def register_model(
        self,
        table: str | ModelKey,
        trainer: TrainableBackend,
        refit_backlog: bool = True,
        initial_errors: Sequence[float] = (),
    ) -> ModelKey:
        """Install a trainable backend behind a key on this shard."""
        return self._service.register_model(
            table,
            trainer,
            refit_backlog=refit_backlog,
            initial_errors=initial_errors,
        )

    def unregister_model(self, key: ModelKey) -> TrainableBackend:
        """Hand off a key's backend (migration); flushes its backlog first."""
        self.flush(key, blocking=True)
        slot = self._read_slots.pop(key, None)
        if slot is not None:
            slot.flush()
        return self._service.unregister_model(key)

    def model_keys(self) -> Sequence[ModelKey]:
        """The keys this shard currently serves."""
        return self._service.model_keys()

    def snapshot_for(self, key: ModelKey) -> ModelSnapshot:
        """The snapshot currently serving a key."""
        return self._service.snapshot_for(key)

    def feedback_count(self, key: ModelKey) -> int:
        """Observations accepted for a key: absorbed by the trainer plus
        still buffered.

        Both counts are read in one trainer-lock hold.  A replay takes the
        queue only under that lock, so no batch can fall between them.
        """
        return self._service.export_trainer(
            key,
            serializer=lambda trainer: (
                trainer.observed_count + self._buffer.pending(key)
            ),
        )

    # ------------------------------------------------------------------
    # Key state hand-off (resize, wire migration, checkpoint)
    # ------------------------------------------------------------------
    def export_state(
        self,
        key: ModelKey,
        *,
        withdraw: bool,
        encode: Callable[[TrainableBackend], object] = _identity,
    ) -> KeyState:
        """Capture a key's full state, encoding its trainer with ``encode``.

        The key's buffered feedback is flushed into its trainer first,
        so the state carries every observation this shard accepted.
        With ``withdraw`` the key leaves the shard: in-flight refits
        publish first (a move carries the exact snapshot being served),
        then the key is unregistered and raced buffer leftovers are
        taken along.  Without it (a checkpoint) the key keeps serving
        and the trainer is encoded under its lock; with the identity
        codec the state then shares the live trainer.
        """
        self.flush(key, blocking=True)
        service = self._service
        if withdraw:
            service.drain()
        scope = str(key)
        stats = self.stats
        state: KeyState = {
            "key": key,
            "trainer": None,
            "feedback_count": service.feedback_count(key),
            "drift_errors": service.drift_errors(key),
            "backend_windows": {
                backend: window
                for (model, backend), window
                in stats.backend_error_windows().items()
                if model == scope
            },
            "leftovers": (),
        }
        if withdraw:
            state["trainer"] = encode(self.unregister_model(key))
            state["leftovers"] = tuple(self._buffer.discard(key))
        else:
            state["trainer"] = service.export_trainer(key, serializer=encode)
        return state

    def install_state(
        self,
        state: KeyState,
        *,
        decode: Callable[[object], TrainableBackend] = _identity,
    ) -> ModelKey:
        """Serve an exported key here, decoding its trainer with ``decode``.

        ``refit_backlog=False`` republishes the exact model the state
        captured: a move or a restore never retrains, and unabsorbed
        feedback stays pending toward this shard's refit policy.
        """
        key = state["key"]
        self.register_model(
            key,
            decode(state["trainer"]),
            refit_backlog=False,
            initial_errors=state["drift_errors"],
        )
        stats = self.stats
        for backend, window in state["backend_windows"].items():
            stats.record_backend_errors(key, backend, window)
        leftovers = state.get("leftovers", ())
        for observation in leftovers:
            self._buffer.append(key, observation)
        if leftovers:
            self.flush(key, blocking=True)
        return key

    # ------------------------------------------------------------------
    # Reads (lock-free with respect to training)
    # ------------------------------------------------------------------
    def estimate(self, key: ModelKey, predicate: object) -> float:
        """Scalar estimate from the shard's current snapshot.

        Served through a per-key :class:`~repro.serving.service.FastSlot`
        — the snapshot cell, cache, and stats sink are resolved once per
        key, and request accounting is buffered until the stats surface
        is next read (``stats``/``drain``/``close``/hand-off all flush).
        """
        slot = self._read_slots.get(key)
        if slot is None:
            slot = self._read_slots.setdefault(
                key, self._service.fast_slot(key, flush_every=32)
            )
        return slot.estimate(predicate)

    def estimate_batch(
        self, key: ModelKey, predicates: Sequence[object] | BoxBatch
    ) -> np.ndarray:
        """Batched estimates (one snapshot version, vectorised misses)."""
        return self._service.estimate_batch(key, predicates)

    # ------------------------------------------------------------------
    # Writes (never block on training)
    # ------------------------------------------------------------------
    def observe(
        self, key: ModelKey, predicate: object, selectivity: float
    ) -> bool:
        """Buffer one observation and replay opportunistically.

        Returns True if the replay ran *and* triggered a refit
        submission; False when the observation was merely buffered (a
        refit owns the trainer lock) or no refit was due.  Either way
        the call returns without waiting on training.
        """
        served_estimate = self._service.current_estimate(key, predicate)
        self._buffer.append(
            key, BufferedObservation(predicate, selectivity, served_estimate)
        )
        try:
            return self._replay(key, blocking=False)[1]
        except ServingError:
            # The key left this shard between the snapshot read above
            # and the replay (a migration race).  The observation stays
            # queued: the migration's final sweep forwards it if the
            # append preceded the sweep, otherwise the next flush's
            # orphan cleanup drops it.  Raising here would make the
            # cluster's retry deliver it twice instead.
            return False

    def flush(self, key: ModelKey | None = None, blocking: bool = True) -> int:
        """Replay buffered observations into their trainers.

        With ``blocking=True`` (the default) the replay waits for each
        trainer lock — after it returns every observation queued before
        the call has been absorbed.  Returns the number applied.

        A key the service no longer knows (an observe raced a migration
        and buffered after the hand-off's final sweep) is dropped from
        the buffer instead of poisoning every later flush/drain with
        ``ServingError``; the loss is a single raced observation per
        admin operation, visible in the buffer's ``discarded`` counter.
        """

        def flush_one(target: ModelKey) -> int:
            try:
                return self._replay(target, blocking)[0]
            except ServingError:
                self._buffer.discard(target)
                return 0

        if key is not None:
            return flush_one(key)
        return sum(flush_one(target) for target in self._buffer.keys())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def refit_now(self, key: ModelKey) -> ModelSnapshot:
        """Flush the key's backlog, retrain synchronously, publish."""
        self.flush(key, blocking=True)
        return self._service.refit_now(key)

    def drain(self, timeout: float | None = None) -> None:
        """Replay every buffered observation, then wait out refits."""
        self.flush(blocking=True)
        self._service.drain(timeout)
        self._flush_read_slots()

    def close(self) -> None:
        """Shut the shard down (service, scheduler). Idempotent."""
        self._flush_read_slots()
        self._service.close()
        self._scheduler.shutdown()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush_read_slots(self) -> None:
        """Push every fast slot's buffered request accounting to stats."""
        for slot in list(self._read_slots.values()):
            slot.flush()

    def _on_publish(self, key: ModelKey, snapshot: ModelSnapshot) -> None:
        # Runs on the refit thread, which still holds the trainer lock
        # re-entrantly, so this replay cannot be refused: the backlog
        # lands immediately after every publish.
        self._replay(key, blocking=False)

    def _replay(self, key: ModelKey, blocking: bool) -> tuple[int, bool]:
        """Absorb ``key``'s backlog: (observations applied, refit triggered).

        The queue is taken inside the trainer-lock hold that absorbs it.
        A replay refused by a busy trainer leaves the backlog queued and
        counts it in ``requeued``; a raising absorb puts its batch back,
        in order, before propagating.
        """
        taken: list[BufferedObservation] = []

        def take() -> list[tuple[object, float, float]]:
            taken.extend(self._buffer.take(key))
            return _triples(taken)

        try:
            triggered = self._service.apply_feedback(
                key, take, blocking=blocking
            )
        except BaseException:
            if taken:
                self._buffer.putback(key, taken)
            raise
        if triggered is None:
            self._buffer.add("requeued", self._buffer.pending(key))
            return 0, False
        return len(taken), triggered

    def __repr__(self) -> str:
        return (
            f"ShardWorker(id={self._shard_id!r}, "
            f"keys={len(self._service.model_keys())}, "
            f"pending={self._buffer.total_pending()})"
        )
