"""Non-blocking feedback ingest: the cluster's write-path buffer.

In the single-process service, ``observe`` takes the trainer lock — so a
writer that arrives while a refit is solving its quadratic program stalls
for the whole solve.  :class:`ObservationBuffer` decouples them:

* **enqueue** (:meth:`ObservationBuffer.append`) touches only the
  buffer's own mutex — a few dict/deque operations — so writers return in
  microseconds no matter what training is doing;
* **replay** (:meth:`ObservationBuffer.flush`) drains a key's queue and
  hands it to an ``apply`` callback (in practice
  :meth:`~repro.serving.service.SelectivityService.apply_feedback` with
  ``blocking=False``).  If the callback refuses — trainer lock busy — the
  drained items are re-queued *at the front*, preserving arrival order.
  The shard retries on every later observe and, crucially, right after
  each snapshot publish, so buffered feedback lands at the first moment
  the trainer is free.

Each entry is a :class:`BufferedObservation` carrying the estimate the
observation was served with: the served-vs-true error must be priced
against the snapshot that actually answered the query, not whatever
version is current when the replay finally runs.

A per-key flush mutex serialises concurrent flushers (two interleaved
drain/re-queue cycles could otherwise reorder feedback); writers never
take it.

The queues are unbounded: every entry is an acknowledged observation,
and exact feedback accounting forbids dropping one.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Hashable
from dataclasses import dataclass

from repro.serving.stats import Counters

__all__ = ["BufferedObservation", "ObservationBuffer"]


@dataclass(frozen=True)
class BufferedObservation:
    """One piece of feedback awaiting the trainer lock.

    Attributes:
        predicate: the executed query's predicate.
        selectivity: the true selectivity the engine measured.
        served_estimate: the estimate the then-current snapshot served,
            priced at enqueue time for the drift statistic.
    """

    predicate: object
    selectivity: float
    served_estimate: float


class ObservationBuffer(Counters):
    """Per-key FIFO queues of feedback with order-preserving replay.

    Counters: ``appended`` (observations ever enqueued), ``applied``
    (replayed into a trainer), ``requeued`` (put back because the
    trainer lock was busy) and ``discarded`` (removed unapplied by
    :meth:`discard`).  Each moves in the same lock hold as the queues it
    counts.
    """

    COUNTERS = ("appended", "applied", "requeued", "discarded")

    def __init__(self) -> None:
        super().__init__()
        self._queues: dict[Hashable, deque[BufferedObservation]] = {}
        self._flush_locks: dict[Hashable, threading.Lock] = {}

    # ------------------------------------------------------------------
    # Write side (never blocks on training)
    # ------------------------------------------------------------------
    def append(self, key: Hashable, observation: BufferedObservation) -> None:
        """Enqueue one observation for ``key``; never touches trainers."""
        with self._lock:
            self._queues.setdefault(key, deque()).append(observation)
            self.appended += 1

    # ------------------------------------------------------------------
    # Replay side
    # ------------------------------------------------------------------
    def flush(
        self,
        key: Hashable,
        apply: Callable[[list[BufferedObservation]], bool],
        wait: bool = True,
    ) -> int:
        """Drain ``key``'s queue through ``apply``; re-queue on refusal.

        ``apply`` receives the drained batch (oldest first) and returns
        whether it was absorbed; on False every item goes back to the
        front of the queue in its original order.  With ``wait=False``
        the call returns 0 immediately if another flusher holds the
        key's flush mutex (the hot observe path uses this: someone else
        is already replaying, no need to queue up behind them).  Returns
        the number of observations applied.
        """
        with self._lock:
            flush_lock = self._flush_locks.setdefault(key, threading.Lock())
        if not flush_lock.acquire(blocking=wait):
            return 0
        try:
            with self._lock:
                queue = self._queues.get(key)
                items = list(queue) if queue else []
                if queue:
                    queue.clear()
            if not items:
                return 0
            # A raising apply (e.g. the key was unregistered mid-flush)
            # must not lose the drained batch: re-queue before
            # propagating so a later flush can still deliver it.
            try:
                applied = apply(items)
            except BaseException:
                self._requeue(key, items)
                raise
            if applied:
                with self._lock:
                    self.applied += len(items)
                    queue = self._queues.get(key)
                    if queue is not None and not queue:
                        # Keep the queue map bounded under key churn; the
                        # deque is recreated on the next append.
                        del self._queues[key]
                return len(items)
            self._requeue(key, items)
            return 0
        finally:
            flush_lock.release()

    def discard(self, key: Hashable) -> list[BufferedObservation]:
        """Forget a key, returning whatever was still queued for it.

        The migration path calls this after a key's trainer left the
        shard (forwarding the returned leftovers to the key's new home),
        and the shard's flush calls it to clean up an orphan key — an
        observe that priced its estimate before a migration and appended
        after the migration's sweep.  Either way the per-key queue and
        flush mutex are released, so shards do not accumulate state for
        every key they ever served; the ``discarded`` counter records
        how many observations left the buffer unapplied.
        """
        with self._lock:
            self._flush_locks.pop(key, None)
            queue = self._queues.pop(key, None)
            items = list(queue) if queue else []
            self.discarded += len(items)
            return items

    def _requeue(self, key: Hashable, items: list[BufferedObservation]) -> None:
        with self._lock:
            self._queues.setdefault(key, deque()).extendleft(reversed(items))
            self.requeued += len(items)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> tuple[Hashable, ...]:
        """Keys with at least one pending observation."""
        with self._lock:
            return tuple(key for key, queue in self._queues.items() if queue)

    def pending(self, key: Hashable) -> int:
        """Observations queued for ``key`` (not yet in its trainer)."""
        with self._lock:
            queue = self._queues.get(key)
            return 0 if queue is None else len(queue)

    def total_pending(self) -> int:
        """Observations queued across every key."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def counters(self) -> dict[str, int]:
        """All counters plus the current backlog, as one consistent view."""
        with self._lock:
            counters = self._counters_locked()
            counters["pending"] = sum(
                len(queue) for queue in self._queues.values()
            )
            return counters

    def __repr__(self) -> str:
        counters = self.counters()
        return (
            f"ObservationBuffer(pending={counters['pending']}, "
            f"applied={counters['applied']}, requeued={counters['requeued']})"
        )
