"""Non-blocking feedback ingest: the cluster's write-path buffer.

In the single-process service, ``observe`` takes the trainer lock — so a
writer that arrives while a refit is solving its quadratic program stalls
for the whole solve.  :class:`ObservationBuffer` decouples them:

* **enqueue** (:meth:`ObservationBuffer.append`) touches only the
  buffer's own mutex — a few dict/deque operations — so writers return in
  microseconds no matter what training is doing;
* **replay** (:meth:`ObservationBuffer.take`) pops a key's whole queue,
  oldest first.  The shard calls it only inside the trainer-lock hold
  that absorbs the batch (through
  :meth:`~repro.serving.service.SelectivityService.apply_feedback`), so
  the trainer lock alone orders replays: a replay that finds the lock
  busy never touches the queue, and whoever holds the lock sees every
  observation either queued or in the trainer.  The shard replays on
  every observe and right after each snapshot publish, so buffered
  feedback lands at the first moment the trainer is free.  If absorbing
  a taken batch raises, :meth:`ObservationBuffer.putback` returns it to
  the front of the queue in arrival order.

Each entry is a :class:`BufferedObservation` carrying the estimate the
observation was served with: the served-vs-true error must be priced
against the snapshot that actually answered the query, not whatever
version is current when the replay finally runs.

The queues are unbounded: every entry is an acknowledged observation,
and exact feedback accounting forbids dropping one.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence
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
    """Per-key FIFO queues of feedback, taken whole for replay.

    Counters: ``appended`` (observations ever enqueued), ``applied``
    (taken for replay into a trainer), ``requeued`` (left waiting
    because the trainer lock was busy, or put back after a failed
    absorb) and ``discarded`` (removed unapplied by :meth:`discard`).
    Each moves in the same lock hold as the queues it counts, so every
    :meth:`counters` view has ``appended == applied + pending +
    discarded``.
    """

    COUNTERS = ("appended", "applied", "requeued", "discarded")

    def __init__(self) -> None:
        super().__init__()
        self._queues: dict[Hashable, deque[BufferedObservation]] = {}

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
    def take(self, key: Hashable) -> list[BufferedObservation]:
        """Pop ``key``'s whole queue, oldest first, counting it applied.

        The caller holds the key's trainer lock and absorbs the batch in
        the same hold.  The emptied queue is released, so the queue map
        stays bounded under key churn.
        """
        with self._lock:
            queue = self._queues.pop(key, None)
            items = list(queue) if queue else []
            self.applied += len(items)
            return items

    def putback(
        self, key: Hashable, items: Sequence[BufferedObservation]
    ) -> None:
        """Return a taken batch to the front of ``key``'s queue, in order.

        Only for a batch whose absorb raised: it is un-counted from
        ``applied`` and counted in ``requeued``, and a later replay
        delivers it ahead of everything appended since.
        """
        with self._lock:
            self._queues.setdefault(key, deque()).extendleft(reversed(items))
            self.applied -= len(items)
            self.requeued += len(items)

    def discard(self, key: Hashable) -> list[BufferedObservation]:
        """Forget a key, returning whatever was still queued for it.

        The migration path calls this after a key's trainer left the
        shard (forwarding the returned leftovers to the key's new home),
        and the shard's flush calls it to clean up an orphan key — an
        observe that priced its estimate before a migration and appended
        after the migration's sweep.  Either way the per-key queue is
        released, so shards do not accumulate state for every key they
        ever served; the ``discarded`` counter records how many
        observations left the buffer unapplied.
        """
        with self._lock:
            queue = self._queues.pop(key, None)
            items = list(queue) if queue else []
            self.discarded += len(items)
            return items

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
