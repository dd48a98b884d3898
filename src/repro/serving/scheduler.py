"""Background execution of model refits.

:class:`RefitScheduler` decouples *deciding* to retrain (the policy, on
the serving thread) from *running* the retrain (here).  Two modes:

* ``"background"`` (default) — a single daemon worker thread drains a
  queue of refit jobs, so estimates keep being served from the current
  snapshot while training runs.  Jobs are **coalesced per key while
  queued**: a trigger for a key whose refit has not started yet is
  dropped (that refit will see the feedback).  A trigger that arrives
  while the key's refit is *running* is accepted and queued — the
  running refit trained before that feedback existed, so a follow-up is
  the only way it ever reaches a published model if the key then goes
  quiet.  This matters for the cluster's buffered writes, whose publish-
  time replay fires exactly while the refit job is still on the worker.
* ``"inline"`` — jobs run synchronously on the caller's thread; used by
  tests and by deployments that prefer deterministic refit points.
  Inline jobs are never coalesced (nothing is ever queued); a trigger
  fired from within a running inline job recurses, bounded by the
  policy (a fresh refit absorbs all pending feedback, so the nested
  decision comes up empty).

:meth:`RefitScheduler.drain` blocks until every submitted job has
finished — the synchronisation point tests and benchmarks use before
asserting on the published version.

Lifecycle is caller-proof: :meth:`RefitScheduler.shutdown` (and its
:meth:`~RefitScheduler.close` alias) is idempotent, and draining an
already-closed scheduler is a no-op — callers sharing a scheduler do not
need to coordinate who tears it down.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable, Hashable

from repro.exceptions import ServingError

__all__ = ["RefitScheduler"]


class RefitScheduler:
    """Runs refit jobs inline or on a single background worker thread."""

    def __init__(self, mode: str = "background") -> None:
        if mode not in ("background", "inline"):
            raise ServingError(f"unknown scheduler mode {mode!r}")
        self._mode = mode
        self._lock = threading.Lock()
        self._pending: set[Hashable] = set()
        self._queue: "queue.Queue[tuple[Hashable, Callable[[], None]] | None]" = (
            queue.Queue()
        )
        self._worker: threading.Thread | None = None
        self._closed = False
        self._coalesced = 0
        self._failures: list[tuple[Hashable, Exception]] = []
        # Background jobs accepted but not yet finished; drain() waits on
        # this instead of queue.join() so a timed-out drain leaves no
        # waiter thread behind.
        self._unfinished = 0
        self._all_done = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"background"`` or ``"inline"``."""
        return self._mode

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` (or :meth:`close`) has been called."""
        with self._lock:
            return self._closed

    @property
    def coalesced(self) -> int:
        """Triggers dropped because the same key was already pending."""
        return self._coalesced

    @property
    def failures(self) -> list[tuple[Hashable, Exception]]:
        """(key, exception) pairs from jobs that raised."""
        with self._lock:
            return list(self._failures)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, key: Hashable, job: Callable[[], None]) -> bool:
        """Schedule ``job`` for ``key``; returns False if coalesced away.

        Only *queued* jobs coalesce: the pending set holds keys whose
        job has not started yet, so a trigger landing mid-refit queues a
        follow-up instead of being dropped.
        """
        with self._lock:
            if self._closed:
                raise ServingError("scheduler has been shut down")
            if key in self._pending:
                self._coalesced += 1
                return False
            if self._mode == "background":
                # Enqueue while still holding the lock so a concurrent
                # shutdown() cannot slip its stop sentinel in front of
                # this job (stranding it forever).
                self._pending.add(key)
                self._unfinished += 1
                self._ensure_worker_locked()
                self._queue.put((key, job))
                return True
        self._run(key, job)
        return True

    def drain(self, timeout: float | None = None) -> None:
        """Block until all submitted jobs have completed.

        ``timeout`` bounds the wait (seconds); raises :class:`ServingError`
        if jobs are still outstanding when it expires.  Draining an
        already-closed (or never-used) scheduler returns immediately.
        """
        if self._mode == "inline":
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._all_done:
            while self._unfinished:
                if deadline is None:
                    self._all_done.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._all_done.wait(remaining):
                    if self._unfinished:
                        raise ServingError(
                            f"refit jobs still running after {timeout}s"
                        )

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop accepting jobs and stop the worker once the queue drains.

        Raises :class:`ServingError` if the worker is still busy (e.g. a
        long refit) when ``timeout`` expires — quiescence was *not*
        reached; call again to keep waiting.  Idempotent otherwise:
        shutting down twice (or from several owners) is a no-op.
        """
        with self._lock:
            worker = self._worker
            if not self._closed:
                self._closed = True
                if worker is not None:
                    # Under the same lock as submit's enqueue, so the stop
                    # sentinel is strictly after every accepted job.
                    self._queue.put(None)
        if worker is not None:
            worker.join(timeout)
            if worker.is_alive():
                raise ServingError(
                    f"refit worker still running after {timeout}s; "
                    "call shutdown() again to keep waiting"
                )

    def close(self, timeout: float = 5.0) -> None:
        """Alias for :meth:`shutdown`; idempotent like it."""
        self.shutdown(timeout)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_worker_locked(self) -> None:
        """Start the worker thread if needed; caller holds ``self._lock``."""
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop,
                name="repro-serving-refit",
                daemon=True,
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            key, job = item
            # Leave the pending set before running, not after: a trigger
            # fired during the job (e.g. the cluster's publish-time
            # backlog replay) must queue a follow-up refit, or feedback
            # the running job trained without would never be retrained
            # for a key that then goes quiet.
            with self._lock:
                self._pending.discard(key)
            try:
                self._run(key, job)
            finally:
                with self._all_done:
                    self._unfinished -= 1
                    if not self._unfinished:
                        self._all_done.notify_all()

    def _run(self, key: Hashable, job: Callable[[], None]) -> None:
        try:
            job()
        except Exception as error:  # noqa: BLE001 - jobs must not kill the worker
            with self._lock:
                self._failures.append((key, error))
                del self._failures[:-32]
