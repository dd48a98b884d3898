"""Gateway-side observability: counters and per-worker latency.

:class:`GatewayStats` is the :class:`~repro.serving.stats.ServingStats`
of the network layer — what the gateway itself did (requests in flight,
per-worker latency windows, retries, reconnects, timeouts), as opposed
to what the workers did with the requests (their own ``ServingStats``,
scraped over the wire and folded by
:func:`~repro.cluster.stats.merge_worker_stats`, the same fold the
in-process cluster uses, so dashboards read one schema whether the
fleet is threads or processes).
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from repro.exceptions import NetError

__all__ = ["GatewayStats"]


class GatewayStats:
    """Thread-safe counters and per-worker latency windows for a gateway."""

    def __init__(self, latency_window: int = 4096) -> None:
        if latency_window < 1:
            raise NetError("latency_window must be at least 1")
        self._lock = threading.Lock()
        self._latency_window = latency_window
        # worker name -> recent request round-trip seconds (gateway->worker).
        self._worker_latencies: dict[str, deque[float]] = {}
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.retries = 0
        self.reconnects = 0
        self.timeouts = 0
        self.in_flight = 0
        self.fanouts = 0
        self.migrations = 0
        self.degraded_estimates = 0
        self.breaker_opens = 0
        self.buffered_writes = 0
        self.buffered_writes_replayed = 0
        self.lost_writes = 0
        self.checkpoint_restores = 0
        self.health_failures = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_request_started(self) -> None:
        """A client request entered the gateway (any method)."""
        with self._lock:
            self.requests += 1
            self.in_flight += 1

    def record_request_finished(self, ok: bool) -> None:
        """The matching response left the gateway."""
        with self._lock:
            self.in_flight -= 1
            if ok:
                self.responses += 1
            else:
                self.errors += 1

    def record_worker_call(self, worker: str, seconds: float) -> None:
        """One gateway→worker round trip completed."""
        with self._lock:
            window = self._worker_latencies.get(worker)
            if window is None:
                window = deque(maxlen=self._latency_window)
                self._worker_latencies[worker] = window
            window.append(seconds)

    def record_retry(self) -> None:
        """An idempotent read was re-dispatched after a failure."""
        with self._lock:
            self.retries += 1

    def record_reconnect(self) -> None:
        """A worker connection was re-established."""
        with self._lock:
            self.reconnects += 1

    def record_timeout(self) -> None:
        """A worker call exceeded its per-request timeout."""
        with self._lock:
            self.timeouts += 1

    def record_fanout(self, workers: int) -> None:
        """A mixed batch was split across ``workers`` connections."""
        with self._lock:
            self.fanouts += workers

    def record_migration(self) -> None:
        """One key moved between workers across the process boundary."""
        with self._lock:
            self.migrations += 1

    def record_degraded(self, predicates: int = 1) -> None:
        """``predicates`` reads were answered from the degraded path
        (last-known snapshot or the configured prior) instead of a live
        worker."""
        with self._lock:
            self.degraded_estimates += predicates

    def record_breaker_open(self) -> None:
        """A per-worker circuit breaker tripped open."""
        with self._lock:
            self.breaker_opens += 1

    def record_buffered_write(self) -> None:
        """An observe was acknowledged into the outage buffer."""
        with self._lock:
            self.buffered_writes += 1

    def record_buffered_replay(self, count: int = 1) -> None:
        """``count`` journaled/buffered writes were re-delivered to a
        recovered worker."""
        with self._lock:
            self.buffered_writes_replayed += count

    def record_lost_writes(self, count: int) -> None:
        """``count`` acknowledged writes could not be re-delivered after
        a restore (the journal was shorter than the gap) — the honest
        counter the no-silent-loss contract hangs on."""
        with self._lock:
            self.lost_writes += count

    def record_checkpoint_restores(self, keys: int = 1) -> None:
        """``keys`` models came back from checkpoints on a resynced
        worker."""
        with self._lock:
            self.checkpoint_restores += keys

    def record_health_failure(self) -> None:
        """A health-loop ping failed (the churn used to be silent)."""
        with self._lock:
            self.health_failures += 1

    def forget_worker(self, worker: str) -> None:
        """Drop a retired worker's latency window."""
        with self._lock:
            self._worker_latencies.pop(worker, None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def worker_latency_percentile(self, worker: str, percentile: float) -> float:
        """One worker's recent round-trip percentile (0.0 when idle)."""
        if not (0.0 <= percentile <= 100.0):
            raise NetError("percentile must be in [0, 100]")
        with self._lock:
            window = self._worker_latencies.get(worker)
            if not window:
                return 0.0
            return float(np.percentile(np.array(window), percentile))

    def latency_percentile(self, percentile: float) -> float:
        """Round-trip percentile over every worker's merged window."""
        if not (0.0 <= percentile <= 100.0):
            raise NetError("percentile must be in [0, 100]")
        with self._lock:
            merged = [
                value
                for window in self._worker_latencies.values()
                for value in window
            ]
        if not merged:
            return 0.0
        return float(np.percentile(np.array(merged), percentile))

    def counters(self) -> dict[str, int]:
        """The plain gateway counters under one lock acquisition."""
        with self._lock:
            return {
                "requests": self.requests,
                "responses": self.responses,
                "errors": self.errors,
                "retries": self.retries,
                "reconnects": self.reconnects,
                "timeouts": self.timeouts,
                "in_flight": self.in_flight,
                "fanouts": self.fanouts,
                "migrations": self.migrations,
                "degraded_estimates": self.degraded_estimates,
                "breaker_opens": self.breaker_opens,
                "buffered_writes": self.buffered_writes,
                "buffered_writes_replayed": self.buffered_writes_replayed,
                "lost_writes": self.lost_writes,
                "checkpoint_restores": self.checkpoint_restores,
                "health_failures": self.health_failures,
            }

    def snapshot(self) -> dict[str, object]:
        """Counters plus per-worker p50/p99 round-trip latency."""
        view: dict[str, object] = dict(self.counters())
        with self._lock:
            workers = {
                name: tuple(window)
                for name, window in self._worker_latencies.items()
            }
        per_worker: dict[str, dict[str, float]] = {}
        for name, window in workers.items():
            if window:
                values = np.array(window)
                per_worker[name] = {
                    "p50_latency_seconds": float(np.percentile(values, 50.0)),
                    "p99_latency_seconds": float(np.percentile(values, 99.0)),
                    "calls": len(window),
                }
        view["per_worker_latency"] = per_worker
        view["p99_latency_seconds"] = self.latency_percentile(99.0)
        return view

    def __repr__(self) -> str:
        counters = self.counters()
        return (
            f"GatewayStats(requests={counters['requests']}, "
            f"in_flight={counters['in_flight']}, "
            f"retries={counters['retries']}, "
            f"reconnects={counters['reconnects']})"
        )
