"""Gateway-side observability: counters and per-worker latency.

:class:`GatewayStats` is the :class:`~repro.serving.stats.ServingStats`
of the network layer — what the gateway itself did (requests in flight,
per-worker latency windows, retries, reconnects, timeouts), as opposed
to what the workers did with the requests (their own ``ServingStats``,
scraped over the wire and folded by
:func:`~repro.cluster.stats.merge_worker_stats`, the same fold the
in-process cluster's ``fleet_stats()`` runs, so dashboards read one
schema whether the fleet is threads or processes).
"""

from __future__ import annotations

from collections import deque

from repro.serving.stats import LATENCY_WINDOW, Counters, p50_p99

__all__ = ["GatewayStats"]


class GatewayStats(Counters):
    """Thread-safe counters and per-worker latency windows for a gateway."""

    #: The gateway counters, in :meth:`counters` order.  ``fanouts``
    #: counts the workers each burst was split across (a re-split after
    #: a refusal counts its owners again),
    #: ``degraded_estimates`` the predicates answered from the last-known
    #: snapshot or the prior instead of a live worker, and
    #: ``lost_writes`` the acknowledged writes a restore could not
    #: replay (the no-silent-loss contract hangs on it).
    COUNTERS = (
        "requests",
        "responses",
        "errors",
        "retries",
        "reconnects",
        "timeouts",
        "in_flight",
        "fanouts",
        "migrations",
        "degraded_estimates",
        "breaker_opens",
        "buffered_writes",
        "buffered_writes_replayed",
        "lost_writes",
        "checkpoint_restores",
        "health_failures",
    )

    def __init__(self) -> None:
        super().__init__()
        # worker name -> recent request round-trip seconds (gateway->worker).
        self._worker_latencies: dict[str, deque[float]] = {}

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
                window = deque(maxlen=LATENCY_WINDOW)
                self._worker_latencies[worker] = window
            window.append(seconds)

    def forget_worker(self, worker: str) -> None:
        """Drop a retired worker's latency window."""
        with self._lock:
            self._worker_latencies.pop(worker, None)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Counters plus per-worker and merged round-trip percentiles,
        from one lock hold."""
        with self._lock:
            view: dict[str, object] = self._counters_locked()
            workers = {
                name: tuple(window)
                for name, window in self._worker_latencies.items()
                if window
            }
        per_worker: dict[str, dict[str, float]] = {}
        for name, window in workers.items():
            p50, p99 = p50_p99(window)
            per_worker[name] = {
                "p50_latency_seconds": p50,
                "p99_latency_seconds": p99,
                "calls": len(window),
            }
        view["per_worker_latency"] = per_worker
        view["p99_latency_seconds"] = p50_p99(
            [value for window in workers.values() for value in window]
        )[1]
        return view

    def __repr__(self) -> str:
        counters = self.counters()
        return (
            f"GatewayStats(requests={counters['requests']}, "
            f"in_flight={counters['in_flight']}, "
            f"retries={counters['retries']}, "
            f"reconnects={counters['reconnects']})"
        )
