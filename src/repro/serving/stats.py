"""Operational metrics for the serving layer, and the one metrics core.

:class:`Counters` is the counter set every layer builds on: a subclass
names its counters in ``COUNTERS``, each a plain ``int`` attribute,
bumped by :meth:`Counters.add` and read together by
:meth:`Counters.counters` under one lock.  :func:`p50_p99` and
:func:`mean_errors` are the two derived statistics every stats view
reports, shared by the fleet fold
(:func:`~repro.cluster.stats.merge_worker_stats`) and the gateway's
:class:`~repro.net.stats.GatewayStats`.

:class:`ServingStats` is one service's metrics surface: request and
cache counters, refit counts, and a bounded reservoir of per-request
latencies from which p50/p99 are computed on demand.  It deliberately has
no external dependencies — :meth:`ServingStats.snapshot` returns a plain
dict that callers can ship to whatever metrics system they run.

Every observation's ``|served - true|`` error is also recorded under
``(model key, backend name)``, in a window of the newest
``BACKEND_ERROR_WINDOW`` errors, so operators can read each key's
served error straight off the stats, and fleet views can compare
backends across keys.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import ServingError

__all__ = [
    "BACKEND_ERROR_WINDOW",
    "Counters",
    "LATENCY_WINDOW",
    "ServingStats",
    "mean_errors",
    "p50_p99",
]

#: Recent request latencies kept per latency reservoir.
LATENCY_WINDOW = 4096
#: Recent ``|served - true|`` errors kept per (model key, backend).
BACKEND_ERROR_WINDOW = 512


def p50_p99(values: Sequence[float]) -> tuple[float, float]:
    """``(p50, p99)`` of ``values`` from one percentile pass; zeros when
    there are none."""
    if not len(values):
        return 0.0, 0.0
    p50, p99 = np.percentile(np.asarray(values, dtype=float), (50.0, 99.0))
    return float(p50), float(p99)


def _hit_rate(counters: Mapping[str, int]) -> float:
    lookups = counters["cache_hits"] + counters["cache_misses"]
    return counters["cache_hits"] / lookups if lookups else 0.0


def mean_errors(
    windows: Mapping[tuple[str, str], Sequence[float]],
) -> dict[str, dict[str, float]]:
    """``{model key: {backend: mean |error|}}`` over per-(key, backend)
    error windows; empty windows are left out."""
    means: dict[str, dict[str, float]] = {}
    for (model, backend), window in windows.items():
        if window:
            means.setdefault(model, {})[backend] = float(
                sum(window) / len(window)
            )
    return means


class Counters:
    """A named set of integer counters behind one lock.

    A subclass lists its counter names in ``COUNTERS``; each is a plain
    ``int`` attribute, so a single counter reads without the lock.
    Methods that move several counters at once (or a counter together
    with other state) update the attributes directly under
    ``self._lock``.
    """

    COUNTERS: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for name in self.COUNTERS:
            setattr(self, name, 0)

    def add(self, name: str, amount: int = 1) -> None:
        """Bump counter ``name`` by ``amount``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def counters(self) -> dict[str, int]:
        """Every counter, in ``COUNTERS`` order, from one lock hold."""
        with self._lock:
            return self._counters_locked()

    def _counters_locked(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.COUNTERS}


class ServingStats(Counters):
    """Counters and latency percentiles for a :class:`SelectivityService`."""

    #: The plain counters, in :meth:`counters` order.  Fleet views sum
    #: exactly these across shards and worker processes.
    COUNTERS = (
        "estimate_requests",
        "batch_requests",
        "predicates_served",
        "cache_hits",
        "cache_misses",
        "observations",
        "refits_triggered",
        "drift_refits_triggered",
        "refits_completed",
        "sandwich_estimates",
        "sandwich_learned",
        "sandwich_independence",
        "sandwich_upper_clamps",
        "sandwich_lower_clamps",
        "checkpoints_taken",
        "checkpoint_restores",
    )

    def __init__(self) -> None:
        super().__init__()
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        # (model key string, backend name) -> recent |served - true| errors.
        self._backend_errors: dict[tuple[str, str], deque[float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_estimate(self, seconds: float, cache_hit: bool) -> None:
        """Record one scalar estimate call."""
        with self._lock:
            self.estimate_requests += 1
            self.predicates_served += 1
            if cache_hit:
                self.cache_hits += 1
            else:
                self.cache_misses += 1
            self._latencies.append(seconds)

    def record_estimates(
        self, count: int, hits: int, latencies: Sequence[float]
    ) -> None:
        """Record a burst of scalar estimate calls under one lock acquisition.

        The fast-slot flush path (see
        :meth:`~repro.serving.service.SelectivityService.fast_slot`):
        ``count`` scalar requests of which ``hits`` were cache hits, with
        their individual latencies — identical totals to ``count``
        :meth:`record_estimate` calls, at one lock round-trip.
        """
        if count < 0 or hits < 0 or hits > count:
            raise ServingError("need 0 <= hits <= count")
        if count == 0:
            return
        with self._lock:
            self.estimate_requests += count
            self.predicates_served += count
            self.cache_hits += hits
            self.cache_misses += count - hits
            self._latencies.extend(latencies)

    def record_batch(self, count: int, hits: int, seconds: float) -> None:
        """Record one ``estimate_batch`` call covering ``count`` predicates."""
        with self._lock:
            self.batch_requests += 1
            self.predicates_served += count
            self.cache_hits += hits
            self.cache_misses += count - hits
            self._latencies.append(seconds)

    def record_backend_errors(
        self, model: object, backend: str, errors: Sequence[float]
    ) -> None:
        """Record ``|served - true|`` errors for one key's backend.

        ``model`` is rendered with ``str`` so the surface stays a plain
        dict.
        """
        if not errors:
            return
        scope = (str(model), backend)
        with self._lock:
            window = self._backend_errors.get(scope)
            if window is None:
                window = deque(maxlen=BACKEND_ERROR_WINDOW)
                self._backend_errors[scope] = window
            window.extend(errors)

    def forget_backend_errors(self, model: object) -> None:
        """Drop every backend-error window of a key (hand-off/unregister)."""
        name = str(model)
        with self._lock:
            for scope in [s for s in self._backend_errors if s[0] == name]:
                del self._backend_errors[scope]

    def record_sandwich(self, source: str, clamped: str | None) -> None:
        """One sandwiched join estimate was served.

        ``source`` says what produced the pre-clamp cardinality
        (``"learned"`` from a served join model, ``"independence"`` from
        the textbook fallback); ``clamped`` says which pessimistic bound
        won, if any (``"upper"``, ``"lower"``, or ``None`` when the raw
        estimate already lay inside the sandwich).  The clamp counters
        are the observability the sandwich exists for: a high
        ``sandwich_upper_clamps`` share means the learned model is
        over-estimating into territory the MCV bounds prove impossible.
        """
        if source not in ("learned", "independence"):
            raise ServingError(f"unknown sandwich source {source!r}")
        if clamped not in (None, "upper", "lower"):
            raise ServingError(f"unknown sandwich clamp side {clamped!r}")
        with self._lock:
            self.sandwich_estimates += 1
            if source == "learned":
                self.sandwich_learned += 1
            else:
                self.sandwich_independence += 1
            if clamped == "upper":
                self.sandwich_upper_clamps += 1
            elif clamped == "lower":
                self.sandwich_lower_clamps += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Cache hit rate over all predicates served (0.0 when idle)."""
        return _hit_rate(self.counters())

    def view(self) -> dict[str, Any]:
        """Counters, latency reservoir and error windows from one lock hold.

        ``counters`` holds every name in ``COUNTERS``, ``latencies`` the
        recent-latency reservoir (scalar and batch requests, oldest
        first) and ``backend_error_windows`` the raw per-(key, backend)
        error windows.  :meth:`snapshot` and a shard's
        :meth:`~repro.cluster.shard.ShardWorker.stats_view` are built on
        it, so the counters and the samples they count always agree;
        fleet folds merge the raw samples rather than averaging
        per-shard percentiles or means.
        """
        with self._lock:
            return {
                "counters": self._counters_locked(),
                "latencies": tuple(self._latencies),
                "backend_error_windows": self._error_windows_locked(),
            }

    def backend_errors(self) -> dict[str, dict[str, float]]:
        """Mean absolute error per ``{model key: {backend name: error}}``.

        Each mean is over the backend's recent error window.  Keys with
        no recorded errors are absent.
        """
        with self._lock:
            return mean_errors(self._backend_errors)

    def backend_error_windows(self) -> dict[tuple[str, str], tuple[float, ...]]:
        """The raw per-(key, backend) error windows, oldest first."""
        with self._lock:
            return self._error_windows_locked()

    def _error_windows_locked(self) -> dict[tuple[str, str], tuple[float, ...]]:
        return {
            scope: tuple(window)
            for scope, window in self._backend_errors.items()
            if window
        }

    def snapshot(self) -> dict[str, object]:
        """Every counter plus derived metrics, from one :meth:`view`.

        Includes the per-key :meth:`backend_errors`, so a plain
        single-service deployment ships the same error surface the
        cluster's ``fleet_stats()["backend_errors"]`` exports.
        """
        view = self.view()
        snapshot: dict[str, object] = dict(view["counters"])
        snapshot["hit_rate"] = _hit_rate(view["counters"])
        p50, p99 = p50_p99(view["latencies"])
        snapshot["p50_latency_seconds"] = p50
        snapshot["p99_latency_seconds"] = p99
        snapshot["backend_errors"] = mean_errors(view["backend_error_windows"])
        return snapshot

    def __repr__(self) -> str:
        return (
            f"ServingStats(served={self.predicates_served}, "
            f"hit_rate={self.hit_rate:.2f}, refits={self.refits_completed})"
        )
