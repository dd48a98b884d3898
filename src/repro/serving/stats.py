"""Operational metrics for the serving layer.

:class:`ServingStats` is a small thread-safe metrics surface: request and
cache counters, refit counts, and a bounded reservoir of per-request
latencies from which p50/p99 are computed on demand.  It deliberately has
no external dependencies — :meth:`ServingStats.snapshot` returns a plain
dict that callers can ship to whatever metrics system they run.

A/B serving adds a per-backend error surface: every observation's
``|served - true|`` error is recorded under ``(model key, backend
name)``, for the champion and for any mirrored challenger, so operators
can read "QuickSel vs ST-Holes on table X" straight off the stats — the
evidence a :meth:`~repro.serving.service.SelectivityService.promote`
decision is made on.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ServingError

__all__ = ["ServingStats"]


class ServingStats:
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
        "challenger_observations",
        "refits_triggered",
        "drift_refits_triggered",
        "refits_completed",
        "challenger_refits",
        "promotions",
        "sandwich_estimates",
        "sandwich_learned",
        "sandwich_independence",
        "sandwich_upper_clamps",
        "sandwich_lower_clamps",
        "checkpoints_taken",
        "checkpoint_restores",
    )

    def __init__(
        self, latency_window: int = 4096, backend_error_window: int = 512
    ) -> None:
        if latency_window < 1:
            raise ServingError("latency_window must be at least 1")
        if backend_error_window < 1:
            raise ServingError("backend_error_window must be at least 1")
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._backend_error_window = backend_error_window
        # (model key string, backend name) -> recent |served - true| errors.
        self._backend_errors: dict[tuple[str, str], deque[float]] = {}
        # (model key string, backend name) -> [count, error sum] over the
        # backend's whole service lifetime — the denominator of the
        # relative drift (shift) trigger.  Unlike the bounded windows
        # above these never forget (except on hand-off/unregister).
        self._lifetime_errors: dict[tuple[str, str], list[float]] = {}
        for name in self.COUNTERS:
            setattr(self, name, 0)

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

    def record_observation(self) -> None:
        """Record one piece of feedback flowing into the service."""
        with self._lock:
            self.observations += 1

    def record_observations(self, count: int) -> None:
        """Record a batch of feedback under one lock acquisition."""
        if count < 0:
            raise ServingError("observation count must be non-negative")
        with self._lock:
            self.observations += count

    def record_mirrored_observations(self, count: int) -> None:
        """Feedback mirrored to a shadowing challenger backend."""
        if count < 0:
            raise ServingError("observation count must be non-negative")
        with self._lock:
            self.challenger_observations += count

    def record_backend_errors(
        self, model: object, backend: str, errors: Sequence[float]
    ) -> None:
        """Record ``|served - true|`` errors for one key's backend.

        ``model`` is rendered with ``str`` so the surface stays a plain
        dict; both the champion and any challenger report here under
        their own backend name, which is what makes the per-key A/B
        error comparison readable from one place.
        """
        if not errors:
            return
        scope = (str(model), backend)
        with self._lock:
            window = self._backend_errors.get(scope)
            if window is None:
                window = deque(maxlen=self._backend_error_window)
                self._backend_errors[scope] = window
            window.extend(errors)
            lifetime = self._lifetime_errors.setdefault(scope, [0, 0.0])
            lifetime[0] += len(errors)
            lifetime[1] += float(sum(errors))

    def forget_backend_errors(
        self, model: object, backend: str | None = None
    ) -> None:
        """Drop a key's backend-error windows (hand-off/unregister).

        With ``backend`` given, only that backend's window goes — a
        retired challenger must not leak its history into a later
        challenger that happens to share the backend name; with
        ``backend=None`` the whole key is forgotten (champion
        hand-off).
        """
        name = str(model)
        with self._lock:
            for store in (self._backend_errors, self._lifetime_errors):
                for scope in [
                    s
                    for s in store
                    if s[0] == name and (backend is None or s[1] == backend)
                ]:
                    del store[scope]

    def record_refit_triggered(self) -> None:
        """A policy trigger fired (the refit may still be coalesced)."""
        with self._lock:
            self.refits_triggered += 1

    def record_drift_refit_triggered(self) -> None:
        """A drift trigger (absolute or relative) forced the refit.

        Counted *in addition to* :meth:`record_refit_triggered` — the
        ratio of the two counters is the share of refits driven by the
        model being wrong rather than merely out of date.
        """
        with self._lock:
            self.drift_refits_triggered += 1

    def record_refit_completed(self) -> None:
        """A refit finished and its model was published."""
        with self._lock:
            self.refits_completed += 1

    def record_challenger_refit(self) -> None:
        """A challenger refit finished and its snapshot was published."""
        with self._lock:
            self.challenger_refits += 1

    def record_promotion(self) -> None:
        """A challenger was atomically promoted to champion."""
        with self._lock:
            self.promotions += 1

    def record_checkpoint(self) -> None:
        """One durable checkpoint bundle was written for a key."""
        with self._lock:
            self.checkpoints_taken += 1

    def record_checkpoint_restore(self) -> None:
        """One key was rebuilt from its latest checkpoint at boot."""
        with self._lock:
            self.checkpoint_restores += 1

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
        with self._lock:
            total = self.cache_hits + self.cache_misses
            return self.cache_hits / total if total else 0.0

    def latency_values(self) -> tuple[float, ...]:
        """The recent-latency reservoir, oldest first.

        Cross-service aggregators (e.g. the cluster's
        :class:`~repro.cluster.stats.ClusterStats`) merge these windows to
        compute fleet-wide percentiles instead of averaging per-shard
        percentiles (which would be statistically meaningless).
        """
        with self._lock:
            return tuple(self._latencies)

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile (seconds) over the recent request window."""
        if not (0.0 <= percentile <= 100.0):
            raise ServingError("percentile must be in [0, 100]")
        with self._lock:
            if not self._latencies:
                return 0.0
            return float(np.percentile(np.array(self._latencies), percentile))

    @property
    def p50_latency_seconds(self) -> float:
        """Median request latency."""
        return self.latency_percentile(50.0)

    @property
    def p99_latency_seconds(self) -> float:
        """Tail request latency."""
        return self.latency_percentile(99.0)

    def backend_errors(self) -> dict[str, dict[str, float]]:
        """Mean absolute error per ``{model key: {backend name: error}}``.

        The A/B readout: with a challenger mirrored behind a key, the
        key's dict holds one entry per backend over each backend's
        recent error window.  Keys with no recorded errors are absent.
        """
        with self._lock:
            view: dict[str, dict[str, float]] = {}
            for (model, backend), window in self._backend_errors.items():
                if window:
                    view.setdefault(model, {})[backend] = float(
                        sum(window) / len(window)
                    )
            return view

    def backend_error_windows(self) -> dict[tuple[str, str], tuple[float, ...]]:
        """The raw per-(key, backend) error windows, oldest first.

        Fleet aggregators (:class:`~repro.cluster.stats.ClusterStats`)
        merge these instead of averaging per-shard means.
        """
        with self._lock:
            return {
                scope: tuple(window)
                for scope, window in self._backend_errors.items()
                if window
            }

    def lifetime_backend_error(
        self, model: object, backend: str
    ) -> tuple[int, float]:
        """``(count, mean |error|)`` over the backend's whole lifetime.

        The shift trigger's denominator: the refit policy compares the
        recent drift window against this to decide whether the key's
        traffic stopped looking like what the model was trained on.
        ``(0, 0.0)`` when nothing has been recorded.
        """
        with self._lock:
            lifetime = self._lifetime_errors.get((str(model), backend))
            if not lifetime or not lifetime[0]:
                return 0, 0.0
            return int(lifetime[0]), lifetime[1] / lifetime[0]

    def lifetime_error_totals(self) -> dict[tuple[str, str], tuple[int, float]]:
        """Raw per-(key, backend) lifetime ``(count, error sum)`` pairs.

        Migration reads these before a hand-off and replays them into
        the destination via :meth:`absorb_lifetime_errors`, so a moved
        key's shift trigger keeps its full denominator history.
        """
        with self._lock:
            return {
                scope: (int(count), float(total))
                for scope, (count, total) in self._lifetime_errors.items()
                if count
            }

    def absorb_lifetime_errors(
        self, totals: dict[tuple[object, str], tuple[int, float]]
    ) -> None:
        """Install migrated lifetime accumulators, replacing any local ones.

        *Replace*, not add: the hand-off replays the bounded error
        windows first (via :meth:`record_backend_errors`, which also
        bumps the lifetime accumulators), and the source's totals
        already contain those observations — adding would double-count
        the window.
        """
        with self._lock:
            for (model, backend), (count, total) in totals.items():
                if count < 0 or not np.isfinite(total):
                    raise ServingError(
                        f"invalid lifetime error totals for {(model, backend)}"
                    )
                self._lifetime_errors[(str(model), backend)] = [
                    int(count),
                    float(total),
                ]

    def counters(self) -> dict[str, int]:
        """The plain counters under one lock acquisition.

        Unlike :meth:`snapshot`, computes no percentiles — aggregators
        that only sum counters (the cluster's fleet stats) use this to
        avoid touching the latency reservoir at all.
        """
        with self._lock:
            return {name: getattr(self, name) for name in self.COUNTERS}

    def snapshot(self) -> dict[str, object]:
        """A plain-dict view of every counter plus derived metrics.

        Includes the per-key :meth:`backend_errors` A/B surface, so a
        plain single-service deployment ships the same promote evidence
        the cluster's ``stats.snapshot()['backend_errors']`` exports.
        """
        counters: dict[str, object] = dict(self.counters())
        counters["hit_rate"] = self.hit_rate
        counters["p50_latency_seconds"] = self.p50_latency_seconds
        counters["p99_latency_seconds"] = self.p99_latency_seconds
        counters["backend_errors"] = self.backend_errors()
        return counters

    def __repr__(self) -> str:
        return (
            f"ServingStats(served={self.predicates_served}, "
            f"hit_rate={self.hit_rate:.2f}, refits={self.refits_completed})"
        )
