"""Fleet-wide metrics: per-shard serving stats rolled up into one surface.

Every shard exports one plain stats view
(:meth:`~repro.cluster.shard.ShardWorker.stats_view`), in process and
over the wire alike, and :func:`merge_worker_stats` is the one fold over
such views.  Counters sum across shards; the cache hit rate is
recomputed from the summed hit/miss counts (a mean of per-shard rates
would weight an idle shard like a hot one); latency percentiles are
computed over the *merged* per-shard latency reservoirs (percentiles do
not average).  :class:`ClusterStats` presents a
:class:`~repro.cluster.service.ShardedSelectivityService` through that
fold and keeps the per-shard view alongside the aggregate, so operators
can spot a hot or unbalanced shard at a glance; the gateway's
``fleet_stats()`` runs the same fold over its workers' views.

Counters cover the *live* fleet: like any per-node metrics system, a
shard retired by ``remove_shard`` takes its history with it (its keys'
feedback is migrated, its counters are not).  Scrape :meth:`snapshot`
periodically if cumulative history across resizes matters.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.exceptions import ServingError
from repro.serving.stats import ServingStats

__all__ = ["ClusterStats", "merge_worker_stats"]

_BUFFER_COUNTERS = (
    "appended", "applied", "requeued", "dropped", "discarded", "pending",
)


def _aggregate(views: Sequence[Mapping[str, Any]]) -> dict[str, float]:
    """Summed counters, true hit rate and merged latency percentiles."""
    totals: dict[str, float] = dict.fromkeys(ServingStats.COUNTERS, 0)
    buffer_totals = dict.fromkeys(_BUFFER_COUNTERS, 0)
    latencies: list[float] = []
    model_keys = 0
    for view in views:
        counters = view.get("counters", {})
        for name in ServingStats.COUNTERS:
            totals[name] += counters.get(name, 0)
        latencies.extend(view.get("latencies", ()))
        for name, value in view.get("buffer", {}).items():
            if name in buffer_totals:
                buffer_totals[name] += value
        model_keys += int(view.get("model_keys", 0))
    lookups = totals["cache_hits"] + totals["cache_misses"]
    totals["hit_rate"] = totals["cache_hits"] / lookups if lookups else 0.0
    merged = np.array(latencies) if latencies else None
    totals["p50_latency_seconds"] = (
        float(np.percentile(merged, 50.0)) if merged is not None else 0.0
    )
    totals["p99_latency_seconds"] = (
        float(np.percentile(merged, 99.0)) if merged is not None else 0.0
    )
    for name, value in buffer_totals.items():
        totals[f"observations_{name}"] = value
    totals["shard_count"] = len(views)
    totals["model_keys"] = model_keys
    return totals


def _backend_errors(
    views: Iterable[Mapping[str, Any]],
) -> dict[str, dict[str, float]]:
    """``{model key: {backend: mean |error|}}`` over merged windows.

    Error windows for the same (key, backend) are merged across shards
    before the mean is taken — a key's windows live on its owning shard
    (migration moves them with the key), and merging (rather than
    averaging shard means) keeps the statistic honest if any transient
    overlap exists mid-resize.
    """
    merged: dict[tuple[str, str], list[float]] = {}
    for view in views:
        for scope, window in view.get("backend_error_windows", {}).items():
            merged.setdefault(scope, []).extend(window)
    result: dict[str, dict[str, float]] = {}
    for (model, backend), window in merged.items():
        if window:
            result.setdefault(model, {})[backend] = float(
                sum(window) / len(window)
            )
    return result


def merge_worker_stats(
    per_worker: Mapping[str, Mapping[str, Any]],
) -> dict[str, object]:
    """Roll per-shard stats views into one fleet view.

    ``per_worker`` maps a shard or worker name to the view
    :meth:`~repro.cluster.shard.ShardWorker.stats_view` builds (what a
    worker server's ``stats`` method returns): ``counters``
    (ServingStats counters), ``latencies`` (the latency reservoir),
    ``buffer`` (ObservationBuffer counters), ``backend_error_windows``
    and ``model_keys``.  Returns ``{"aggregate": ..., "backend_errors":
    ...}``, the same schema whether the fleet is threads or processes.
    """
    views = list(per_worker.values())
    return {
        "aggregate": _aggregate(views),
        "backend_errors": _backend_errors(views),
    }


class ClusterStats:
    """Aggregated metrics across every shard of a sharded service."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def per_shard(self) -> dict[str, dict[str, float]]:
        """Each shard's serving-stats snapshot plus its buffer counters."""
        views: dict[str, dict[str, float]] = {}
        for shard_id, worker in self._workers().items():
            view = worker.stats.snapshot()
            view["model_keys"] = len(worker.model_keys())
            for name, value in worker.buffer.counters().items():
                view[f"observations_{name}"] = value
            view["refits_coalesced"] = worker.scheduler.coalesced
            views[shard_id] = view
        return views

    def backend_errors(self) -> dict[str, dict[str, float]]:
        """Fleet-wide per-``{model key: {backend: mean |error|}}`` view."""
        return _backend_errors(self._views())

    def aggregate(self) -> dict[str, float]:
        """One fleet-wide view: summed counters, true hit rate, merged
        latency percentiles."""
        return _aggregate(self._views())

    def snapshot(self) -> dict[str, object]:
        """Aggregate plus per-shard breakdown, as plain dicts."""
        views = self._views()
        return {
            "aggregate": _aggregate(views),
            "per_shard": self.per_shard(),
            "backend_errors": _backend_errors(views),
        }

    # ------------------------------------------------------------------
    # Convenience properties (mirror ServingStats where they make sense)
    # ------------------------------------------------------------------
    def _summed(self, *names: str) -> dict[str, int]:
        """Sum specific counters without touching latency reservoirs."""
        totals = dict.fromkeys(names, 0)
        for worker in self._workers().values():
            counters = worker.stats.counters()
            for name in names:
                totals[name] += counters[name]
        return totals

    @property
    def hit_rate(self) -> float:
        """Fleet-wide cache hit rate over all predicates served."""
        totals = self._summed("cache_hits", "cache_misses")
        lookups = totals["cache_hits"] + totals["cache_misses"]
        return totals["cache_hits"] / lookups if lookups else 0.0

    @property
    def refits_completed(self) -> int:
        """Refits published across all shards."""
        return int(self._summed("refits_completed")["refits_completed"])

    @property
    def observations(self) -> int:
        """Observations absorbed by trainers across all shards."""
        return int(self._summed("observations")["observations"])

    def latency_percentile(self, percentile: float) -> float:
        """Fleet-wide latency percentile over the merged recent windows."""
        if not (0.0 <= percentile <= 100.0):
            raise ServingError("percentile must be in [0, 100]")
        latencies: list[float] = []
        for worker in self._workers().values():
            latencies.extend(worker.stats.latency_values())
        if not latencies:
            return 0.0
        return float(np.percentile(np.array(latencies), percentile))

    @property
    def p50_latency_seconds(self) -> float:
        """Fleet-wide median request latency."""
        return self.latency_percentile(50.0)

    @property
    def p99_latency_seconds(self) -> float:
        """Fleet-wide tail request latency."""
        return self.latency_percentile(99.0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _workers(self):
        return self._cluster._workers_snapshot()

    def _views(self) -> list[dict[str, Any]]:
        return [worker.stats_view() for worker in self._workers().values()]

    def __repr__(self) -> str:
        totals = self._summed("predicates_served", "refits_completed")
        return (
            f"ClusterStats(shards={len(self._workers())}, "
            f"served={int(totals['predicates_served'])}, "
            f"hit_rate={self.hit_rate:.2f}, "
            f"refits={int(totals['refits_completed'])})"
        )
