"""Fleet-wide metrics: per-shard serving stats rolled up into one surface.

Every shard exports one plain stats view
(:meth:`~repro.cluster.shard.ShardWorker.stats_view`), in process and
over the wire alike, and :func:`merge_worker_stats` is the one fold over
such views.  Counters sum across shards; the cache hit rate is
recomputed from the summed hit/miss counts (a mean of per-shard rates
would weight an idle shard like a hot one); latency percentiles are
computed over the *merged* per-shard latency reservoirs (percentiles do
not average).  The same fold over each single view gives the per-shard
entries, so operators can spot a hot or unbalanced shard at a glance in
one schema.  :class:`ClusterStats` presents a
:class:`~repro.cluster.service.ShardedSelectivityService` through that
fold; the gateway's ``fleet_stats()`` runs it over its workers' views.

Counters cover the *live* fleet: like any per-node metrics system, a
shard retired by ``remove_shard`` takes its history with it (its keys'
feedback is migrated, its counters are not).  Scrape :meth:`snapshot`
periodically if cumulative history across resizes matters.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

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
    coalesced = 0
    for view in views:
        counters = view.get("counters", {})
        for name in ServingStats.COUNTERS:
            totals[name] += counters.get(name, 0)
        latencies.extend(view.get("latencies", ()))
        for name, value in view.get("buffer", {}).items():
            if name in buffer_totals:
                buffer_totals[name] += value
        model_keys += int(view.get("model_keys", 0))
        coalesced += int(view.get("refits_coalesced", 0))
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
    totals["refits_coalesced"] = coalesced
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
    ``buffer`` (ObservationBuffer counters), ``refits_coalesced``,
    ``backend_error_windows`` and ``model_keys``.  Returns
    ``{"aggregate": ..., "per_shard": ..., "backend_errors": ...}``,
    where each ``per_shard`` entry is the same fold over that one view,
    so both come from the same read.  The schema is the same whether
    the fleet is threads or processes.
    """
    views = list(per_worker.values())
    return {
        "aggregate": _aggregate(views),
        "per_shard": {
            name: _aggregate([view]) for name, view in per_worker.items()
        },
        "backend_errors": _backend_errors(views),
    }


class ClusterStats:
    """A sharded service's fleet metrics: one :func:`merge_worker_stats`
    fold over one ``stats_view()`` read of every live shard per call."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Aggregate, per-shard breakdown and backend errors, as plain dicts."""
        return merge_worker_stats(
            {
                shard_id: worker.stats_view()
                for shard_id, worker in self._cluster._workers_snapshot().items()
            }
        )

    def aggregate(self) -> dict[str, float]:
        """One fleet-wide view: summed counters, true hit rate, merged
        latency percentiles."""
        return self.snapshot()["aggregate"]

    def per_shard(self) -> dict[str, dict[str, float]]:
        """Each shard's own fold: counters, hit rate, percentiles, buffer."""
        return self.snapshot()["per_shard"]

    def backend_errors(self) -> dict[str, dict[str, float]]:
        """Fleet-wide per-``{model key: {backend: mean |error|}}`` view."""
        return self.snapshot()["backend_errors"]

    # ------------------------------------------------------------------
    # Convenience properties (mirror ServingStats where they make sense)
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fleet-wide cache hit rate over all predicates served."""
        return self.aggregate()["hit_rate"]

    @property
    def refits_completed(self) -> int:
        """Refits published across all shards."""
        return int(self.aggregate()["refits_completed"])

    @property
    def observations(self) -> int:
        """Observations absorbed by trainers across all shards."""
        return int(self.aggregate()["observations"])

    @property
    def p50_latency_seconds(self) -> float:
        """Fleet-wide median request latency."""
        return self.aggregate()["p50_latency_seconds"]

    @property
    def p99_latency_seconds(self) -> float:
        """Fleet-wide tail request latency."""
        return self.aggregate()["p99_latency_seconds"]

    def __repr__(self) -> str:
        totals = self.aggregate()
        return (
            f"ClusterStats(shards={int(totals['shard_count'])}, "
            f"served={int(totals['predicates_served'])}, "
            f"hit_rate={totals['hit_rate']:.2f}, "
            f"refits={int(totals['refits_completed'])})"
        )
