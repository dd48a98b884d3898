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
one schema.  Both fleets' ``fleet_stats()`` return this fold: the
in-process :class:`~repro.cluster.service.ShardedSelectivityService`
over its shards, the gateway over its workers' views.

Counters cover the *live* fleet: like any per-node metrics system, a
shard retired by ``remove_shard`` takes its history with it (its keys'
feedback is migrated, its counters are not).  Scrape ``fleet_stats()``
periodically if cumulative history across resizes matters.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

from repro.cluster.buffer import ObservationBuffer
from repro.serving.stats import ServingStats, mean_errors, p50_p99

__all__ = ["merge_worker_stats"]

_BUFFER_COUNTERS = (*ObservationBuffer.COUNTERS, "pending")


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
    totals["p50_latency_seconds"], totals["p99_latency_seconds"] = p50_p99(
        latencies
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
    return mean_errors(merged)


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

