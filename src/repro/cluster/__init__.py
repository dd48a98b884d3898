"""The sharded selectivity-serving cluster.

PR 1's :mod:`repro.serving` made one process serve versioned, cached,
batch-estimated selectivity models.  This package scales that design out
to a fleet of independent shards behind the same API:

* :mod:`repro.cluster.router` — :class:`ShardRouter`, a stable
  consistent-hash ring assigning each
  :class:`~repro.serving.registry.ModelKey` to one shard, with minimal
  deterministic migration on membership change, and the fleet decisions
  this cluster and the process gateway share;
* :mod:`repro.cluster.buffer` — :class:`ObservationBuffer`, the
  non-blocking write path: feedback enqueues without touching the
  trainer lock and replays right after each snapshot publish, so writers
  never stall behind a refit;
* :mod:`repro.cluster.shard` — :class:`ShardWorker`, one shard's full
  serving stack (registry, cache, scheduler, stats) plus the buffer;
* :mod:`repro.cluster.service` — :class:`ShardedSelectivityService`, the
  front-end: routes single-key traffic, fans mixed-key batches out
  across shards (one thread-pool task per shard, reassembled in input
  order), and supports elastic ``add_shard`` / ``remove_shard``;
* :mod:`repro.cluster.stats` — ``merge_worker_stats``, the one fold of
  per-shard stats views into the fleet aggregate and per-shard entries
  (summed counters, true hit rate, merged latency percentiles), which
  this cluster's and the gateway's ``fleet_stats()`` both return.

Because :class:`ShardedSelectivityService` satisfies the
:class:`~repro.serving.adapter.SelectivityServing` protocol, everything
built on the serving layer — :class:`~repro.serving.adapter.
ServingEstimator`, :meth:`~repro.engine.feedback.FeedbackLoop.
register_service`, the optimizer's batched planning — works unchanged on
one shard or many.
"""

from repro.cluster.buffer import BufferedObservation, ObservationBuffer
from repro.cluster.router import ShardRouter
from repro.cluster.service import ShardedSelectivityService
from repro.cluster.shard import ShardWorker

__all__ = [
    "ShardRouter",
    "BufferedObservation",
    "ObservationBuffer",
    "ShardWorker",
    "ShardedSelectivityService",
]
