"""Out-of-process serving: gateway, shard workers, and the wire protocol.

The single-process story (PR 1–5) tops out at one interpreter: no matter
how many in-process shards the cluster spins up, every estimate is
served under one GIL.  This package puts the same serving stack behind
real process and socket boundaries:

* :mod:`repro.net.protocol` — a length-prefixed binary framing layer
  with request/response messages covering the
  :class:`~repro.serving.adapter.SelectivityServing` surface, plus
  snapshot/backend serialisation helpers with an explicit round-trip
  contract (estimate parity ≤ 1e-12, no data sources or replay history
  on the wire).
* :mod:`repro.net.worker` — :class:`WorkerServer` hosts a full
  :class:`~repro.cluster.shard.ShardWorker` stack (registry, cache,
  scheduler, buffer) behind a threaded TCP server;
  :class:`WorkerProcess` launches one in a child process, which is what
  actually bypasses the GIL.
* :mod:`repro.net.gateway` — :class:`SelectivityGateway`, an asyncio
  front-end that routes model keys over the workers via the same BLAKE2b
  :class:`~repro.cluster.router.ShardRouter` the in-process cluster
  uses, fans mixed batches out across worker connections with
  input-order reassembly, pipelines concurrent requests per connection,
  health-checks workers, and migrates keys across the process boundary
  on membership changes by shipping the frozen snapshot.
  :class:`GatewayServer` is the thread-hosted sync facade.
* :mod:`repro.net.client` — :class:`RemoteSelectivityService`, a
  synchronous client satisfying :class:`SelectivityServing`, so
  :class:`~repro.serving.adapter.ServingEstimator`, the feedback loop,
  and the optimizer work over the wire with zero call-site changes.
* :mod:`repro.net.stats` — gateway-side counters (in-flight, per-worker
  latency windows, retries, reconnects); worker stats are folded into
  the fleet view by :func:`~repro.cluster.stats.merge_worker_stats`,
  re-exported here.
* :mod:`repro.net.breaker` — :class:`CircuitBreaker` (closed → open →
  half-open probe) and the jittered-backoff helpers the gateway and
  supervisor share.
* :mod:`repro.net.checkpoint` — :class:`CheckpointStore`, durable
  per-key snapshot+trainer bundles written atomically, so a respawned
  worker boots with its learned state instead of a cold prior.
* :mod:`repro.net.supervisor` — :class:`FleetSupervisor`, which watches
  worker processes, respawns crashes with backoff, repoints the
  gateway, and triggers journal resync; gives up after a crash loop.
* :mod:`repro.net.chaos` — :class:`ChaosProxy` and
  :class:`ChaosSchedule`, seeded fault injection (dropped connects,
  delayed frames, severed streams, kill timers) for tests and the
  fault benchmark.

Trust boundary: frames carry pickled payloads, so the protocol is for
links you trust end to end (localhost, a private service mesh) — the
same boundary as multiprocessing itself.  TLS/auth is a roadmap item.
"""

from repro.cluster.stats import merge_worker_stats
from repro.net.breaker import CircuitBreaker, equal_jitter, full_jitter
from repro.net.chaos import ChaosProxy, ChaosSchedule
from repro.net.checkpoint import CheckpointStore
from repro.net.client import RemoteSelectivityService, connect
from repro.net.gateway import GatewayServer, SelectivityGateway
from repro.net.protocol import (
    Request,
    Response,
    decode_backend,
    decode_snapshot,
    encode_backend,
    encode_snapshot,
)
from repro.net.stats import GatewayStats
from repro.net.supervisor import FleetSupervisor
from repro.net.worker import WorkerProcess, WorkerServer, run_worker

__all__ = [
    "Request",
    "Response",
    "encode_snapshot",
    "decode_snapshot",
    "encode_backend",
    "decode_backend",
    "WorkerServer",
    "WorkerProcess",
    "run_worker",
    "SelectivityGateway",
    "GatewayServer",
    "RemoteSelectivityService",
    "connect",
    "GatewayStats",
    "merge_worker_stats",
    "CircuitBreaker",
    "full_jitter",
    "equal_jitter",
    "CheckpointStore",
    "FleetSupervisor",
    "ChaosProxy",
    "ChaosSchedule",
]
