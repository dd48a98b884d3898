"""The sharded selectivity-serving cluster front-end.

:class:`ShardedSelectivityService` exposes the same surface as the
single-process :class:`~repro.serving.service.SelectivityService` —
``register_model`` / ``estimate`` / ``estimate_batch`` /
``estimate_batch_mixed`` / ``observe`` — but spreads the model keys over
N :class:`~repro.cluster.shard.ShardWorker`\\ s via a stable
:class:`~repro.cluster.router.ShardRouter` hash ring.  Each shard owns a
full serving stack (registry, cache, scheduler, stats), so shards share
*nothing* on the hot path: a refit, a cache burst, or a lock on one
shard cannot touch another shard's traffic, and per-shard cache capacity
adds up as the fleet grows — the property the cluster benchmark
measures.

Cross-shard batching: :meth:`estimate_batch_mixed` groups a mixed-key
burst by key (:func:`~repro.serving.registry.group_by_key`), splits the
keys by shard (:meth:`~repro.cluster.router.ShardRouter.split`), runs
one thread-pool task per involved shard — each key through the shard's
vectorised ``estimate_batch`` — and reassembles results in input order.
The gateway makes the same decisions over worker processes.

Elasticity: :meth:`add_shard` / :meth:`remove_shard` change the ring and
migrate exactly the keys whose route changed (the consistent-hash
minimal set, planned by :meth:`~repro.cluster.router.ShardRouter.moves`),
each by drain → buffered-feedback flush → trainer hand-off →
re-registration on the destination, so a resize never loses feedback
and never serves from a half-moved model.

Observability: :meth:`fleet_stats` returns the one fleet fold
(:func:`~repro.cluster.stats.merge_worker_stats`) over one read of every
shard, the same dict the gateway's ``fleet_stats()`` returns for its
workers.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.estimators.backend import TrainableBackend, as_backend
from repro.exceptions import ClusterError, ServingError
from repro.serving.policy import RefitPolicy
from repro.serving.registry import ModelKey, group_by_key, normalize_key
from repro.serving.snapshot import ModelSnapshot
from repro.cluster.router import ShardRouter, drain_budget
from repro.cluster.shard import ShardWorker
from repro.cluster.stats import merge_worker_stats

__all__ = ["ShardedSelectivityService"]


class ShardedSelectivityService:
    """N independent serving shards behind one service-compatible API."""

    def __init__(
        self,
        num_shards: int = 4,
        policy: RefitPolicy | None = None,
        cache_capacity: int = 4096,
        scheduler_mode: str = "background",
        replicas: int = 64,
    ) -> None:
        """Build a cluster of ``num_shards`` identically configured shards,
        ``shard-0`` to ``shard-{num_shards - 1}``.

        ``cache_capacity`` / ``policy`` / ``scheduler_mode`` apply *per
        shard* (each shard models one node with its own resources).
        ``replicas`` controls ring granularity.
        """
        if num_shards < 1:
            raise ClusterError("num_shards must be at least 1")
        shard_ids = [f"shard-{index}" for index in range(num_shards)]
        self._shard_config = {
            "policy": policy,
            "cache_capacity": cache_capacity,
            "scheduler_mode": scheduler_mode,
        }
        self._workers: dict[str, ShardWorker] = {
            shard_id: ShardWorker(shard_id, **self._shard_config)
            for shard_id in shard_ids
        }
        self._router = ShardRouter(shard_ids, replicas=replicas)
        self._lock = threading.RLock()
        self._next_shard_index = len(shard_ids)
        self._pool = ThreadPoolExecutor(
            max_workers=16, thread_name_prefix="repro-cluster"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Topology surface
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many shards currently serve traffic."""
        with self._lock:
            return len(self._workers)

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """All shard ids, sorted."""
        with self._lock:
            return self._router.shards

    @property
    def router(self) -> ShardRouter:
        """The hash ring (mutate only through add_shard/remove_shard)."""
        return self._router

    def fleet_stats(self) -> dict[str, object]:
        """Fleet metrics from one ``stats_view()`` read of every shard.

        ``aggregate`` sums the shards' counters with the true hit rate
        and merged latency percentiles, ``per_shard`` is the same fold
        per shard, and ``backend_errors`` is the fleet-wide
        ``{model key: {backend: mean |error|}}`` view.
        """
        with self._lock:
            workers = dict(self._workers)
        return merge_worker_stats(
            {
                shard_id: worker.stats_view()
                for shard_id, worker in workers.items()
            }
        )

    def shard(self, shard_id: str) -> ShardWorker:
        """One shard's worker (tests, metrics, debugging)."""
        with self._lock:
            try:
                return self._workers[shard_id]
            except KeyError as error:
                raise ClusterError(f"unknown shard {shard_id!r}") from error

    def shard_for(self, table: str | ModelKey) -> str:
        """Which shard id a key routes to under the current ring."""
        key = normalize_key(table)
        with self._lock:
            return self._router.route(key)

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    def register_model(
        self,
        table: str | ModelKey,
        trainer: TrainableBackend,
    ) -> ModelKey:
        """Register a trainable backend on the shard its key routes to.

        ``trainer`` is anything the plain service accepts — QuickSel, an
        adapted baseline, or a bare estimator (coerced via
        :func:`~repro.estimators.backend.as_backend` here, so the same
        wrapper object is what migration later hands between shards).

        Runs under the routing lock (like shard add/remove): a
        registration racing a membership change could otherwise land on
        a shard the ring no longer routes the key to — or on a shard
        being retired — leaving the model unreachable.
        """
        key = normalize_key(table)
        trainer = as_backend(trainer)
        # Absorb any training backlog *before* taking the routing lock:
        # the trainer is not shared yet, and a QP solve (or a data
        # rescan) under the cluster-wide lock would stall every shard's
        # traffic.  The shard's register_model then finds nothing left
        # to refit.
        if trainer.observed_count > trainer.trained_count:
            trainer.refit()
        with self._lock:
            self._ensure_open()
            worker = self._workers[self._router.route(key)]
            worker.register_model(key, trainer)
        return key

    def model_keys(self) -> Sequence[ModelKey]:
        """Every key served anywhere in the cluster, sorted."""
        with self._lock:
            workers = tuple(self._workers.values())
        keys: list[ModelKey] = []
        for worker in workers:
            keys.extend(worker.model_keys())
        return tuple(sorted(keys))

    def snapshot_for(self, table: str | ModelKey) -> ModelSnapshot:
        """The snapshot currently serving a key, wherever it lives."""
        key = normalize_key(table)
        return self._with_worker(key, lambda worker: worker.snapshot_for(key))

    def feedback_count(self, table: str | ModelKey) -> int:
        """Observations accepted for a key (absorbed plus still buffered)."""
        key = normalize_key(table)
        return self._with_worker(key, lambda worker: worker.feedback_count(key))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def estimate(self, table: str | ModelKey, predicate: object) -> float:
        """Scalar estimate from the owning shard's current snapshot."""
        key = normalize_key(table)
        return self._with_worker(
            key, lambda worker: worker.estimate(key, predicate)
        )

    def estimate_batch(
        self, table: str | ModelKey, predicates: Sequence[object]
    ) -> np.ndarray:
        """Single-key burst: routed whole to one shard's vectorised path."""
        key = normalize_key(table)
        return self._with_worker(
            key, lambda worker: worker.estimate_batch(key, predicates)
        )

    def estimate_batch_mixed(
        self, pairs: Sequence[tuple[str | ModelKey, object]]
    ) -> np.ndarray:
        """Mixed-key burst: split by shard, fan out, reassemble in order.

        The split happens under the routing lock (one consistent
        membership view per burst); evaluation happens outside it, one
        thread-pool task per involved shard, each running its keys
        through the shard's vectorised ``estimate_batch``.  Results land
        at the index their pair came in.  A key that migrates while the
        burst is in flight is re-routed and retried once, inside its
        shard's task.
        """
        pairs = list(pairs)
        results = np.empty(len(pairs))
        # Group by key before touching the lock: grouping is pure, and
        # routing once per *unique* key (not per pair) keeps the ring
        # hashing — and the routing-lock hold — proportional to the
        # number of models in the burst, not its length.
        groups = group_by_key(pairs)
        with self._lock:
            tasks = [
                (self._workers[shard_id], keys)
                for shard_id, keys in self._router.split(groups).items()
            ]
            closed = self._closed

        def run_shard(worker: ShardWorker, keys: list[ModelKey]) -> None:
            for key in keys:
                indices, predicates = groups[key]
                try:
                    values = worker.estimate_batch(key, predicates)
                except ServingError:
                    # The key moved (or never lived here): re-route it.
                    values = self._with_worker(
                        key, lambda owner: owner.estimate_batch(key, predicates)
                    )
                results[indices] = values

        if len(tasks) > 1 and not closed:
            try:
                futures = [self._pool.submit(run_shard, *task) for task in tasks]
            except RuntimeError:
                # close() shut the pool between the split and the submit;
                # serve sequentially like single-key reads on a closed
                # cluster do, instead of leaking a raw pool error.
                pass
            else:
                for future in futures:
                    future.result()
                return results
        for task in tasks:
            run_shard(*task)
        return results

    # ------------------------------------------------------------------
    # Writes (the non-blocking ingest path)
    # ------------------------------------------------------------------
    def observe(
        self,
        table: str | ModelKey,
        predicate: object,
        selectivity: float,
    ) -> bool:
        """Record feedback via the owning shard's observation buffer.

        Never blocks on training: if the key's trainer is mid-refit the
        observation is buffered and replayed right after the next
        snapshot publish.  Returns True when the (opportunistic) replay
        ran and triggered a refit submission.
        """
        key = normalize_key(table)
        return self._with_worker(
            key, lambda worker: worker.observe(key, predicate, selectivity)
        )

    def refit_now(self, table: str | ModelKey) -> ModelSnapshot:
        """Flush the key's backlog and retrain synchronously on its shard."""
        key = normalize_key(table)
        return self._with_worker(key, lambda worker: worker.refit_now(key))

    def flush(self, blocking: bool = True) -> int:
        """Replay every shard's buffered observations; returns total applied."""
        with self._lock:
            workers = tuple(self._workers.values())
        return sum(worker.flush(blocking=blocking) for worker in workers)

    def drain(self, timeout: float | None = None) -> None:
        """Flush all buffers and wait for all in-flight refits, fleet-wide.

        ``timeout`` (seconds) is a *total* budget: each shard gets
        whatever remains when its turn comes, so ``drain(5.0)`` bounds
        the whole fleet sweep at ~5 s rather than 5 s per shard.  An
        exhausted budget raises :class:`ServingError` naming how many
        shards were still undrained.
        """
        with self._lock:
            workers = tuple(self._workers.values())
        for worker, remaining in drain_budget(workers, timeout, "shard"):
            worker.drain(remaining)

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def add_shard(self, shard_id: str | None = None) -> str:
        """Grow the ring by one shard and migrate its keys onto it.

        Only keys whose route changes — exactly the arcs the new shard
        takes over, per the consistent-hash contract — move; each moves
        by buffered-feedback flush, refit drain, trainer hand-off, and
        re-registration (its current model republished, no retraining
        from scratch).  Returns the new shard's id.

        Membership changes are **stop-the-world**: the routing lock is
        held for the whole migration, including waiting out any
        in-flight refits on the source shards, so reads and writes
        cluster-wide stall for the duration.  Resize at quiet points;
        incremental per-key migration is a roadmap item.
        """
        with self._lock:
            self._ensure_open()
            if shard_id is None:
                while f"shard-{self._next_shard_index}" in self._workers:
                    self._next_shard_index += 1
                shard_id = f"shard-{self._next_shard_index}"
                self._next_shard_index += 1
            if shard_id in self._workers:
                raise ClusterError(f"shard {shard_id!r} already exists")
            placements = {
                key: owner
                for owner, worker in self._workers.items()
                for key in worker.model_keys()
            }
            self._workers[shard_id] = ShardWorker(
                shard_id, **self._shard_config
            )
            self._router.add(shard_id)
            for key, old, new in self._router.moves(placements):
                self._migrate(key, self._workers[old], self._workers[new])
            return shard_id

    def remove_shard(self, shard_id: str) -> int:
        """Drain a shard, migrate its keys clockwise, and retire it.

        Keys on other shards do not move (consistent-hash contract).
        Stop-the-world like :meth:`add_shard`.  Returns how many keys
        were migrated.
        """
        with self._lock:
            self._ensure_open()
            if shard_id not in self._workers:
                raise ClusterError(f"unknown shard {shard_id!r}")
            if len(self._workers) == 1:
                raise ClusterError("cannot remove the last shard")
            source = self._workers[shard_id]
            self._router.remove(shard_id)
            moved = self._router.moves(
                dict.fromkeys(source.model_keys(), shard_id)
            )
            for key, _, new in moved:
                self._migrate(key, source, self._workers[new])
            del self._workers[shard_id]
            source.close()
            return len(moved)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has been called."""
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Shut down every shard and the fan-out pool.  Idempotent.

        If a shard's scheduler is still mid-refit its shutdown raises;
        the closed flag is only set once every shard released, so the
        caller can retry close() rather than leaking worker threads
        behind a silent no-op.
        """
        with self._lock:
            if self._closed:
                return
            workers = tuple(self._workers.values())
        self._pool.shutdown(wait=True)
        for worker in workers:
            worker.close()
        with self._lock:
            self._closed = True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _with_worker(self, key: ModelKey, call):
        """Route and call, retrying once if the key migrated mid-call."""
        for attempt in (0, 1):
            with self._lock:
                worker = self._workers[self._router.route(key)]
            try:
                return call(worker)
            except ServingError:
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _migrate(
        self, key: ModelKey, source: ShardWorker, dest: ShardWorker
    ) -> None:
        # In process the state moves with the identity codec, so the
        # destination serves the very trainer objects the source did.
        dest.install_state(source.export_state(key, withdraw=True))
        # Final sweep: an observe that raced the hand-off may have
        # buffered on the source after the export; forward the
        # leftovers (and release the source's per-key buffer state).
        leftovers = source.buffer.discard(key)
        for observation in leftovers:
            dest.buffer.append(key, observation)
        if leftovers:
            dest.flush(key, blocking=True)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster has been closed")

    def __repr__(self) -> str:
        with self._lock:
            shard_count = len(self._workers)
            keys = sum(
                len(worker.model_keys()) for worker in self._workers.values()
            )
        return (
            f"ShardedSelectivityService(shards={shard_count}, keys={keys})"
        )
