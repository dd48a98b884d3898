"""The async serving gateway: one front door over N worker processes.

:class:`SelectivityGateway` is the asyncio core.  It keeps one pipelined
connection per worker (:class:`_WorkerLink`) and takes the in-process
cluster's fleet decisions with the same code (the BLAKE2b
:class:`~repro.cluster.router.ShardRouter`, the drain budget and the
stats fold).  A mixed burst arrives already grouped by the client, one
``(key, positions, payload)`` group per key; :meth:`estimate_batch_mixed`
splits the groups by owner, sends each owner all of its groups in one
concurrent ``estimate_batch_mixed`` RPC, and writes the answers back to
their positions.  It is the wire's one batch method: a single-key batch
arrives as a one-group burst.  A payload of plain box predicates is a
:class:`~repro.core.predicate.BoxBatch` of float rows: the gateway never
builds predicate objects for it, except to answer from a cached snapshot
when the owner is unreachable.  A membership change moves each key's
:class:`~repro.cluster.shard.KeyState` through the worker-side
``migrate_out`` / ``migrate_in`` pair (the cluster's exact-snapshot
hand-off, split at the wire).

Robustness model:

* every worker call carries a per-request timeout; expiry surfaces
  :class:`~repro.exceptions.RemoteTimeoutError` (never a silent retry —
  the caller decides whether the operation is safe to repeat);
* connection failures on **idempotent reads** are retried with bounded
  exponential backoff, reconnecting first — a worker killed mid-batch
  costs a retry, not an error;
* connection failures on **writes** (``observe``, registration,
  migration) are never auto-retried: a request that died in flight may
  or may not have been applied, and retrying could double-count
  feedback.  They surface :class:`WorkerUnavailableError` instead;
* a ``ServingError`` reply gets one re-route retry for any method — the
  key may have migrated, and an error reply proves the request was
  *not* applied, so the retry cannot duplicate anything (a refused
  burst re-splits that owner's groups on the current ring once);
* links reconnect lazily on the next call (and eagerly from the
  optional health-check loop), so a worker respawned at the same
  address resumes service without gateway restarts;
* each worker link sits behind a :class:`~repro.net.breaker.CircuitBreaker`
  — after N consecutive failures the gateway stops dialling the corpse
  and fails fast until a half-open probe (or a health-loop ping)
  succeeds;
* reads against an unreachable worker degrade instead of erroring: the
  gateway answers from its last-known decoded snapshot for the key, or
  from :data:`DEGRADED_PRIOR` when it never saw one
  (``degraded_estimates`` counts every such answer — degraded values
  are *stale*, not wrong: snapshots are immutable and only drift by
  missing recent refits);
* writes against an unreachable worker can be buffered (bounded,
  opt-in via ``write_buffer_capacity``) and replayed on recovery; a
  per-key journal of acknowledged writes lets
  :meth:`SelectivityGateway.resync_worker` re-deliver the feedback a
  checkpoint-restored worker lost, so no acknowledged observation
  silently disappears (irrecoverable gaps are counted in
  ``lost_writes``, never dropped quietly).

:class:`GatewayServer` hosts the gateway on its own event-loop thread
and speaks the same wire protocol to downstream clients, dispatching one
asyncio task per request (responses may return out of request order; the
``request_id`` echo keeps clients straight).
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time
from collections import deque
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import (
    ClusterError,
    NetError,
    RemoteTimeoutError,
    ServingError,
    WorkerUnavailableError,
)
from repro.core.predicate import BoxBatch
from repro.serving.registry import ModelKey, normalize_key
from repro.serving.snapshot import ModelSnapshot
from repro.cluster.router import ShardRouter, drain_budget
from repro.cluster.stats import merge_worker_stats
from repro.net.breaker import CircuitBreaker, full_jitter
from repro.net.protocol import (
    IDEMPOTENT_READS,
    Request,
    Response,
    burst_positions,
    decode_snapshot,
    error_response,
    raise_remote_error,
    read_message,
    write_message,
)
from repro.net.stats import GatewayStats

__all__ = ["SelectivityGateway", "GatewayServer"]

#: The degraded answer for a key whose snapshot the gateway never saw.
DEGRADED_PRIOR = 0.5

#: Delivered writes each key's journal keeps for :meth:`resync_worker`.
#: Keep it at least the workers' ``checkpoint_every``, or a restore may
#: lose acknowledged feedback (counted in ``lost_writes``, never silent).
WRITE_JOURNAL_CAPACITY = 1024

#: Seconds a worker link waits to (re)connect.
CONNECT_TIMEOUT = 10.0

#: One key's slice of a burst: the key, its burst positions, its payload.
_Group = tuple[ModelKey, list[int], Sequence[object] | BoxBatch]


class _WorkerLink:
    """One pipelined protocol connection to a worker server."""

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        stats: GatewayStats,
    ) -> None:
        self.name = name
        self.host = host
        self.port = port
        self._stats = stats
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._was_connected = False
        self._closed = False

    @property
    def connected(self) -> bool:
        return self._writer is not None

    async def connect(self) -> None:
        """(Re)establish the connection; no-op when already connected."""
        async with self._connect_lock:
            if self._closed:
                raise WorkerUnavailableError(
                    f"link to worker {self.name!r} is closed"
                )
            if self._writer is not None:
                return
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    CONNECT_TIMEOUT,
                )
            except (OSError, asyncio.TimeoutError) as error:
                raise WorkerUnavailableError(
                    f"cannot connect to worker {self.name!r} at "
                    f"{self.host}:{self.port}: {error}"
                ) from error
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader, self._writer = reader, writer
            self._reader_task = asyncio.create_task(self._read_loop())
            if self._was_connected:
                self._stats.add("reconnects")
            self._was_connected = True

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                message = await read_message(self._reader)
                if not isinstance(message, Response):
                    raise NetError(
                        f"worker {self.name!r} sent a non-response frame"
                    )
                future = self._pending.pop(message.request_id, None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (EOFError, NetError, OSError, asyncio.CancelledError):
            pass
        finally:
            self._drop_connection()

    def _drop_connection(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
        pending, self._pending = dict(self._pending), {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    WorkerUnavailableError(
                        f"connection to worker {self.name!r} was lost with "
                        "the request in flight"
                    )
                )

    async def call(
        self,
        method: str,
        kwargs: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Any:
        """One request/response round trip (pipelined, out-of-order safe)."""
        if self._writer is None:
            await self.connect()
        writer = self._writer
        if writer is None:
            raise WorkerUnavailableError(
                f"link to worker {self.name!r} dropped during connect"
            )
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        started = time.monotonic()
        try:
            async with self._write_lock:
                await write_message(
                    writer, Request(request_id, method, dict(kwargs or {}))
                )
        except (OSError, ConnectionError) as error:
            self._pending.pop(request_id, None)
            self._drop_connection()
            raise WorkerUnavailableError(
                f"lost connection to worker {self.name!r} while sending "
                f"{method!r}: {error}"
            ) from error
        try:
            response = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            self._stats.add("timeouts")
            raise RemoteTimeoutError(
                f"worker {self.name!r} did not answer {method!r} within "
                f"{timeout}s"
            ) from None
        self._stats.record_worker_call(self.name, time.monotonic() - started)
        raise_remote_error(response)
        return response.value

    async def close(self) -> None:
        """Tear the link down and fail anything still in flight."""
        self._closed = True
        task = self._reader_task
        self._drop_connection()
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            self._reader_task = None


class _WriteJournal:
    """Per-key memory of acknowledged feedback, for resync after a crash.

    ``base`` is the key's feedback count when the gateway registered it;
    ``delivered`` counts observes a worker confirmed since; ``recent``
    keeps the newest delivered writes (bounded) so a checkpoint-restored
    worker can be topped back up; ``pending`` holds writes acknowledged
    into the outage buffer but not yet delivered anywhere.
    """

    __slots__ = ("base", "delivered", "recent", "pending")

    def __init__(self, base: int) -> None:
        self.base = base
        self.delivered = 0
        self.recent: deque[tuple[object, float]] = deque(
            maxlen=WRITE_JOURNAL_CAPACITY
        )
        self.pending: deque[tuple[object, float]] = deque()


class SelectivityGateway:
    """Route the serving surface over a fleet of worker processes."""

    def __init__(
        self,
        workers: dict[str, tuple[str, int]],
        replicas: int = 64,
        request_timeout: float | None = 30.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        health_interval: float | None = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 1.0,
        write_buffer_capacity: int = 0,
    ) -> None:
        """``workers`` maps worker name → ``(host, port)``.

        ``request_timeout`` bounds every routine worker round trip
        (``None`` disables); migrations and drains manage their own
        budgets.  ``max_retries`` applies to idempotent reads only;
        retry delays are full-jittered so concurrent retriers don't
        stampede a recovering worker in lockstep.  ``health_interval``
        (seconds), when set, runs a background ping loop that eagerly
        reconnects failed links, feeds the circuit breakers, and replays
        buffered writes once their owner answers again.

        Degradation knobs: each worker gets a circuit breaker that opens
        after ``breaker_threshold`` consecutive failures and half-open
        probes after ``breaker_cooldown`` seconds.  Reads that exhaust
        their retries answer from the gateway's last-known snapshot for
        the key (or :data:`DEGRADED_PRIOR` when no snapshot was ever
        seen).  ``write_buffer_capacity`` > 0 additionally
        acknowledges observes into a bounded per-key buffer while the
        owner is down — buffered writes are replayed on recovery, which
        trades the plain path's "an ack means the worker has it" for
        "an ack means the fleet will eventually have it".
        :data:`WRITE_JOURNAL_CAPACITY` bounds the per-key journal of
        delivered writes that :meth:`resync_worker` re-delivers after a
        checkpoint restore.
        """
        if not workers:
            raise ClusterError("a gateway needs at least one worker")
        if max_retries < 0:
            raise ClusterError("max_retries must be non-negative")
        if breaker_threshold < 1:
            raise ClusterError("breaker_threshold must be at least 1")
        if breaker_cooldown <= 0:
            raise ClusterError("breaker_cooldown must be positive")
        if write_buffer_capacity < 0:
            raise ClusterError("write_buffer_capacity must be non-negative")
        self._stats = GatewayStats()
        self._links = {
            name: _WorkerLink(name, host, port, self._stats)
            for name, (host, port) in workers.items()
        }
        self._router = ShardRouter(list(self._links), replicas=replicas)
        self._replicas = replicas
        self._request_timeout = request_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._health_interval = health_interval
        self._health_task: asyncio.Task | None = None
        self._membership = asyncio.Lock()
        self._closed = False
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._write_buffer_capacity = write_buffer_capacity
        self._rng = random.Random()
        self._breakers = {name: self._new_breaker() for name in workers}
        # Both caches are touched only from the gateway's event loop, so
        # they need no locks; mutations never span an await.
        self._snapshots: dict[ModelKey, ModelSnapshot] = {}
        self._journals: dict[ModelKey, _WriteJournal] = {}

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=self._breaker_threshold,
            cooldown_seconds=self._breaker_cooldown,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> GatewayStats:
        """Gateway-side counters and latency windows."""
        return self._stats

    @property
    def router(self) -> ShardRouter:
        """The hash ring (mutate only through add/remove_worker)."""
        return self._router

    @property
    def breakers(self) -> dict[str, CircuitBreaker]:
        """Per-worker circuit breakers, by worker name (read-only view)."""
        return dict(self._breakers)

    async def start(self) -> None:
        """Connect every link; start the health loop if configured."""
        await asyncio.gather(
            *(link.connect() for link in self._links.values())
        )
        if self._health_interval is not None and self._health_task is None:
            self._health_task = asyncio.create_task(self._health_loop())

    async def close(self) -> None:
        """Stop the health loop and close every worker link."""
        self._closed = True
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        await asyncio.gather(
            *(link.close() for link in self._links.values())
        )

    async def ping(self) -> str:
        """Gateway liveness (answered without touching any worker)."""
        return "pong"

    async def worker_names(self) -> tuple[str, ...]:
        """All worker names on the ring, sorted."""
        return self._router.shards

    async def set_worker_address(
        self, name: str, host: str, port: int
    ) -> None:
        """Point a worker's link at a new address (respawn/failover).

        The old connection is severed; the next call reconnects to the
        new address.  The ring position is unchanged — the worker keeps
        its identity and its keys.
        """
        async with self._membership:
            link = self._links.get(name)
            if link is None:
                raise ClusterError(f"unknown worker {name!r}")
            await link.close()
            self._links[name] = _WorkerLink(name, host, port, self._stats)
            # A repoint is an operator/supervisor asserting the worker is
            # back: give the fresh address a clean slate to prove it.
            breaker = self._breakers.get(name)
            if breaker is not None:
                breaker.reset()

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            for name, link in list(self._links.items()):
                breaker = self._breakers.get(name)
                try:
                    await link.call("ping", timeout=self._request_timeout)
                except (WorkerUnavailableError, NetError):
                    # The next call (or next health tick) reconnects; the
                    # link already failed its in-flight futures.
                    self._stats.add("health_failures")
                    if breaker is not None and breaker.record_failure():
                        self._stats.add("breaker_opens")
                    continue
                if breaker is not None:
                    breaker.record_success()
                await self._replay_pending_to(name)

    # ------------------------------------------------------------------
    # Routing and retry machinery
    # ------------------------------------------------------------------
    def _link_for(self, key: ModelKey) -> _WorkerLink:
        return self._links[self._router.route(key)]

    async def _call_link(
        self,
        link: _WorkerLink,
        method: str,
        kwargs: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Any:
        """One bounded worker call, with reconnect-and-retry on reads.

        Every attempt consults the worker's circuit breaker: an open
        breaker fails fast (no dial, no timeout wait), which is what
        lets callers fall through to the degraded path at memory speed
        while the owner is down.  Retry sleeps are full-jittered.
        """
        wire_timeout = self._request_timeout if timeout is None else timeout
        retries = self._max_retries if method in IDEMPOTENT_READS else 0
        breaker = self._breakers.get(link.name)
        last_error: Exception | None = None
        for attempt in range(retries + 1):
            if breaker is not None and not breaker.allow():
                last_error = WorkerUnavailableError(
                    f"circuit breaker open for worker {link.name!r}"
                )
            else:
                try:
                    value = await link.call(
                        method, kwargs, timeout=wire_timeout
                    )
                except RemoteTimeoutError:
                    if breaker is not None and breaker.record_failure():
                        self._stats.add("breaker_opens")
                    raise  # the worker may still apply it; never replay
                except (WorkerUnavailableError, NetError) as error:
                    if breaker is not None and breaker.record_failure():
                        self._stats.add("breaker_opens")
                    last_error = error
                else:
                    if breaker is not None:
                        breaker.record_success()
                    return value
            if attempt < retries:
                self._stats.add("retries")
                await asyncio.sleep(
                    full_jitter(self._retry_backoff, attempt, self._rng)
                )
        assert last_error is not None
        raise last_error

    async def _call_routed(
        self, key: ModelKey, method: str, kwargs: dict[str, Any]
    ) -> Any:
        """Route and call, retrying once if the key migrated mid-call."""
        for attempt in (0, 1):
            link = self._link_for(key)
            try:
                return await self._call_link(link, method, kwargs)
            except ServingError:
                # An error reply proves the request was not applied, so
                # one re-route retry is duplicate-safe for any method.
                if attempt:
                    raise
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    async def register_model(
        self, table: str | ModelKey, backend: bytes
    ) -> ModelKey:
        """Install an :func:`~repro.net.protocol.encode_backend` payload
        on the worker its key routes to."""
        key = normalize_key(table)
        result = await self._call_routed(
            key, "register_model", {"table": key, "backend": backend}
        )
        # Best-effort: seed the degraded-read cache and the write
        # journal's base count.  Failure here leaves the registration
        # valid — the key just has no degraded answer / resync anchor
        # until a later snapshot_for or resync refreshes it.
        try:
            await self._refresh_snapshot(key)
            base = await self._call_routed(
                key, "feedback_count", {"table": key}
            )
            self._journals[key] = _WriteJournal(int(base))
        except (WorkerUnavailableError, NetError, ServingError):
            pass
        return result

    async def unregister_model(self, table: str | ModelKey) -> bytes:
        """Withdraw a key's backend; returns the encoded trainer."""
        key = normalize_key(table)
        payload = await self._call_routed(
            key, "unregister_model", {"table": key}
        )
        self._snapshots.pop(key, None)
        self._journals.pop(key, None)
        return payload

    async def _refresh_snapshot(self, key: ModelKey) -> None:
        """Re-fetch and decode a key's snapshot for the degraded cache."""
        payload = await self._call_routed(key, "snapshot_for", {"table": key})
        self._snapshots[key] = decode_snapshot(payload)

    async def model_keys(self) -> tuple[ModelKey, ...]:
        """Every key served anywhere in the fleet, sorted."""
        names = self._router.shards
        per_worker = await asyncio.gather(
            *(
                self._call_link(self._links[name], "model_keys")
                for name in names
            )
        )
        keys: list[ModelKey] = []
        for worker_keys in per_worker:
            keys.extend(worker_keys)
        return tuple(sorted(keys))

    async def snapshot_for(self, table: str | ModelKey) -> bytes:
        """The owning worker's current snapshot, wire-encoded."""
        key = normalize_key(table)
        payload = await self._call_routed(key, "snapshot_for", {"table": key})
        try:
            self._snapshots[key] = decode_snapshot(payload)
        except Exception:
            pass  # an undecodable payload must not fail the passthrough
        return payload

    async def feedback_count(self, table: str | ModelKey) -> int:
        """Observations accepted for a key (absorbed plus buffered)."""
        key = normalize_key(table)
        return await self._call_routed(key, "feedback_count", {"table": key})

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _degraded_answer(
        self, key: ModelKey, predicates: Sequence[object] | BoxBatch
    ) -> np.ndarray:
        """Answer a failed read from the last-known snapshot or prior.

        Degraded values are *stale*, not fabricated: the cached snapshot
        is the immutable model the owner itself was serving the last
        time the gateway saw it — it only misses refits since.  The
        prior fallback (when the gateway never saw a snapshot for the
        key) is the uniform-ignorance answer and is the reason
        ``degraded_estimates`` must be watched, not just availability.
        """
        snapshot = self._snapshots.get(key)
        if snapshot is not None:
            values = np.asarray(
                snapshot.estimate_many(list(predicates)), dtype=float
            )
        else:
            values = np.full(len(predicates), DEGRADED_PRIOR)
        self._stats.add("degraded_estimates", len(predicates))
        return values

    async def estimate(self, table: str | ModelKey, predicate: object) -> float:
        """Scalar estimate from the owning worker's current snapshot.

        Falls back to the degraded path (last-known snapshot, then
        :data:`DEGRADED_PRIOR`) when the owner is unreachable.
        """
        key = normalize_key(table)
        try:
            return await self._call_routed(
                key, "estimate", {"table": key, "predicate": predicate}
            )
        except (WorkerUnavailableError, NetError):
            return float(self._degraded_answer(key, [predicate])[0])

    async def estimate_batch_mixed(
        self,
        pairs: Sequence[
            tuple[ModelKey, Sequence[int], Sequence[object] | BoxBatch]
        ],
    ) -> np.ndarray:
        """Mixed-key burst, grouped by the client: one concurrent
        ``estimate_batch_mixed`` RPC per owning worker, reassembled in
        input order.

        ``pairs`` holds one ``(key, positions, payload)`` group per key,
        as :meth:`~repro.net.client.RemoteSelectivityService.estimate_batch_mixed`
        sends it (a single-key batch is one group).  The groups are split
        by owner, and each owner gets all of its groups in one request,
        renumbered to cover that request's own ``0..n-1``; the payloads
        (a :class:`BoxBatch` or a predicate list) go as they came.  Its
        answers land at the groups' ``positions`` of a result as long as
        the whole burst.  An owner that answers ``ServingError`` (one of
        its keys moved) has its groups split once more on the current
        ring, and a second refusal reaches the caller; an unreachable
        owner degrades only its own keys' slices.
        """
        groups = list(pairs)
        positions = burst_positions(groups)
        results = np.empty(sum(map(len, positions)))
        await self._estimate_split(
            [
                (normalize_key(key), indices, payload)
                for (key, _, payload), indices in zip(groups, positions)
            ],
            results,
            resplit=True,
        )
        return results

    async def _estimate_split(
        self, groups: list[_Group], results: np.ndarray, resplit: bool
    ) -> None:
        """One round of a burst: each owner's groups in one RPC."""
        owners: dict[_WorkerLink, list[_Group]] = {}
        for group in groups:
            owners.setdefault(self._link_for(group[0]), []).append(group)
        self._stats.add("fanouts", len(owners))
        await asyncio.gather(
            *(
                self._estimate_on_owner(link, share, results, resplit)
                for link, share in owners.items()
            )
        )

    async def _estimate_on_owner(
        self,
        link: _WorkerLink,
        share: list[_Group],
        results: np.ndarray,
        resplit: bool,
    ) -> None:
        """One owner's share of a burst, renumbered to its own request."""
        local = []
        targets: list[int] = []
        for key, indices, payload in share:
            offset = len(targets)
            local.append((key, range(offset, offset + len(indices)), payload))
            targets.extend(indices)
        try:
            values = await self._call_link(
                link, "estimate_batch_mixed", {"pairs": local}
            )
        except ServingError:
            # A key is not on this owner (it may be mid-migration): route
            # this owner's groups again, once.
            if not resplit:
                raise
            await self._estimate_split(share, results, resplit=False)
            return
        except (WorkerUnavailableError, NetError):
            # Retries spent, breaker open or timed out: degrade this
            # owner's keys without a second round of retries.
            values = np.concatenate(
                [self._degraded_answer(key, payload) for key, _, payload in share]
            )
        results[targets] = values

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    async def observe(
        self,
        table: str | ModelKey,
        predicate: object,
        selectivity: float,
    ) -> bool:
        """Record feedback on the owning worker's observation buffer.

        Not auto-retried on connection failure (the request may already
        have been applied); a failure surfaces
        :class:`WorkerUnavailableError` and the caller decides — unless
        ``write_buffer_capacity`` is set, in which case the write is
        acknowledged into a bounded gateway-side buffer and replayed
        once the owner answers again (a full buffer raises as before).
        Timeouts are never buffered: a timed-out write may already have
        been applied, and replaying it could double-count feedback.
        """
        key = normalize_key(table)
        journal = self._journals.get(key)
        if journal is not None and journal.pending:
            # Older buffered writes go first so feedback stays ordered;
            # if the owner is still down, this write queues behind them.
            await self._replay_pending_for_key(key, journal)
            if journal.pending:
                return self._buffer_write(key, journal, predicate, selectivity)
        try:
            result = await self._call_routed(
                key,
                "observe",
                {
                    "table": key,
                    "predicate": predicate,
                    "selectivity": selectivity,
                },
            )
        except RemoteTimeoutError:
            raise
        except (WorkerUnavailableError, NetError):
            if journal is None or self._write_buffer_capacity == 0:
                raise
            return self._buffer_write(key, journal, predicate, selectivity)
        # Any non-raising reply means the worker buffered the feedback
        # (the boolean only reports whether a refit was triggered), so
        # the journal counts every delivered write.
        if journal is not None:
            journal.delivered += 1
            journal.recent.append((predicate, selectivity))
        return result

    def _buffer_write(
        self,
        key: ModelKey,
        journal: _WriteJournal,
        predicate: object,
        selectivity: float,
    ) -> bool:
        if len(journal.pending) >= self._write_buffer_capacity:
            raise WorkerUnavailableError(
                f"write buffer full for key {key} "
                f"({self._write_buffer_capacity} pending) and its owner "
                "is unreachable"
            )
        journal.pending.append((predicate, selectivity))
        self._stats.add("buffered_writes")
        return True

    async def _replay_pending_for_key(
        self, key: ModelKey, journal: _WriteJournal
    ) -> int:
        """Deliver a key's buffered writes in order; stop on failure."""
        replayed = 0
        while journal.pending:
            predicate, selectivity = journal.pending.popleft()
            try:
                await self._call_routed(
                    key,
                    "observe",
                    {
                        "table": key,
                        "predicate": predicate,
                        "selectivity": selectivity,
                    },
                )
            except (WorkerUnavailableError, NetError, ServingError):
                # Still down (or the restored worker lost the key and
                # awaits resync) — put the write back and try later.
                journal.pending.appendleft((predicate, selectivity))
                break
            journal.delivered += 1
            journal.recent.append((predicate, selectivity))
            self._stats.add("buffered_writes_replayed")
            replayed += 1
        return replayed

    async def _replay_pending_to(self, name: str) -> int:
        """Replay every buffered write owned by worker ``name``."""
        replayed = 0
        for key, journal in list(self._journals.items()):
            if journal.pending and self._router.route(key) == name:
                replayed += await self._replay_pending_for_key(key, journal)
        return replayed

    async def resync_worker(self, name: str) -> dict[str, int]:
        """Reconcile a respawned worker with the gateway's write journal.

        Call after :meth:`set_worker_address` when a worker came back
        from a checkpoint restore.  For every journaled key the worker
        owns: compare its feedback count against ``base + delivered``;
        re-deliver the newest journaled writes to close the gap (the
        feedback acknowledged after the last checkpoint), then replay
        any writes buffered during the outage, then refresh the
        degraded-read snapshot cache.  A gap wider than the journal is
        counted in ``lost_writes`` — :data:`WRITE_JOURNAL_CAPACITY`
        above the workers' ``checkpoint_every`` keeps it at zero.

        Returns ``{"keys": restored, "replayed": n, "lost": m}``.
        """
        link = self._links.get(name)
        if link is None:
            raise ClusterError(f"unknown worker {name!r}")
        keys = await self._call_link(link, "model_keys")
        restored = 0
        replayed = 0
        lost = 0
        for key in keys:
            if self._router.route(key) != name:
                continue
            journal = self._journals.get(key)
            if journal is not None:
                count = await self._call_routed(
                    key, "feedback_count", {"table": key}
                )
                gap = (journal.base + journal.delivered) - int(count)
                if gap > 0:
                    tail = list(journal.recent)[-gap:]
                    shortfall = gap - len(tail)
                    if shortfall > 0:
                        lost += shortfall
                        self._stats.add("lost_writes", shortfall)
                    for predicate, selectivity in tail:
                        await self._call_routed(
                            key,
                            "observe",
                            {
                                "table": key,
                                "predicate": predicate,
                                "selectivity": selectivity,
                            },
                        )
                        replayed += 1
                        self._stats.add("buffered_writes_replayed")
                replayed += await self._replay_pending_for_key(key, journal)
            restored += 1
            try:
                await self._refresh_snapshot(key)
            except (WorkerUnavailableError, NetError, ServingError):
                pass
        if restored:
            self._stats.add("checkpoint_restores", restored)
        return {"keys": restored, "replayed": replayed, "lost": lost}

    async def refit_now(self, table: str | ModelKey) -> bytes:
        """Flush the key's backlog and retrain synchronously on its worker.

        The wire timeout is waived — a refit is allowed to take longer
        than a routine read."""
        key = normalize_key(table)
        link = self._link_for(key)
        payload = await link.call("refit_now", {"table": key}, timeout=None)
        try:
            self._snapshots[key] = decode_snapshot(payload)
        except Exception:
            pass
        return payload

    async def flush(self, blocking: bool = True) -> int:
        """Replay every worker's buffered observations; total applied."""
        counts = await asyncio.gather(
            *(
                self._links[name].call(
                    "flush", {"blocking": blocking}, timeout=None
                )
                for name in self._router.shards
            )
        )
        return sum(counts)

    async def drain(self, timeout: float | None = None) -> None:
        """Flush all buffers and wait out all refits, fleet-wide.

        ``timeout`` is a *total* budget: each worker gets whatever
        remains when its turn comes, and an exhausted budget raises
        :class:`ServingError` naming the workers still undrained.  An
        unreachable worker is skipped — it must not burn the budget the
        remaining workers need — and reported in one ServingError at
        the end.
        """
        unreachable: list[str] = []
        for name, remaining in drain_budget(
            self._router.shards, timeout, "worker"
        ):
            breaker = self._breakers.get(name)
            if breaker is not None and not breaker.allow():
                unreachable.append(name)
                continue
            try:
                await self._links[name].call(
                    "drain",
                    {"timeout": remaining},
                    timeout=None if remaining is None else remaining + 5.0,
                )
            except (WorkerUnavailableError, NetError) as error:
                if isinstance(error, RemoteTimeoutError):
                    raise  # the budget itself expired mid-drain
                if breaker is not None and breaker.record_failure():
                    self._stats.add("breaker_opens")
                unreachable.append(name)
            else:
                if breaker is not None:
                    breaker.record_success()
        if unreachable:
            raise ServingError(
                "drain skipped unreachable worker(s): "
                + ", ".join(sorted(unreachable))
            )

    # ------------------------------------------------------------------
    # Membership (cross-process migration)
    # ------------------------------------------------------------------
    async def add_worker(self, name: str, host: str, port: int) -> str:
        """Grow the ring by one worker and migrate its keys onto it.

        Only keys whose route changes move (consistent-hash minimal
        set); each crosses the process boundary as one exact-snapshot
        bundle, so the destination serves the same model bytes the
        source did — no retraining.
        """
        async with self._membership:
            if name in self._links:
                raise ClusterError(f"worker {name!r} already on the ring")
            link = _WorkerLink(name, host, port, self._stats)
            await link.connect()
            self._breakers[name] = self._new_breaker()
            placements: dict[ModelKey, str] = {}
            for owner in self._router.shards:
                for key in await self._call_link(
                    self._links[owner], "model_keys"
                ):
                    placements[key] = owner
            self._links[name] = link
            self._router.add(name)
            for key, old, new in self._router.moves(placements):
                await self._migrate(key, self._links[old], self._links[new])
            return name

    async def remove_worker(self, name: str, shutdown: bool = False) -> int:
        """Migrate a worker's keys clockwise and retire it from the ring.

        With ``shutdown=True`` the emptied worker is asked to drain and
        exit.  Returns how many keys were migrated.
        """
        async with self._membership:
            if name not in self._links:
                raise ClusterError(f"unknown worker {name!r}")
            if len(self._links) == 1:
                raise ClusterError("cannot remove the last worker")
            link = self._links[name]
            self._router.remove(name)
            moved = self._router.moves(
                dict.fromkeys(await self._call_link(link, "model_keys"), name)
            )
            for key, _, new in moved:
                await self._migrate(key, link, self._links[new])
            if shutdown:
                await link.call("drain", {"timeout": None}, timeout=None)
                await link.call("shutdown", timeout=None)
            await link.close()
            del self._links[name]
            self._breakers.pop(name, None)
            self._stats.forget_worker(name)
            return len(moved)

    async def _migrate(
        self, key: ModelKey, source: _WorkerLink, dest: _WorkerLink
    ) -> None:
        # No wire timeout: migrate_out drains the source's refits, which
        # is allowed to take longer than a routine read.  Never retried —
        # a lost bundle is an error to surface, not to replay.
        bundle = await source.call("migrate_out", {"table": key}, timeout=None)
        await dest.call("migrate_in", {"bundle": bundle}, timeout=None)
        self._stats.add("migrations")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    async def fleet_stats(self) -> dict[str, Any]:
        """One view over the whole fleet.

        ``aggregate`` / ``per_shard`` / ``backend_errors`` come from the
        same fold the in-process cluster's
        :meth:`~repro.cluster.service.ShardedSelectivityService.fleet_stats`
        returns (:func:`~repro.cluster.stats.merge_worker_stats`), so a
        worker's ``per_shard`` entry has a shard's schema; ``gateway``
        adds this gateway's own counters and latency windows.  A worker
        that cannot be reached is skipped (its name is listed under
        ``unreachable``) rather than failing the whole scrape.
        """
        names = self._router.shards
        views = await asyncio.gather(
            *(
                self._call_link(self._links[name], "stats")
                for name in names
            ),
            return_exceptions=True,
        )
        per_worker: dict[str, dict[str, Any]] = {}
        unreachable: list[str] = []
        for name, view in zip(names, views):
            if isinstance(view, BaseException):
                unreachable.append(name)
            else:
                per_worker[name] = view
        merged = merge_worker_stats(per_worker)
        merged["gateway"] = self._stats.snapshot()
        merged["unreachable"] = tuple(unreachable)
        merged["breakers"] = {
            name: breaker.state for name, breaker in self._breakers.items()
        }
        return merged

    def __repr__(self) -> str:
        return (
            f"SelectivityGateway(workers={len(self._links)}, "
            f"closed={self._closed})"
        )


class GatewayServer:
    """Host a gateway on its own event-loop thread, serving the protocol.

    Downstream clients (:class:`~repro.net.client.RemoteSelectivityService`)
    speak the same framing the workers do; each client request runs as
    its own asyncio task, so slow calls (a synchronous refit) never
    block fast reads pipelined on the same connection.
    """

    #: Wire methods a client may invoke on the gateway.
    METHODS = frozenset(
        {
            "ping",
            "worker_names",
            "set_worker_address",
            "resync_worker",
            "register_model",
            "unregister_model",
            "model_keys",
            "snapshot_for",
            "feedback_count",
            "estimate",
            "estimate_batch_mixed",
            "observe",
            "refit_now",
            "flush",
            "drain",
            "add_worker",
            "remove_worker",
            "fleet_stats",
        }
    )

    def __init__(
        self,
        workers: dict[str, tuple[str, int]],
        host: str = "127.0.0.1",
        port: int = 0,
        **gateway_config: Any,
    ) -> None:
        self._gateway = SelectivityGateway(workers, **gateway_config)
        self._requested_host = host
        self._requested_port = port
        self._host: str | None = None
        self._port: int | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._closed = False

    @property
    def gateway(self) -> SelectivityGateway:
        """The asyncio core (admin via :meth:`run`)."""
        return self._gateway

    @property
    def host(self) -> str:
        """The bound interface (after :meth:`start`)."""
        if self._host is None:
            raise NetError("gateway server is not started")
        return self._host

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._port is None:
            raise NetError("gateway server is not started")
        return self._port

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` clients should dial."""
        return self.host, self.port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> None:
        """Spin the event-loop thread up and wait until accepting."""
        if self._thread is not None:
            raise NetError("gateway server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-net-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise NetError(f"gateway server did not start within {timeout}s")
        if self._startup_error is not None:
            raise self._startup_error

    def _run_loop(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._gateway.start()
            server = await asyncio.start_server(
                self._handle_client, self._requested_host, self._requested_port
            )
        except BaseException as error:
            self._startup_error = error
            self._started.set()
            await self._gateway.close()
            return
        self._host, self._port = server.sockets[0].getsockname()[:2]
        self._started.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            await self._gateway.close()

    def run(self, coroutine, timeout: float | None = None) -> Any:
        """Run a coroutine on the gateway loop from sync code (admin ops).

        Example: ``server.run(server.gateway.add_worker(name, host, port))``.
        """
        if self._loop is None:
            raise NetError("gateway server is not started")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout)

    def close(self, timeout: float = 30.0) -> None:
        """Stop serving, close worker links, join the loop thread."""
        if self._closed:
            return
        self._closed = True
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already gone
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    # Client connections
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except (EOFError, NetError, OSError, ConnectionError):
                    return
                if not isinstance(message, Request):
                    return  # protocol violation; drop the connection
                task = asyncio.create_task(
                    self._serve_request(message, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tuple(tasks):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _serve_request(
        self,
        request: Request,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        stats = self._gateway.stats
        stats.record_request_started()
        try:
            value = await self._dispatch(request.method, request.kwargs)
            response = Response(request.request_id, ok=True, value=value)
        except asyncio.CancelledError:
            stats.record_request_finished(False)
            raise
        except Exception as error:
            response = error_response(request.request_id, error)
        stats.record_request_finished(response.ok)
        async with write_lock:
            try:
                await write_message(writer, response)
            except (OSError, NetError, ConnectionError):
                pass  # client went away; nothing to deliver the reply to

    async def _dispatch(self, method: str, kwargs: dict[str, Any]) -> Any:
        if method not in self.METHODS:
            raise NetError(f"unknown gateway method {method!r}")
        return await getattr(self._gateway, method)(**kwargs)

    def __repr__(self) -> str:
        address = (
            f"({self._host!r}, {self._port})"
            if self._host is not None
            else "unbound"
        )
        return f"GatewayServer(address={address}, closed={self._closed})"
