"""The synchronous client: ``SelectivityServing`` over a socket.

:class:`RemoteSelectivityService` satisfies the
:class:`~repro.serving.adapter.SelectivityServing` protocol, so every
existing consumer — :class:`~repro.serving.adapter.ServingEstimator`,
the feedback loop, the access-path optimizer — works against a remote
gateway (or a single worker, which speaks the same protocol) with zero
call-site changes.  Backends are encoded on the way out and snapshots
decoded on the way in, so call sites keep passing and receiving the
same objects they would hand an in-process service.

Bursts are grouped and packed here, once.  :meth:`estimate_batch_mixed`
groups the burst by key (:func:`~repro.serving.registry.group_by_key`)
and sends each group as ``(key, positions, payload)``.  A group of plain
box predicates travels as one :class:`~repro.core.predicate.BoxBatch`
of float rows, which the gateway forwards untouched, in one request per
owning worker, and the worker's estimate cache is keyed on; any other
group (disjunctions, negations, raw geometry) travels as predicate
objects.  A worker answers the same grouped request itself, so a client
dialled straight at one worker sends its bursts the same way.
:meth:`estimate_batch` sends its predicates as a one-group burst, and
scalar :meth:`estimate` sends the object.

Failure semantics mirror the gateway's: idempotent reads are retried
with bounded backoff across reconnects; writes (``observe``,
registration) are never auto-retried on a connection failure — the
request may already have been applied, and replaying it could
double-count feedback — so they surface
:class:`~repro.exceptions.WorkerUnavailableError` for the caller to
decide.  A per-request timeout expiring surfaces
:class:`~repro.exceptions.RemoteTimeoutError` and drops the connection
(a late reply on a shared socket would desynchronise every later call).
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.exceptions import (
    NetError,
    RemoteTimeoutError,
    WorkerUnavailableError,
)
from repro.core.predicate import BoxBatch
from repro.serving.registry import ModelKey, group_by_key, normalize_key
from repro.serving.snapshot import ModelSnapshot
from repro.net.protocol import (
    IDEMPOTENT_READS,
    Request,
    Response,
    decode_snapshot,
    encode_backend,
    raise_remote_error,
    recv_message,
    send_message,
)

__all__ = ["RemoteSelectivityService", "connect"]

#: Sentinel distinguishing "use the default timeout" from "no timeout".
_DEFAULT_TIMEOUT = object()


def _payload(predicates: Sequence[object]) -> BoxBatch | list[object]:
    """What one key's predicates cross the wire as: a :class:`BoxBatch`
    of float rows when every one is a plain box, else the objects."""
    predicates = list(predicates)
    batch = BoxBatch.pack(predicates)
    return predicates if batch is None else batch


class RemoteSelectivityService:
    """A serving backend on the other side of a socket."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 30.0,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        """Dial ``host:port`` lazily (the first call connects).

        ``timeout`` bounds every routine round trip; unbounded
        operations (``refit_now``, ``drain``, ``flush``) waive it.
        ``max_retries`` applies to idempotent reads only.
        """
        if max_retries < 0:
            raise NetError("max_retries must be non-negative")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._next_id = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The remote endpoint this client dials."""
        return self._host, self._port

    @property
    def connected(self) -> bool:
        """True while a live connection is held."""
        with self._lock:
            return self._sock is not None

    def close(self) -> None:
        """Drop the connection.  Idempotent; later calls redial."""
        with self._lock:
            self._drop_locked()

    def __enter__(self) -> "RemoteSelectivityService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_connected_locked(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(
                    (self._host, self._port),
                    timeout=self._timeout if self._timeout else 30.0,
                )
            except OSError as error:
                raise WorkerUnavailableError(
                    f"cannot connect to {self._host}:{self._port}: {error}"
                ) from error
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _call(
        self,
        method: str,
        kwargs: dict[str, Any] | None = None,
        timeout: object = _DEFAULT_TIMEOUT,
    ) -> Any:
        """One request/response round trip, with read-only retry."""
        wire_timeout = (
            self._timeout if timeout is _DEFAULT_TIMEOUT else timeout
        )
        retries = self._max_retries if method in IDEMPOTENT_READS else 0
        last_error: Exception | None = None
        for attempt in range(retries + 1):
            try:
                response, request_id = self._round_trip(
                    method, kwargs, wire_timeout
                )
            except RemoteTimeoutError:
                raise  # the server may still apply it; never replay
            except (OSError, EOFError, NetError) as error:
                last_error = error
                if attempt < retries:
                    time.sleep(self._retry_backoff * (2**attempt))
                    continue
                raise WorkerUnavailableError(
                    f"{method!r} failed against {self._host}:{self._port}: "
                    f"{error}"
                ) from error
            if response.request_id != request_id:
                with self._lock:
                    self._drop_locked()
                raise NetError(
                    f"response id {response.request_id} does not match "
                    f"request id {request_id}; connection desynchronised"
                )
            raise_remote_error(response)
            return response.value
        raise WorkerUnavailableError(str(last_error))  # pragma: no cover

    def _round_trip(
        self,
        method: str,
        kwargs: dict[str, Any] | None,
        wire_timeout: float | None,
    ) -> tuple[Response, int]:
        with self._lock:
            sock = self._ensure_connected_locked()
            sock.settimeout(wire_timeout)
            request_id = self._next_id
            self._next_id += 1
            try:
                send_message(sock, Request(request_id, method, dict(kwargs or {})))
                response = recv_message(sock)
            except socket.timeout:
                # A late reply on this socket would answer the *next*
                # request; the connection is unusable once we give up.
                self._drop_locked()
                raise RemoteTimeoutError(
                    f"{method!r} did not complete within {wire_timeout}s"
                ) from None
            except (OSError, EOFError, NetError):
                self._drop_locked()
                raise
            if not isinstance(response, Response):
                self._drop_locked()
                raise NetError("peer sent a non-response frame")
            return response, request_id

    # ------------------------------------------------------------------
    # SelectivityServing surface
    # ------------------------------------------------------------------
    def register_model(self, table: str | ModelKey, trainer: object) -> ModelKey:
        """Encode the trainer and install it on the remote fleet."""
        key = normalize_key(table)
        return self._call(
            "register_model",
            {"table": key, "backend": encode_backend(trainer)},
        )

    def unregister_model(self, table: str | ModelKey) -> bytes:
        """Withdraw a key's backend; returns the encoded trainer bytes."""
        key = normalize_key(table)
        return self._call("unregister_model", {"table": key}, timeout=None)

    def model_keys(self) -> tuple[ModelKey, ...]:
        """Every key served by the remote fleet, sorted."""
        return tuple(self._call("model_keys"))

    def snapshot_for(self, table: str | ModelKey) -> ModelSnapshot:
        """The remote snapshot currently serving a key, decoded."""
        key = normalize_key(table)
        return decode_snapshot(self._call("snapshot_for", {"table": key}))

    def feedback_count(self, table: str | ModelKey) -> int:
        """Observations accepted for a key (absorbed plus buffered)."""
        key = normalize_key(table)
        return self._call("feedback_count", {"table": key})

    def estimate(self, table: str | ModelKey, predicate: object) -> float:
        """Scalar estimate from the remote snapshot."""
        key = normalize_key(table)
        return self._call(
            "estimate", {"table": key, "predicate": predicate}
        )

    def estimate_batch(
        self, table: str | ModelKey, predicates: Sequence[object]
    ) -> np.ndarray:
        """Batched single-key estimates (one remote vectorised pass).

        Sent as a one-group ``estimate_batch_mixed`` burst; plain box
        predicates travel as one :class:`BoxBatch` of rows.
        """
        key = normalize_key(table)
        payload = _payload(predicates)
        return self._call(
            "estimate_batch_mixed",
            {"pairs": [(key, range(len(payload)), payload)]},
        )

    def estimate_batch_mixed(
        self, pairs: Sequence[tuple[str | ModelKey, object]]
    ) -> np.ndarray:
        """Mixed-key burst; the gateway fans it across workers.

        The burst is grouped by key here, once, and each group crosses
        the wire as ``(key, positions, payload)``; the gateway sends each
        owning worker its groups in one request and writes the answers
        back to ``positions``.
        """
        groups = [
            (key, positions, _payload(predicates))
            for key, (positions, predicates) in group_by_key(pairs).items()
        ]
        return self._call("estimate_batch_mixed", {"pairs": groups})

    def observe(
        self,
        table: str | ModelKey,
        predicate: object,
        selectivity: float,
    ) -> bool:
        """Record one observation remotely (never auto-retried)."""
        key = normalize_key(table)
        return self._call(
            "observe",
            {"table": key, "predicate": predicate, "selectivity": selectivity},
        )

    # ------------------------------------------------------------------
    # Lifecycle and admin passthrough
    # ------------------------------------------------------------------
    def refit_now(self, table: str | ModelKey) -> ModelSnapshot:
        """Flush the key's backlog and retrain synchronously (unbounded)."""
        key = normalize_key(table)
        return decode_snapshot(
            self._call("refit_now", {"table": key}, timeout=None)
        )

    def flush(self, blocking: bool = True) -> int:
        """Replay buffered observations fleet-wide; total applied."""
        return self._call("flush", {"blocking": blocking}, timeout=None)

    def drain(self, timeout: float | None = None) -> None:
        """Flush all buffers and wait out all refits, fleet-wide.

        ``timeout`` is the remote total budget; the wire wait adds slack
        on top so the remote's own budget error reaches us as a
        ``ServingError`` rather than a local timeout.
        """
        self._call(
            "drain",
            {"timeout": timeout},
            timeout=None if timeout is None else timeout + 10.0,
        )

    def ping(self, timeout: float | None = 10.0) -> str:
        """Liveness round trip."""
        return self._call("ping", timeout=timeout)

    def fleet_stats(self) -> dict[str, Any]:
        """The gateway's fleet view: the fleet fold plus gateway counters."""
        return self._call("fleet_stats")

    def worker_names(self) -> tuple[str, ...]:
        """The gateway's current ring membership."""
        return tuple(self._call("worker_names"))

    def add_worker(self, name: str, host: str, port: int) -> str:
        """Grow the remote ring (migrations included); unbounded."""
        return self._call(
            "add_worker",
            {"name": name, "host": host, "port": port},
            timeout=None,
        )

    def remove_worker(self, name: str, shutdown: bool = False) -> int:
        """Retire a remote worker after migrating its keys; unbounded."""
        return self._call(
            "remove_worker", {"name": name, "shutdown": shutdown}, timeout=None
        )

    def set_worker_address(self, name: str, host: str, port: int) -> None:
        """Repoint a worker link after a respawn/failover."""
        self._call(
            "set_worker_address", {"name": name, "host": host, "port": port}
        )

    def resync_worker(self, name: str) -> dict[str, int]:
        """Reconcile a restored worker's feedback with the gateway journal.

        Unbounded: replay volume scales with the outage.
        """
        return self._call("resync_worker", {"name": name}, timeout=None)

    def __repr__(self) -> str:
        return (
            f"RemoteSelectivityService(address=({self._host!r}, "
            f"{self._port}), connected={self.connected})"
        )


def connect(
    host: str,
    port: int,
    timeout: float | None = 30.0,
    **config: Any,
) -> RemoteSelectivityService:
    """Dial a gateway (or worker) and verify liveness with one ping."""
    client = RemoteSelectivityService(host, port, timeout=timeout, **config)
    client.ping()
    return client
