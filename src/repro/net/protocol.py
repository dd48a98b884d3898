"""The wire protocol: length-prefixed frames and the message vocabulary.

Framing is deliberately minimal — every message is::

    [4-byte big-endian payload length][pickled payload]

with a hard frame-size ceiling (:data:`MAX_FRAME_BYTES`) so a corrupted
or hostile length prefix cannot make a peer allocate unbounded memory.
The payload is a :class:`Request` or :class:`Response`.  Helpers are
provided for both transports in play: blocking sockets
(:func:`send_message` / :func:`recv_message`, used by the worker server
and the synchronous client) and asyncio streams (:func:`write_message` /
:func:`read_message`, used by the gateway).

Requests carry a per-connection ``request_id``; responses echo it.
Nothing in the framing requires responses to come back in request order
— that is what lets both the worker (thread-pool dispatch) and the
gateway (one asyncio task per request) pipeline concurrent requests on
a single connection.

Payloads are pickled (protocol 5).  That is a *trust* decision, made
explicit here: this protocol is for links you already trust end to end
(localhost worker fleets, a private mesh) — exactly the boundary
``multiprocessing`` draws.  Do not expose a worker or gateway port to
untrusted peers; TLS/auth is a roadmap item.

Estimate bursts ride the same frames, through one batch method.  The
client groups a burst by key (a single-key batch is one group) and sends
``estimate_batch_mixed(pairs=[(key, positions, payload), ...])``; the
gateway splits the groups by owner and sends each worker one
``estimate_batch_mixed`` request holding all of that worker's groups,
renumbered to cover ``0..n-1``, and the worker answers with one float64
array.  Both hops refuse a malformed grouping through one check,
:func:`burst_positions`.  A payload of plain box predicates is a
:class:`~repro.core.predicate.BoxBatch`, which pickles as its two arrays
(float64 ``[dim, low, high]`` rows and per-predicate offsets), so
neither hop pickles predicate objects, and the worker keys its estimate
cache on the same row bytes.  Any other payload is a list of predicate
objects.  Writes, registration, migration and checkpoints carry
predicate objects and backends as they always have.

Snapshot/backend serialisation contract
---------------------------------------
:func:`encode_snapshot`/:func:`decode_snapshot` round-trip a
:class:`~repro.serving.snapshot.ModelSnapshot`:

* estimates are preserved to ≤ 1e-12 (numpy arrays pickle bit-exactly;
  the property tests in ``tests/test_net_protocol.py`` hold every
  backend family to this),
* version / domain / ``trained_on`` / ``created_at`` metadata are
  preserved exactly,
* no data source and no replay history ever crosses the wire: snapshots
  are built from ``frozen_copy()`` models, which detach both (the PR 4
  invariant), and :func:`encode_snapshot` refuses a snapshot whose
  model still drags a live data source.

:func:`encode_backend`/:func:`decode_backend` ship a *trainer* (model
registration and cross-process migration).  Query-driven backends and
QuickSel ship whole — model plus pending feedback, so a migrated
trainer retrains identically on the destination.  Scan backends ship
with the data source detached (the dataset never crosses the wire): the
decoded backend serves its frozen statistics exactly but cannot rescan
until a new data source is attached via
:func:`attach_data_source`.
"""

from __future__ import annotations

import pickle
import socket
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import Any

from repro import exceptions
from repro.estimators.backend import ScanBackend, as_backend
from repro.estimators.base import DataSource, ScanBasedEstimator
from repro.exceptions import NetError, RemoteError
from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "IDEMPOTENT_READS",
    "MAX_FRAME_BYTES",
    "Request",
    "Response",
    "encode_frame",
    "decode_frame",
    "send_message",
    "recv_message",
    "write_message",
    "read_message",
    "encode_snapshot",
    "decode_snapshot",
    "encode_backend",
    "decode_backend",
    "attach_data_source",
    "burst_positions",
    "error_response",
    "raise_remote_error",
]

_LENGTH = struct.Struct("!I")

#: Hard ceiling on one frame's payload (256 MiB).  Far above any real
#: snapshot (frozen models track model size, not feedback history) but
#: small enough that a garbage length prefix fails fast.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Methods safe to replay after a connection failure, on any hop (client
#: to gateway or worker, gateway to worker): each one only reads — state
#: or an immutable snapshot — so a replay cannot apply anything twice.
IDEMPOTENT_READS = frozenset(
    {
        "estimate",
        "estimate_batch_mixed",
        "snapshot_for",
        "feedback_count",
        "model_keys",
        "fleet_stats",
        "stats",
        "worker_names",
        "ping",
    }
)


@dataclass(frozen=True)
class Request:
    """One remote call: ``method`` plus its keyword arguments.

    ``request_id`` is unique per connection (the sender assigns it);
    the response echoes it, which is the whole pipelining mechanism.
    """

    request_id: int
    method: str
    kwargs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Response:
    """The reply to one :class:`Request`.

    ``ok`` responses carry the call's return value in ``value``;
    failures carry the exception's type name and message instead, so
    the caller can re-raise the matching local type (see
    :func:`raise_remote_error`).
    """

    request_id: int
    ok: bool
    value: Any = None
    error_type: str | None = None
    error_message: str | None = None


def burst_positions(
    groups: Sequence[tuple[Any, Sequence[int], Any]],
) -> list[list[int]]:
    """Each ``(key, positions, payload)`` group's positions, as lists.

    A grouped burst of ``n`` predicates must cover ``0..n-1`` exactly
    once, with one position per predicate of its group's payload; any
    other grouping raises :class:`NetError` before anything is
    estimated.
    """
    positions = [list(indices) for _, indices, _ in groups]
    count = sum(map(len, positions))
    if sorted(chain.from_iterable(positions)) != list(range(count)) or any(
        len(indices) != len(payload)
        for indices, (_, _, payload) in zip(positions, groups)
    ):
        raise NetError(
            "a mixed burst needs one (key, positions, payload) group per "
            "key, with positions covering the burst exactly once and one "
            "position per predicate"
        )
    return positions


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(message: object) -> bytes:
    """Serialise one message into a length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise NetError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_frame(payload: bytes) -> object:
    """Deserialise one frame's payload (the bytes after the prefix)."""
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise NetError(f"undecodable frame payload: {error}") from error


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise NetError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling; closing the connection"
        )


def send_message(sock: socket.socket, message: object) -> None:
    """Write one framed message to a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_message(sock: socket.socket) -> object:
    """Read one framed message from a blocking socket.

    Raises :class:`EOFError` on a clean close at a frame boundary (the
    peer hung up between messages) and :class:`NetError` on a close
    mid-frame (the message was truncated).
    """
    header = _recv_exact(sock, _LENGTH.size, mid_frame=False)
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    return decode_frame(_recv_exact(sock, length, mid_frame=True))


def _recv_exact(sock: socket.socket, count: int, mid_frame: bool) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if mid_frame or len(chunks) > 0:
                raise NetError(
                    "connection closed mid-frame "
                    f"({count - remaining} of {count} bytes received)"
                )
            raise EOFError("connection closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


async def write_message(writer, message: object) -> None:
    """Write one framed message to an asyncio stream writer and drain."""
    writer.write(encode_frame(message))
    await writer.drain()


async def read_message(reader) -> object:
    """Read one framed message from an asyncio stream reader.

    Raises :class:`EOFError` on a clean close at a frame boundary and
    :class:`NetError` on truncation, mirroring :func:`recv_message`.
    """
    import asyncio

    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            raise EOFError("connection closed") from error
        raise NetError("connection closed mid-frame") from error
    (length,) = _LENGTH.unpack(header)
    _check_length(length)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise NetError("connection closed mid-frame") from error
    return decode_frame(payload)


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def error_response(request_id: int, error: BaseException) -> Response:
    """Build the failure :class:`Response` for an exception."""
    return Response(
        request_id=request_id,
        ok=False,
        error_type=type(error).__name__,
        error_message=str(error),
    )


def raise_remote_error(response: Response) -> None:
    """Re-raise a failure response as the matching local exception.

    Errors from the repro hierarchy come back as their own types
    (``ServingError`` on the worker is ``ServingError`` here, so
    existing ``except ServingError`` retry paths work unchanged over the
    wire); anything else — a numpy error, a KeyError in user code —
    surfaces as :class:`~repro.exceptions.RemoteError` carrying the
    original type name.
    """
    if response.ok:
        return
    name = response.error_type or "RemoteError"
    message = response.error_message or ""
    local = getattr(exceptions, name, None)
    if isinstance(local, type) and issubclass(local, exceptions.ReproError):
        raise local(message)
    raise RemoteError(f"{name}: {message}")


# ----------------------------------------------------------------------
# Snapshot / backend serialisation
# ----------------------------------------------------------------------
def _pickled(value: object, what: str) -> bytes:
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise NetError(f"cannot serialise {what}: {error}") from error


def encode_snapshot(snapshot: ModelSnapshot) -> bytes:
    """Serialise a :class:`ModelSnapshot` for the wire.

    The round-trip contract (checked by the property tests): estimates
    preserved to ≤ 1e-12, metadata preserved exactly, no data source or
    replay history in the payload.  A snapshot whose model still holds a
    live scan data source (i.e. was not built via ``frozen_copy()``) is
    refused — it would drag the dataset across the wire.
    """
    model = snapshot.model
    if model is not None and isinstance(model, ScanBasedEstimator):
        source = getattr(model, "_data_source", None)
        if source is not None and not _is_detached_source(source):
            raise NetError(
                "refusing to serialise a snapshot whose scan model still "
                "holds a live data source; publish frozen_copy() models"
            )
    return _pickled(snapshot, "model snapshot")


def decode_snapshot(data: bytes) -> ModelSnapshot:
    """Deserialise a snapshot produced by :func:`encode_snapshot`."""
    snapshot = decode_frame(data)
    if not isinstance(snapshot, ModelSnapshot):
        raise NetError(
            f"decoded object is {type(snapshot).__name__}, not a ModelSnapshot"
        )
    return snapshot


def _is_detached_source(source: object) -> bool:
    return getattr(source, "__name__", "") == "_frozen_data_source"


def encode_backend(backend: object) -> bytes:
    """Serialise a trainable backend (registration / migration payload).

    ``backend`` may be anything ``register_model`` accepts; it is
    coerced through :func:`~repro.estimators.backend.as_backend` first
    so the object that crosses the wire is the same wrapper the serving
    layer would own.  Scan backends are serialised with their data
    source swapped for the frozen stub — the dataset stays on the
    sending side; the receiver serves the shipped statistics exactly
    and must :func:`attach_data_source` before any rescan.
    """
    backend = as_backend(backend)
    if isinstance(backend, ScanBackend):
        estimator = backend.estimator
        source = estimator._data_source
        from repro.estimators.base import _frozen_data_source

        estimator._data_source = _frozen_data_source
        try:
            return _pickled(backend, "scan backend")
        finally:
            estimator._data_source = source
    return _pickled(backend, "trainable backend")


def decode_backend(data: bytes) -> object:
    """Deserialise a backend produced by :func:`encode_backend`."""
    backend = decode_frame(data)
    return as_backend(backend)


def attach_data_source(backend: object, data_source: DataSource) -> None:
    """Re-attach a data source to a scan backend that crossed the wire.

    Cross-process hand-off ships scan statistics without their dataset;
    the receiving deployment points the backend at its local copy of the
    data with this before the refit policy's next rescan trigger.
    """
    backend = as_backend(backend)
    if not isinstance(backend, ScanBackend):
        raise NetError(
            f"{type(backend).__name__} has no data source to attach; only "
            "scan backends rescan"
        )
    backend.estimator._data_source = data_source
