"""The out-of-process shard: a ShardWorker behind a threaded TCP server.

:class:`WorkerServer` owns one :class:`~repro.cluster.shard.ShardWorker`
— a complete serving stack (registry, cache, scheduler, stats, write
buffer) — and services the wire protocol over blocking sockets.  Each
accepted connection gets a reader thread; decoded requests are handed to
a small dispatch pool and responses are written back under a
per-connection lock, so responses may return out of request order — the
``request_id`` echo is what lets the gateway pipeline many concurrent
requests down one connection.  ``estimate_batch_mixed`` is the one
batch method: a gateway sends a worker one such request per burst,
holding every ``(key, positions, payload)`` group the worker owns; each
group runs through :meth:`~repro.cluster.shard.ShardWorker.estimate_batch`
and the reply is one float64 array.  A client dialled straight at a
worker sends the same request, a single-key batch as one group.

:class:`WorkerProcess` launches a server in a child interpreter (spawn
context, so no forked locks or schedulers are inherited) and reports the
bound address back through a pipe.  This is the piece that actually
bypasses the GIL: each worker process serves its keys under its own
interpreter, and fleet throughput is the sum.

Migration across the process boundary moves the same
:class:`~repro.cluster.shard.KeyState` the in-process cluster moves, with
the backends encoded for the wire: ``migrate_out`` withdraws the key
(:meth:`~repro.cluster.shard.ShardWorker.export_state`) and returns the
state; ``migrate_in`` installs it
(:meth:`~repro.cluster.shard.ShardWorker.install_state`) — a migration
moves a model, it does not retrain.  Checkpoints write the same value to
disk without withdrawing the key.
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from repro.exceptions import NetError, ServingError, WorkerUnavailableError
from repro.serving.policy import RefitPolicy
from repro.serving.registry import ModelKey, normalize_key
from repro.cluster.shard import KeyState, ShardWorker
from repro.net.checkpoint import CheckpointStore
from repro.net.protocol import (
    Request,
    Response,
    burst_positions,
    decode_backend,
    encode_backend,
    encode_snapshot,
    error_response,
    recv_message,
    send_message,
)

__all__ = ["WorkerServer", "WorkerProcess", "run_worker"]

#: Threads in a worker's request-dispatch pool.
DISPATCH_THREADS = 8


class WorkerServer:
    """Serve one ShardWorker's full surface over the wire protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_id: str = "worker",
        policy: RefitPolicy | None = None,
        cache_capacity: int = 4096,
        scheduler_mode: str = "background",
        checkpoint_dir: str | None = None,
        checkpoint_every: int = 64,
    ) -> None:
        """``checkpoint_dir``, when set, makes the worker durable: every
        key is checkpointed after ``checkpoint_every`` writes, keeping
        the store's default number of versions — and any checkpoints
        already in the directory are restored before the listener
        accepts traffic, so a respawned worker boots serving what it
        last saved.  Writes since a key's last checkpoint are the
        gateway journal's to re-deliver after a crash."""
        if checkpoint_every < 1:
            raise NetError("checkpoint_every must be at least 1")
        self._worker = ShardWorker(
            shard_id,
            policy=policy,
            cache_capacity=cache_capacity,
            scheduler_mode=scheduler_mode,
        )
        self._checkpoints: CheckpointStore | None = None
        self._checkpoint_every = checkpoint_every
        self._ckpt_lock = threading.Lock()
        self._writes_since: dict[ModelKey, int] = {}
        if checkpoint_dir is not None:
            self._checkpoints = CheckpointStore(checkpoint_dir)
            self._restore_from_checkpoints()
        self._listener = socket.create_server((host, port))
        self._host, self._port = self._listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=DISPATCH_THREADS,
            thread_name_prefix=f"repro-net-{shard_id}",
        )
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound interface."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (resolved when constructed with port 0)."""
        return self._port

    @property
    def shard_id(self) -> str:
        """This worker's stable identity on the gateway's ring."""
        return self._worker.shard_id

    @property
    def worker(self) -> ShardWorker:
        """The hosted shard (in-thread tests, metrics, debugging)."""
        return self._worker

    @property
    def checkpoints(self) -> CheckpointStore | None:
        """The checkpoint store, when durability is configured."""
        return self._checkpoints

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def _restore_from_checkpoints(self) -> int:
        """Reinstall every checkpointed key at boot; returns the count."""
        assert self._checkpoints is not None
        restored = 0
        existing = set(self._worker.model_keys())
        for state in self._checkpoints.latest_bundles():
            if state["key"] in existing:
                continue
            self._worker.install_state(state, decode=decode_backend)
            self._worker.stats.add("checkpoint_restores")
            restored += 1
        return restored

    def checkpoint_key(self, key: ModelKey) -> bool:
        """Checkpoint one key now (no-op without a store or the key).

        The state export flushes the key's buffered feedback and
        encodes each trainer under its lock, so concurrent observes on
        the same key block briefly — the price of a consistent state.
        """
        if self._checkpoints is None:
            return False
        try:
            state = self._worker.export_state(
                key, withdraw=False, encode=encode_backend
            )
        except ServingError:
            return False  # the key was withdrawn mid-flight
        self._checkpoints.save(state)
        with self._ckpt_lock:
            self._writes_since[key] = 0
        self._worker.stats.add("checkpoints_taken")
        return True

    def checkpoint_all(self, dirty_only: bool = False) -> int:
        """Checkpoint every key (or only written-since-last ones)."""
        if self._checkpoints is None:
            return 0
        written = 0
        for key in self._worker.model_keys():
            if dirty_only:
                with self._ckpt_lock:
                    if not self._writes_since.get(key):
                        continue
            if self.checkpoint_key(key):
                written += 1
        return written

    def _note_write(self, key: ModelKey) -> None:
        """Count one write toward the key's checkpoint policy."""
        if self._checkpoints is None:
            return
        with self._ckpt_lock:
            count = self._writes_since.get(key, 0) + 1
            self._writes_since[key] = count
        if count >= self._checkpoint_every:
            self.checkpoint_key(key)

    def _discard_checkpoints(self, key: ModelKey) -> None:
        """Forget a key's durable state once it leaves this worker."""
        if self._checkpoints is None:
            return
        self._checkpoints.discard(key)
        with self._ckpt_lock:
            self._writes_since.pop(key, None)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin accepting connections on a daemon thread."""
        if self._accept_thread is not None:
            raise NetError("worker server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-net-accept-{self.shard_id}",
            daemon=True,
        )
        self._accept_thread.start()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`close` completes (or ``timeout`` elapses)."""
        return self._stopped.wait(timeout)

    def close(self) -> None:
        """Stop accepting, sever connections, shut the shard down."""
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        # shutdown() before close(): a thread blocked in accept() holds
        # the listening socket's file description open, so close() alone
        # would leave the port in LISTEN state until a connection
        # arrived.  shutdown() wakes the accept immediately.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            conns = tuple(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._pool.shutdown(wait=True)
        if self._checkpoints is not None:
            # Best-effort durability on the way down: a graceful stop
            # loses nothing, so only crashes lean on the write journal.
            try:
                self.checkpoint_all(dirty_only=True)
            except Exception:
                pass
        self._worker.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        self._stopped.set()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _address = self._listener.accept()
            except OSError:
                return  # listener closed by close()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._conn_lock:
                if self._stopping.is_set():
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(
                target=self._reader_loop,
                args=(conn,),
                name=f"repro-net-conn-{self.shard_id}",
                daemon=True,
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        write_lock = threading.Lock()
        try:
            while not self._stopping.is_set():
                try:
                    message = recv_message(conn)
                except (EOFError, NetError, OSError):
                    return
                if not isinstance(message, Request):
                    return  # protocol violation; drop the connection
                try:
                    self._pool.submit(
                        self._handle, conn, write_lock, message
                    )
                except RuntimeError:
                    return  # pool shut down mid-accept
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _handle(
        self,
        conn: socket.socket,
        write_lock: threading.Lock,
        request: Request,
    ) -> None:
        try:
            value = self._dispatch(request.method, request.kwargs)
            response = Response(request.request_id, ok=True, value=value)
        except Exception as error:
            response = error_response(request.request_id, error)
        with write_lock:
            try:
                send_message(conn, response)
            except (OSError, NetError):
                return  # peer went away; nothing to deliver the reply to
        if request.method == "shutdown" and response.ok:
            # close() joins the dispatch pool, so it must not run on a
            # pool thread; the response is already flushed above.
            threading.Thread(target=self.close, daemon=True).start()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str, kwargs: dict[str, Any]) -> Any:
        handler = getattr(self, f"_do_{method}", None)
        if handler is None:
            raise NetError(f"unknown wire method {method!r}")
        return handler(**kwargs)

    def _do_ping(self, delay: float = 0.0) -> str:
        if delay:
            time.sleep(delay)
        return "pong"

    def _do_register_model(
        self, table: str | ModelKey, backend: bytes
    ) -> ModelKey:
        key = self._worker.register_model(table, decode_backend(backend))
        if self._checkpoints is not None:
            self.checkpoint_key(key)  # durable baseline from the start
        return key

    def _do_unregister_model(self, table: str | ModelKey) -> bytes:
        key = normalize_key(table)
        payload = encode_backend(self._worker.unregister_model(key))
        self._discard_checkpoints(key)
        return payload

    def _do_model_keys(self) -> tuple[ModelKey, ...]:
        return tuple(self._worker.model_keys())

    def _do_snapshot_for(self, table: str | ModelKey) -> bytes:
        return encode_snapshot(self._worker.snapshot_for(normalize_key(table)))

    def _do_feedback_count(self, table: str | ModelKey) -> int:
        return self._worker.feedback_count(normalize_key(table))

    def _do_estimate(self, table: str | ModelKey, predicate: object) -> float:
        return self._worker.estimate(normalize_key(table), predicate)

    def _do_estimate_batch_mixed(
        self, pairs: Sequence[tuple[ModelKey, Sequence[int], object]]
    ) -> np.ndarray:
        groups = list(pairs)
        positions = burst_positions(groups)
        results = np.empty(sum(map(len, positions)))
        for (table, _, payload), indices in zip(groups, positions):
            results[indices] = self._worker.estimate_batch(
                normalize_key(table), payload
            )
        return results

    def _do_observe(
        self, table: str | ModelKey, predicate: object, selectivity: float
    ) -> bool:
        key = normalize_key(table)
        # The return value reports whether a refit was triggered; the
        # observation itself is buffered either way, so it always counts
        # toward the checkpoint policy.
        refit_triggered = self._worker.observe(key, predicate, selectivity)
        self._note_write(key)
        return refit_triggered

    def _do_refit_now(self, table: str | ModelKey) -> bytes:
        return encode_snapshot(self._worker.refit_now(normalize_key(table)))

    def _do_flush(self, blocking: bool = True) -> int:
        return self._worker.flush(blocking=blocking)

    def _do_drain(self, timeout: float | None = None) -> None:
        self._worker.drain(timeout)

    def _do_stats(self) -> dict[str, Any]:
        return self._worker.stats_view()

    def _do_migrate_out(self, table: str | ModelKey) -> KeyState:
        key = normalize_key(table)
        state = self._worker.export_state(
            key, withdraw=True, encode=encode_backend
        )
        self._discard_checkpoints(key)
        return state

    def _do_migrate_in(self, bundle: KeyState) -> ModelKey:
        key = self._worker.install_state(bundle, decode=decode_backend)
        if self._checkpoints is not None:
            self.checkpoint_key(key)
        return key

    def _do_checkpoint(self, table: str | ModelKey | None = None) -> int:
        """Force a checkpoint of one key (or all) now; returns the count."""
        if self._checkpoints is None:
            return 0
        if table is not None:
            return int(self.checkpoint_key(normalize_key(table)))
        return self.checkpoint_all()

    def _do_shutdown(self) -> str:
        return "stopping"  # _handle closes the server after the reply

    def __repr__(self) -> str:
        return (
            f"WorkerServer(shard_id={self.shard_id!r}, "
            f"address=({self._host!r}, {self._port}), "
            f"closed={self._closed})"
        )


def run_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    shard_id: str = "worker",
    ready: Any | None = None,
    run_seconds: float | None = None,
    **config: Any,
) -> None:
    """Run a worker server until shutdown (child-process / CLI entry point).

    ``ready`` (a pipe connection), if given, receives the bound
    ``(host, port)`` once the server accepts traffic.  ``run_seconds``
    bounds the lifetime for tests and smoke runs; by default the call
    blocks until a ``shutdown`` request (or :meth:`WorkerServer.close`)
    stops the server.
    """
    server = WorkerServer(host=host, port=port, shard_id=shard_id, **config)
    server.start()
    if ready is not None:
        ready.send((server.host, server.port))
        ready.close()
    try:
        server.wait(run_seconds)
    finally:
        server.close()


class WorkerProcess:
    """A worker server in a child interpreter (the GIL boundary).

    Uses the spawn start method: the child imports fresh, so no forked
    trainer locks, scheduler threads, or socket state come along.  The
    constructor blocks until the child reports its bound address.
    """

    def __init__(
        self,
        shard_id: str = "worker",
        host: str = "127.0.0.1",
        start_timeout: float = 60.0,
        **config: Any,
    ) -> None:
        context = multiprocessing.get_context("spawn")
        parent, child = context.Pipe()
        self._shard_id = shard_id
        self._process = context.Process(
            target=run_worker,
            kwargs={
                "host": host,
                "port": 0,
                "shard_id": shard_id,
                "ready": child,
                **config,
            },
            name=f"repro-net-worker-{shard_id}",
            daemon=True,
        )
        self._process.start()
        child.close()
        try:
            if not parent.poll(start_timeout):
                raise WorkerUnavailableError(
                    f"worker {shard_id!r} did not report an address within "
                    f"{start_timeout}s"
                )
            self._host, self._port = parent.recv()
        except (EOFError, OSError) as error:
            self.terminate()
            raise WorkerUnavailableError(
                f"worker {shard_id!r} died before reporting an address"
            ) from error
        except WorkerUnavailableError:
            self.terminate()
            raise
        finally:
            parent.close()

    @property
    def shard_id(self) -> str:
        """This worker's identity on the ring."""
        return self._shard_id

    @property
    def address(self) -> tuple[str, int]:
        """Where the child's server is listening."""
        return self._host, self._port

    @property
    def pid(self) -> int | None:
        """The child's process id."""
        return self._process.pid

    @property
    def alive(self) -> bool:
        """True while the child process is running."""
        return self._process.is_alive()

    def request_shutdown(self, timeout: float = 30.0) -> None:
        """Graceful stop: drain buffered feedback and refits, then exit.

        Speaks the protocol directly over a short-lived connection so the
        helper works without a gateway in the picture.
        """
        try:
            with socket.create_connection(
                (self._host, self._port), timeout=timeout
            ) as sock:
                sock.settimeout(timeout)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for request_id, method, kwargs in (
                    (0, "drain", {"timeout": timeout}),
                    (1, "shutdown", {}),
                ):
                    send_message(sock, Request(request_id, method, kwargs))
                    recv_message(sock)
        except (OSError, EOFError, NetError) as error:
            raise WorkerUnavailableError(
                f"worker {self._shard_id!r} unreachable for shutdown: {error}"
            ) from error
        self._process.join(timeout=timeout)

    @property
    def exitcode(self) -> int | None:
        """The child's exit code (None while it is still running)."""
        return self._process.exitcode

    def kill(self) -> int | None:
        """Hard-kill the child (fault injection); returns the exit code."""
        self._process.kill()
        self._process.join(timeout=10.0)
        return self._process.exitcode

    def terminate(self, timeout: float = 5.0) -> int | None:
        """SIGTERM the child and reap it, escalating to SIGKILL.

        A child that ignores SIGTERM for ``timeout`` seconds (wedged in
        native code, stopped, or shutting down forever) is killed
        outright — a dead-but-unreaped worker must not linger as a
        zombie or hold its port.  Returns the reaped exit code.
        """
        self._process.terminate()
        self._process.join(timeout=timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=10.0)
        return self._process.exitcode

    def join(self, timeout: float | None = None) -> None:
        """Wait for the child to exit."""
        self._process.join(timeout)

    def __repr__(self) -> str:
        return (
            f"WorkerProcess(shard_id={self._shard_id!r}, "
            f"address=({self._host!r}, {self._port}), alive={self.alive})"
        )
