"""Deterministic fault injection for the serving fleet's TCP links.

:class:`ChaosProxy` is a threaded TCP forwarder that sits between a
client (gateway link or :class:`~repro.net.client.
RemoteSelectivityService`) and a real listener, and misbehaves on a
seeded schedule:

* ``connect_drop_rate`` — accept an incoming connection and immediately
  close it, so the client sees a reset before the first frame,
* ``delay_range`` — sleep a seeded-uniform amount before forwarding
  each chunk, stretching frame latency toward (and past) timeouts,
* ``sever_rate`` — cut an established connection mid-stream, after a
  chunk has been forwarded, and
* :meth:`sever_all` — drop every live connection at once (the "switch
  reboot" test).

All randomness comes from one :class:`random.Random` seeded in the
constructor, so a failing chaos test replays exactly.  Rates are
runtime-mutable (:meth:`configure`) so a test can run a clean warm-up,
turn faults on, then heal the link — the proxy address never changes,
which is precisely what makes it useful: the fleet under test keeps
dialing the same endpoint while the network under it degrades.

:class:`ChaosSchedule` is the companion kill-timer: a seeded generator
of inter-fault delays for driving worker-kill loops in benchmarks.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from repro.exceptions import NetError
from repro.serving.stats import Counters

__all__ = ["ChaosProxy", "ChaosSchedule"]

_ACCEPT_TIMEOUT = 0.2


class ChaosProxy(Counters):
    """A misbehaving TCP relay in front of a real listener."""

    #: Fault totals since construction.
    COUNTERS = (
        "connections_accepted",
        "connections_dropped",
        "connections_severed",
        "chunks_delayed",
    )

    def __init__(
        self,
        target_host: str,
        target_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
        connect_drop_rate: float = 0.0,
        delay_range: tuple[float, float] = (0.0, 0.0),
        sever_rate: float = 0.0,
        chunk_size: int = 4096,
    ) -> None:
        super().__init__()
        self._target = (target_host, target_port)
        self._rng = random.Random(seed)
        self._configure_locked(connect_drop_rate, delay_range, sever_rate)
        if chunk_size < 1:
            raise NetError("chunk_size must be at least 1")
        self._chunk_size = chunk_size
        self._closing = threading.Event()
        self._conn_lock = threading.Lock()
        self._live: set[socket.socket] = set()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.settimeout(_ACCEPT_TIMEOUT)
        self._listener = listener
        self._address = listener.getsockname()
        self._thread = threading.Thread(
            target=self._accept_loop, name="repro-chaos-proxy", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _configure_locked(
        self,
        connect_drop_rate: float,
        delay_range: tuple[float, float],
        sever_rate: float,
    ) -> None:
        if not (0.0 <= connect_drop_rate <= 1.0):
            raise NetError("connect_drop_rate must be in [0, 1]")
        if not (0.0 <= sever_rate <= 1.0):
            raise NetError("sever_rate must be in [0, 1]")
        low, high = delay_range
        if low < 0 or high < low:
            raise NetError("delay_range must satisfy 0 <= low <= high")
        self._connect_drop_rate = connect_drop_rate
        self._delay_range = (float(low), float(high))
        self._sever_rate = sever_rate

    def configure(
        self,
        connect_drop_rate: float | None = None,
        delay_range: tuple[float, float] | None = None,
        sever_rate: float | None = None,
    ) -> None:
        """Change fault rates at runtime; ``None`` keeps a current value."""
        with self._lock:
            self._configure_locked(
                self._connect_drop_rate
                if connect_drop_rate is None
                else connect_drop_rate,
                self._delay_range if delay_range is None else delay_range,
                self._sever_rate if sever_rate is None else sever_rate,
            )

    def heal(self) -> None:
        """Turn every fault off — the proxy becomes a clean relay."""
        self.configure(0.0, (0.0, 0.0), 0.0)

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` clients should dial instead of the target."""
        return self._address

    # ------------------------------------------------------------------
    # Faults on demand
    # ------------------------------------------------------------------
    def sever_all(self) -> int:
        """Cut every live connection now; returns how many were cut."""
        with self._conn_lock:
            victims = list(self._live)
            self._live.clear()
        for sock in victims:
            self._slam(sock)
        self.add("connections_severed", len(victims))
        return len(victims)

    # ------------------------------------------------------------------
    # Relay machinery
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            self.add("connections_accepted")
            with self._lock:
                drop = self._rng.random() < self._connect_drop_rate
            if drop:
                self.add("connections_dropped")
                self._slam(client)
                continue
            try:
                upstream = socket.create_connection(self._target, timeout=5.0)
            except OSError:
                # Target itself is down: behave like a refused connection.
                self.add("connections_dropped")
                self._slam(client)
                continue
            with self._conn_lock:
                self._live.add(client)
                self._live.add(upstream)
            for source, sink in ((client, upstream), (upstream, client)):
                threading.Thread(
                    target=self._pump,
                    args=(source, sink),
                    name="repro-chaos-pump",
                    daemon=True,
                ).start()

    def _pump(self, source: socket.socket, sink: socket.socket) -> None:
        try:
            while not self._closing.is_set():
                chunk = source.recv(self._chunk_size)
                if not chunk:
                    break
                with self._lock:
                    low, high = self._delay_range
                    delay = (
                        self._rng.uniform(low, high) if high > 0 else 0.0
                    )
                    sever = self._rng.random() < self._sever_rate
                if delay > 0:
                    self.add("chunks_delayed")
                    time.sleep(delay)
                sink.sendall(chunk)
                if sever:
                    self.add("connections_severed")
                    self._slam(source)
                    self._slam(sink)
                    break
        except OSError:
            pass
        finally:
            with self._conn_lock:
                self._live.discard(source)
                self._live.discard(sink)
            self._slam(source)
            self._slam(sink)

    @staticmethod
    def _slam(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Stop accepting, cut live connections, release the port."""
        self._closing.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self.sever_all()
        self._thread.join(5.0)

    def __enter__(self) -> ChaosProxy:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        host, port = self._address
        return (
            f"ChaosProxy({host}:{port} -> "
            f"{self._target[0]}:{self._target[1]}, "
            f"drop={self._connect_drop_rate}, sever={self._sever_rate})"
        )


class ChaosSchedule:
    """Seeded inter-fault delays for kill loops.

    ``next_delay()`` yields uniform draws from ``mean_interval`` widened
    by ``jitter`` (fraction of the mean on each side), so a benchmark's
    kill timing is irregular but exactly reproducible per seed.
    """

    def __init__(
        self,
        seed: int = 0,
        mean_interval: float = 1.0,
        jitter: float = 0.5,
    ) -> None:
        if mean_interval <= 0:
            raise NetError("mean_interval must be positive")
        if not (0.0 <= jitter <= 1.0):
            raise NetError("jitter must be in [0, 1]")
        self._rng = random.Random(seed)
        self._mean = mean_interval
        self._jitter = jitter

    def next_delay(self) -> float:
        """Seconds until the next injected fault."""
        spread = self._mean * self._jitter
        return self._rng.uniform(self._mean - spread, self._mean + spread)

    def __repr__(self) -> str:
        return (
            f"ChaosSchedule(mean={self._mean}, jitter={self._jitter})"
        )
