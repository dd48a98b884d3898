"""Preallocated scratch memory for the batch estimation kernels.

A :class:`KernelArena` owns a small set of named flat buffers that grow
geometrically and are *reused* across kernel calls: once warm, a batch
estimate performs zero NumPy heap allocations (views into the arena are
Python objects, not data allocations — the bench asserts this through
the NumPy tracemalloc domain).

Arenas are deliberately **not** stored on models.  Served models are
deep-copied into frozen snapshots and shipped over the wire; an embedded
arena would be copied/pickled along with them and shared buffers would
alias across threads.  Instead every thread gets one process-wide arena
via :func:`get_arena`, so concurrent readers never hand each other dirty
scratch and snapshot deep copies stay scratch-free.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["KernelArena", "get_arena"]

_GROWTH = 2.0


class KernelArena:
    """Named, geometrically grown, reusable scratch buffers."""

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, object], np.ndarray] = {}

    def request(
        self, name: str, shape: tuple[int, ...], dtype: object = np.float64
    ) -> np.ndarray:
        """A ``shape``-shaped view over the named buffer, growing it if needed.

        Contents are unspecified (kernels overwrite before reading).  Two
        requests with the same ``name`` alias the same memory — callers
        name every concurrently-live buffer distinctly.
        """
        size = 1
        for extent in shape:
            size *= extent
        key = (name, np.dtype(dtype))
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            grown = max(size, int(_GROWTH * (0 if buffer is None else buffer.size)))
            buffer = np.empty(grown, dtype=dtype)
            self._buffers[key] = buffer
        return buffer[:size].reshape(shape)

    def nbytes(self) -> int:
        """Total bytes currently held across all buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (tests; memory pressure)."""
        self._buffers.clear()


_LOCAL = threading.local()


def get_arena() -> KernelArena:
    """This thread's process-wide scratch arena (created on first use)."""
    arena = getattr(_LOCAL, "arena", None)
    if arena is None:
        arena = KernelArena()
        _LOCAL.arena = arena
    return arena
