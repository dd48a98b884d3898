"""Durable per-key model checkpoints: versioned, atomic, pruned.

The fleet's trained state — models improved by thousands of feedback
observations — lives in worker-process memory, so a SIGKILL used to
lose every model on the shard.  This module makes that state durable.

A checkpoint bundle is the key's :class:`~repro.cluster.shard.KeyState`,
the same value a migration moves, taken without withdrawing the key
(``ShardWorker.export_state(key, withdraw=False, encode=encode_backend)``)
and reinstalled at boot with ``install_state`` — the exact model bytes
are republished, so restored estimates match the checkpoint to ≤ 1e-12
(the same parity contract migration has).

:class:`CheckpointStore` persists bundles with write-then-rename
atomicity (a crash mid-write can never corrupt the latest good
version), monotonically increasing version numbers, and prune-to-K
retention.  Unreadable files (truncated by a crash, or written by an
incompatible build) are skipped in favour of the next older version.

Feedback that arrived after the last checkpoint is *not* on disk; the
gateway's write journal (see
:meth:`~repro.net.gateway.SelectivityGateway.resync_worker`) re-delivers
it after a restore, which is how the fleet loses no acknowledged
feedback across a kill.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from repro.exceptions import NetError
from repro.serving.registry import ModelKey

__all__ = ["CheckpointStore"]

_FILE_PREFIX = "ckpt-"
_FILE_SUFFIX = ".pkl"


def _key_slug(key: ModelKey) -> str:
    """A filesystem-safe, collision-resistant directory name for a key."""
    identity = repr((key.table, key.columns)).encode("utf-8")
    digest = hashlib.blake2b(identity, digest_size=8).hexdigest()
    readable = "".join(
        ch if ch.isalnum() or ch in "-_" else "_" for ch in key.table
    )[:48]
    return f"{readable}-{digest}" if readable else digest


class CheckpointStore:
    """Versioned on-disk checkpoint bundles under one root directory.

    Layout: ``root/<key-slug>/ckpt-00000001.pkl`` …, one directory per
    model key, version numbers strictly increasing per key.  Every save
    writes to a temp file, fsyncs, then :func:`os.replace`\\ s into place
    and fsyncs the directory — readers (including a worker booting after
    a crash mid-save) only ever see complete files.  After each save the
    key is pruned to its newest ``keep`` versions.

    Trust boundary: bundles are pickles, same as the wire protocol —
    the checkpoint directory must be as trusted as the worker itself.
    """

    def __init__(self, root: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise NetError("keep must be at least 1")
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._keep = keep
        self._lock = threading.Lock()

    @property
    def root(self) -> Path:
        """The directory all checkpoints live under."""
        return self._root

    @property
    def keep(self) -> int:
        """How many versions each key retains after a save."""
        return self._keep

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(self, bundle: dict[str, Any]) -> Path:
        """Persist one bundle atomically; returns the final path."""
        key = bundle.get("key")
        if not isinstance(key, ModelKey):
            raise NetError("a checkpoint bundle must carry its ModelKey")
        payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            directory = self._root / _key_slug(key)
            directory.mkdir(parents=True, exist_ok=True)
            version = self._versions_in(directory)[-1:]
            next_version = (version[0] if version else 0) + 1
            final = directory / (
                f"{_FILE_PREFIX}{next_version:08d}{_FILE_SUFFIX}"
            )
            temp = directory / f".tmp-{next_version:08d}"
            with open(temp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, final)
            self._fsync_dir(directory)
            self._prune_locked(directory)
            return final

    def discard(self, key: ModelKey) -> int:
        """Drop every version of a key (it migrated away / unregistered).

        Returns how many checkpoint files were removed.  Without this, a
        respawn would resurrect keys the ring no longer routes here.
        """
        with self._lock:
            directory = self._root / _key_slug(key)
            if not directory.is_dir():
                return 0
            removed = 0
            for path in directory.iterdir():
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
            try:
                directory.rmdir()
            except OSError:
                pass
            return removed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def versions(self, key: ModelKey) -> tuple[int, ...]:
        """The retained version numbers for a key, oldest first."""
        with self._lock:
            return tuple(self._versions_in(self._root / _key_slug(key)))

    def latest(self, key: ModelKey) -> dict[str, Any] | None:
        """The newest readable bundle for a key (None when there is none).

        Falls back to older versions when the newest file is unreadable
        — a crash can race the save, but never costs more than the
        not-yet-durable version.
        """
        directory = self._root / _key_slug(key)
        with self._lock:
            versions = self._versions_in(directory)
        for version in reversed(versions):
            bundle = self._load(
                directory / f"{_FILE_PREFIX}{version:08d}{_FILE_SUFFIX}"
            )
            if bundle is not None:
                return bundle
        return None

    def latest_bundles(self) -> Iterator[dict[str, Any]]:
        """Yield each checkpointed key's newest readable bundle.

        This is the boot-time restore surface: iterate, reinstall each
        bundle via :meth:`~repro.cluster.shard.ShardWorker.install_state`,
        and the worker serves exactly what it last checkpointed.
        """
        with self._lock:
            directories = sorted(
                path for path in self._root.iterdir() if path.is_dir()
            )
        for directory in directories:
            with self._lock:
                versions = self._versions_in(directory)
            for version in reversed(versions):
                bundle = self._load(
                    directory / f"{_FILE_PREFIX}{version:08d}{_FILE_SUFFIX}"
                )
                if bundle is not None:
                    yield bundle
                    break

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _versions_in(directory: Path) -> list[int]:
        if not directory.is_dir():
            return []
        versions: list[int] = []
        for path in directory.iterdir():
            name = path.name
            if not (
                name.startswith(_FILE_PREFIX) and name.endswith(_FILE_SUFFIX)
            ):
                continue
            stem = name[len(_FILE_PREFIX):-len(_FILE_SUFFIX)]
            try:
                versions.append(int(stem))
            except ValueError:
                continue
        versions.sort()
        return versions

    @staticmethod
    def _load(path: Path) -> dict[str, Any] | None:
        try:
            with open(path, "rb") as handle:
                bundle = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            return None
        if not isinstance(bundle, dict) or "key" not in bundle:
            return None
        return bundle

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _prune_locked(self, directory: Path) -> None:
        versions = self._versions_in(directory)
        for version in versions[:-self._keep]:
            try:
                (
                    directory / f"{_FILE_PREFIX}{version:08d}{_FILE_SUFFIX}"
                ).unlink()
            except OSError:
                continue

    def __repr__(self) -> str:
        return f"CheckpointStore(root={str(self._root)!r}, keep={self._keep})"
