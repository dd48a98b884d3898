"""Stable hash-ring routing of model keys to shards.

:class:`ShardRouter` decides, for every
:class:`~repro.serving.registry.ModelKey`, which shard serves it.  It is
a classic consistent-hash ring:

* each shard contributes ``replicas`` virtual points, placed by hashing
  ``"{shard_id}\\x1f{replica}"`` with BLAKE2b — a *stable* hash, so the
  same key routes to the same shard across processes, restarts, and
  router instances (Python's built-in ``hash`` is salted per process and
  would scatter the fleet's routing on every restart);
* a key routes to the owner of the first ring point at or clockwise of
  its own hash;
* adding a shard moves onto it only the keys whose arc it takes over,
  and removing a shard re-homes only that shard's keys — the minimal,
  deterministic migration set the cluster's add/remove protocol relies
  on.

Both fleet front ends (the in-process cluster and the process gateway)
split bursts by owner, plan migrations and share one drain budget with
:meth:`ShardRouter.split`, :meth:`ShardRouter.moves` and
:func:`drain_budget`.

The router itself holds no locks; the cluster serialises membership
changes and routing lookups behind its own lock.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import TypeVar

from repro.exceptions import ClusterError, ServingError
from repro.serving.registry import ModelKey

__all__ = ["ShardRouter", "drain_budget"]

Member = TypeVar("Member")

_SEPARATOR = "\x1f"


def _stable_hash(token: str) -> int:
    """A 64-bit process-stable hash of ``token``."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _key_token(key: ModelKey) -> str:
    return _SEPARATOR.join((key.table, *key.columns))


class ShardRouter:
    """Consistent-hash ring mapping model keys to shard ids."""

    def __init__(self, shard_ids: Iterable[str], replicas: int = 64) -> None:
        if replicas < 1:
            raise ClusterError("replicas must be at least 1")
        self._replicas = replicas
        self._shards: set[str] = set()
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard_id in shard_ids:
            self.add(shard_id)
        if not self._shards:
            raise ClusterError("router needs at least one shard")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def shards(self) -> tuple[str, ...]:
        """All shard ids, sorted."""
        return tuple(sorted(self._shards))

    @property
    def replicas(self) -> int:
        """Virtual ring points per shard."""
        return self._replicas

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def add(self, shard_id: str) -> None:
        """Add a shard to the ring (its arcs' keys now route to it)."""
        if not isinstance(shard_id, str) or not shard_id:
            raise ClusterError("shard id must be a non-empty string")
        if shard_id in self._shards:
            raise ClusterError(f"shard {shard_id!r} is already on the ring")
        self._shards.add(shard_id)
        self._rebuild()

    def remove(self, shard_id: str) -> None:
        """Remove a shard (its keys re-home to the next points clockwise)."""
        if shard_id not in self._shards:
            raise ClusterError(f"shard {shard_id!r} is not on the ring")
        if len(self._shards) == 1:
            raise ClusterError("cannot remove the last shard from the ring")
        self._shards.remove(shard_id)
        self._rebuild()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: ModelKey) -> str:
        """The shard id serving ``key`` under the current membership."""
        index = bisect.bisect_left(
            self._points, _stable_hash(_key_token(key))
        ) % len(self._points)
        return self._owners[index]

    def split(self, keys: Iterable[ModelKey]) -> dict[str, list[ModelKey]]:
        """Group keys by owning shard, each group in input order."""
        owned: dict[str, list[ModelKey]] = {}
        for key in keys:
            owned.setdefault(self.route(key), []).append(key)
        return owned

    def moves(
        self, placements: Mapping[ModelKey, str]
    ) -> list[tuple[ModelKey, str, str]]:
        """``(key, old owner, new owner)``, sorted by key, for every key
        whose route no longer matches its pre-change ``placements``."""
        return [
            (key, owner, target)
            for key, owner in sorted(placements.items())
            if (target := self.route(key)) != owner
        ]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        # Sorting (point, owner) pairs makes even the astronomically
        # unlikely 64-bit point collision resolve deterministically
        # (lowest shard id wins the point).
        pairs = sorted(
            (_stable_hash(f"{shard_id}{_SEPARATOR}{replica}"), shard_id)
            for shard_id in self._shards
            for replica in range(self._replicas)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]

    def __repr__(self) -> str:
        return (
            f"ShardRouter(shards={len(self._shards)}, "
            f"replicas={self._replicas})"
        )


def drain_budget(
    members: Sequence[Member], timeout: float | None, noun: str
) -> Iterator[tuple[Member, float | None]]:
    """Yield each member with what is left of a *total* ``timeout``.

    ``None`` means unbounded for everyone.  When the budget runs out
    before a member's turn, raises :class:`ServingError` naming how many
    members (called ``noun`` in the message) were still undrained.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    for position, member in enumerate(members):
        remaining = None if deadline is None else deadline - time.monotonic()
        if remaining is not None and remaining <= 0:
            raise ServingError(
                f"drain budget of {timeout}s exhausted with "
                f"{len(members) - position} {noun}(s) undrained"
            )
        yield member, remaining
