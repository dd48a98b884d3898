"""The registry of served models: versioned snapshots with atomic hot-swap.

:class:`EstimatorRegistry` maps a :class:`ModelKey` — the ``(table,
columns)`` pair a model covers — to its *current*
:class:`~repro.serving.snapshot.ModelSnapshot`.  Publication replaces the
snapshot in one assignment under a lock, so readers either see the old
version or the new one, never a half-trained model; versions increase by
exactly one per publish.  Listeners (the service's result cache, metrics)
are notified after every swap.

The registry holds *only* immutable snapshots.  The mutable trainer (a
:class:`~repro.estimators.backend.TrainableBackend` accumulating
feedback — QuickSel or any adapted baseline estimator) lives in the
service layer; training happens off to the side and its finished model is
published here.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.geometry import Hyperrectangle
from repro.estimators.backend import ServableModel
from repro.exceptions import ServingError
from repro.serving.snapshot import ModelSnapshot

__all__ = [
    "ModelKey",
    "EstimatorRegistry",
    "SnapshotCell",
    "group_by_key",
    "normalize_key",
]

PublishListener = Callable[["ModelKey", ModelSnapshot], None]


class SnapshotCell:
    """One key's mutable slot holding its current immutable snapshot.

    The cell object is *stable* across publishes: the registry swaps
    ``cell.snapshot`` (a single reference assignment, atomic under the
    GIL) while the cell itself stays put.  Fast-path readers resolve the
    cell once per key (see
    :meth:`repro.serving.service.SelectivityService.fast_slot`) and then
    read ``cell.snapshot`` per request with no lock and no dict hop —
    they still observe every publish the instant it lands.  A withdrawn
    key's cell has ``snapshot`` set to ``None``, which readers treat as
    "unregistered".
    """

    __slots__ = ("snapshot",)

    def __init__(self, snapshot: ModelSnapshot | None) -> None:
        self.snapshot = snapshot


@dataclass(frozen=True, order=True)
class ModelKey:
    """Identity of one served model: a table and the columns it covers.

    An empty ``columns`` tuple means "all columns of the table" (the
    common whole-table model).
    """

    table: str
    columns: tuple[str, ...] = field(default=())

    def __str__(self) -> str:
        if not self.columns:
            return self.table
        return f"{self.table}({', '.join(self.columns)})"


def normalize_key(table: "str | ModelKey") -> ModelKey:
    """The :class:`ModelKey` that ``table`` names.

    A table name becomes ``ModelKey(table)``, the whole-table model; a
    :class:`ModelKey` passes through, so a column-scoped model is named
    ``ModelKey(table, columns)``.  Every front end builds its keys here,
    so a key means the same model everywhere.  Keys also arrive off the
    wire, so anything else — a name that is not a string, a key whose
    table is not a string or whose columns are not a tuple of strings —
    raises :class:`ServingError` before it can reach a registry.
    """
    if isinstance(table, str):
        return ModelKey(table)
    if (
        isinstance(table, ModelKey)
        and isinstance(table.table, str)
        and isinstance(table.columns, tuple)
        and all(isinstance(column, str) for column in table.columns)
    ):
        return table
    raise ServingError(
        f"a model key is a table name or a ModelKey of strings, not {table!r}"
    )


def group_by_key(
    pairs: Iterable[tuple["str | ModelKey", object]],
) -> dict[ModelKey, tuple[list[int], list[object]]]:
    """Group a mixed-key burst by key, keeping each pair's input position.

    Returns ``{key: (indices, predicates)}`` in first-seen key order.
    Every ``estimate_batch_mixed`` evaluates each group as one single-key
    batch and writes it back with ``results[indices] = values``, so
    results come out in input order.  The in-process service and the
    sharded cluster group here themselves; a remote burst is grouped
    once, by the client
    (:meth:`~repro.net.client.RemoteSelectivityService.estimate_batch_mixed`),
    which ships each group as ``(key, indices, payload)`` for the gateway
    to forward without regrouping.
    """
    groups: dict[ModelKey, tuple[list[int], list[object]]] = {}
    for index, (table, predicate) in enumerate(pairs):
        indices, predicates = groups.setdefault(normalize_key(table), ([], []))
        indices.append(index)
        predicates.append(predicate)
    return groups


class EstimatorRegistry:
    """Thread-safe mapping from model keys to immutable model snapshots."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._cells: dict[ModelKey, SnapshotCell] = {}
        self._listeners: list[PublishListener] = []

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, key: ModelKey, domain: Hyperrectangle) -> ModelSnapshot:
        """Install the bootstrap (version 0, uniform) snapshot for ``key``.

        Idempotent: re-registering an existing key returns its current
        snapshot unchanged, so registration never rolls a model back.
        """
        with self._lock:
            cell = self._cells.get(key)
            if cell is not None and cell.snapshot is not None:
                existing = cell.snapshot
                if existing.domain is not domain and existing.domain != domain:
                    raise ServingError(
                        f"model key {key} is already registered with a "
                        "different domain"
                    )
                return existing
            snapshot = ModelSnapshot(version=0, domain=domain, model=None)
            self._cells[key] = SnapshotCell(snapshot)
            return snapshot

    def cell(self, key: ModelKey) -> SnapshotCell:
        """The stable snapshot cell for ``key`` (raises if unknown).

        Fast-path readers resolve this once and then read
        ``cell.snapshot`` lock-free per request; ``None`` there means the
        key has since been withdrawn.
        """
        with self._lock:
            try:
                return self._cells[key]
            except KeyError as error:
                raise ServingError(
                    f"no model registered for key {key}; "
                    f"known keys: {sorted(map(str, self._cells))}"
                ) from error

    def current(self, key: ModelKey) -> ModelSnapshot:
        """The snapshot currently serving ``key`` (raises if unknown)."""
        with self._lock:
            cell = self._cells.get(key)
            if cell is None or cell.snapshot is None:
                raise ServingError(
                    f"no model registered for key {key}; "
                    f"known keys: {sorted(map(str, self._cells))}"
                )
            return cell.snapshot

    def version(self, key: ModelKey) -> int:
        """Current version number for ``key``."""
        return self.current(key).version

    def keys(self) -> Sequence[ModelKey]:
        """All registered model keys."""
        with self._lock:
            return tuple(self._cells)

    def __contains__(self, key: ModelKey) -> bool:
        with self._lock:
            return key in self._cells

    def remove(self, key: ModelKey) -> ModelSnapshot:
        """Withdraw a key from the registry, returning its final snapshot.

        Used when a model's ownership moves elsewhere (shard migration);
        raises :class:`ServingError` for unknown keys.  No listener
        fires: removal is a hand-off, not a new version.
        """
        with self._lock:
            try:
                cell = self._cells.pop(key)
            except KeyError as error:
                raise ServingError(
                    f"cannot remove unregistered key {key}"
                ) from error
            snapshot = cell.snapshot
            # Outstanding fast slots still hold this cell; None tells
            # them the key is gone so they re-raise instead of serving
            # a withdrawn model.
            cell.snapshot = None
            return snapshot

    # ------------------------------------------------------------------
    # Publication (the hot-swap)
    # ------------------------------------------------------------------
    def publish(
        self,
        key: ModelKey,
        model: ServableModel,
        trained_on: int,
    ) -> ModelSnapshot:
        """Atomically swap in a freshly trained model as the next version.

        The new snapshot's version is exactly ``current + 1``; the swap is
        a single dict assignment under the registry lock, so concurrent
        readers always observe a complete snapshot.  Publish listeners run
        after the swap (outside the critical work of the swap itself) and
        receive the new snapshot.
        """
        if model is None:
            raise ServingError("cannot publish an empty model")
        with self._lock:
            cell = self._cells.get(key)
            current = cell.snapshot if cell is not None else None
            if current is None:
                raise ServingError(
                    f"cannot publish to unregistered key {key}; "
                    "call register() first"
                )
            snapshot = ModelSnapshot(
                version=current.version + 1,
                domain=current.domain,
                model=model,
                trained_on=trained_on,
            )
            cell.snapshot = snapshot
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(key, snapshot)
        return snapshot

    def add_listener(self, listener: PublishListener) -> None:
        """Invoke ``listener(key, snapshot)`` after every publish."""
        with self._lock:
            self._listeners.append(listener)

    def __repr__(self) -> str:
        with self._lock:
            parts = ", ".join(
                f"{key}=v{cell.snapshot.version}"
                for key, cell in self._cells.items()
                if cell.snapshot is not None
            )
        return f"EstimatorRegistry({parts})"
