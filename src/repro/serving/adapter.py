"""Estimator-protocol adapter over the serving layer.

:class:`ServingEstimator` lets every existing consumer of the
:class:`~repro.estimators.base.SelectivityEstimator` protocol — the
access-path optimizer, the join estimator, the experiment harness — talk
to a selectivity-serving backend without knowing it exists.
``estimate``/``estimate_many`` read through the backend's snapshot +
cache; ``observe`` feeds the backend's learning loop, so the adapter
also satisfies the
:class:`~repro.estimators.base.QueryDrivenEstimator` contract and plugs
straight into :class:`~repro.engine.feedback.FeedbackLoop`.

:class:`SelectivityServing` is the structural interface the adapter (and
the engine wiring) actually requires.  Both the single-process
:class:`~repro.serving.service.SelectivityService` and the sharded
:class:`~repro.cluster.service.ShardedSelectivityService` satisfy it, so
every consumer is backend-agnostic: hand it a plain service on one box
or a shard fleet, the call sites do not change.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.estimators.backend import TrainableBackend
from repro.estimators.base import PredicateLike, QueryDrivenEstimator
from repro.serving.registry import ModelKey
from repro.serving.snapshot import ModelSnapshot

__all__ = ["SelectivityServing", "ServingEstimator"]


@runtime_checkable
class SelectivityServing(Protocol):
    """What a selectivity-serving backend must offer (plain or sharded)."""

    def register_model(
        self, table: "str | ModelKey", trainer: TrainableBackend
    ) -> ModelKey: ...

    def model_keys(self) -> Sequence[ModelKey]: ...

    def snapshot_for(self, table: "str | ModelKey") -> ModelSnapshot: ...

    def feedback_count(self, table: "str | ModelKey") -> int: ...

    def estimate(
        self, table: "str | ModelKey", predicate: PredicateLike
    ) -> float: ...

    def estimate_batch(
        self, table: "str | ModelKey", predicates: Sequence[PredicateLike]
    ) -> np.ndarray: ...

    def estimate_batch_mixed(
        self, pairs: Sequence[tuple["str | ModelKey", PredicateLike]]
    ) -> np.ndarray: ...

    def observe(
        self, table: "str | ModelKey", predicate: PredicateLike,
        selectivity: float,
    ) -> bool: ...


class ServingEstimator(QueryDrivenEstimator):
    """A serving-backend model key seen as a plain estimator."""

    name = "QuickSel@serving"

    def __init__(self, service: SelectivityServing, key: ModelKey) -> None:
        super().__init__(service.snapshot_for(key).domain)
        self._service = service
        self._key = key

    @property
    def service(self) -> SelectivityServing:
        """The backing service (plain or sharded)."""
        return self._service

    @property
    def key(self) -> ModelKey:
        """The model key this adapter serves."""
        return self._key

    @property
    def parameter_count(self) -> int:
        """Parameters of the currently served snapshot (0 at bootstrap)."""
        return self._service.snapshot_for(self._key).parameter_count

    @property
    def version(self) -> int:
        """The snapshot version estimates are currently served from."""
        return self._service.snapshot_for(self._key).version

    def estimate(self, predicate: PredicateLike) -> float:
        return self._service.estimate(self._key, predicate)

    def estimate_many(self, predicates: Sequence[PredicateLike]) -> np.ndarray:
        return self._service.estimate_batch(self._key, predicates)

    def observe(self, predicate: PredicateLike, selectivity: float) -> None:
        self._service.observe(self._key, predicate, selectivity)

    @property
    def observed_count(self) -> int:
        """Feedback count absorbed by the underlying trainer."""
        return self._service.feedback_count(self._key)

    def __repr__(self) -> str:
        return f"ServingEstimator(key={self._key}, version={self.version})"
