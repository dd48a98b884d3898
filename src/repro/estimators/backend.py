"""The serving stack's trainer protocol: any estimator behind a snapshot.

PR 1–3 hard-wired the serving and cluster layers to
:class:`~repro.core.quicksel.QuickSel`: the registry published
:class:`~repro.core.mixture.UniformMixtureModel`\\ s, the service owned a
``QuickSel`` trainer per key, and shard migration handed ``QuickSel``
objects around.  This module is the seam that removes that coupling:

* :class:`ServableModel` is the *read* surface a published snapshot
  needs — ``estimate_many`` (batch, elementwise equal to the scalar
  estimate) and ``parameter_count``.  Models that additionally expose
  ``estimate_from_bounds`` (raw piece-bounds batching, see
  :meth:`repro.core.mixture.UniformMixtureModel.estimate_from_bounds`)
  get the serving layer's vectorised fast path; everything else is
  served through ``estimate_many`` (which may itself be a scalar loop —
  the loop fallback).
* :class:`TrainableBackend` is the *write* surface the service owns —
  ``observe_many`` feedback in, ``refit`` to absorb it, and
  ``snapshot_model`` to produce the immutable model the registry
  publishes.  :class:`~repro.core.quicksel.QuickSel` satisfies it
  natively (its mixture model is already an immutable value object).
* :class:`QueryDrivenBackend` and :class:`ScanBackend` adapt the two
  baseline estimator families of the paper's evaluation
  (:class:`~repro.estimators.base.QueryDrivenEstimator` /
  :class:`~repro.estimators.base.ScanBasedEstimator`) to the protocol,
  so ST-Holes, ISOMER, the query-model, AutoHist, AutoSample, and KDE
  can all be registered, served and migrated between shards behind the
  same snapshot/version discipline as QuickSel.

The mutable-trainer / immutable-snapshot split the serving layer relies
on is preserved by construction: adapters hand out a *frozen deep copy*
of the wrapped estimator at publish time, so a background refit can keep
mutating the live estimator while readers evaluate the copy.  The frozen
copy is cached until the next state change, which keeps repeated
``snapshot_model()`` calls (and the exact-snapshot hand-off contract of
shard migration) pointing at one identical object.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.estimators.base import (
    PredicateLike,
    QueryDrivenEstimator,
    ScanBasedEstimator,
)
from repro.exceptions import EstimatorError

__all__ = [
    "ServableModel",
    "TrainableBackend",
    "QueryDrivenBackend",
    "ScanBackend",
    "as_backend",
]

Feedback = Sequence[tuple[PredicateLike, float]]


@runtime_checkable
class ServableModel(Protocol):
    """What a published snapshot must be able to do: batched reads.

    ``estimate_many`` must be elementwise equal to the backend's scalar
    estimate on the same state.  Implementations may additionally expose
    ``estimate_from_bounds(piece_lower, piece_upper, owners, count)``
    (not part of the protocol so plain estimators qualify); the snapshot
    layer detects it and routes batches through one raw-bounds kernel
    call instead of per-predicate dispatch.
    """

    @property
    def parameter_count(self) -> int: ...

    def estimate_many(self, predicates: Sequence[PredicateLike]) -> np.ndarray: ...


@runtime_checkable
class TrainableBackend(Protocol):
    """What the serving layer owns per model key: a trainable estimator.

    The contract the service, shards, and cluster rely on:

    * ``observe``/``observe_many`` record feedback; they must be cheap
      (training is deferred to ``refit``) and are always called under
      the service's per-key trainer lock.
    * ``refit()`` absorbs all recorded feedback into the model and
      advances ``trained_count`` to ``observed_count``.
    * ``snapshot_model()`` returns the immutable :class:`ServableModel`
      reflecting the last refit (``None`` before any training — the
      registry serves the uniform bootstrap then).  Repeated calls
      without an intervening state change return the *same* object, so
      shard migration republishes the exact served snapshot.
    """

    name: str

    @property
    def domain(self) -> Hyperrectangle: ...

    @property
    def observed_count(self) -> int: ...

    @property
    def trained_count(self) -> int: ...

    def observe(self, predicate: PredicateLike, selectivity: float) -> None: ...

    def observe_many(self, feedback: Feedback) -> None: ...

    def refit(self) -> object: ...

    def snapshot_model(self) -> "ServableModel | None": ...


class QueryDrivenBackend:
    """Serve any :class:`QueryDrivenEstimator` behind the snapshot discipline.

    The wrapped estimator trains *eagerly* on ``observe`` (ST-Holes
    drills buckets per query, ISOMER re-runs iterative scaling), which
    would defeat deferred background refits — so the adapter queues
    feedback and replays it into the estimator only at :meth:`refit`,
    in arrival order.  An estimator that already absorbed feedback
    before being wrapped keeps it: ``trained_count`` starts at the
    estimator's ``observed_count``.
    """

    def __init__(self, estimator: QueryDrivenEstimator) -> None:
        if not isinstance(estimator, QueryDrivenEstimator):
            raise EstimatorError(
                "QueryDrivenBackend wraps QueryDrivenEstimator instances; "
                f"got {type(estimator).__name__}"
            )
        self._estimator = estimator
        self._pending: list[tuple[PredicateLike, float]] = []
        self._frozen: QueryDrivenEstimator | None = None
        self.name = estimator.name

    @property
    def estimator(self) -> QueryDrivenEstimator:
        """The live (mutable) wrapped estimator."""
        return self._estimator

    @property
    def domain(self) -> Hyperrectangle:
        """The data domain the wrapped estimator covers."""
        return self._estimator.domain

    @property
    def observed_count(self) -> int:
        """Feedback recorded: absorbed by the estimator plus still queued."""
        return self._estimator.observed_count + len(self._pending)

    @property
    def trained_count(self) -> int:
        """Feedback absorbed by the estimator (the last refit's high-water)."""
        return self._estimator.observed_count

    def observe(self, predicate: PredicateLike, selectivity: float) -> None:
        """Queue one piece of feedback for the next refit.

        Selectivity is validated *here*, matching the bare estimator's
        eager ``observe`` contract — a bad value must fail at the call
        site, not poison a background refit later.
        """
        if not (0.0 <= selectivity <= 1.0):
            raise EstimatorError("selectivity must be in [0, 1]")
        self._pending.append((predicate, selectivity))

    def observe_many(self, feedback: Feedback) -> None:
        """Queue a batch of feedback pairs in order (validated eagerly)."""
        feedback = list(feedback)
        for _, selectivity in feedback:
            if not (0.0 <= selectivity <= 1.0):
                raise EstimatorError("selectivity must be in [0, 1]")
        self._pending.extend(feedback)

    def refit(self) -> int:
        """Replay queued feedback into the estimator; returns rows absorbed.

        Replayed item by item so a failing observation (a predicate the
        estimator rejects) leaves the queue holding exactly the
        unabsorbed tail — a retry never re-applies feedback the
        estimator already trained on.
        """
        absorbed = 0
        try:
            for predicate, selectivity in self._pending:
                self._estimator.observe(predicate, selectivity)
                absorbed += 1
        finally:
            if absorbed:
                del self._pending[:absorbed]
                self._frozen = None
        return absorbed

    def snapshot_model(self) -> QueryDrivenEstimator | None:
        """A frozen copy of the estimator's trained state (None if untrained).

        Built via :meth:`~repro.estimators.base.SelectivityEstimator.
        frozen_copy`, so estimators that keep bulky training-only state
        (ISOMER's replay history) publish snapshots sized to their
        model, not their lifetime feedback.
        """
        if self._estimator.observed_count == 0:
            return None
        if self._frozen is None:
            self._frozen = self._estimator.frozen_copy()
        return self._frozen

    def __repr__(self) -> str:
        return (
            f"QueryDrivenBackend({self.name}, trained={self.trained_count}, "
            f"pending={len(self._pending)})"
        )


class ScanBackend:
    """Serve any :class:`ScanBasedEstimator` behind the snapshot discipline.

    Scan-based estimators (AutoHist, AutoSample, KDE) learn nothing from
    query feedback — their statistics come from scanning the data
    source.  Served behind a refit policy, the policy's count/drift
    triggers become the *rescan* triggers: ``refit()`` re-runs
    :meth:`~repro.estimators.base.ScanBasedEstimator.refresh`, so a
    drifting served histogram rebuilds from the current data exactly
    when a drifting QuickSel would retrain.  Feedback is still counted
    (and its served-vs-true error still feeds the drift trigger at the
    service layer); it is just not replayed into the estimator.
    """

    def __init__(self, estimator: ScanBasedEstimator) -> None:
        if not isinstance(estimator, ScanBasedEstimator):
            raise EstimatorError(
                "ScanBackend wraps ScanBasedEstimator instances; "
                f"got {type(estimator).__name__}"
            )
        self._estimator = estimator
        self._observed = 0
        self._trained = 0
        self._frozen: ScanBasedEstimator | None = None
        self._frozen_refresh = -1
        self.name = estimator.name

    @property
    def estimator(self) -> ScanBasedEstimator:
        """The live (mutable) wrapped estimator."""
        return self._estimator

    @property
    def domain(self) -> Hyperrectangle:
        """The data domain the wrapped estimator covers."""
        return self._estimator.domain

    @property
    def observed_count(self) -> int:
        """Feedback observations counted (none are replayed into the scan)."""
        return self._observed

    @property
    def trained_count(self) -> int:
        """Observation high-water mark at the last refresh."""
        return self._trained

    def observe(self, predicate: PredicateLike, selectivity: float) -> None:
        """Count one observation toward the rescan trigger.

        Validated eagerly like the query-driven adapters: the value is
        never trained on, but it prices the drift window and the
        per-backend error stats, so garbage must fail at the call site.
        """
        if not (0.0 <= selectivity <= 1.0):
            raise EstimatorError("selectivity must be in [0, 1]")
        self._observed += 1

    def observe_many(self, feedback: Feedback) -> None:
        """Count a batch of observations toward the rescan trigger."""
        feedback = list(feedback)
        for _, selectivity in feedback:
            if not (0.0 <= selectivity <= 1.0):
                raise EstimatorError("selectivity must be in [0, 1]")
        self._observed += len(feedback)

    def refit(self) -> int:
        """Rescan the data source and rebuild statistics."""
        self._estimator.refresh()
        self._trained = self._observed
        return self._estimator.refresh_count

    def snapshot_model(self) -> ScanBasedEstimator | None:
        """A frozen copy of the last-refreshed statistics (None pre-refresh).

        :meth:`~repro.estimators.base.ScanBasedEstimator.frozen_copy`
        detaches the data source around the copy — a bound method (or
        any callable closing over the table) would otherwise drag a
        duplicate of the entire dataset into every published snapshot
        version.  Snapshots are read-only; a rescan attempt on one
        raises.
        """
        refreshes = self._estimator.refresh_count
        if refreshes == 0:
            return None
        if self._frozen is None or self._frozen_refresh != refreshes:
            self._frozen = self._estimator.frozen_copy()
            self._frozen_refresh = refreshes
        return self._frozen

    def __repr__(self) -> str:
        return (
            f"ScanBackend({self.name}, refreshes="
            f"{self._estimator.refresh_count}, observed={self._observed})"
        )


def as_backend(estimator: object) -> TrainableBackend:
    """Coerce an estimator to the :class:`TrainableBackend` protocol.

    Objects already satisfying the protocol (QuickSel, the adapters, any
    future native backend) pass through unchanged; bare query-driven and
    scan-based estimators are wrapped in the matching adapter.  This is
    what lets ``register_model`` accept "any backend": the service and
    the cluster both route registrations through here.
    """
    if isinstance(estimator, (QueryDrivenBackend, ScanBackend)):
        return estimator
    if isinstance(estimator, QueryDrivenEstimator):
        return QueryDrivenBackend(estimator)
    if isinstance(estimator, ScanBasedEstimator):
        return ScanBackend(estimator)
    if isinstance(estimator, TrainableBackend):
        return estimator
    raise EstimatorError(
        f"{type(estimator).__name__} is not a TrainableBackend: it needs "
        "observe_many/refit/snapshot_model (wrap query-driven or scan-based "
        "estimators, or implement the protocol natively like QuickSel)"
    )
