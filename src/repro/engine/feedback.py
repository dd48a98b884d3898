"""Wiring between query execution and query-driven estimators.

:class:`FeedbackLoop` implements the integration sketched in Section 6 of
the paper: the executor computes the actual selectivity of every filter it
runs; the loop stores that observation in the catalog and forwards it to
any query-driven estimators registered for the table, so their models keep
improving as the workload runs — the "selectivity learning" loop.

Feedback can flow to two kinds of consumers:

* a bare estimator (:meth:`FeedbackLoop.register_estimator`), which is
  observed directly — the seed behaviour, still used by the experiment
  harness; or
* a serving backend (:meth:`FeedbackLoop.register_service`) — either a
  single-process :class:`~repro.serving.service.SelectivityService` or a
  sharded :class:`~repro.cluster.service.ShardedSelectivityService`;
  anything satisfying the
  :class:`~repro.serving.adapter.SelectivityServing` protocol.  The
  backend accumulates the feedback behind its refit policy and
  republishes model snapshots in the background (the sharded backend
  additionally buffers it so writes never stall behind a refit).  This
  is how the mini-DBMS exercises the serving stack end to end: the
  returned :class:`~repro.serving.adapter.ServingEstimator` plugs
  straight into the optimizer, so plan costing, feedback, and retraining
  all route through the backend — and moving a deployment from one
  process to a shard fleet changes only which backend is handed in here.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.predicate import Predicate
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.estimators.backend import TrainableBackend
from repro.estimators.base import QueryDrivenEstimator
from repro.core.quicksel import QuickSel
from repro.exceptions import ServingError
from repro.serving.adapter import SelectivityServing, ServingEstimator
from repro.serving.registry import normalize_key

__all__ = ["FeedbackLoop"]

LearningEstimator = QueryDrivenEstimator | QuickSel | TrainableBackend


class FeedbackLoop:
    """Routes observed selectivities from the executor to estimators."""

    def __init__(self, executor: Executor, catalog: Catalog) -> None:
        self._executor = executor
        self._catalog = catalog
        self._estimators: dict[str, list[LearningEstimator]] = {}
        executor.add_feedback_listener(self._on_feedback)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_estimator(
        self, table_name: str, estimator: LearningEstimator
    ) -> None:
        """Subscribe an estimator to feedback from queries on ``table_name``."""
        self._estimators.setdefault(table_name, []).append(estimator)

    def register_service(
        self,
        table_name: str,
        service: SelectivityServing,
        trainer: TrainableBackend | None = None,
    ) -> ServingEstimator:
        """Route this table's feedback through a selectivity backend.

        ``service`` may be a plain
        :class:`~repro.serving.service.SelectivityService` or a sharded
        :class:`~repro.cluster.service.ShardedSelectivityService` — the
        loop only relies on the shared
        :class:`~repro.serving.adapter.SelectivityServing` surface.  If
        ``trainer`` is given — any
        :class:`~repro.estimators.backend.TrainableBackend`: QuickSel, an
        adapted baseline estimator, or a bare query-driven/scan-based
        estimator the service will wrap — it is first registered with the
        backend under the key ``table_name`` names; otherwise that key
        must already exist there.  Returns the
        :class:`~repro.serving.adapter.ServingEstimator` adapter for the
        key so callers can hand the served model to the optimizer.
        """
        if trainer is not None:
            key = service.register_model(table_name, trainer)
        else:
            key = normalize_key(table_name)
            if key not in service.model_keys():
                # A snapshot in the service's registry is not enough: the
                # feedback path needs this service to own a trainer.
                raise ServingError(
                    f"service owns no trainer for key {key}; pass trainer= "
                    "or call service.register_model() first"
                )
        adapter = ServingEstimator(service, key)
        self.register_estimator(table_name, adapter)
        return adapter

    def estimators_for(self, table_name: str) -> Sequence[LearningEstimator]:
        """Estimators currently subscribed to a table."""
        return tuple(self._estimators.get(table_name, []))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_feedback(
        self, table_name: str, predicate: Predicate, selectivity: float
    ) -> None:
        self._catalog.record_feedback(table_name, predicate, selectivity)
        for estimator in self._estimators.get(table_name, []):
            estimator.observe(predicate, selectivity)
