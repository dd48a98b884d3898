"""Wiring between join execution and per-join-key learned models.

:class:`JoinFeedbackLoop` is the join analogue of
:class:`~repro.engine.feedback.FeedbackLoop`: it subscribes to the
executor's join listeners and routes each executed join's observed
cross-product selectivity to the :class:`SandwichedJoinEstimator`
registered for that join key — which forwards it to the served join
model as ordinary ``(joint predicate, selectivity)`` feedback, behind
the same refit policy and windowed training as any single-table model.

Orientation is handled here: a ``JoinQuery`` may name the sides in
either order; the loop matches it to the registered estimator by the
canonical model key and flips the per-side predicates when needed.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.executor import Executor, JoinExecutionResult
from repro.engine.query import JoinQuery
from repro.exceptions import JoinError
from repro.joins.estimator import SandwichedJoinEstimator
from repro.joins.spec import JoinSpec

__all__ = ["JoinFeedbackLoop"]


def _query_spec(query: JoinQuery) -> JoinSpec:
    return JoinSpec(
        left_table=query.left.table_name,
        left_key=query.left_key,
        right_table=query.right.table_name,
        right_key=query.right_key,
    )


class JoinFeedbackLoop:
    """Routes observed join selectivities to sandwiched estimators."""

    def __init__(self, executor: Executor) -> None:
        self._executor = executor
        # canonical model key string -> registered estimators.
        self._estimators: dict[str, list[SandwichedJoinEstimator]] = {}
        executor.add_join_feedback_listener(self._on_join_feedback)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_estimator(self, estimator: SandwichedJoinEstimator) -> None:
        """Subscribe a sandwiched estimator to its join's executed traffic.

        The estimator must have a served join model to feed (register one
        via :func:`repro.joins.estimator.register_join_model` first).
        """
        if not estimator.has_join_model:
            raise JoinError(
                f"estimator for {estimator.spec} has no served join model; "
                "register one before subscribing it to feedback"
            )
        key = str(estimator.join_key)
        self._estimators.setdefault(key, []).append(estimator)

    def estimators_for(
        self, spec: JoinSpec
    ) -> Sequence[SandwichedJoinEstimator]:
        """Estimators currently subscribed to a join (either orientation)."""
        return tuple(self._estimators.get(str(spec.model_key), ()))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_join_feedback(
        self, query: JoinQuery, result: JoinExecutionResult
    ) -> None:
        spec = _query_spec(query)
        estimators = self._estimators.get(str(spec.model_key))
        if not estimators:
            return
        for estimator in estimators:
            left_predicate = query.left.predicate
            right_predicate = query.right.predicate
            if estimator.spec.sides != spec.sides:
                left_predicate, right_predicate = (
                    right_predicate,
                    left_predicate,
                )
            estimator.observe(
                left_predicate, right_predicate, result.join_selectivity
            )
