"""Generic experiment driver for query-driven selectivity estimators.

All of Table 3, Figure 3 and Figure 4 share one experimental shape: feed a
growing stream of observed queries (with their true selectivities) to each
estimator, and after every checkpoint measure (a) the estimation error on a
held-out test set, (b) the cumulative and per-query training time, and (c)
the model size.  :func:`sweep_query_driven` runs that shape once per
estimator and returns one :class:`TrialRecord` per (estimator, checkpoint),
which the per-figure modules then slice into the paper's tables and series.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.predicate import Predicate
from repro.core.quicksel import QuickSel
from repro.estimators.base import QueryDrivenEstimator
from repro.exceptions import ExperimentError
from repro.experiments.metrics import mean_absolute_error, mean_relative_error

__all__ = [
    "TrialRecord",
    "Feedback",
    "evaluate",
    "paper_config",
    "sweep_query_driven",
]

Feedback = tuple[Predicate, float]
LearningEstimator = QueryDrivenEstimator | QuickSel
EstimatorFactory = Callable[[Hyperrectangle], LearningEstimator]


def paper_config(**overrides) -> QuickSelConfig:
    """A :class:`QuickSelConfig` pinned to the paper's training pipeline.

    The production default (``incremental_training=True``) reuses
    subpopulation centres between refits and draws anchors from a
    reservoir; the figure/table reproductions instead keep the paper's
    from-scratch pipeline — fresh anchors over every observed region and
    ``m = min(4n, 4000)`` tracking every refit — so their outputs stay
    faithful to the algorithm the paper evaluates.
    """
    overrides.setdefault("incremental_training", False)
    return QuickSelConfig(**overrides)


@dataclass(frozen=True)
class TrialRecord:
    """One estimator evaluated at one observed-query checkpoint.

    Attributes:
        method: estimator name (as used in the paper's figures).
        dataset: dataset label.
        observed_queries: number of training queries observed so far.
        parameter_count: model size at this checkpoint.
        relative_error_pct: mean relative error on the test set (percent).
        absolute_error: mean absolute error on the test set.
        train_seconds_total: cumulative training time since the start.
        per_query_ms: average per-query training (refinement) time in ms.
        estimate_ms: average per-estimate latency on the test set in ms.
    """

    method: str
    dataset: str
    observed_queries: int
    parameter_count: int
    relative_error_pct: float
    absolute_error: float
    train_seconds_total: float
    per_query_ms: float
    estimate_ms: float


def evaluate(
    estimator: LearningEstimator, test_feedback: Sequence[Feedback]
) -> tuple[float, float, float]:
    """Return (relative error %, absolute error, mean per-estimate ms)."""
    if not test_feedback:
        raise ExperimentError("the test set must not be empty")
    truths = []
    estimates = []
    start = time.perf_counter()
    for predicate, true_selectivity in test_feedback:
        truths.append(true_selectivity)
        estimates.append(estimator.estimate(predicate))
    elapsed = time.perf_counter() - start
    return (
        mean_relative_error(truths, estimates),
        mean_absolute_error(truths, estimates),
        elapsed / len(test_feedback) * 1000.0,
    )


def sweep_query_driven(
    factories: dict[str, EstimatorFactory],
    domain: Hyperrectangle,
    train_feedback: Sequence[Feedback],
    test_feedback: Sequence[Feedback],
    checkpoints: Sequence[int],
    dataset: str = "dataset",
) -> list[TrialRecord]:
    """Train each estimator on a growing query stream, evaluating at checkpoints.

    Args:
        factories: mapping from method name to a factory building a fresh
            estimator for the given domain.
        domain: the data domain ``B_0``.
        train_feedback: the full ordered training stream (predicate, true
            selectivity); checkpoints index into this stream.
        test_feedback: held-out (predicate, true selectivity) pairs.
        checkpoints: increasing numbers of observed queries at which to
            evaluate (each must be <= len(train_feedback)).
        dataset: label recorded on every trial.

    Returns:
        One :class:`TrialRecord` per (method, checkpoint), in method order
        then checkpoint order.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints:
        raise ExperimentError("at least one checkpoint is required")
    if checkpoints[0] < 1:
        raise ExperimentError("checkpoints must be >= 1")
    if checkpoints[-1] > len(train_feedback):
        raise ExperimentError(
            f"checkpoint {checkpoints[-1]} exceeds the training stream length "
            f"({len(train_feedback)})"
        )

    records: list[TrialRecord] = []
    for method, factory in factories.items():
        estimator = factory(domain)
        observed = 0
        train_seconds = 0.0
        for checkpoint in checkpoints:
            while observed < checkpoint:
                predicate, selectivity = train_feedback[observed]
                start = time.perf_counter()
                estimator.observe(predicate, selectivity)
                train_seconds += time.perf_counter() - start
                observed += 1
            # QuickSel refits lazily; charge the refit to training time so
            # per-query costs are comparable with the eager baselines.
            if isinstance(estimator, QuickSel):
                start = time.perf_counter()
                estimator.refit()
                train_seconds += time.perf_counter() - start
            relative, absolute, estimate_ms = evaluate(estimator, test_feedback)
            records.append(
                TrialRecord(
                    method=method,
                    dataset=dataset,
                    observed_queries=observed,
                    parameter_count=estimator.parameter_count,
                    relative_error_pct=relative,
                    absolute_error=absolute,
                    train_seconds_total=train_seconds,
                    per_query_ms=train_seconds / observed * 1000.0,
                    estimate_ms=estimate_ms,
                )
            )
    return records
