"""The QuickSel selectivity-learning estimator (the paper's contribution).

:class:`QuickSel` ties the pieces together into the query-driven loop the
paper describes:

* :meth:`QuickSel.observe` records ``(predicate, true selectivity)``
  feedback as it arrives from the execution engine,
* :meth:`QuickSel.refit` (or lazy refitting on the next estimate)
  rebuilds the subpopulations for the observed workload and solves the
  penalised quadratic program for the mixture weights, and
* :meth:`QuickSel.estimate` returns the model's selectivity estimate for
  a new predicate.

The estimator also implements the shared
:class:`repro.estimators.base.SelectivityEstimator` protocol so the
experiment harness can drive it interchangeably with the baselines.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.incremental import IncrementalTrainer
from repro.core.mixture import UniformMixtureModel
from repro.core.predicate import Predicate, as_region, lower_batch
from repro.core.region import Region
from repro.core.subpopulation import SubpopulationBuilder
from repro.core.training import ObservedQuery

__all__ = ["QuickSel", "RefitStats"]


@dataclass(frozen=True)
class RefitStats:
    """Diagnostics for the most recent model refit.

    ``incremental`` is True when the refit extended the cached training
    problem with only the ``delta_rows`` newly observed queries instead
    of rebuilding subpopulations and matrices from scratch.  Under a
    window policy, ``evicted_rows`` counts the cached rows that expired
    out of the training window this refit and ``window_size`` is the
    live query-row count the published model was trained on (equal to
    ``observed_queries`` when unwindowed).
    """

    observed_queries: int
    subpopulations: int
    solver: str
    constraint_residual: float
    build_seconds: float
    solve_seconds: float
    incremental: bool = False
    delta_rows: int = 0
    evicted_rows: int = 0
    window_size: int = 0

    @property
    def total_seconds(self) -> float:
        """Total refit wall-clock time."""
        return self.build_seconds + self.solve_seconds


class QuickSel:
    """Query-driven selectivity learning with a uniform mixture model."""

    name = "QuickSel"

    def __init__(
        self,
        domain: Hyperrectangle,
        config: QuickSelConfig | None = None,
    ) -> None:
        self._domain = domain
        self._config = config or QuickSelConfig()
        self._rng = np.random.default_rng(self._config.random_seed)
        self._builder = SubpopulationBuilder(domain, self._config)
        self._trainer = IncrementalTrainer(
            domain, self._config, builder=self._builder
        )
        self._queries: list[ObservedQuery] = []
        self._observed_total = 0
        self._model: UniformMixtureModel | None = None
        self._stale = True
        self._trained_count = 0
        self._last_refit: RefitStats | None = None

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def domain(self) -> Hyperrectangle:
        """The data domain ``B_0``."""
        return self._domain

    @property
    def config(self) -> QuickSelConfig:
        """The estimator configuration."""
        return self._config

    @property
    def observed_queries(self) -> Sequence[ObservedQuery]:
        """The live training stream, oldest first.

        All feedback recorded so far under ``window_policy="none"``;
        under the sliding window, the last ``training_window``
        observations — expired feedback is dropped eagerly so the
        estimator's memory is bounded by the window too, not just the
        trainer's row store.
        """
        return tuple(self._queries)

    @property
    def observed_count(self) -> int:
        """Lifetime number of observed queries ``n`` (incl. expired)."""
        return self._observed_total

    @property
    def model(self) -> UniformMixtureModel | None:
        """The current mixture model (None before the first refit)."""
        return self._model

    @property
    def parameter_count(self) -> int:
        """Number of model parameters (mixture weights)."""
        return 0 if self._model is None else self._model.parameter_count

    @property
    def last_refit(self) -> RefitStats | None:
        """Diagnostics of the most recent refit (None before the first)."""
        return self._last_refit

    @property
    def trained_count(self) -> int:
        """High-water mark: observed queries absorbed by the last refit."""
        return self._trained_count

    @property
    def trainer(self) -> IncrementalTrainer:
        """The incremental trainer holding the cached training problem."""
        return self._trainer

    def snapshot_model(self) -> UniformMixtureModel | None:
        """The immutable model of the last refit (None before the first).

        This is the :class:`repro.estimators.backend.TrainableBackend`
        publish surface: the mixture model is already a frozen value
        object, so the serving registry can hand it to readers while
        this trainer keeps absorbing feedback.  Unlike
        :meth:`estimate`, calling this never triggers a lazy refit —
        deciding *when* to train is the caller's job (the serving
        layer's refit policy, or an explicit :meth:`refit`).
        """
        return self._model

    # ------------------------------------------------------------------
    # The query-driven learning loop
    # ------------------------------------------------------------------
    def observe(
        self,
        predicate: Predicate | Hyperrectangle | Region,
        selectivity: float,
        refit: bool = False,
    ) -> None:
        """Record one piece of feedback ``(P_i, s_i)``.

        Args:
            predicate: the executed query's predicate, as a
                :class:`~repro.core.predicate.Predicate`, a raw box, or a
                region.
            selectivity: the true selectivity measured by the engine.
            refit: retrain immediately instead of lazily on the next
                estimate.
        """
        region = self._as_region(predicate)
        self._queries.append(ObservedQuery(region=region, selectivity=selectivity))
        self._observed_total += 1
        self._trim_to_window()
        self._stale = True
        if refit:
            self.refit()

    def observe_many(
        self,
        feedback: Sequence[tuple[Predicate | Hyperrectangle | Region, float]],
        refit: bool = False,
    ) -> None:
        """Record a batch of feedback pairs.

        The whole batch is converted and appended in one pass with a
        single staleness flip, rather than dispatching through
        :meth:`observe` per pair.
        """
        converted = [
            ObservedQuery(region=self._as_region(predicate), selectivity=selectivity)
            for predicate, selectivity in feedback
        ]
        if converted:
            self._queries.extend(converted)
            self._observed_total += len(converted)
            self._trim_to_window()
            self._stale = True
        if refit:
            self.refit()

    def refit(self) -> RefitStats:
        """Retrain on the observed feedback and refresh the model.

        In the steady state this is *incremental*: the trainer reuses the
        cached subpopulations and normal-equation accumulators and folds
        in only the queries observed since the last refit (the
        ``_trained_count`` high-water mark).  Centre rebuilds — the first
        refit, rebuild-policy triggers, or ``incremental_training=False``
        — transparently fall back to full assembly.
        """
        report = self._trainer.fit(
            self._queries, self._rng, observed_total=self._observed_total
        )
        model = UniformMixtureModel(report.subpopulations, report.result.weights)
        if self._config.clip_negative_weights:
            model = model.clipped()
        self._model = model
        self._stale = False
        self._trained_count = self._trainer.trained_count
        self._last_refit = RefitStats(
            observed_queries=self._observed_total,
            subpopulations=len(report.subpopulations),
            solver=report.result.solver,
            constraint_residual=report.result.constraint_residual,
            build_seconds=report.build_seconds,
            solve_seconds=report.solve_seconds,
            incremental=report.incremental,
            delta_rows=report.delta_rows,
            evicted_rows=report.evicted_rows,
            window_size=report.window_size,
        )
        return self._last_refit

    def estimate(self, predicate: Predicate | Hyperrectangle | Region) -> float:
        """Estimate the selectivity of a new predicate.

        Before any query has been observed the model is the uniform
        distribution over the domain, so the estimate is simply the
        predicate's volume fraction -- matching the paper's initial state
        with only the default query ``(P_0, 1)``.
        """
        if self._stale or self._model is None:
            self.refit()
        assert self._model is not None
        region = self._as_region(predicate)
        return self._model.estimate(region)

    def estimate_many(
        self, predicates: Sequence[Predicate | Hyperrectangle | Region]
    ) -> np.ndarray:
        """Estimate selectivities for a batch of predicates at once.

        Elementwise equivalent to calling :meth:`estimate` in a loop, but
        the staleness check runs once, box-shaped predicates are lowered
        straight to raw bounds (no per-predicate ``Region`` construction),
        and all pieces are evaluated through a single vectorised
        intersection kernel — the fast path behind the serving layer's
        ``estimate_batch``.
        """
        if self._stale or self._model is None:
            self.refit()
        assert self._model is not None
        piece_lower, piece_upper, owners = lower_batch(predicates, self._domain)
        return self._model.estimate_from_bounds(
            piece_lower, piece_upper, owners, len(predicates)
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _trim_to_window(self) -> None:
        """Drop feedback that expired out of the training window.

        Under ``window_policy="none"`` this is a no-op; otherwise the
        raw query list is bounded by ``training_window`` just like the
        trainer's row store, so lifetime memory stays flat.
        """
        window = self._config.training_window
        if window is not None and len(self._queries) > window:
            del self._queries[: len(self._queries) - window]

    def _as_region(
        self, predicate: Predicate | Hyperrectangle | Region
    ) -> Region:
        return as_region(predicate, self._domain)

    def __repr__(self) -> str:
        return (
            f"QuickSel(observed={self.observed_count}, "
            f"parameters={self.parameter_count}, solver={self._config.solver!r})"
        )
