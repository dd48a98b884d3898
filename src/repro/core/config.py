"""Configuration for the QuickSel estimator.

All tunables from the paper are collected in a single frozen dataclass so
experiments and ablations can sweep them without touching estimator code.
Defaults match the paper:

* ``points_per_predicate = 10`` random anchor points per observed
  predicate (Section 3.3, step 1),
* ``subpopulations_per_query = 4`` and ``max_subpopulations = 4000``
  giving ``m = min(4 n, 4000)`` (footnote 9),
* ``neighbor_count = 10`` closest centres used to size each subpopulation
  (Section 3.3, step 3),
* ``penalty = 1e6`` for the constraint penalty λ of Problem 3,
* ``solver = "analytic"`` — the closed-form solution the paper advocates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import TrainingError

__all__ = ["QuickSelConfig"]

_VALID_SOLVERS = ("analytic", "projected_gradient", "scipy")
_VALID_WINDOW_POLICIES = ("none", "sliding")


@dataclass(frozen=True)
class QuickSelConfig:
    """Tunable parameters of QuickSel.

    Attributes:
        points_per_predicate: random points sampled inside each observed
            predicate to represent the workload (paper uses 10).
        subpopulations_per_query: multiplier in ``m = min(k * n, cap)``.
        max_subpopulations: cap on the number of subpopulations ``m``.
        fixed_subpopulations: if set, overrides the ``min(4n, 4000)`` rule
            with a fixed model size (used by Figure 7c).
        neighbor_count: number of nearest centres averaged to size each
            subpopulation box.
        penalty: λ of Problem 3 (weight of the consistency penalty).
        solver: "analytic" (closed form), "projected_gradient" (iterative
            QP with explicit w >= 0), or "scipy" (SLSQP on Theorem 1).
        clip_negative_weights: clip negative weights to zero and
            renormalise before estimating.  Off by default: the paper drops
            the positivity constraint entirely and relies on the model
            approximating a non-negative density (plus clipping of the final
            estimate to [0, 1]); forcing the weights themselves to be
            non-negative breaks the consistency constraints and hurts
            accuracy noticeably (see the clipping ablation).
        regularization: small ridge term added to the normal equations for
            numerical stability of the analytic solve.
        include_default_query: include the implicit query ``(B_0, 1)``
            stating that the whole domain has selectivity 1 (Section 2.2).
        random_seed: seed for the subpopulation sampling RNG.
        incremental_training: reuse the assembled training problem across
            refits — only the newly observed queries' A rows are computed
            and folded into the cached normal-equation accumulators
            (rank-k updates).  Off, every refit rebuilds subpopulations
            and matrices from scratch, the seed pipeline's behaviour.
        center_rebuild_factor: rebuild the subpopulation centres (a full,
            non-incremental refit) once the observed-query count has grown
            by this factor since the last rebuild; in between, centres are
            reused so the model size ``m`` stays fixed and refits stay
            incremental.
        anchor_reservoir_capacity: size of the uniform reservoir of anchor
            points maintained across refits; centre rebuilds draw from the
            reservoir instead of re-sampling every observed region.  Keep
            it above ``max_subpopulations`` or the reservoir caps the
            model size.
        window_policy: how the training stream is bounded.  ``"none"``
            (default) trains on the lifetime feedback stream — the
            paper's behaviour.  ``"sliding"`` trains on exactly the last
            ``training_window`` observed queries: each refit folds the
            new rows in and the expired rows out (rank-k Cholesky
            downdates on the analytic path), so the cached row store —
            and per-refit cost — is bounded regardless of stream length,
            and the model tracks distribution drift.
        training_window: the number of most-recent observed queries the
            sliding window keeps.  Required (>= 1) for ``"sliding"``;
            must be unset for ``"none"`` (a window that would silently
            be ignored is a configuration error).
    """

    points_per_predicate: int = 10
    subpopulations_per_query: int = 4
    max_subpopulations: int = 4000
    fixed_subpopulations: int | None = None
    neighbor_count: int = 10
    penalty: float = 1.0e6
    solver: str = "analytic"
    clip_negative_weights: bool = False
    regularization: float = 1.0e-9
    include_default_query: bool = True
    random_seed: int | None = 0
    incremental_training: bool = True
    center_rebuild_factor: float = 2.0
    anchor_reservoir_capacity: int = 8192
    window_policy: str = "none"
    training_window: int | None = None

    def __post_init__(self) -> None:
        if self.points_per_predicate < 1:
            raise TrainingError("points_per_predicate must be >= 1")
        if self.subpopulations_per_query < 1:
            raise TrainingError("subpopulations_per_query must be >= 1")
        if self.max_subpopulations < 1:
            raise TrainingError("max_subpopulations must be >= 1")
        if self.fixed_subpopulations is not None and self.fixed_subpopulations < 1:
            raise TrainingError("fixed_subpopulations must be >= 1 when set")
        if self.neighbor_count < 1:
            raise TrainingError("neighbor_count must be >= 1")
        if self.penalty <= 0:
            raise TrainingError("penalty must be positive")
        if self.solver not in _VALID_SOLVERS:
            raise TrainingError(
                f"unknown solver {self.solver!r}; expected one of {_VALID_SOLVERS}"
            )
        if self.regularization < 0:
            raise TrainingError("regularization must be non-negative")
        if self.center_rebuild_factor < 1.0:
            raise TrainingError("center_rebuild_factor must be >= 1.0")
        if self.anchor_reservoir_capacity < 1:
            raise TrainingError("anchor_reservoir_capacity must be >= 1")
        if self.window_policy not in _VALID_WINDOW_POLICIES:
            raise TrainingError(
                f"unknown window_policy {self.window_policy!r}; "
                f"expected one of {_VALID_WINDOW_POLICIES}"
            )
        if self.window_policy == "none":
            if self.training_window is not None:
                raise TrainingError(
                    "training_window requires window_policy 'sliding'"
                )
        elif self.training_window is None or self.training_window < 1:
            raise TrainingError(
                "window_policy 'sliding' requires training_window >= 1"
            )

    @property
    def windowed(self) -> bool:
        """True when the training stream is bounded by a window policy."""
        return self.window_policy != "none"

    def subpopulation_budget(self, observed_queries: int) -> int:
        """Model size ``m`` for a given number of observed queries."""
        if self.fixed_subpopulations is not None:
            return self.fixed_subpopulations
        if observed_queries <= 0:
            return 1
        return min(
            self.subpopulations_per_query * observed_queries,
            self.max_subpopulations,
        )
