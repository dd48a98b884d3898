"""Figure 6: standard QP vs QuickSel's analytic (penalised) QP.

Section 5.4 compares two ways of computing the mixture weights for the
same training problem: solving the constrained quadratic program of
Theorem 1 with an iterative solver (the paper uses cvxopt; we use a
projected-gradient method and optionally SciPy's SLSQP) versus the
closed-form solution of Problem 3.  Figure 6 plots runtime against the
number of observed queries; the analytic solution's advantage grows with
the problem size.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro.core.subpopulation import SubpopulationBuilder
from repro.core.training import ObservedQuery, build_problem
from repro.estimators.base import as_region
from repro.experiments.datasets import make_bundle
from repro.experiments.harness import paper_config
from repro.experiments.reporting import format_series
from repro.solvers.analytic import solve_penalized_qp
from repro.solvers.projected_gradient import solve_projected_gradient
from repro.solvers.scipy_qp import solve_constrained_qp

__all__ = ["Figure6Point", "Figure6Result", "run_figure6"]

T = TypeVar("T")

#: Each solver is timed as the fastest of this many runs, as ``timeit``
#: does: on a busy host one run can stall (multithreaded BLAS waiting
#: for a core) for far longer than the solve itself takes.
TIMING_REPEATS = 5


def _fastest(solve: Callable[[], T]) -> tuple[T, float]:
    """``solve()``'s result and its fastest of ``TIMING_REPEATS`` runs."""
    best = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        result = solve()
        best = min(best, time.perf_counter() - start)
    return result, best


@dataclass(frozen=True)
class Figure6Point:
    """Runtime of one solver at one problem size."""

    solver: str
    observed_queries: int
    subpopulations: int
    solve_seconds: float
    constraint_residual: float


@dataclass(frozen=True)
class Figure6Result:
    """All runtime measurements plus the derived series."""

    points: list[Figure6Point]

    def runtime_series(self) -> dict[str, list[tuple[float, float]]]:
        """Observed queries -> solve time (ms), per solver."""
        series: dict[str, list[tuple[float, float]]] = {}
        for point in self.points:
            series.setdefault(point.solver, []).append(
                (point.observed_queries, point.solve_seconds * 1000.0)
            )
        return series

    def speedup_at(self, observed_queries: int) -> float:
        """Standard-QP time divided by analytic time at one problem size."""
        analytic = [
            p.solve_seconds
            for p in self.points
            if p.solver == "QuickSel's QP (analytic)"
            and p.observed_queries == observed_queries
        ]
        standard = [
            p.solve_seconds
            for p in self.points
            if p.solver == "Standard QP (projected gradient)"
            and p.observed_queries == observed_queries
        ]
        if not analytic or not standard or analytic[0] == 0:
            return float("nan")
        return standard[0] / analytic[0]

    def render(self) -> str:
        """Text rendering of the runtime comparison."""
        return format_series(
            self.runtime_series(),
            x_label="observed queries",
            y_label="solve time (ms)",
            title="Figure 6: standard QP vs QuickSel's analytic QP",
        )


def run_figure6(
    query_counts: tuple[int, ...] = (50, 100, 200, 400),
    include_scipy: bool = False,
    max_scipy_queries: int = 100,
    row_count: int = 20_000,
    seed: int = 0,
) -> Figure6Result:
    """Time the solvers on increasingly large training problems.

    The training problems are built exactly as QuickSel would build them
    for a Gaussian workload: real subpopulations, real overlap matrices —
    only the solver differs.  Each solve time is the fastest of
    :data:`TIMING_REPEATS` runs.
    """
    bundle = make_bundle(
        "gaussian",
        train_queries=max(query_counts),
        test_queries=1,
        row_count=row_count,
        seed=seed,
        correlation=0.5,
    )
    config = paper_config(random_seed=seed)
    builder = SubpopulationBuilder(bundle.domain, config)
    rng = np.random.default_rng(seed)

    points: list[Figure6Point] = []
    for count in query_counts:
        feedback = bundle.train[:count]
        regions = [as_region(predicate, bundle.domain) for predicate, _ in feedback]
        queries = [
            ObservedQuery(region=region, selectivity=selectivity)
            for region, (_, selectivity) in zip(regions, feedback)
        ]
        subpopulations = builder.build(regions, rng)
        problem = build_problem(
            subpopulations, queries, domain=bundle.domain, include_default_query=True
        )

        analytic, analytic_seconds = _fastest(
            lambda: solve_penalized_qp(problem.Q, problem.A, problem.s)
        )
        points.append(
            Figure6Point(
                solver="QuickSel's QP (analytic)",
                observed_queries=count,
                subpopulations=len(subpopulations),
                solve_seconds=analytic_seconds,
                constraint_residual=analytic.constraint_residual,
            )
        )

        iterative, iterative_seconds = _fastest(
            lambda: solve_projected_gradient(problem.Q, problem.A, problem.s)
        )
        points.append(
            Figure6Point(
                solver="Standard QP (projected gradient)",
                observed_queries=count,
                subpopulations=len(subpopulations),
                solve_seconds=iterative_seconds,
                constraint_residual=iterative.constraint_residual,
            )
        )

        if include_scipy and count <= max_scipy_queries:
            scipy_result, scipy_seconds = _fastest(
                lambda: solve_constrained_qp(problem.Q, problem.A, problem.s)
            )
            points.append(
                Figure6Point(
                    solver="Standard QP (SciPy SLSQP)",
                    observed_queries=count,
                    subpopulations=len(subpopulations),
                    solve_seconds=scipy_seconds,
                    constraint_residual=scipy_result.constraint_residual,
                )
            )
    return Figure6Result(points=points)
