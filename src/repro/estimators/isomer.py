"""ISOMER: max-entropy query-driven histogram (Srivastava et al., ICDE 2006).

ISOMER combines STHoles-style bucket creation with a *global* refit: the
bucket frequencies are recomputed after every observed query so that the
histogram is the maximum-entropy distribution consistent with **all**
observed selectivities (not just the latest one).  The optimisation is
solved with iterative scaling, which requires every bucket to be fully
inside or fully outside every predicate — exactly what the drilling step
guarantees and what makes the bucket count explode as queries accumulate
(Section 2.3, Limitation 1).

This class is the state-of-the-art comparator of the paper's evaluation
(Table 3, Figure 3, Figure 4).  ``max_queries`` implements the query
pruning the paper mentions real deployments need: once the limit is hit,
the oldest observed queries stop contributing constraints (they remain
reflected in the bucket boundaries).
"""

from __future__ import annotations

from repro.core.geometry import Hyperrectangle
from repro.core.region import Region
from repro.estimators.base import PredicateLike, QueryDrivenEstimator
from repro.estimators.buckets import BucketBatchEstimation, BucketSet, drill
from repro.exceptions import EstimatorError
from repro.solvers.iterative_scaling import solve_iterative_scaling

__all__ = ["Isomer"]


class Isomer(BucketBatchEstimation, QueryDrivenEstimator):
    """Max-entropy query-driven histogram trained with iterative scaling."""

    name = "ISOMER"

    def __init__(
        self,
        domain: Hyperrectangle,
        max_queries: int | None = None,
        max_buckets: int | None = 200_000,
        scaling_iterations: int = 50,
        scaling_tolerance: float = 1.0e-5,
    ) -> None:
        super().__init__(domain)
        if max_queries is not None and max_queries < 1:
            raise EstimatorError("max_queries must be >= 1 when set")
        if max_buckets is not None and max_buckets < 1:
            raise EstimatorError("max_buckets must be >= 1 when set")
        self._buckets = BucketSet.initial(domain)
        self._queries: list[tuple[Region, float]] = []
        self._max_queries = max_queries
        self._max_buckets = max_buckets
        self._scaling_iterations = scaling_iterations
        self._scaling_tolerance = scaling_tolerance
        self._observed_count = 0

    # ------------------------------------------------------------------
    # SelectivityEstimator interface
    # ------------------------------------------------------------------
    @property
    def parameter_count(self) -> int:
        """One frequency parameter per bucket."""
        return len(self._buckets)

    @property
    def bucket_count(self) -> int:
        """Number of histogram buckets."""
        return len(self._buckets)

    def estimate(self, predicate: PredicateLike) -> float:
        region = self._region(predicate)
        raw = self._buckets.estimate_region(region)
        return float(min(max(raw, 0.0), 1.0))

    def frozen_copy(self) -> "Isomer":
        """Deep copy without the observed-query replay history.

        Estimates read only the bucket frequencies; ``_queries`` exists
        to re-run iterative scaling on the *live* estimator.  Excluding
        it keeps a published snapshot sized to the histogram instead of
        the lifetime feedback stream.
        """
        queries, self._queries = self._queries, []
        try:
            return super().frozen_copy()
        finally:
            self._queries = queries

    def observe(self, predicate: PredicateLike, selectivity: float) -> None:
        if not (0.0 <= selectivity <= 1.0):
            raise EstimatorError("selectivity must be in [0, 1]")
        region = self._region(predicate)
        self._observed_count += 1
        if region.is_empty:
            return
        if self._max_buckets is not None and len(self._buckets) >= self._max_buckets:
            # Bucket budget exhausted: keep the constraint but stop
            # refining boundaries (mirrors the feasibility limit the paper
            # describes for max-entropy histograms).
            self._queries.append((region, selectivity))
        else:
            drill(self._buckets, region.boxes)
            self._queries.append((region, selectivity))
        self._refit()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _active_queries(self) -> list[tuple[Region, float]]:
        if self._max_queries is None or len(self._queries) <= self._max_queries:
            return self._queries
        return self._queries[-self._max_queries :]

    def _refit(self) -> None:
        """Recompute all bucket frequencies by iterative scaling."""
        active = self._active_queries()
        regions = [region for region, _ in active]
        selectivities = [selectivity for _, selectivity in active]
        membership = self._buckets.membership_matrix(regions)
        result = solve_iterative_scaling(
            membership,
            selectivities,
            self._buckets.volumes,
            max_iterations=self._scaling_iterations,
            tolerance=self._scaling_tolerance,
        )
        self._buckets.set_frequencies(result.frequencies)

    def __repr__(self) -> str:
        return (
            f"Isomer(buckets={self.bucket_count}, observed={self._observed_count})"
        )
