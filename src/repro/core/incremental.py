"""Incremental training: delta-row assembly and rank-k normal-equation updates.

The from-scratch pipeline (:func:`~repro.core.training.build_problem` +
:func:`~repro.core.training.solve`) re-samples anchor points over all ``n``
observed regions, rebuilds the ``(m, m)`` Q and ``(n, m)`` A matrices,
recomputes ``AᵀA`` at ``O(n·m²)`` and refactorises the normal matrix at
``O(m³)`` on *every* refit — per-refit cost grows linearly with the
lifetime feedback stream.  :class:`IncrementalTrainer` caches the
assembled problem between refits:

* the subpopulations (and their stacked bounds/volumes) are **reused**
  until the observed-query count outgrows the
  :class:`~repro.core.config.QuickSelConfig` rebuild policy, so ``m``
  stays fixed in the steady state;
* anchor points live in an :class:`~repro.core.subpopulation.AnchorReservoir`
  fed ``O(Δn)`` per refit, so even a centre rebuild does not re-sample
  the whole history;
* only the ``Δn`` newly observed queries' A rows are computed (the same
  vectorised intersection kernel as full assembly, ``O(Δn·m)``), appended
  to the cached ``A``, and folded into the normal-equation accumulator
  ``G = Q + λAᵀA`` as a rank-``Δn`` update;
* the Cholesky factor of ``G`` is cached in a
  :class:`~repro.solvers.linalg.CachedCholesky` and updated with rank-k
  ``cholupdate`` (full refactorisation when that is cheaper or the
  condition estimate degrades), and iterative solvers are warm-started
  from the previous weight vector.

**Streaming-window training** bounds all of this.  With
``config.window_policy="sliding"``, the cached A/s rows live in a
:class:`WindowedRowStore` whose capacity is ``training_window`` query
rows (plus the pinned default-query row): each refit folds the ``Δn``
new rows in *and the expired rows out* — a paired rank-k
update+downdate on the cached factor
(:meth:`~repro.solvers.linalg.CachedCholesky.modify_rows`), or a
refactorisation from the surviving rows when the cost/condition gate
says so — keeping ``G = Q + λAᵀA`` consistent with exactly the live
window.

Numerical contract: whenever the analytic path refactorises (every
centre rebuild, and every refit where the rank-k update is declined —
which includes the whole small-``m`` regime),
the normal matrix is recomputed from the cached live rows in one BLAS
gemm, so the weights are *bitwise identical* to from-scratch training on
the same subpopulations and the same (window of) queries.  On the
cholupdate/downdate path the right-hand side is still exact (one gemv)
and only the factor carries update drift, observed at ~1e-11; the
property tests pin both regimes to 1e-9.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle, stack_bounds
from repro.core.subpopulation import (
    AnchorReservoir,
    Subpopulation,
    SubpopulationBuilder,
)
from repro.core.training import (
    ObservedQuery,
    TrainingProblem,
    TrainingResult,
    assemble_query_rows,
    build_problem,
    validate_warm_start,
)
from repro.exceptions import SolverError, TrainingError
from repro.solvers.linalg import CachedCholesky, regularized_solve, symmetrize
from repro.solvers.projected_gradient import solve_projected_gradient
from repro.solvers.scipy_qp import solve_constrained_qp

__all__ = ["FitReport", "IncrementalTrainer", "WindowedRowStore"]


@dataclass(frozen=True)
class FitReport:
    """What one :meth:`IncrementalTrainer.fit` call did and produced.

    Attributes:
        result: the solved weights plus solver diagnostics.
        subpopulations: the mixture components the weights belong to.
        incremental: True if the cached problem was extended with delta
            rows; False if subpopulations and matrices were rebuilt.
        delta_rows: number of new A rows assembled this fit.
        total_rows: total A rows in the cached problem (incl. the default
            query row).
        evicted_rows: cached query rows that expired out of the training
            window this fit (always 0 under ``window_policy="none"``).
        window_size: live query rows in the cached problem after this
            fit (excl. the default query row); equals the lifetime
            observed count when unwindowed.
        rebuilt_centers: True if the subpopulation centres were rebuilt.
        refactorized: True if the normal matrix was factorised from
            scratch (analytic solver only: every rebuild and incremental
            fits where the rank-k update was declined; the iterative
            solvers never factorise, so always False for them).
        build_seconds: wall-clock spent assembling rows/matrices.
        solve_seconds: wall-clock spent updating accumulators and solving.
    """

    result: TrainingResult
    subpopulations: tuple[Subpopulation, ...]
    incremental: bool
    delta_rows: int
    total_rows: int
    evicted_rows: int
    window_size: int
    rebuilt_centers: bool
    refactorized: bool
    build_seconds: float
    solve_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total fit wall-clock time."""
        return self.build_seconds + self.solve_seconds


class WindowedRowStore:
    """A bounded (or unbounded) contiguous buffer of training rows.

    The cached ``A`` matrix and ``s`` vector each live in one of these.
    Two regimes:

    * ``window=None`` — the unbounded stream: rows only ever append, the
      buffer grows with amortised doubling (the PR 3 behaviour).
    * ``window=W`` — streaming-window training: the buffer's capacity is
      *fixed* at ``pinned + W`` rows for its whole lifetime, so the
      store's memory is provably bounded by the training window no
      matter how long the stream runs.  :meth:`evict` pops the oldest
      non-pinned rows (FIFO — the expired end of the window) and returns
      them so the caller can downdate the cached Cholesky factor with
      exactly the rows that left.

    The first ``pinned`` rows (the default-query row) are never evicted.
    Rows are kept physically contiguous — eviction compacts the live
    rows forward in place — so :attr:`array` is always a zero-copy view
    laid out exactly like the ``A`` a from-scratch
    :func:`~repro.core.training.build_problem` would build for the live
    window, which is what keeps the refactorisation path bitwise
    identical to from-scratch training.
    """

    __slots__ = ("_data", "_count", "_pinned", "_window")

    def __init__(
        self,
        initial: np.ndarray,
        window: int | None = None,
        pinned: int = 0,
    ) -> None:
        arr = np.asarray(initial, dtype=float)
        if pinned < 0 or pinned > arr.shape[0]:
            raise TrainingError(
                f"pinned row count {pinned} outside the initial "
                f"{arr.shape[0]} rows"
            )
        if window is not None and window < 1:
            raise TrainingError("window must be >= 1 when set")
        self._pinned = pinned
        self._window = window
        if window is not None and arr.shape[0] - pinned > window:
            # Only the newest `window` non-pinned rows are live.
            arr = np.concatenate(
                [arr[:pinned], arr[arr.shape[0] - window :]]
            )
        if window is not None:
            capacity = pinned + window
        else:
            capacity = max(arr.shape[0], 16)
        self._data = np.empty((capacity,) + arr.shape[1:])
        self._data[: arr.shape[0]] = arr
        self._count = arr.shape[0]

    @property
    def window(self) -> int | None:
        """The live-row bound (None = unbounded)."""
        return self._window

    @property
    def window_size(self) -> int:
        """Live (non-pinned) rows currently held."""
        return self._count - self._pinned

    @property
    def capacity_rows(self) -> int:
        """Rows the backing buffer holds — fixed when windowed."""
        return self._data.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes of the backing buffer (the memory-bound test surface)."""
        return self._data.nbytes

    @property
    def array(self) -> np.ndarray:
        """Contiguous view of the filled rows (pinned first; no copy)."""
        return self._data[: self._count]

    def __len__(self) -> int:
        return self._count

    def evict(self, count: int) -> np.ndarray:
        """Pop the ``count`` oldest non-pinned rows; returns them (a copy).

        The surviving rows are compacted forward so :attr:`array` stays
        contiguous.  Evicting more rows than are live is an error — the
        caller (the trainer) computes eviction counts from its window
        bookkeeping, and an overshoot means that bookkeeping is wrong.
        """
        if count < 0:
            raise TrainingError("eviction count must be non-negative")
        if count == 0:
            return self._data[self._pinned : self._pinned].copy()
        if count > self.window_size:
            raise TrainingError(
                f"cannot evict {count} rows; only {self.window_size} live"
            )
        start = self._pinned
        evicted = self._data[start : start + count].copy()
        # numpy slice assignment handles the overlapping forward shift.
        self._data[start : self._count - count] = self._data[
            start + count : self._count
        ]
        self._count -= count
        return evicted

    def append(self, rows: np.ndarray) -> None:
        """Append new rows at the tail (the fresh end of the window)."""
        rows = np.asarray(rows, dtype=float)
        added = rows.shape[0]
        if not added:
            return
        needed = self._count + added
        if needed > self._data.shape[0]:
            if self._window is not None:
                # The trainer evicts before appending; overflowing a
                # bounded store means its window arithmetic is broken.
                raise TrainingError(
                    f"append of {added} rows overflows the "
                    f"{self._data.shape[0]}-row window buffer "
                    f"({self._count} held)"
                )
            capacity = max(needed, 2 * self._data.shape[0], 16)
            grown = np.empty((capacity,) + self._data.shape[1:])
            grown[: self._count] = self._data[: self._count]
            self._data = grown
        self._data[self._count : needed] = rows
        self._count = needed


class IncrementalTrainer:
    """Caches the training problem across refits and extends it in-place.

    The trainer assumes the query stream is append-only (which is how
    :class:`~repro.core.quicksel.QuickSel` feeds it); a stream that
    shrinks between fits invalidates the cache and triggers a full
    rebuild.  With ``config.incremental_training`` off, every fit takes
    the full-assembly path — the seed pipeline's behaviour, useful as a
    benchmark baseline.

    Under a window policy, :meth:`fit` receives the *live window* of
    queries plus the lifetime ``observed_total``; the cached row store
    is kept consistent with exactly that window (new rows folded in,
    expired rows folded out), so per-refit cost and memory stop scaling
    with the stream.
    """

    def __init__(
        self,
        domain: Hyperrectangle,
        config: QuickSelConfig | None = None,
        builder: SubpopulationBuilder | None = None,
        factor_cache: CachedCholesky | None = None,
    ) -> None:
        self._domain = domain
        self._config = config or QuickSelConfig()
        self._builder = builder or SubpopulationBuilder(domain, self._config)
        self._reservoir = AnchorReservoir(self._config.anchor_reservoir_capacity)
        self._chol = factor_cache if factor_cache is not None else CachedCholesky()
        self._last_report: FitReport | None = None
        self._reset_problem_state()
        self._anchored = 0

    def _reset_problem_state(self) -> None:
        self._subpopulations: tuple[Subpopulation, ...] | None = None
        self._boxes: list[Hyperrectangle] = []
        self._volumes = np.zeros(0)
        self._col_lower = np.zeros((0, 0))
        self._col_upper = np.zeros((0, 0))
        self._Q_sym = np.zeros((0, 0))
        self._A: WindowedRowStore | None = None
        self._s: WindowedRowStore | None = None
        # The running normal-equation accumulator G = Q + λAᵀA.  Only the
        # projected-gradient solver reads it (as its precomputed gram), so
        # it is built lazily by that path's first solve and then kept
        # current with rank-Δn updates; for the analytic and scipy solvers
        # it stays None and the per-refit gemm is skipped entirely (the
        # analytic path solves through the cached factor instead).
        self._G: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._last_result: TrainingResult | None = None
        self._trained = 0
        # Absolute index of the oldest query whose row is cached.
        self._window_start = 0
        self._rebuild_observed = 0
        self._chol.invalidate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> QuickSelConfig:
        """The training configuration."""
        return self._config

    @property
    def trained_count(self) -> int:
        """High-water mark: queries folded into the cached problem."""
        return self._trained

    @property
    def subpopulations(self) -> tuple[Subpopulation, ...] | None:
        """The cached mixture components (None before the first fit)."""
        return self._subpopulations

    @property
    def reservoir(self) -> AnchorReservoir:
        """The anchor-point reservoir feeding centre rebuilds."""
        return self._reservoir

    @property
    def factor_cache(self) -> CachedCholesky:
        """The cached Cholesky factorisation of the normal matrix."""
        return self._chol

    @property
    def row_store(self) -> WindowedRowStore | None:
        """The cached A-row store (None before the first fit).

        The memory-bound surface: under a window policy its
        ``capacity_rows``/``nbytes`` are fixed for the store's lifetime.
        """
        return self._A

    @property
    def window_size(self) -> int:
        """Live query rows in the cached problem (0 before the first fit)."""
        return 0 if self._A is None else self._A.window_size

    @property
    def last_report(self) -> FitReport | None:
        """Diagnostics of the most recent fit."""
        return self._last_report

    def invalidate(self) -> None:
        """Drop all cached state; the next fit rebuilds from scratch."""
        self._reset_problem_state()
        self._reservoir = AnchorReservoir(self._config.anchor_reservoir_capacity)
        self._anchored = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        queries: Sequence[ObservedQuery],
        rng: np.random.Generator,
        observed_total: int | None = None,
    ) -> FitReport:
        """(Re)train on the observed stream, incrementally when possible.

        ``queries`` is the live training stream — the whole history
        under ``window_policy="none"``, or the last ``training_window``
        queries under a window policy (the caller trims; see
        :class:`~repro.core.quicksel.QuickSel`).  ``observed_total`` is
        the lifetime observed count; it defaults to ``len(queries)``,
        which is only correct when nothing has ever been trimmed.
        """
        observed = len(queries) if observed_total is None else observed_total
        if observed < len(queries):
            raise TrainingError(
                f"observed_total {observed} is smaller than the "
                f"{len(queries)} queries passed"
            )
        window = self._config.training_window
        if self._config.windowed and len(queries) > window:
            raise TrainingError(
                f"{len(queries)} queries passed under window_policy "
                f"{self._config.window_policy!r}; trim to the last "
                f"{window} (the live window) and pass observed_total"
            )
        if observed < self._trained or observed < self._anchored:
            self.invalidate()

        build_start = time.perf_counter()
        if self._config.incremental_training and observed > self._anchored:
            fresh = min(observed - self._anchored, len(queries))
            self._feed_reservoir(
                queries[len(queries) - fresh :], rng, observed - fresh
            )
            self._anchored = observed

        try:
            if self._needs_rebuild(observed):
                report = self._fit_full(queries, rng, build_start, observed)
            else:
                report = self._fit_incremental(queries, build_start, observed)
        except BaseException:
            # A failed fit may have half-mutated the cached problem (rows
            # appended/evicted, factor updated) without advancing the
            # high-water mark; retrying on that state would double-count
            # the delta.  Drop the problem cache (the anchor reservoir
            # survives) so the next fit is a clean full rebuild.
            self._reset_problem_state()
            raise
        self._last_report = report
        return report

    # ------------------------------------------------------------------
    # Internals: policy
    # ------------------------------------------------------------------
    def _feed_reservoir(
        self,
        new_queries: Sequence[ObservedQuery],
        rng: np.random.Generator,
        first_index: int,
    ) -> None:
        for offset, query in enumerate(new_queries):
            region = query.region
            if region.is_empty:
                continue
            points = region.sample_points(
                self._config.points_per_predicate, rng
            )
            if points.shape[0]:
                self._reservoir.add(points, rng, birth=first_index + offset)

    def _needs_rebuild(self, observed: int) -> bool:
        if not self._config.incremental_training:
            return True
        if self._subpopulations is None or self._A is None:
            return True
        if observed <= self._rebuild_observed:
            return False
        if self._rebuild_observed == 0:
            return True
        return observed >= self._config.center_rebuild_factor * self._rebuild_observed

    def _pinned_rows(self) -> int:
        return 1 if self._config.include_default_query else 0

    def _expired(self, observed: int, window_len: int) -> int:
        """Cached query rows that fall out of the live window this fit."""
        if not self._config.windowed or self._A is None:
            return 0
        new_start = observed - window_len
        return min(max(0, new_start - self._window_start), self._A.window_size)

    # ------------------------------------------------------------------
    # Internals: full assembly (first fit, centre rebuilds, fallback)
    # ------------------------------------------------------------------
    def _fit_full(
        self,
        queries: Sequence[ObservedQuery],
        rng: np.random.Generator,
        build_start: float,
        observed: int,
    ) -> FitReport:
        window_len = len(queries)
        evicted = self._expired(observed, window_len)
        subpopulations = self._build_subpopulations(queries, observed, rng)
        problem = build_problem(
            subpopulations,
            queries,
            domain=self._domain,
            include_default_query=self._config.include_default_query,
        )
        self._install_problem(subpopulations, problem, observed, window_len)
        build_seconds = time.perf_counter() - build_start

        solve_start = time.perf_counter()
        result, refactorized = self._solve(refactorize=True)
        solve_seconds = time.perf_counter() - solve_start
        self._trained = observed
        self._rebuild_observed = observed
        return FitReport(
            result=result,
            subpopulations=self._subpopulations,
            incremental=False,
            delta_rows=len(self._A),
            total_rows=len(self._A),
            evicted_rows=evicted,
            window_size=self._A.window_size,
            rebuilt_centers=True,
            refactorized=refactorized,
            build_seconds=build_seconds,
            solve_seconds=solve_seconds,
        )

    def _build_subpopulations(
        self,
        queries: Sequence[ObservedQuery],
        observed: int,
        rng: np.random.Generator,
    ) -> list[Subpopulation]:
        if observed == 0:
            return self._builder.build([], rng)
        if not self._config.incremental_training:
            # Seed-pipeline behaviour: re-sample anchors from every
            # observed region on each refit.
            return self._builder.build([q.region for q in queries], rng)
        if self._config.windowed:
            # Centre rebuilds must anchor on the live window, not
            # lifetime history: expire reservoir points whose query fell
            # out of the window.  If eviction empties the reservoir
            # (e.g. a long gap between fits aged everything out),
            # re-seed it from the live queries so the rebuild — and
            # Algorithm R from here on — starts from the window.
            self._reservoir.evict_before(observed - len(queries))
            if len(self._reservoir) == 0:
                self._feed_reservoir(queries, rng, observed - len(queries))
        anchors = self._reservoir.points()
        if anchors.shape[0] == 0:
            raise TrainingError("no non-empty predicate regions to anchor on")
        # Under a window policy the model budget follows the *live*
        # window, not the lifetime count: the paper's m = min(4n, cap)
        # sizes the model to the data it trains on.
        sizing = len(queries) if self._config.windowed else observed
        budget = self._config.subpopulation_budget(sizing)
        return self._builder.build_from_points(anchors, budget, rng)

    def _install_problem(
        self,
        subpopulations: Sequence[Subpopulation],
        problem: TrainingProblem,
        observed: int,
        window_len: int,
    ) -> None:
        self._subpopulations = tuple(subpopulations)
        self._boxes = [sub.box for sub in subpopulations]
        self._volumes = np.array([sub.volume for sub in subpopulations])
        self._col_lower, self._col_upper = stack_bounds(self._boxes)
        self._Q_sym = symmetrize(problem.Q)
        window = self._config.training_window if self._config.windowed else None
        pinned = self._pinned_rows()
        self._A = WindowedRowStore(problem.A, window=window, pinned=pinned)
        self._s = WindowedRowStore(problem.s, window=window, pinned=pinned)
        self._window_start = observed - window_len
        self._G = None
        self._chol.invalidate()

    # ------------------------------------------------------------------
    # Internals: incremental extension
    # ------------------------------------------------------------------
    def _fit_incremental(
        self,
        queries: Sequence[ObservedQuery],
        build_start: float,
        observed: int,
    ) -> FitReport:
        window_len = len(queries)
        delta_count = observed - self._trained
        # Queries that arrived *and expired* between fits were never
        # folded in and are already gone from the live window; only the
        # surviving tail gets rows assembled.
        new_live = min(delta_count, window_len)
        delta = queries[window_len - new_live :]
        rows, selectivities = self._assemble_rows(delta)
        evict = self._expired(observed, window_len)
        build_seconds = time.perf_counter() - build_start

        solve_start = time.perf_counter()
        refactorized = False
        if rows.shape[0] or evict:
            evicted_rows = self._A.evict(evict)
            self._s.evict(evict)
            self._A.append(rows)
            self._s.append(selectivities)
            self._window_start = max(
                self._window_start, observed - window_len
            )
            penalty = self._config.penalty
            if self._G is not None:
                self._G += penalty * (rows.T @ rows)
                if evicted_rows.shape[0]:
                    self._G -= penalty * (evicted_rows.T @ evicted_rows)
            # Only the analytic solver keeps a factor; skip the scaled
            # copies when no factor exists to modify (iterative solvers).
            # The update+downdate pair is priced as one decision against
            # refactorising from the surviving rows.
            scale = np.sqrt(penalty)
            updated = self._chol.available and self._chol.modify_rows(
                rows * scale,
                evicted_rows * scale if evicted_rows.shape[0] else None,
                history_rows=len(self._A),
            )
            result, refactorized = self._solve(refactorize=not updated)
        elif self._last_result is not None:
            # Nothing new: reuse the cached solution outright.
            result = self._last_result
        else:
            result, refactorized = self._solve(refactorize=False)
        solve_seconds = time.perf_counter() - solve_start
        self._trained = observed
        return FitReport(
            result=result,
            subpopulations=self._subpopulations,
            incremental=True,
            delta_rows=rows.shape[0],
            total_rows=len(self._A),
            evicted_rows=evict,
            window_size=self._A.window_size,
            rebuilt_centers=False,
            refactorized=refactorized,
            build_seconds=build_seconds,
            solve_seconds=solve_seconds,
        )

    def _assemble_rows(
        self, delta: Sequence[ObservedQuery]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(Δn, m)`` A rows and selectivities of the new queries.

        The same shared kernel as :func:`~repro.core.training.build_problem`
        (:func:`~repro.core.training.assemble_query_rows`), against the
        cached subpopulation bounds — delta rows are bitwise identical to
        the rows a full rebuild would produce.
        """
        return assemble_query_rows(
            delta, self._boxes, self._col_lower, self._col_upper, self._volumes
        )

    # ------------------------------------------------------------------
    # Internals: solving against the cached accumulators
    # ------------------------------------------------------------------
    def _solve(self, refactorize: bool) -> tuple[TrainingResult, bool]:
        solver = self._config.solver
        if solver == "analytic":
            return self._solve_analytic(refactorize)
        # The iterative solvers never factorise the normal matrix, so
        # `refactorized` is always False for them.
        if solver == "projected_gradient":
            return self._solve_projected_gradient(), False
        if solver == "scipy":
            return self._solve_scipy(), False
        raise TrainingError(f"unknown solver {solver!r}")

    def _warm_start(self) -> np.ndarray | None:
        return validate_warm_start(self._weights, len(self._boxes))

    def _finish(
        self, weights: np.ndarray, solver: str, iterations: int
    ) -> TrainingResult:
        residual_vector = self._A.array @ weights - self._s.array
        residual = (
            float(np.abs(residual_vector).max()) if residual_vector.size else 0.0
        )
        self._weights = np.asarray(weights, dtype=float)
        result = TrainingResult(
            weights=self._weights,
            solver=solver,
            constraint_residual=residual,
            iterations=iterations,
        )
        self._last_result = result
        return result

    def _solve_analytic(self, refactorize: bool) -> tuple[TrainingResult, bool]:
        ridge = self._config.regularization * max(self._config.penalty, 1.0)
        penalty = self._config.penalty
        A = self._A.array
        # The right-hand side is recomputed exactly each solve — one
        # O(n·m) gemv — so the only quantity that can drift from the
        # from-scratch solution is the factor itself.
        rhs = penalty * (A.T @ self._s.array)
        refactorized = False
        if refactorize or not self._chol.available:
            # Refactorisation recomputes the normal matrix from the cached
            # live rows in one BLAS gemm.  This costs O(n·m²) but makes
            # the solve *bitwise identical* to from-scratch training on
            # the live window (same floats in, same factorisation).  Long
            # unbounded streams never come through here — the
            # history-priced cost gate keeps them on the O(Δn·m²)
            # cholupdate path.
            exact = self._Q_sym + penalty * (A.T @ A)
            try:
                self._chol.factorize(exact, ridge=ridge)
                refactorized = True
            except SolverError:
                # Numerically singular normal matrix: same robust fallback
                # ladder as the from-scratch analytic solver.
                weights = regularized_solve(exact, rhs, ridge=ridge)
                return self._finish(weights, "analytic", 1), True
        weights = self._chol.solve(rhs)
        return self._finish(weights, "analytic", 1), refactorized

    def _solve_projected_gradient(self) -> TrainingResult:
        penalty = self._config.penalty
        A = self._A.array
        s = self._s.array
        if self._G is None:
            self._G = self._Q_sym + penalty * (A.T @ A)
        pg = solve_projected_gradient(
            self._Q_sym,
            A,
            s,
            penalty=penalty,
            initial=self._warm_start(),
            gram=self._G,
            rhs=penalty * (A.T @ s),
        )
        return self._finish(pg.weights, "projected_gradient", pg.iterations)

    def _solve_scipy(self) -> TrainingResult:
        sp = solve_constrained_qp(
            self._Q_sym,
            self._A.array,
            self._s.array,
            initial=self._warm_start(),
        )
        return self._finish(sp.weights, "scipy", sp.iterations)
