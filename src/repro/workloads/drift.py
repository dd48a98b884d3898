"""A seeded drift-scenario generator for streaming-window training.

:mod:`repro.workloads.shifts` reproduces the paper's Figure 5 schedule
(correlation creeping up between query batches).  The streaming-window
work needs an abrupt distribution shift as well — and needs every test
and benchmark to draw the *same* deterministic stream — so this module
builds one on the existing workload API
(:class:`~repro.workloads.queries.RandomRangeQueryGenerator` predicates,
exact selectivities against a generated dataset):
:class:`AbruptShiftStream` jumps the data distribution from one
:class:`DriftRegime` to another at a known query index (the recovery
benchmark's scenario: how fast does the estimator's error come back
down after the jump?).

A stream is fully determined by its constructor arguments: one base
standard-normal sample (drawn once from ``seed``) is re-shaped per
regime by a mean/correlation/scale transform, so two instances with the
same parameters label identical predicates with identical
selectivities.  The query stream itself is stationary (random range
predicates over the whole domain); what drifts is the *data* — and
therefore the true selectivities the engine feeds back, which is
exactly what a served estimator observes under distribution drift.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import BoxPredicate
from repro.exceptions import WorkloadError
from repro.workloads.queries import RandomRangeQueryGenerator
from repro.workloads.synthetic import correlation_matrix

__all__ = [
    "DriftRegime",
    "AbruptShiftStream",
]


@dataclass(frozen=True)
class DriftRegime:
    """One data distribution the stream can be in.

    Attributes:
        mean: per-dimension mean of the (clipped) Gaussian data, inside
            the unit cube.
        correlation: pairwise correlation between every pair of columns.
        scale: common per-column standard deviation.
    """

    mean: tuple[float, ...]
    correlation: float = 0.0
    scale: float = 0.2

    def __post_init__(self) -> None:
        if not self.mean:
            raise WorkloadError("regime mean must have at least one dimension")
        if any(not (0.0 <= m <= 1.0) for m in self.mean):
            raise WorkloadError("regime means must lie in the unit cube")
        if self.scale <= 0:
            raise WorkloadError("regime scale must be positive")
        # correlation validity is checked by correlation_matrix at use.


class AbruptShiftStream:
    """A deterministic labelled feedback stream whose data distribution
    jumps from ``before`` to ``after`` at query index ``shift_at``.

    Both regimes reshape one base noise sample (so they differ only by
    their parameters, not by sampling variance); a seeded query
    generator draws the predicates, each regime's dataset is cached, and
    :meth:`probes` measures estimation error against the distribution
    *currently* in effect.
    """

    def __init__(
        self,
        shift_at: int,
        before: DriftRegime | None = None,
        after: DriftRegime | None = None,
        dimension: int = 2,
        rows: int = 20_000,
        min_width: float = 0.15,
        max_width: float = 0.5,
        seed: int = 0,
    ) -> None:
        if dimension < 1:
            raise WorkloadError("dimension must be >= 1")
        if rows < 1:
            raise WorkloadError("rows must be >= 1")
        if shift_at < 1:
            raise WorkloadError("shift_at must be >= 1")
        self._shift_at = shift_at
        self._before = before or DriftRegime(
            mean=(0.3,) * dimension, correlation=0.4
        )
        self._after = after or DriftRegime(
            mean=(0.7,) * dimension, correlation=-0.2
        )
        if self._before == self._after:
            raise WorkloadError("before and after regimes must differ")
        self._dimension = dimension
        self._domain = Hyperrectangle.unit(dimension)
        self._seed = seed
        base_rng = np.random.default_rng(seed)
        # One standard-normal sample shared by both regimes: a regime's
        # dataset is a deterministic reshape of this, so the only thing
        # that changes across the shift is the distribution itself.
        self._base = base_rng.standard_normal((rows, dimension))
        self._generator = RandomRangeQueryGenerator(
            self._domain, min_width=min_width, max_width=max_width, seed=seed + 1
        )
        self._probe_widths = (min_width, max_width)
        self._position = 0
        self._datasets: dict[DriftRegime, np.ndarray] = {}

    @property
    def shift_at(self) -> int:
        """Absolute query index of the jump."""
        return self._shift_at

    def regime_at(self, index: int) -> DriftRegime:
        """The data regime in effect when query ``index`` executes."""
        return self._before if index < self._shift_at else self._after

    @property
    def domain(self) -> Hyperrectangle:
        """The unit-cube domain every predicate and regime lives in."""
        return self._domain

    @property
    def dimension(self) -> int:
        """Number of data columns."""
        return self._dimension

    @property
    def position(self) -> int:
        """Absolute index of the next query :meth:`labelled` will yield."""
        return self._position

    def rows_for(self, regime: DriftRegime) -> np.ndarray:
        """The regime's dataset (cached): reshape the base noise sample."""
        if len(regime.mean) != self._dimension:
            raise WorkloadError(
                f"regime mean has {len(regime.mean)} dimensions; "
                f"stream has {self._dimension}"
            )
        cached = self._datasets.get(regime)
        if cached is None:
            covariance = (
                correlation_matrix(self._dimension, regime.correlation)
                * regime.scale**2
            )
            transform = np.linalg.cholesky(covariance)
            rows = np.asarray(regime.mean) + self._base @ transform.T
            cached = np.clip(rows, 0.0, 1.0)
            self._datasets[regime] = cached
        return cached

    def labelled(self, count: int) -> list[tuple[BoxPredicate, float]]:
        """The next ``count`` feedback pairs, advancing the stream.

        Each predicate is labelled with its exact selectivity under the
        regime in effect at its own absolute index, so a shift landing
        inside the batch is honoured mid-batch.
        """
        if count < 0:
            raise WorkloadError("count must be non-negative")
        predicates = self._generator.generate(count)
        feedback = []
        for offset, predicate in enumerate(predicates):
            regime = self.regime_at(self._position + offset)
            feedback.append(
                (predicate, predicate.selectivity(self.rows_for(regime)))
            )
        self._position += count
        return feedback

    def truth(
        self, predicates: Sequence[BoxPredicate], index: int | None = None
    ) -> np.ndarray:
        """Exact selectivities under the regime at ``index``.

        ``index`` defaults to the stream's current position — "what is
        true right now" — which is what error measurement against a
        served model wants.
        """
        regime = self.regime_at(self._position if index is None else index)
        rows = self.rows_for(regime)
        return np.array([predicate.selectivity(rows) for predicate in predicates])

    def probes(
        self, count: int, index: int | None = None, seed_offset: int = 2
    ) -> list[tuple[BoxPredicate, float]]:
        """Held-out labelled probes under the regime at ``index``.

        Drawn from a generator seeded independently of the feedback
        stream (same width distribution), so evaluating on probes never
        perturbs — and is never memorised from — the training stream.
        Deterministic for a given ``(stream seed, seed_offset)``.
        """
        if count < 0:
            raise WorkloadError("count must be non-negative")
        generator = RandomRangeQueryGenerator(
            self._domain,
            min_width=self._probe_widths[0],
            max_width=self._probe_widths[1],
            seed=self._seed + seed_offset,
        )
        predicates = generator.generate(count)
        return list(zip(predicates, self.truth(predicates, index=index)))

