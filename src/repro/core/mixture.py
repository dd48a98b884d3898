"""The uniform mixture model (Section 3 of the paper).

A :class:`UniformMixtureModel` approximates the joint data density as

``f(x) = Σ_z w_z · g_z(x)`` with ``g_z`` uniform over the hyperrectangle
``G_z``.  Selectivity estimation for a predicate region ``B`` is then

``ŝ(B) = Σ_z w_z · |G_z ∩ B| / |G_z|``  (Section 3.2),

which only needs box-intersection volumes.  The model is a passive value
object: it does not know how its weights were obtained (that is the
training module's job), which mirrors the paper's separation between
model definition (Section 3) and model training (Section 4).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.geometry import (
    Hyperrectangle,
    intersection_volumes_from_bounds,
    stack_bounds,
)
from repro.core.region import Region
from repro.core.subpopulation import Subpopulation
from repro.exceptions import TrainingError
from repro.kernels import (
    get_arena,
    owners_array,
    stack_pieces,
    weighted_overlap_estimates_into,
)

__all__ = ["UniformMixtureModel"]


class UniformMixtureModel:
    """A weighted sum of uniform distributions over hyperrectangles."""

    def __init__(
        self,
        subpopulations: Sequence[Subpopulation],
        weights: Sequence[float] | np.ndarray,
    ) -> None:
        if len(subpopulations) == 0:
            raise TrainingError("a mixture model needs at least one component")
        weight_array = np.asarray(weights, dtype=float)
        if weight_array.ndim != 1 or weight_array.shape[0] != len(subpopulations):
            raise TrainingError(
                "weights must be a vector with one entry per subpopulation"
            )
        if np.isnan(weight_array).any():
            raise TrainingError("mixture weights must not contain NaN")
        volumes = np.array([sub.volume for sub in subpopulations])
        if (volumes <= 0).any():
            raise TrainingError(
                "every subpopulation must have strictly positive volume"
            )
        self._subpopulations = tuple(subpopulations)
        self._weights = weight_array.copy()
        self._weights.setflags(write=False)
        self._volumes = volumes
        self._boxes = [sub.box for sub in subpopulations]
        # Component bounds stacked once so estimation (scalar and batched)
        # skips the per-call Python loop over box objects, and the
        # weight/volume ratio each overlap volume is dotted with.
        self._component_lower, self._component_upper = stack_bounds(self._boxes)
        self._weight_over_volume = self._weights / self._volumes

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def subpopulations(self) -> tuple[Subpopulation, ...]:
        """The mixture components."""
        return self._subpopulations

    @property
    def weights(self) -> np.ndarray:
        """The component weights ``w_z`` (read-only)."""
        return self._weights

    @property
    def size(self) -> int:
        """Number of mixture components ``m``."""
        return len(self._subpopulations)

    @property
    def parameter_count(self) -> int:
        """Number of trainable parameters (one weight per component)."""
        return self.size

    @property
    def dimension(self) -> int:
        """Dimensionality of the modelled space."""
        return self._subpopulations[0].box.dimension

    @property
    def total_mass(self) -> float:
        """Sum of weights; 1.0 for a proper probability model."""
        return float(self._weights.sum())

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def density(self, points: np.ndarray) -> np.ndarray:
        """Evaluate ``f(x)`` at each row of an ``(n, d)`` array."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[1] != self.dimension:
            raise TrainingError(
                f"points must have {self.dimension} columns; got {pts.shape[1]}"
            )
        values = np.zeros(pts.shape[0])
        for weight, box, volume in zip(self._weights, self._boxes, self._volumes):
            inside = box.contains_points(pts)
            values[inside] += weight / volume
        return values

    def selectivity_of_box(self, box: Hyperrectangle) -> float:
        """Estimated selectivity of a single-box predicate."""
        overlaps = intersection_volumes_from_bounds(
            box.lower[None, :],
            box.upper[None, :],
            self._component_lower,
            self._component_upper,
        )[0]
        return float(np.dot(self._weight_over_volume, overlaps))

    def selectivity_of_region(self, region: Region) -> float:
        """Estimated selectivity of an arbitrary (union-of-boxes) predicate."""
        if region.is_empty:
            return 0.0
        overlaps = region.intersection_volumes(self._boxes)
        return float(np.dot(self._weights, overlaps / self._volumes))

    def estimate(self, target: Hyperrectangle | Region) -> float:
        """Estimate selectivity of a box or region, clipped to ``[0, 1]``."""
        if isinstance(target, Hyperrectangle):
            raw = self.selectivity_of_box(target)
        elif isinstance(target, Region):
            raw = self.selectivity_of_region(target)
        else:
            raise TrainingError(
                f"cannot estimate selectivity of {type(target).__name__}"
            )
        return float(min(max(raw, 0.0), 1.0))

    def estimate_many(
        self, targets: Sequence[Hyperrectangle | Region]
    ) -> np.ndarray:
        """Estimate selectivities for a batch of boxes/regions at once.

        This is the serving layer's vectorised fast path.  All predicate
        pieces (a box contributes itself; a region contributes its
        disjoint boxes) are stacked into one ``(P, d)`` array and hit the
        component boxes with a single
        :func:`~repro.core.geometry.intersection_volumes_from_bounds`
        kernel call; per-piece estimates are then summed back to their
        owning predicate with ``np.bincount``.  Elementwise the result
        equals :meth:`estimate` (same kernel, same clipping), but the
        Python/dispatch overhead is paid once per batch instead of once
        per predicate.
        """
        if len(targets) == 0:
            return np.zeros(0)
        piece_lower: list[np.ndarray] = []
        piece_upper: list[np.ndarray] = []
        owners: list[int] = []
        for index, target in enumerate(targets):
            if isinstance(target, Hyperrectangle):
                boxes: Sequence[Hyperrectangle] = (target,)
            elif isinstance(target, Region):
                boxes = target.boxes
            else:
                raise TrainingError(
                    f"cannot estimate selectivity of {type(target).__name__}"
                )
            for box in boxes:
                piece_lower.append(box.lower)
                piece_upper.append(box.upper)
                owners.append(index)
        return self.estimate_from_bounds(piece_lower, piece_upper, owners, len(targets))

    def estimate_from_bounds(
        self,
        piece_lower: Sequence[np.ndarray],
        piece_upper: Sequence[np.ndarray],
        owners: Sequence[int],
        count: int,
    ) -> np.ndarray:
        """Batched estimation from raw predicate-piece bounds.

        ``piece_lower``/``piece_upper`` hold one ``(d,)`` corner pair per
        disjoint predicate piece and ``owners[i]`` names the predicate
        (``0 <= owners[i] < count``) piece ``i`` belongs to; predicates
        with no pieces (empty regions) estimate to 0.  This is the lowest
        rung of the batch fast path — callers that can lower predicates
        straight to bounds (see
        :meth:`repro.core.quicksel.QuickSel.estimate_many`) skip
        :class:`Hyperrectangle`/:class:`Region` construction entirely.

        All scratch comes from the calling thread's
        :class:`~repro.kernels.arena.KernelArena`, so a warm batch call
        allocates only the returned ``(count,)`` result.
        """
        if not len(owners):
            return np.zeros(count)
        arena = get_arena()
        rows_lower = stack_pieces(piece_lower, "kernels.rows_lower", arena)
        rows_upper = stack_pieces(piece_upper, "kernels.rows_upper", arena)
        owner_view, identity = owners_array(
            owners, count, "kernels.owners", arena
        )
        pieces, components = rows_lower.shape[0], self._component_lower.shape[0]
        width = rows_lower.shape[1] if pieces else 0
        out = np.zeros(count)
        weighted_overlap_estimates_into(
            rows_lower,
            rows_upper,
            owner_view,
            self._component_lower,
            self._component_upper,
            self._weight_over_volume,
            arena.request("kernels.scratch_a", (pieces, components, width)),
            arena.request("kernels.scratch_b", (pieces, components, width)),
            arena.request("kernels.overlaps", (pieces, components)),
            arena.request("kernels.per_piece", (pieces,)),
            out,
            owners_identity=identity,
        )
        return out

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def clipped(self) -> "UniformMixtureModel":
        """Return a copy with negative weights clipped and mass rescaled to 1.

        The analytic solution of Problem 3 drops the ``w >= 0`` constraint;
        the paper argues negativity is negligible because the model tracks a
        true (non-negative) density.  Clipping is the pragmatic safeguard we
        apply before estimation when
        :attr:`repro.core.config.QuickSelConfig.clip_negative_weights` is on.
        """
        clipped = np.clip(self._weights, 0.0, None)
        total = clipped.sum()
        if total > 0:
            clipped = clipped / total
        return UniformMixtureModel(self._subpopulations, clipped)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points from the mixture (for diagnostics/tests)."""
        if count < 0:
            raise TrainingError("count must be non-negative")
        weights = np.clip(self._weights, 0.0, None)
        total = weights.sum()
        if total <= 0:
            raise TrainingError("cannot sample from a model with no positive mass")
        probabilities = weights / total
        picks = rng.choice(self.size, size=count, p=probabilities)
        points = np.empty((count, self.dimension))
        for index, box in enumerate(self._boxes):
            mask = picks == index
            how_many = int(mask.sum())
            if how_many:
                points[mask] = box.sample_points(how_many, rng)
        return points

    def __repr__(self) -> str:
        return (
            f"UniformMixtureModel(components={self.size}, "
            f"dimension={self.dimension}, mass={self.total_mass:.4f})"
        )
