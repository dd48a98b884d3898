"""Shared bucket machinery for query-driven histograms (STHoles, ISOMER).

Query-driven histograms carve the domain into *disjoint* buckets by
"drilling" each observed predicate into the existing buckets (Figure 1 of
the paper): any bucket that partially overlaps the new predicate's box is
split into the overlapping part and a slab decomposition of the rest.
After drilling, every bucket is either entirely inside or entirely outside
each observed predicate — the invariant iterative scaling relies on
(Appendix B) and the reason the bucket count can grow exponentially with
the number of observed queries (Limitation 1 in Section 2.3).

This module provides the bucket container and the drilling primitive; the
individual estimators decide how frequencies are (re)assigned.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.geometry import (
    Hyperrectangle,
    cross_intersection_volumes,
    stack_bounds,
)
from repro.core.predicate import lower_batch
from repro.core.region import Region
from repro.exceptions import EstimatorError
from repro.kernels import (
    get_arena,
    owners_array,
    stack_pieces,
    weighted_overlap_estimates_into,
)

__all__ = ["Bucket", "BucketSet", "BucketBatchEstimation", "drill"]


@dataclass
class Bucket:
    """A histogram bucket: an axis-aligned box and its frequency mass."""

    box: Hyperrectangle
    frequency: float = 0.0

    @property
    def volume(self) -> float:
        """Volume of the bucket's box."""
        return self.box.volume


@dataclass
class BucketSet:
    """A collection of disjoint buckets covering (a subset of) the domain."""

    domain: Hyperrectangle
    buckets: list[Bucket] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Stacked-geometry cache for the batched estimation path, keyed
        # on (list identity, length): every geometry edit in this
        # codebase either rebinds ``buckets`` to a new list (drill) or
        # changes its length (merge), so the key detects them all.
        # In-place *frequency* edits are geometry-neutral (frequencies
        # are re-read per call).  Code that replaces a bucket in place
        # without changing the list object or its length must rebind
        # ``buckets`` instead.
        self._geometry: (
            tuple[list[Bucket], int, np.ndarray, np.ndarray, np.ndarray] | None
        ) = None
        # Cached frequency/volume vector for the batch kernel, keyed the
        # same way *plus* an explicit dirty protocol: in-place frequency
        # edits keep both the list object and its length, so mutators
        # must call mark_frequencies_dirty() (set_frequencies does;
        # STHoles feedback scaling does).
        self._frequency_cache: tuple[list[Bucket], int, np.ndarray] | None = None

    @classmethod
    def initial(cls, domain: Hyperrectangle) -> "BucketSet":
        """Start with a single bucket covering the domain with mass 1."""
        return cls(domain=domain, buckets=[Bucket(box=domain, frequency=1.0)])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.buckets)

    def __iter__(self):
        return iter(self.buckets)

    @property
    def boxes(self) -> list[Hyperrectangle]:
        """The bucket boxes in order."""
        return [bucket.box for bucket in self.buckets]

    @property
    def frequencies(self) -> np.ndarray:
        """The bucket frequencies as a vector."""
        return np.array([bucket.frequency for bucket in self.buckets])

    @property
    def volumes(self) -> np.ndarray:
        """The bucket volumes as a vector."""
        return np.array([bucket.volume for bucket in self.buckets])

    @property
    def total_mass(self) -> float:
        """Sum of all bucket frequencies."""
        return float(sum(bucket.frequency for bucket in self.buckets))

    def set_frequencies(self, frequencies: Sequence[float] | np.ndarray) -> None:
        """Overwrite every bucket frequency (used after a global refit)."""
        values = np.asarray(frequencies, dtype=float)
        if values.shape != (len(self.buckets),):
            raise EstimatorError(
                f"expected {len(self.buckets)} frequencies; got {values.shape}"
            )
        for bucket, value in zip(self.buckets, values):
            bucket.frequency = float(value)
        self.mark_frequencies_dirty()

    def mark_frequencies_dirty(self) -> None:
        """Invalidate the cached frequency/volume vector.

        Required after any *in-place* ``bucket.frequency`` edit that
        leaves the bucket list object and its length unchanged (the
        geometry key cannot see those).  Rebinding or resizing the list
        invalidates the cache on its own.
        """
        self._frequency_cache = None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_box(self, box: Hyperrectangle) -> float:
        """Estimated selectivity of a box under the uniform-bucket assumption."""
        if not self.buckets:
            return 0.0
        overlaps = cross_intersection_volumes([box], self.boxes)[0]
        volumes = self.volumes
        fractions = np.divide(
            overlaps, volumes, out=np.zeros_like(overlaps), where=volumes > 0
        )
        return float(np.dot(self.frequencies, fractions))

    def estimate_region(self, region: Region) -> float:
        """Estimated selectivity of a union-of-boxes region."""
        if region.is_empty or not self.buckets:
            return 0.0
        overlaps = region.intersection_volumes(self.boxes)
        volumes = self.volumes
        fractions = np.divide(
            overlaps, volumes, out=np.zeros_like(overlaps), where=volumes > 0
        )
        return float(np.dot(self.frequencies, fractions))

    def estimate_from_bounds(
        self,
        piece_lower: Sequence[np.ndarray],
        piece_upper: Sequence[np.ndarray],
        owners: Sequence[int],
        count: int,
    ) -> np.ndarray:
        """Batched estimation from raw predicate-piece bounds.

        Same contract as :meth:`repro.core.mixture.UniformMixtureModel.
        estimate_from_bounds`: one ``(d,)`` corner pair per disjoint
        predicate piece, ``owners[i]`` naming the owning predicate, and
        one shared :func:`~repro.kernels.weighted_overlap_estimates_into`
        call for the whole batch — a bucket histogram is the same kernel
        as a mixture model with ``frequency/volume`` standing in for
        ``weight/volume``.  Elementwise equal to :meth:`estimate_region`
        per predicate, clipped to ``[0, 1]``.  Scratch comes from the
        calling thread's arena; a warm call allocates only the returned
        ``(count,)`` result.
        """
        if not len(owners) or not self.buckets:
            return np.zeros(count)
        bucket_lower, bucket_upper, volumes = self._stacked_geometry()
        freq_over_volume = self._frequency_over_volume(volumes)
        arena = get_arena()
        rows_lower = stack_pieces(piece_lower, "kernels.rows_lower", arena)
        rows_upper = stack_pieces(piece_upper, "kernels.rows_upper", arena)
        owner_view, identity = owners_array(owners, count, "kernels.owners", arena)
        pieces, components = rows_lower.shape[0], bucket_lower.shape[0]
        width = rows_lower.shape[1] if pieces else 0
        out = np.zeros(count)
        weighted_overlap_estimates_into(
            rows_lower,
            rows_upper,
            owner_view,
            bucket_lower,
            bucket_upper,
            freq_over_volume,
            arena.request("kernels.scratch_a", (pieces, components, width)),
            arena.request("kernels.scratch_b", (pieces, components, width)),
            arena.request("kernels.overlaps", (pieces, components)),
            arena.request("kernels.per_piece", (pieces,)),
            out,
            owners_identity=identity,
        )
        return out

    def _stacked_geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(lower, upper, volumes)`` stacks of the bucket boxes.

        Rebuilt when the bucket list was rebound or resized (see
        ``__post_init__``); a frozen snapshot deepcopy carries the cache
        over, so repeated serves of an immutable histogram pay the
        Python-level stacking once, not per call.
        """
        buckets = self.buckets
        cached = self._geometry
        if (
            cached is not None
            and cached[0] is buckets
            and cached[1] == len(buckets)
        ):
            return cached[2], cached[3], cached[4]
        lower, upper = stack_bounds([bucket.box for bucket in buckets])
        volumes = np.array([bucket.volume for bucket in buckets])
        self._geometry = (buckets, len(buckets), lower, upper, volumes)
        return lower, upper, volumes

    def _frequency_over_volume(self, volumes: np.ndarray) -> np.ndarray:
        """Cached ``frequency / volume`` vector for the batch kernel.

        Keyed on (list identity, length) like the geometry cache and
        additionally invalidated by :meth:`mark_frequencies_dirty` for
        in-place frequency edits the key cannot detect.
        """
        buckets = self.buckets
        cached = self._frequency_cache
        if (
            cached is not None
            and cached[0] is buckets
            and cached[1] == len(buckets)
        ):
            return cached[2]
        frequencies = np.array([bucket.frequency for bucket in buckets])
        ratio = np.divide(
            frequencies, volumes, out=np.zeros_like(frequencies),
            where=volumes > 0,
        )
        self._frequency_cache = (buckets, len(buckets), ratio)
        return ratio

    def membership_matrix(self, regions: Sequence[Region]) -> np.ndarray:
        """0/1 matrix saying which buckets lie inside which predicate regions.

        After drilling every observed predicate, each bucket is either
        fully inside or fully outside each region; a bucket is classified
        as "inside" when the region covers (almost all of) its volume.
        """
        if not self.buckets:
            return np.zeros((len(regions), 0))
        boxes = self.boxes
        volumes = self.volumes
        matrix = np.zeros((len(regions), len(boxes)))
        for row, region in enumerate(regions):
            overlaps = region.intersection_volumes(boxes)
            fractions = np.divide(
                overlaps, volumes, out=np.zeros_like(overlaps), where=volumes > 0
            )
            matrix[row] = (fractions > 0.5).astype(float)
        return matrix


class BucketBatchEstimation:
    """Vectorised batch surface for estimators backed by a :class:`BucketSet`.

    Mixed into the bucket histograms (ST-Holes, ISOMER): provides
    ``estimate_many`` (lower the batch once, one shared kernel call —
    elementwise equal to the estimator's scalar ``estimate``) and the
    raw-bounds ``estimate_from_bounds`` surface the serving snapshot's
    fast path dispatches on.  Hosts expose ``_domain`` and ``_buckets``.
    """

    _domain: Hyperrectangle
    _buckets: BucketSet

    def estimate_many(self, predicates: Sequence[object]) -> np.ndarray:
        """Batch estimation through one :meth:`BucketSet.estimate_from_bounds`."""
        piece_lower, piece_upper, owners = lower_batch(predicates, self._domain)
        return self.estimate_from_bounds(
            piece_lower, piece_upper, owners, len(predicates)
        )

    def estimate_from_bounds(
        self,
        piece_lower: Sequence[np.ndarray],
        piece_upper: Sequence[np.ndarray],
        owners: Sequence[int],
        count: int,
    ) -> np.ndarray:
        """Raw-bounds batch surface (the serving snapshot's fast path)."""
        return self._buckets.estimate_from_bounds(
            piece_lower, piece_upper, owners, count
        )


def drill(
    bucket_set: BucketSet, target_boxes: Iterable[Hyperrectangle]
) -> list[int]:
    """Split buckets so each is fully inside or outside every target box.

    For every box in ``target_boxes`` (the disjoint pieces of an observed
    predicate's region), each partially-overlapping bucket is replaced by
    the overlap bucket plus the slab decomposition of the remainder.  The
    original bucket's frequency is distributed proportionally to volume
    (the STHoles "uniform spread" assumption).

    Returns the indices (into the updated ``bucket_set.buckets``) of the
    buckets that now lie inside the target boxes.
    """
    targets = list(target_boxes)
    for target in targets:
        updated: list[Bucket] = []
        for bucket in bucket_set.buckets:
            overlap_volume = bucket.box.intersection_volume(target)
            if overlap_volume <= 0.0 or bucket.volume <= 0.0:
                updated.append(bucket)
                continue
            if overlap_volume >= bucket.volume * (1.0 - 1e-12):
                # Fully contained: nothing to split.
                updated.append(bucket)
                continue
            overlap_box = bucket.box.intersection(target)
            assert overlap_box is not None
            remainder = bucket.box.subtract(target)
            pieces = [overlap_box] + remainder
            piece_volumes = np.array([piece.volume for piece in pieces])
            total = piece_volumes.sum()
            if total <= 0.0:
                updated.append(bucket)
                continue
            shares = bucket.frequency * piece_volumes / total
            for piece, share in zip(pieces, shares):
                updated.append(Bucket(box=piece, frequency=float(share)))
        bucket_set.buckets = updated

    inside: list[int] = []
    for index, bucket in enumerate(bucket_set.buckets):
        if bucket.volume <= 0.0:
            continue
        covered = sum(bucket.box.intersection_volume(t) for t in targets)
        if covered >= bucket.volume * (1.0 - 1e-9):
            inside.append(index)
    return inside
