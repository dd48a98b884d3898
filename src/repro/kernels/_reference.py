"""NumPy implementations of the hot estimation kernels.

:mod:`repro.kernels` serves these directly.  They are written to be
fast NumPy: broadcasting into caller-supplied ``out``/scratch buffers
wherever the ufunc machinery allows it, no hidden ``asarray`` copies of
inputs that are already float64 arrays.  ``tests/test_kernels.py``
property-tests them against a brute-force per-pair oracle.

Scratch-buffer contract: the ``*_into`` variants write only into the
buffers they are handed (sized exactly by the caller, normally a
:class:`repro.kernels.arena.KernelArena`); with warm buffers a call
performs **zero** NumPy heap allocations — the property
``benchmarks/bench_kernels.py --quick`` asserts via the NumPy
tracemalloc domain.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "intersection_volumes",
    "intersection_volumes_into",
    "weighted_overlap_estimates",
    "weighted_overlap_estimates_into",
]


def intersection_volumes(
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
) -> np.ndarray:
    """The ``(n, m)`` matrix of box-intersection volumes.

    ``row_*`` are ``(n, d)`` corner arrays, ``col_*`` are ``(m, d)``.
    Empty inputs produce a zero matrix of the right shape, matching the
    historical :func:`repro.core.geometry.intersection_volumes_from_bounds`.
    """
    if row_lower.size == 0 or col_lower.size == 0:
        return np.zeros(
            (row_lower.shape[0], col_lower.shape[0]), dtype=row_lower.dtype
        )
    joint_lower = np.maximum(row_lower[:, None, :], col_lower[None, :, :])
    joint_upper = np.minimum(row_upper[:, None, :], col_upper[None, :, :])
    widths = np.clip(joint_upper - joint_lower, 0.0, None)
    return widths.prod(axis=2)


def intersection_volumes_into(
    row_lower: np.ndarray,
    row_upper: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    scratch_a: np.ndarray,
    scratch_b: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Allocation-free :func:`intersection_volumes`.

    ``scratch_a``/``scratch_b`` are ``(n, m, d)`` work buffers and
    ``out`` is the ``(n, m)`` result buffer, all caller-owned.
    """
    if row_lower.size == 0 or col_lower.size == 0:
        out[...] = 0.0
        return out
    np.maximum(row_lower[:, None, :], col_lower[None, :, :], out=scratch_a)
    np.minimum(row_upper[:, None, :], col_upper[None, :, :], out=scratch_b)
    np.subtract(scratch_b, scratch_a, out=scratch_b)
    np.maximum(scratch_b, 0.0, out=scratch_b)
    np.prod(scratch_b, axis=2, out=out)
    return out


def weighted_overlap_estimates(
    piece_lower: np.ndarray,
    piece_upper: np.ndarray,
    owners: np.ndarray,
    count: int,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    weight_over_volume: np.ndarray,
) -> np.ndarray:
    """Per-predicate estimates ``clip(Σ_pieces overlaps @ w/|G|, 0, 1)``.

    The one kernel behind both the mixture model (weights over component
    volumes) and the bucket histograms (frequencies over bucket volumes):
    every predicate piece's overlap volume with every column box, dotted
    with ``weight_over_volume``, summed back to the owning predicate via
    ``owners`` and clipped to ``[0, 1]``.
    """
    estimates = np.zeros(count, dtype=weight_over_volume.dtype)
    if piece_lower.shape[0] == 0 or col_lower.shape[0] == 0:
        return estimates
    overlaps = intersection_volumes(
        piece_lower, piece_upper, col_lower, col_upper
    )
    per_piece = overlaps @ weight_over_volume
    np.add.at(estimates, owners, per_piece)
    return np.clip(estimates, 0.0, 1.0)


def weighted_overlap_estimates_into(
    piece_lower: np.ndarray,
    piece_upper: np.ndarray,
    owners: np.ndarray,
    col_lower: np.ndarray,
    col_upper: np.ndarray,
    weight_over_volume: np.ndarray,
    scratch_a: np.ndarray,
    scratch_b: np.ndarray,
    overlap_scratch: np.ndarray,
    piece_scratch: np.ndarray,
    out: np.ndarray,
    owners_identity: bool = False,
) -> np.ndarray:
    """Allocation-free :func:`weighted_overlap_estimates`.

    ``scratch_a``/``scratch_b`` are ``(n, m, d)``, ``overlap_scratch`` is
    ``(n, m)``, ``piece_scratch`` is ``(n,)`` and ``out`` is ``(count,)``;
    ``owners`` must be an ``intp`` array.  ``owners_identity=True`` is the
    caller's certificate (tracked while lowering) that every predicate
    contributed exactly one piece in order, which skips the scatter-add —
    the common plan-enumeration shape.
    """
    out[...] = 0.0
    if piece_lower.shape[0] == 0 or col_lower.shape[0] == 0:
        return out
    intersection_volumes_into(
        piece_lower, piece_upper, col_lower, col_upper,
        scratch_a, scratch_b, overlap_scratch,
    )
    np.dot(overlap_scratch, weight_over_volume, out=piece_scratch)
    if owners_identity and piece_scratch.shape[0] == out.shape[0]:
        np.clip(piece_scratch, 0.0, 1.0, out=out)
    else:
        np.add.at(out, owners, piece_scratch)
        np.clip(out, 0.0, 1.0, out=out)
    return out
