"""The hot estimation kernels, on one NumPy backend.

``repro.kernels`` hosts the two kernels the serving stack spends its
math time in:

* :func:`intersection_volumes` — the box-intersection volume matrix
  behind ``A``/``Q`` assembly and every batched estimate,
* :func:`weighted_overlap_estimates` — the shared estimation kernel:
  piece overlaps dotted with per-component ``weight/volume`` and summed
  back to owning predicates (mixture models *and* bucket histograms
  reduce to exactly this form).

They are vectorised NumPy (see :mod:`repro.kernels._reference`), in
float64 throughout.  :func:`backend_report` names the backend and the
NumPy version for benchmark and CI logs.

Every kernel has an ``*_into`` variant writing only into caller-owned
buffers (see :class:`~repro.kernels.arena.KernelArena` /
:func:`~repro.kernels.arena.get_arena`): with warm buffers a call makes
zero NumPy heap allocations.
"""

from __future__ import annotations

import numpy as np

from repro.kernels._reference import (
    intersection_volumes,
    intersection_volumes_into,
    weighted_overlap_estimates,
    weighted_overlap_estimates_into,
)
from repro.kernels.arena import KernelArena, get_arena

__all__ = [
    "backend_report",
    "intersection_volumes",
    "intersection_volumes_into",
    "weighted_overlap_estimates",
    "weighted_overlap_estimates_into",
    "stack_pieces",
    "owners_array",
    "KernelArena",
    "get_arena",
]


def backend_report() -> dict[str, str]:
    """The kernel backend and NumPy version (for benchmark/CI logs)."""
    return {"backend": "numpy", "numpy": np.__version__}


def stack_pieces(
    pieces: "list[np.ndarray] | tuple[np.ndarray, ...]",
    name: str,
    arena: KernelArena,
) -> np.ndarray:
    """Copy a list of ``(d,)`` corner vectors into an arena ``(n, d)`` view.

    The arena-backed replacement for the per-call ``np.stack`` on the
    batch path: with a warm arena no heap allocation happens, only the
    unavoidable row copies.
    """
    n = len(pieces)
    d = pieces[0].shape[0] if n else 0
    view = arena.request(name, (n, d))
    if n:
        np.stack(pieces, out=view)
    return view


def owners_array(
    owners: "list[int] | np.ndarray",
    count: int,
    name: str,
    arena: KernelArena,
) -> tuple[np.ndarray, bool]:
    """Arena-backed ``intp`` owners plus an is-identity certificate.

    Returns ``(owners_view, identity)`` where ``identity`` is True iff
    ``owners`` is exactly ``0..count-1`` — the common all-single-piece
    batch, which lets the kernels skip the scatter-add.  The check is
    vectorised against a lazily grown iota buffer and allocates nothing
    when the arena is warm.
    """
    n = len(owners)
    view = arena.request(name, (n,), np.intp)
    view[:] = owners
    if n != count:
        return view, False
    if n == 0:
        return view, True
    if view[0] != 0:
        return view, False
    if n == 1:
        return view, True
    # Identity iff it starts at 0 and every step is exactly +1.
    steps = arena.request("kernels.owners.steps", (n - 1,), np.intp)
    np.subtract(view[1:], view[:-1], out=steps)
    flags = arena.request("kernels.owners.flags", (n - 1,), np.bool_)
    np.equal(steps, 1, out=flags)
    return view, bool(flags.all())
