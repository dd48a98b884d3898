"""Predicate algebra for selectivity estimation.

The paper's problem statement (Section 2) treats every selection predicate
as a constraint on a table's columns; conjunctions of range constraints
map to hyperrectangles, while negations and disjunctions map to unions of
hyperrectangles.  This module provides that algebra over *dimension
indices* (column ``i`` of the domain ``B0``), keeping the core library
independent of any table schema.  The engine layer
(:mod:`repro.engine.query`) resolves column names and discrete/categorical
encodings down to these objects.

Supported predicate forms (matching Section 2.2):

* ``RangeConstraint`` — one- or two-sided range on one dimension,
* ``EqualityConstraint`` — equality, encoded as the range ``[v, v + width)``
  where ``width`` is 1 for discrete columns and 0 for continuous ones,
* ``Conjunction`` (AND), ``Disjunction`` (OR), ``Negation`` (NOT),
* ``TruePredicate`` — the empty predicate ``P_0`` selecting all tuples.

Every predicate can be lowered to a :class:`~repro.core.region.Region`
(union of disjoint boxes) within a given domain, which is all QuickSel and
the baseline estimators need.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.core.region import Region
from repro.exceptions import EstimatorError, PredicateError

__all__ = [
    "Constraint",
    "RangeConstraint",
    "EqualityConstraint",
    "Predicate",
    "TruePredicate",
    "BoxPredicate",
    "BoxBatch",
    "box_rows",
    "Conjunction",
    "Disjunction",
    "Negation",
    "box_predicate",
    "and_",
    "or_",
    "not_",
    "as_region",
    "lower_batch",
]


class Constraint:
    """A restriction on one dimension of the domain."""

    __slots__ = ()

    @property
    def dim(self) -> int:  # pragma: no cover - abstract accessor
        raise NotImplementedError

    def bounds_within(self, domain: Hyperrectangle) -> tuple[float, float]:
        """Return the ``(low, high)`` interval this constraint selects."""
        raise NotImplementedError

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Vectorised evaluation against a 1-D array of column values."""
        raise NotImplementedError


class RangeConstraint(Constraint):
    """``low <= C_dim <= high`` with optional one-sided bounds.

    ``None`` on either side means "unbounded on that side"; the bound is
    filled in from the domain when the constraint is lowered to a box.
    """

    __slots__ = ("_dim", "low", "high")

    def __init__(
        self, dim: int, low: float | None = None, high: float | None = None
    ) -> None:
        if dim < 0:
            raise PredicateError("dimension index must be non-negative")
        if low is None and high is None:
            raise PredicateError(
                "a range constraint needs at least one finite bound"
            )
        low = None if low is None else float(low)
        high = None if high is None else float(high)
        # Lowering would read a NaN side as open (``max(edge, nan)`` is
        # ``edge``) while ``matches`` selects no row: refuse it.
        if (low is not None and math.isnan(low)) or (
            high is not None and math.isnan(high)
        ):
            raise PredicateError("range constraint bounds must not be NaN")
        if low is not None and high is not None and low > high:
            raise PredicateError(
                f"range constraint lower bound {low} exceeds upper bound {high}"
            )
        self._dim = int(dim)
        self.low = low
        self.high = high

    @property
    def dim(self) -> int:
        return self._dim

    def bounds_within(self, domain: Hyperrectangle) -> tuple[float, float]:
        domain_low, domain_high = domain.bounds[self._dim]
        low = domain_low if self.low is None else max(self.low, domain_low)
        high = domain_high if self.high is None else min(self.high, domain_high)
        if low > high:
            # The constraint selects nothing inside the domain; report a
            # degenerate zero-width interval pinned at the domain edge.
            low = high = min(max(low, domain_low), domain_high)
        return (low, high)

    def matches(self, values: np.ndarray) -> np.ndarray:
        result = np.ones(values.shape[0], dtype=bool)
        if self.low is not None:
            result &= values >= self.low
        if self.high is not None:
            result &= values <= self.high
        return result

    def __repr__(self) -> str:
        return f"RangeConstraint(dim={self._dim}, low={self.low}, high={self.high})"


class EqualityConstraint(Constraint):
    """``C_dim = value``.

    Following Section 2.2 of the paper, equality on a discrete column is
    modelled as the half-open range ``[value, value + width)`` where the
    engine picks ``width = 1`` for integer/categorical codes.  For truly
    continuous columns ``width = 0`` gives a measure-zero (degenerate)
    box, which still evaluates correctly against actual rows.
    """

    __slots__ = ("_dim", "value", "width")

    def __init__(self, dim: int, value: float, width: float = 1.0) -> None:
        if dim < 0:
            raise PredicateError("dimension index must be non-negative")
        value, width = float(value), float(width)
        # NaN if value or width is NaN, and for -inf + inf: the range
        # [value, value + width) must be defined (see RangeConstraint).
        if math.isnan(value + width):
            raise PredicateError(
                f"equality constraint range [{value}, {value} + {width}) "
                "is undefined"
            )
        if width < 0:
            raise PredicateError("width must be non-negative")
        self._dim = int(dim)
        self.value = value
        self.width = width

    @property
    def dim(self) -> int:
        return self._dim

    def bounds_within(self, domain: Hyperrectangle) -> tuple[float, float]:
        domain_low, domain_high = domain.bounds[self._dim]
        low = max(self.value, domain_low)
        high = min(self.value + self.width, domain_high)
        if low > high:
            low = high = min(max(low, domain_low), domain_high)
        return (low, high)

    def matches(self, values: np.ndarray) -> np.ndarray:
        if self.width == 0.0:
            return values == self.value
        return (values >= self.value) & (values < self.value + self.width)

    def __repr__(self) -> str:
        return (
            f"EqualityConstraint(dim={self._dim}, value={self.value}, "
            f"width={self.width})"
        )


class Predicate:
    """Base class of the predicate algebra."""

    __slots__ = ()

    def to_region(self, domain: Hyperrectangle) -> Region:
        """Lower the predicate to a union of disjoint boxes inside ``domain``."""
        raise NotImplementedError

    def matches(self, points: np.ndarray) -> np.ndarray:
        """Vectorised truth value of the predicate over ``(n, d)`` rows."""
        raise NotImplementedError

    def selectivity(self, points: np.ndarray) -> float:
        """Exact fraction of ``points`` satisfying the predicate."""
        rows = np.asarray(points, dtype=float)
        if rows.shape[0] == 0:
            return 0.0
        return float(self.matches(rows).mean())

    # Operator sugar -----------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return Conjunction([self, other])

    def __or__(self, other: "Predicate") -> "Predicate":
        return Disjunction([self, other])

    def __invert__(self) -> "Predicate":
        return Negation(self)


class TruePredicate(Predicate):
    """The empty predicate ``P_0`` — selects every tuple (selectivity 1)."""

    __slots__ = ()

    def to_region(self, domain: Hyperrectangle) -> Region:
        return Region.from_box(domain)

    def matches(self, points: np.ndarray) -> np.ndarray:
        return np.ones(np.asarray(points).shape[0], dtype=bool)

    def __repr__(self) -> str:
        return "TruePredicate()"


class BoxPredicate(Predicate):
    """A conjunction of per-dimension constraints (one hyperrectangle).

    This is the workhorse predicate of the paper's evaluation: every
    conjunct of one- or two-sided range constraints (and encoded equality
    constraints) collapses to a single box.
    """

    __slots__ = ("constraints",)

    def __init__(self, constraints: Iterable[Constraint]) -> None:
        constraint_list = list(constraints)
        if not constraint_list:
            raise PredicateError(
                "BoxPredicate needs at least one constraint; "
                "use TruePredicate for the empty predicate"
            )
        self.constraints = tuple(constraint_list)

    def to_bounds_array(self, domain: Hyperrectangle) -> np.ndarray:
        """Return the raw ``(d, 2)`` bounds this predicate selects inside ``domain``.

        Identical clipping semantics to :meth:`to_box`, but skips the
        :class:`Hyperrectangle` construction (and its validation) so
        batched estimation can lower thousands of predicates without
        per-predicate object churn.
        """
        bounds = domain.as_array()
        for constraint in self.constraints:
            if constraint.dim >= domain.dimension:
                raise PredicateError(
                    f"constraint on dimension {constraint.dim} exceeds "
                    f"domain dimension {domain.dimension}"
                )
            low, high = constraint.bounds_within(domain)
            bounds[constraint.dim, 0] = max(bounds[constraint.dim, 0], low)
            bounds[constraint.dim, 1] = min(bounds[constraint.dim, 1], high)
            if bounds[constraint.dim, 0] > bounds[constraint.dim, 1]:
                bounds[constraint.dim, 1] = bounds[constraint.dim, 0]
        return bounds

    def to_box(self, domain: Hyperrectangle) -> Hyperrectangle:
        """Return the hyperrectangle this predicate selects inside ``domain``."""
        return Hyperrectangle(self.to_bounds_array(domain))

    def to_region(self, domain: Hyperrectangle) -> Region:
        return Region.from_box(self.to_box(domain))

    def matches(self, points: np.ndarray) -> np.ndarray:
        rows = np.asarray(points, dtype=float)
        result = np.ones(rows.shape[0], dtype=bool)
        for constraint in self.constraints:
            result &= constraint.matches(rows[:, constraint.dim])
        return result

    def __repr__(self) -> str:
        return f"BoxPredicate({list(self.constraints)!r})"


_INF = float("inf")
#: Bytes in one ``[dim, low, high]`` float64 row.
_ROW_BYTES = 3 * 8


def box_rows(predicate: object) -> bytes | None:
    """The float rows of a plain box predicate, as bytes; None otherwise.

    One float64 ``[dim, low, high]`` row per constraint, in constraint
    order and native byte order (the bytes of the same rows as a NumPy
    array).  An open side is ``-inf``/``+inf``, and
    ``EqualityConstraint(dim, v, w)`` is ``[dim, v, v + w]``: the
    interval its lowering clips to the domain, so equal rows lower to
    equal bounds.  Returns None unless ``predicate`` is exactly a
    :class:`BoxPredicate` whose constraints are all exactly
    :class:`RangeConstraint` or :class:`EqualityConstraint`; a subclass
    could lower differently.

    This is the one identity of a box predicate: :meth:`BoxBatch.pack`
    ships these rows, and the estimate cache keys on them.
    """
    if type(predicate) is not BoxPredicate:
        return None
    flat: list[float] = []
    for constraint in predicate.constraints:
        kind = type(constraint)
        if kind is RangeConstraint:
            low, high = constraint.low, constraint.high
            flat += (
                constraint._dim,
                -_INF if low is None else low,
                _INF if high is None else high,
            )
        elif kind is EqualityConstraint:
            value = constraint.value
            flat += (constraint._dim, value, value + constraint.width)
        else:
            return None
    return array("d", flat).tobytes()


class BoxBatch:
    """A burst of plain box predicates as float rows: the wire form.

    ``rows`` is a float64 ``(R, 3)`` array holding every predicate's
    :func:`box_rows`; predicate ``i`` owns
    ``rows[offsets[i]:offsets[i + 1]]``.  Both arrays are read-only.
    ``key(i)`` is the bytes of predicate ``i``'s rows, which is what the
    estimate cache keys a box predicate on, so a cache hit needs no
    predicate object.  Indexing or iterating rebuilds
    ``BoxPredicate([RangeConstraint(dim, low, high), ...])``, which
    lowers bit-identically to the predicate that was packed.
    """

    __slots__ = ("rows", "offsets", "_data", "_spans")

    def __init__(self, rows: np.ndarray, offsets: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        offsets = np.array(offsets, dtype=np.int64)
        ends = offsets.tolist() if offsets.ndim == 1 else []
        if (
            rows.ndim != 2
            or rows.shape[1] != 3
            or not ends
            or ends[0] != 0
            or ends[-1] != rows.shape[0]
            or any(start >= end for start, end in zip(ends, ends[1:]))
        ):
            raise PredicateError(
                "a box batch needs (R, 3) rows and offsets rising from 0 "
                "to R by at least one row per predicate"
            )
        self._data = rows.tobytes()
        self.rows = np.frombuffer(self._data, dtype=np.float64).reshape(-1, 3)
        offsets.flags.writeable = False
        self.offsets = offsets
        self._spans = [end * _ROW_BYTES for end in ends]

    @classmethod
    def pack(cls, predicates: Iterable[object]) -> "BoxBatch | None":
        """Pack a burst into rows; None unless every predicate has rows
        (see :func:`box_rows`)."""
        parts: list[bytes] = []
        offsets = [0]
        for predicate in predicates:
            data = box_rows(predicate)
            if data is None:
                return None
            parts.append(data)
            offsets.append(offsets[-1] + len(data) // _ROW_BYTES)
        rows = np.frombuffer(b"".join(parts), dtype=np.float64)
        return cls(rows.reshape(-1, 3), offsets)

    def __len__(self) -> int:
        return len(self._spans) - 1

    def key(self, index: int) -> bytes:
        """The row bytes of predicate ``index`` (``0 <= index < len``)."""
        return self._data[self._spans[index] : self._spans[index + 1]]

    def __getitem__(self, index: int) -> BoxPredicate:
        index = range(len(self))[index]
        rows = self.rows[self.offsets[index] : self.offsets[index + 1]]
        return BoxPredicate(
            RangeConstraint(int(dim), low, high)
            for dim, low, high in rows.tolist()
        )

    def __iter__(self) -> Iterator[BoxPredicate]:
        return (self[index] for index in range(len(self)))

    def __reduce__(self):
        return (BoxBatch, (self.rows, self.offsets))

    def __repr__(self) -> str:
        return f"BoxBatch({len(self)} predicates, {self.rows.shape[0]} rows)"


class Conjunction(Predicate):
    """Logical AND of arbitrary child predicates."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Predicate]) -> None:
        child_list = list(children)
        if not child_list:
            raise PredicateError("Conjunction needs at least one child")
        self.children = tuple(child_list)

    def to_region(self, domain: Hyperrectangle) -> Region:
        region = self.children[0].to_region(domain)
        for child in self.children[1:]:
            region = region.intersect(child.to_region(domain))
        return region

    def matches(self, points: np.ndarray) -> np.ndarray:
        rows = np.asarray(points, dtype=float)
        result = np.ones(rows.shape[0], dtype=bool)
        for child in self.children:
            result &= child.matches(rows)
        return result

    def __repr__(self) -> str:
        return f"Conjunction({list(self.children)!r})"


class Disjunction(Predicate):
    """Logical OR of arbitrary child predicates."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Predicate]) -> None:
        child_list = list(children)
        if not child_list:
            raise PredicateError("Disjunction needs at least one child")
        self.children = tuple(child_list)

    def to_region(self, domain: Hyperrectangle) -> Region:
        region = self.children[0].to_region(domain)
        for child in self.children[1:]:
            region = region.union(child.to_region(domain))
        return region

    def matches(self, points: np.ndarray) -> np.ndarray:
        rows = np.asarray(points, dtype=float)
        result = np.zeros(rows.shape[0], dtype=bool)
        for child in self.children:
            result |= child.matches(rows)
        return result

    def __repr__(self) -> str:
        return f"Disjunction({list(self.children)!r})"


class Negation(Predicate):
    """Logical NOT of a child predicate."""

    __slots__ = ("child",)

    def __init__(self, child: Predicate) -> None:
        self.child = child

    def to_region(self, domain: Hyperrectangle) -> Region:
        return self.child.to_region(domain).complement(domain)

    def matches(self, points: np.ndarray) -> np.ndarray:
        return ~self.child.matches(points)

    def __repr__(self) -> str:
        return f"Negation({self.child!r})"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------
def box_predicate(
    ranges: Sequence[tuple[int, float | None, float | None]]
) -> BoxPredicate:
    """Build a conjunctive range predicate from ``(dim, low, high)`` triples."""
    return BoxPredicate(
        [RangeConstraint(dim, low, high) for dim, low, high in ranges]
    )


def and_(*predicates: Predicate) -> Predicate:
    """Conjunction of predicates (single predicates pass through)."""
    if len(predicates) == 1:
        return predicates[0]
    return Conjunction(predicates)


def or_(*predicates: Predicate) -> Predicate:
    """Disjunction of predicates (single predicates pass through)."""
    if len(predicates) == 1:
        return predicates[0]
    return Disjunction(predicates)


def not_(predicate: Predicate) -> Predicate:
    """Negation of a predicate."""
    return Negation(predicate)


def as_region(
    predicate: "Predicate | Hyperrectangle | Region", domain: Hyperrectangle
) -> Region:
    """Normalise any supported predicate representation to a region.

    The canonical scalar-path normaliser: raw hyperrectangles are clipped
    to the domain, regions pass through (dimension-checked), predicates
    lower via :meth:`Predicate.to_region`.  The batch path
    (:func:`lower_batch`) mirrors these semantics on raw bounds.
    """
    if isinstance(predicate, Region):
        if predicate.dimension != domain.dimension:
            raise EstimatorError("predicate dimension does not match the domain")
        return predicate
    if isinstance(predicate, Hyperrectangle):
        if predicate.dimension != domain.dimension:
            raise EstimatorError("predicate dimension does not match the domain")
        clipped = predicate.intersection(domain)
        if clipped is None:
            return Region.empty(domain.dimension)
        return Region.from_box(clipped)
    if isinstance(predicate, Predicate):
        return predicate.to_region(domain)
    raise EstimatorError(
        f"unsupported predicate type {type(predicate).__name__}"
    )


def lower_batch(
    predicates: Sequence["Predicate | Hyperrectangle | Region"],
    domain: Hyperrectangle,
) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """Lower a batch of predicates to raw per-piece bounds in one pass.

    Returns ``(piece_lower, piece_upper, owners)`` where each entry of the
    first two lists is a ``(d,)`` corner vector of one disjoint predicate
    piece and ``owners[i]`` is the index of the predicate the piece came
    from (predicates whose footprint inside ``domain`` is empty contribute
    no pieces).  Box-shaped predicates skip
    :class:`~repro.core.region.Region` construction entirely, which is
    what makes batched estimation cheap; everything else falls back to
    :meth:`Predicate.to_region`.

    Error parity with the scalar estimation path
    (:func:`repro.estimators.base.as_region`): raw-geometry dimension
    mismatches and unsupported input types raise
    :class:`~repro.exceptions.EstimatorError`; malformed predicate trees
    surface whatever :meth:`Predicate.to_region` raises
    (:class:`~repro.exceptions.PredicateError`) in both paths.
    """
    piece_lower: list[np.ndarray] = []
    piece_upper: list[np.ndarray] = []
    owners: list[int] = []
    for index, predicate in enumerate(predicates):
        if isinstance(predicate, BoxPredicate):
            bounds = predicate.to_bounds_array(domain)
            piece_lower.append(bounds[:, 0])
            piece_upper.append(bounds[:, 1])
            owners.append(index)
            continue
        if isinstance(predicate, Hyperrectangle):
            if predicate.dimension != domain.dimension:
                raise EstimatorError(
                    "predicate dimension does not match the domain"
                )
            lower = np.maximum(predicate.lower, domain.lower)
            upper = np.minimum(predicate.upper, domain.upper)
            if (lower <= upper).all():
                piece_lower.append(lower)
                piece_upper.append(upper)
                owners.append(index)
            continue
        if isinstance(predicate, Region):
            if predicate.dimension != domain.dimension:
                raise EstimatorError(
                    "predicate dimension does not match the domain"
                )
            boxes = predicate.boxes
        elif isinstance(predicate, Predicate):
            boxes = predicate.to_region(domain).boxes
        else:
            raise EstimatorError(
                f"unsupported predicate type {type(predicate).__name__}"
            )
        for box in boxes:
            piece_lower.append(box.lower)
            piece_upper.append(box.upper)
            owners.append(index)
    return piece_lower, piece_upper, owners
