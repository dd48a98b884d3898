"""Join-model identity: keys, joint domains, and joint predicates.

A learned join model covers one equi-join ``left.key = right.key``.  Its
serving identity is an ordinary :class:`~repro.serving.registry.ModelKey`
whose table component spells the join — ``"orders.user_id⋈users.id"`` —
so every layer built for single-table models (versioned snapshots,
shard routing, the wire protocol) serves join models with zero new
surface: a join key is just another model key.

Two conventions make that possible:

* **Canonical side order.**  ``R ⋈ S`` and ``S ⋈ R`` are the same join,
  so the key string (and the joint domain's dimension layout) always
  lists the lexicographically smaller ``(table, key)`` side first.  A
  :class:`JoinSpec` remembers the caller's orientation and maps
  predicates onto the canonical layout internally.
* **Joint predicates.**  The model's domain is the concatenation of the
  two tables' domains (canonical-left dimensions first).  A pair of
  per-table predicates becomes one predicate over that joint domain by
  shifting the right side's dimension indices up by the left side's
  dimensionality (:func:`shift_predicate`); the observed join
  selectivity ``|σ(L) ⋈ σ(R)| / (|L|·|R|)`` is then ordinary
  ``(predicate, selectivity)`` feedback any QuickSel-family backend can
  learn from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import (
    BoxPredicate,
    Conjunction,
    Constraint,
    Disjunction,
    EqualityConstraint,
    Negation,
    Predicate,
    RangeConstraint,
    TruePredicate,
)
from repro.exceptions import JoinError
from repro.serving.registry import ModelKey

__all__ = [
    "JOIN_SEPARATOR",
    "JoinSpec",
    "join_model_key",
    "parse_join_key",
    "shift_predicate",
]

#: Separator between the two sides of a join key's table component.
JOIN_SEPARATOR = "⋈"


def join_model_key(
    left_table: str, left_key: str, right_table: str, right_key: str
) -> ModelKey:
    """The canonical :class:`ModelKey` naming an equi-join's learned model."""
    left, right = sorted(((left_table, left_key), (right_table, right_key)))
    table = (
        f"{left[0]}.{left[1]}{JOIN_SEPARATOR}{right[0]}.{right[1]}"
    )
    return ModelKey(table=table)


def parse_join_key(key: ModelKey | str) -> "JoinSpec":
    """Recover the :class:`JoinSpec` a join model key names.

    The inverse of :func:`join_model_key` for keys it produced: each side
    is split on its *last* ``.``, so table names may themselves contain
    dots (column names may not).
    """
    table = key.table if isinstance(key, ModelKey) else str(key)
    left_part, separator, right_part = table.partition(JOIN_SEPARATOR)
    if not separator:
        raise JoinError(f"{table!r} is not a join model key")
    sides = []
    for part in (left_part, right_part):
        table_name, dot, column = part.rpartition(".")
        if not dot or not table_name or not column:
            raise JoinError(f"malformed join key side {part!r} in {table!r}")
        sides.append((table_name, column))
    return JoinSpec(
        left_table=sides[0][0],
        left_key=sides[0][1],
        right_table=sides[1][0],
        right_key=sides[1][1],
    )


def _shift_constraint(constraint: Constraint, offset: int) -> Constraint:
    if isinstance(constraint, RangeConstraint):
        return RangeConstraint(
            constraint.dim + offset, constraint.low, constraint.high
        )
    if isinstance(constraint, EqualityConstraint):
        return EqualityConstraint(
            constraint.dim + offset, constraint.value, constraint.width
        )
    raise JoinError(
        f"cannot shift constraint type {type(constraint).__name__}; "
        "join predicates support range and equality constraints"
    )


def shift_predicate(predicate: Predicate, offset: int) -> Predicate:
    """Rewrite a predicate's dimension indices up by ``offset``.

    This is how a per-table predicate is embedded into a joint
    (concatenated) domain.  Supports the whole engine predicate algebra
    (box, and/or/not, true); raw geometry
    (:class:`~repro.core.geometry.Hyperrectangle`/regions) has no
    dimension-sparse representation to shift and is rejected.
    """
    if offset < 0:
        raise JoinError("dimension offset must be non-negative")
    if isinstance(predicate, TruePredicate):
        return predicate
    if offset == 0:
        return predicate
    if isinstance(predicate, BoxPredicate):
        return BoxPredicate(
            [_shift_constraint(c, offset) for c in predicate.constraints]
        )
    if isinstance(predicate, Conjunction):
        return Conjunction(
            [shift_predicate(child, offset) for child in predicate.children]
        )
    if isinstance(predicate, Disjunction):
        return Disjunction(
            [shift_predicate(child, offset) for child in predicate.children]
        )
    if isinstance(predicate, Negation):
        return Negation(shift_predicate(predicate.child, offset))
    raise JoinError(
        f"cannot embed predicate type {type(predicate).__name__} into a "
        "joint join domain"
    )


@dataclass(frozen=True)
class JoinSpec:
    """One equi-join ``left_table.left_key = right_table.right_key``.

    The spec keeps the caller's side order (so engine code reads
    naturally); :attr:`model_key` and the joint domain/predicate layout
    are canonicalised internally, so a spec and its flipped twin name
    and train the *same* served model.
    """

    left_table: str
    left_key: str
    right_table: str
    right_key: str

    def __post_init__(self) -> None:
        for name in (
            self.left_table,
            self.left_key,
            self.right_table,
            self.right_key,
        ):
            if not name:
                raise JoinError("join spec tables and keys must be non-empty")
            if JOIN_SEPARATOR in name:
                raise JoinError(
                    f"{name!r} must not contain the join separator "
                    f"{JOIN_SEPARATOR!r}"
                )

    # ------------------------------------------------------------------
    # Orientation
    # ------------------------------------------------------------------
    @property
    def sides(self) -> tuple[tuple[str, str], tuple[str, str]]:
        """``((left_table, left_key), (right_table, right_key))`` as given."""
        return (
            (self.left_table, self.left_key),
            (self.right_table, self.right_key),
        )

    @property
    def is_canonical(self) -> bool:
        """True when the caller's order already is the canonical order."""
        return (self.left_table, self.left_key) <= (
            self.right_table,
            self.right_key,
        )

    @property
    def tables(self) -> tuple[str, str]:
        """The two table names, caller order."""
        return (self.left_table, self.right_table)

    def flipped(self) -> "JoinSpec":
        """The same join with the sides swapped."""
        return JoinSpec(
            left_table=self.right_table,
            left_key=self.right_key,
            right_table=self.left_table,
            right_key=self.left_key,
        )

    def matches(self, other: "JoinSpec") -> bool:
        """True when ``other`` names the same join (either orientation)."""
        return self.model_key == other.model_key

    # ------------------------------------------------------------------
    # Serving identity
    # ------------------------------------------------------------------
    @property
    def model_key(self) -> ModelKey:
        """The canonical model key this join's learned model serves under."""
        return join_model_key(
            self.left_table, self.left_key, self.right_table, self.right_key
        )

    # ------------------------------------------------------------------
    # Joint-domain embedding
    # ------------------------------------------------------------------
    def joint_domain(
        self, left_domain: Hyperrectangle, right_domain: Hyperrectangle
    ) -> Hyperrectangle:
        """The concatenated domain the join model is trained over.

        ``left_domain``/``right_domain`` follow the *spec's* side order;
        the result lists the canonical-left side's dimensions first.
        """
        first, second = left_domain, right_domain
        if not self.is_canonical:
            first, second = second, first
        return Hyperrectangle(
            np.vstack([first.bounds, second.bounds])
        )

    def joint_predicate(
        self,
        left_predicate: Predicate,
        right_predicate: Predicate,
        left_dimension: int,
        right_dimension: int,
    ) -> Predicate:
        """Embed two per-table predicates into the joint domain.

        Predicates and dimensions follow the spec's side order; the
        embedding follows the canonical layout.  Two box predicates
        merge into a single :class:`BoxPredicate` (one cacheable box,
        served through the vectorised batch path); anything else becomes
        a conjunction of the shifted parts.
        """
        first, first_dim = left_predicate, left_dimension
        second = right_predicate
        if not self.is_canonical:
            first, first_dim = right_predicate, right_dimension
            second = left_predicate
        shifted = shift_predicate(second, first_dim)
        if isinstance(first, TruePredicate):
            return shifted
        if isinstance(shifted, TruePredicate):
            return first
        if isinstance(first, BoxPredicate) and isinstance(
            shifted, BoxPredicate
        ):
            return BoxPredicate(first.constraints + shifted.constraints)
        return Conjunction([first, shifted])

    def __str__(self) -> str:
        return (
            f"{self.left_table}.{self.left_key} {JOIN_SEPARATOR} "
            f"{self.right_table}.{self.right_key}"
        )
