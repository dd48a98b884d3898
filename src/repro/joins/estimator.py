"""The sandwiched join estimator: learned in the middle, provable outside.

:class:`SandwichedJoinEstimator` combines three ingredients per join:

1. **Learned estimate** — a served join model under the join's canonical
   model key (see :mod:`repro.joins.spec`), predicting what fraction of
   the *full join result* ``L ⋈ R`` the joint predicate keeps:
   ``|σL ⋈ σR| / |L ⋈ R|``.  That normalisation is load-bearing: a
   join-result tuple carries both sides' attributes, so the fraction is
   a true probability measure over the joint domain (the unfiltered
   join has selectivity exactly 1) — the same density semantics
   QuickSel-family models assume for single tables, which is what lets
   a join model be "just another model key".  The exact full join size
   that scales the fraction back to rows is maintained by the sketches.
   Served through whatever
   :class:`~repro.serving.adapter.SelectivityServing` the caller holds —
   the single service, the sharded cluster, or the remote gateway
   client.
2. **Independence fallback** — the textbook
   ``|L|·|R|·selL·selR / max(V(L.k), V(R.k))`` estimate from the same
   per-table served models, used whenever no join model is registered.
3. **Pessimistic sandwich** — the MCV upper bound from the two
   :class:`~repro.joins.sketch.JoinBoundSketch` objects, plus a
   configurable lower floor.  Whatever the middle says, the final
   estimate is clamped into ``[floor, UB]`` — a bad learned model can
   be *wrong*, but it can never be impossibly large.

Every served estimate records which side won
(:meth:`~repro.serving.stats.ServingStats.record_sandwich`), so the
clamp rate is readable off the ordinary stats surface.

:func:`sandwiched_batch` is the planner's entry point: it folds the
per-table and join-model lookups of *many* joins into one
``estimate_batch_mixed`` burst (one snapshot resolve per key, one fan-out
across shards/workers) and finishes each sandwich locally.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import Predicate, TruePredicate
from repro.exceptions import JoinError
from repro.joins.sketch import JoinBoundSketch, pessimistic_upper_bound
from repro.joins.spec import JoinSpec
from repro.serving.adapter import SelectivityServing
from repro.serving.registry import ModelKey, normalize_key
from repro.serving.stats import ServingStats

__all__ = [
    "SandwichedJoinEstimate",
    "SandwichedJoinEstimator",
    "register_join_model",
    "sandwiched_batch",
]


def register_join_model(
    service: SelectivityServing,
    spec: JoinSpec,
    left_domain: Hyperrectangle,
    right_domain: Hyperrectangle,
    config: object | None = None,
) -> ModelKey:
    """Register a fresh QuickSel join model under the join's model key.

    The model's domain is the joint (concatenated) domain; from here on
    it is an ordinary served model — hot-swap, windowed training, shard
    routing and the wire protocol all apply unchanged.
    ``left_domain``/``right_domain`` follow the spec's side order.
    """
    from repro.core.quicksel import QuickSel

    joint = spec.joint_domain(left_domain, right_domain)
    return service.register_model(spec.model_key, QuickSel(joint, config))


@dataclass(frozen=True)
class SandwichedJoinEstimate:
    """One sandwiched join cardinality and everything that produced it."""

    spec: JoinSpec
    left_rows: float
    right_rows: float
    left_selectivity: float
    right_selectivity: float
    #: Learned-model cardinality before clamping; None without a model.
    learned_rows: float | None
    independence_rows: float
    upper_bound: float
    lower_bound: float
    estimated_rows: float
    #: What produced the pre-clamp middle: "learned" or "independence".
    source: str
    #: Which bound won: "upper", "lower", or None (middle served as-is).
    clamped: str | None

    @property
    def within_bounds(self) -> bool:
        """The served estimate respects the sandwich (always true)."""
        return self.lower_bound <= self.estimated_rows <= self.upper_bound


class SandwichedJoinEstimator:
    """Serve ``|σ(L) ⋈ σ(R)|`` estimates clamped by pessimistic bounds."""

    def __init__(
        self,
        spec: JoinSpec,
        service: SelectivityServing,
        left_sketch: JoinBoundSketch,
        right_sketch: JoinBoundSketch,
        left_dimension: int,
        right_dimension: int,
        left_model: object | None = None,
        right_model: object | None = None,
        lower_floor_rows: float = 0.0,
        stats: ServingStats | None = None,
    ) -> None:
        """``left_*``/``right_*`` follow the spec's side order.

        ``left_model``/``right_model`` name the per-table served models
        (default: the table name itself); they must be registered with
        ``service`` — the independence fallback and the filtered-side
        cardinalities both read them.  ``stats`` defaults to the
        service's own :class:`ServingStats` when it exposes one (the
        local service and cluster do; the remote client records into a
        caller-provided instance or not at all).
        """
        if left_sketch.key != spec.left_key or (
            left_sketch.table != spec.left_table
        ):
            raise JoinError(
                f"left sketch {left_sketch!r} does not cover "
                f"{spec.left_table}.{spec.left_key}"
            )
        if right_sketch.key != spec.right_key or (
            right_sketch.table != spec.right_table
        ):
            raise JoinError(
                f"right sketch {right_sketch!r} does not cover "
                f"{spec.right_table}.{spec.right_key}"
            )
        if left_dimension < 1 or right_dimension < 1:
            raise JoinError("table dimensionalities must be positive")
        if lower_floor_rows < 0:
            raise JoinError("lower_floor_rows must be non-negative")
        self._spec = spec
        self._service = service
        self._left_sketch = left_sketch
        self._right_sketch = right_sketch
        self._left_dimension = left_dimension
        self._right_dimension = right_dimension
        self._left_model = normalize_key(
            left_model if left_model is not None else spec.left_table
        )
        self._right_model = normalize_key(
            right_model if right_model is not None else spec.right_table
        )
        self._lower_floor_rows = float(lower_floor_rows)
        if stats is None:
            stats = getattr(service, "stats", None)
            if not isinstance(stats, ServingStats):
                stats = None
        self._stats = stats
        # None = not yet checked against the service's key list.
        self._join_model_available: bool | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> JoinSpec:
        return self._spec

    @property
    def service(self) -> SelectivityServing:
        return self._service

    @property
    def join_key(self) -> ModelKey:
        """The model key the learned join model serves under."""
        return self._spec.model_key

    @property
    def full_join_size(self) -> float:
        """Exact current ``|L ⋈ R|`` from the sketches (no filters)."""
        return self._left_sketch.join_size_with(self._right_sketch)

    @property
    def has_join_model(self) -> bool:
        """Whether a learned join model is currently registered.

        Checked lazily against the service's key list and cached;
        :meth:`refresh` drops the cache after registrations change.
        """
        if self._join_model_available is None:
            self._join_model_available = (
                self.join_key in tuple(self._service.model_keys())
            )
        return self._join_model_available

    def refresh(self) -> None:
        """Re-check join-model availability on the next estimate."""
        self._join_model_available = None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def joint_predicate(
        self,
        left_predicate: Predicate | None,
        right_predicate: Predicate | None,
    ) -> Predicate:
        """The two side predicates embedded into the joint domain."""
        return self._spec.joint_predicate(
            left_predicate or TruePredicate(),
            right_predicate or TruePredicate(),
            self._left_dimension,
            self._right_dimension,
        )

    def serving_pairs(
        self,
        left_predicate: Predicate | None,
        right_predicate: Predicate | None,
    ) -> list[tuple[ModelKey, Predicate]]:
        """The ``(model key, predicate)`` pairs one estimate needs.

        Two per-table pairs, plus the joint pair when a join model is
        registered — the building block :func:`sandwiched_batch` packs
        into a single mixed burst.
        """
        left_predicate = left_predicate or TruePredicate()
        right_predicate = right_predicate or TruePredicate()
        pairs = [
            (self._left_model, left_predicate),
            (self._right_model, right_predicate),
        ]
        if self.has_join_model:
            pairs.append(
                (
                    self.join_key,
                    self.joint_predicate(left_predicate, right_predicate),
                )
            )
        return pairs

    def estimate(
        self,
        left_predicate: Predicate | None = None,
        right_predicate: Predicate | None = None,
    ) -> SandwichedJoinEstimate:
        """One sandwiched estimate via one mixed burst against the service."""
        pairs = self.serving_pairs(left_predicate, right_predicate)
        values = self._service.estimate_batch_mixed(pairs)
        join_selectivity = float(values[2]) if len(values) > 2 else None
        return self.finish(float(values[0]), float(values[1]), join_selectivity)

    def finish(
        self,
        left_selectivity: float,
        right_selectivity: float,
        join_selectivity: float | None,
    ) -> SandwichedJoinEstimate:
        """Assemble the sandwich from already-served selectivities.

        Split out of :meth:`estimate` so :func:`sandwiched_batch` can
        serve many joins' lookups in one burst and finish each locally.
        """
        left_total = float(self._left_sketch.total_count)
        right_total = float(self._right_sketch.total_count)
        left_selectivity = min(max(left_selectivity, 0.0), 1.0)
        right_selectivity = min(max(right_selectivity, 0.0), 1.0)
        left_rows = left_selectivity * left_total
        right_rows = right_selectivity * right_total
        upper = pessimistic_upper_bound(
            self._left_sketch, self._right_sketch, left_rows, right_rows
        )
        lower = min(self._lower_floor_rows, upper)

        distinct = max(
            self._left_sketch.distinct_count,
            self._right_sketch.distinct_count,
            1,
        )
        independence_rows = left_rows * right_rows / distinct

        learned_rows = None
        if join_selectivity is not None:
            # The join model predicts the kept fraction of the full join
            # result; the sketches' exact |L ⋈ R| turns it into rows.
            learned_rows = (
                min(max(join_selectivity, 0.0), 1.0) * self.full_join_size
            )
        if learned_rows is not None:
            source, middle = "learned", learned_rows
        else:
            source, middle = "independence", independence_rows

        if middle > upper:
            estimated, clamped = upper, "upper"
        elif middle < lower:
            estimated, clamped = lower, "lower"
        else:
            estimated, clamped = middle, None
        if self._stats is not None:
            self._stats.record_sandwich(source, clamped)
        return SandwichedJoinEstimate(
            spec=self._spec,
            left_rows=left_rows,
            right_rows=right_rows,
            left_selectivity=left_selectivity,
            right_selectivity=right_selectivity,
            learned_rows=learned_rows,
            independence_rows=independence_rows,
            upper_bound=upper,
            lower_bound=lower,
            estimated_rows=float(estimated),
            source=source,
            clamped=clamped,
        )

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def observe(
        self,
        left_predicate: Predicate | None,
        right_predicate: Predicate | None,
        join_selectivity: float,
    ) -> bool:
        """Feed one observed join selectivity to the served join model.

        ``join_selectivity`` is cross-product-normalised
        (``|σL ⋈ σR| / (|L|·|R|)``), exactly what the executor's hash
        join emits; it is re-normalised here against the sketches' exact
        full join size into the kept-fraction-of-``L ⋈ R`` density the
        model learns.  A join whose full result is empty has nothing to
        learn — the observation is dropped (returns False).  Raises
        :class:`JoinError` when no join model is registered — register
        one first (:func:`register_join_model`).
        """
        if not 0.0 <= join_selectivity <= 1.0:
            raise JoinError("join selectivity must be in [0, 1]")
        self.refresh()
        if not self.has_join_model:
            raise JoinError(
                f"no join model registered under {self.join_key}; "
                "register one before observing"
            )
        full = self.full_join_size
        if full <= 0.0:
            return False
        cross = float(
            self._left_sketch.total_count * self._right_sketch.total_count
        )
        kept_fraction = min(join_selectivity * cross / full, 1.0)
        joint = self.joint_predicate(left_predicate, right_predicate)
        return bool(
            self._service.observe(self.join_key, joint, kept_fraction)
        )

    def __repr__(self) -> str:
        return (
            f"SandwichedJoinEstimator({self._spec}, "
            f"learned={self.has_join_model}, "
            f"floor={self._lower_floor_rows})"
        )


def sandwiched_batch(
    requests: Sequence[
        tuple[SandwichedJoinEstimator, Predicate | None, Predicate | None]
    ],
) -> list[SandwichedJoinEstimate]:
    """Serve many joins' sandwiched estimates in one mixed burst.

    Every estimator must sit on the *same* service — that is what lets
    all per-table and join-model lookups travel as a single
    ``estimate_batch_mixed`` call (one snapshot resolve per key; one
    fan-out when the service is a cluster or gateway client).
    """
    if not requests:
        return []
    service = requests[0][0].service
    pairs: list[tuple[ModelKey, Predicate]] = []
    slices: list[tuple[SandwichedJoinEstimator, int, bool]] = []
    for estimator, left_predicate, right_predicate in requests:
        if estimator.service is not service:
            raise JoinError(
                "sandwiched_batch requires all estimators to share one "
                "serving backend"
            )
        request_pairs = estimator.serving_pairs(left_predicate, right_predicate)
        slices.append((estimator, len(pairs), len(request_pairs) == 3))
        pairs.extend(request_pairs)
    values = service.estimate_batch_mixed(pairs)
    estimates = []
    for estimator, start, has_join in slices:
        join_selectivity = float(values[start + 2]) if has_join else None
        estimates.append(
            estimator.finish(
                float(values[start]), float(values[start + 1]), join_selectivity
            )
        )
    return estimates
