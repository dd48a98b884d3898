"""Cost-based access-path selection driven by selectivity estimates.

The introduction of the paper motivates selectivity estimation with plan
choice: the optimizer picks the cheapest access path given how many rows a
predicate is expected to match.  This module implements that decision for
the engine substrate so the examples (and the future-work experiment on
plan quality) can show the end-to-end effect of a better estimator:

* **sequential scan** — cost proportional to the row count,
* **index range scan** — cost proportional to the estimated matching rows
  times a per-row random-access penalty (only available when the predicate
  constrains an indexed column with a simple range/equality).

The optimizer asks a :class:`~repro.estimators.base.SelectivityEstimator`
for the predicate's selectivity, prices both paths, and picks the cheaper;
``plan_with_true_selectivity`` provides the oracle plan so experiments can
count how often an estimator leads the optimizer astray.

Plan enumeration issues selectivity probes in bursts — one per candidate
predicate — so :meth:`AccessPathOptimizer.plan_many` resolves a whole
burst with a single ``estimate_many`` call.  Handing the optimizer a
:class:`~repro.serving.adapter.ServingEstimator` routes those probes
through the serving layer's snapshot, cache, and vectorised batch path.

Multi-table plan enumeration (join ordering, multi-statement batches)
probes *several* tables' models in one burst; :func:`plan_many_tables`
resolves such a burst with a single ``estimate_batch_mixed`` call when
all the involved optimizers serve off the same backend — behind a
:class:`~repro.cluster.service.ShardedSelectivityService` that one call
fans out across every shard involved and reassembles in input order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core.predicate import BoxPredicate, Predicate
from repro.engine.index import SortedIndex
from repro.engine.table import Table
from repro.estimators.base import SelectivityEstimator
from repro.exceptions import SchemaError
from repro.serving.adapter import ServingEstimator

__all__ = [
    "CostModel",
    "PlanChoice",
    "AccessPathOptimizer",
    "plan_join_tree",
    "plan_many_tables",
]


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the access-path cost model.

    Attributes:
        sequential_page_cost: cost of touching one row during a scan.
        random_access_cost: cost of fetching one row through an index
            (random I/O penalty; > sequential_page_cost).
        index_lookup_cost: fixed cost of descending the index.
    """

    sequential_page_cost: float = 1.0
    random_access_cost: float = 4.0
    index_lookup_cost: float = 10.0

    def scan_cost(self, row_count: int) -> float:
        """Cost of a full sequential scan."""
        return self.sequential_page_cost * row_count

    def index_cost(self, row_count: int, selectivity: float) -> float:
        """Cost of an index range scan returning ``selectivity * row_count`` rows."""
        matching = selectivity * row_count
        return self.index_lookup_cost + self.random_access_cost * matching


@dataclass(frozen=True)
class PlanChoice:
    """The optimizer's decision for one query.

    Attributes:
        access_path: "seq_scan" or "index_scan".
        index_column: the indexed column used (None for a scan).
        estimated_selectivity: the estimate the decision was based on.
        estimated_cost: cost of the chosen path under the cost model.
        alternative_cost: cost of the rejected path.
    """

    access_path: str
    index_column: str | None
    estimated_selectivity: float
    estimated_cost: float
    alternative_cost: float


class AccessPathOptimizer:
    """Chooses between a sequential scan and an index scan."""

    def __init__(
        self,
        table: Table,
        estimator: SelectivityEstimator,
        cost_model: CostModel | None = None,
    ) -> None:
        self._table = table
        self._estimator = estimator
        self._cost_model = cost_model or CostModel()
        self._indexes: dict[str, SortedIndex] = {}

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def add_index(self, column: str) -> SortedIndex:
        """Create (or return the existing) sorted index on a column."""
        if column not in self._table.schema.column_names:
            raise SchemaError(f"cannot index unknown column {column!r}")
        if column not in self._indexes:
            self._indexes[column] = SortedIndex(self._table, column)
        return self._indexes[column]

    @property
    def indexed_columns(self) -> list[str]:
        """Columns that currently have an index."""
        return sorted(self._indexes)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, predicate: Predicate) -> PlanChoice:
        """Pick the cheaper access path using the estimator's selectivity."""
        selectivity = self._estimator.estimate(predicate)
        return self._plan_with(predicate, selectivity)

    def plan_many(self, predicates: Sequence[Predicate]) -> list[PlanChoice]:
        """Plan a burst of candidate predicates with one batched probe.

        All selectivities are fetched through the estimator's
        ``estimate_many`` (one vectorised call — and, behind a serving
        adapter, one consistent model version) instead of one scalar
        probe per candidate.
        """
        selectivities = self._estimator.estimate_many(predicates)
        return [
            self._plan_with(predicate, float(selectivity))
            for predicate, selectivity in zip(predicates, selectivities)
        ]

    def plan_with_true_selectivity(
        self, predicate: Predicate, true_selectivity: float
    ) -> PlanChoice:
        """Oracle plan: same cost model but fed the exact selectivity."""
        return self._plan_with(predicate, true_selectivity)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _plan_with(self, predicate: Predicate, selectivity: float) -> PlanChoice:
        row_count = self._table.row_count
        scan_cost = self._cost_model.scan_cost(row_count)
        usable_column = self._usable_index_column(predicate)
        if usable_column is None:
            return PlanChoice(
                access_path="seq_scan",
                index_column=None,
                estimated_selectivity=selectivity,
                estimated_cost=scan_cost,
                alternative_cost=float("inf"),
            )
        index_cost = self._cost_model.index_cost(row_count, selectivity)
        if index_cost < scan_cost:
            return PlanChoice(
                access_path="index_scan",
                index_column=usable_column,
                estimated_selectivity=selectivity,
                estimated_cost=index_cost,
                alternative_cost=scan_cost,
            )
        return PlanChoice(
            access_path="seq_scan",
            index_column=usable_column,
            estimated_selectivity=selectivity,
            estimated_cost=scan_cost,
            alternative_cost=index_cost,
        )

    def _usable_index_column(self, predicate: Predicate) -> str | None:
        """An indexed column constrained by the predicate, if any.

        Only simple conjunctive (box) predicates can use an index range
        scan in this engine; more complex predicates fall back to a scan.
        """
        if not isinstance(predicate, BoxPredicate) or not self._indexes:
            return None
        constrained_dims = {constraint.dim for constraint in predicate.constraints}
        for column in self.indexed_columns:
            if self._table.schema.column_index(column) in constrained_dims:
                return column
        return None


def plan_many_tables(
    optimizers: Mapping[str, AccessPathOptimizer],
    requests: Sequence[tuple[str, Predicate]],
) -> list[PlanChoice]:
    """Plan a burst of ``(table, predicate)`` candidates across tables.

    When every requested table's optimizer serves off the *same* backend
    through a :class:`~repro.serving.adapter.ServingEstimator`, all
    selectivities are fetched in one ``estimate_batch_mixed`` call —
    against a sharded backend that is one fan-out over the shards
    involved, each shard answering its keys through its vectorised batch
    path.  Otherwise each table's slice goes through its own optimizer's
    :meth:`~AccessPathOptimizer.plan_many`.  Either way, plans come back
    in input order.
    """
    plans: list[PlanChoice | None] = [None] * len(requests)
    for table, _ in requests:
        if table not in optimizers:
            raise SchemaError(f"no optimizer registered for table {table!r}")
    involved = {table for table, _ in requests}
    estimators = {table: optimizers[table]._estimator for table in involved}
    backends = {
        id(estimator.service)
        for estimator in estimators.values()
        if isinstance(estimator, ServingEstimator)
    }
    shared_backend = (
        len(backends) == 1
        and all(
            isinstance(estimator, ServingEstimator)
            for estimator in estimators.values()
        )
    )
    if shared_backend and requests:
        service = next(iter(estimators.values())).service
        pairs = [
            (estimators[table].key, predicate) for table, predicate in requests
        ]
        selectivities = service.estimate_batch_mixed(pairs)
        for index, (table, predicate) in enumerate(requests):
            plans[index] = optimizers[table]._plan_with(
                predicate, float(selectivities[index])
            )
    else:
        by_table: dict[str, list[int]] = {}
        for index, (table, _) in enumerate(requests):
            by_table.setdefault(table, []).append(index)
        for table, indices in by_table.items():
            table_plans = optimizers[table].plan_many(
                [requests[index][1] for index in indices]
            )
            for index, plan in zip(indices, table_plans):
                plans[index] = plan
    # Every slot must be filled: a silent gap would misalign plans with
    # requests for every caller zipping the two.  Raised explicitly
    # (not `assert`) so the invariant survives `python -O`.
    missing = [index for index, plan in enumerate(plans) if plan is None]
    if missing:
        raise AssertionError(f"plan slots {missing} were never filled")
    return [plan for plan in plans if plan is not None]


def plan_join_tree(estimators, predicates=None):
    """Order a 3+-table join tree by sandwiched cardinalities.

    ``estimators`` are the query's join edges
    (:class:`~repro.joins.estimator.SandwichedJoinEstimator`, all on one
    serving backend); ``predicates`` maps table name to its local
    filter.  All edges' per-table and join-model lookups travel in a
    single ``estimate_batch_mixed`` burst; edges without a registered
    join model fall back to the independence formula, clamped by the
    same pessimistic bounds.  Returns a
    :class:`~repro.joins.planner.JoinTreePlan`.

    Imported lazily: the joins subsystem sits above the engine, and the
    optimizer only reaches up when a caller actually plans a join tree.
    """
    from repro.joins.planner import JoinTreePlanner

    return JoinTreePlanner(estimators).plan(predicates)
