"""Tests for streaming-window training (Cholesky downdates + drift serving).

Covers the contracts the streaming-window pipeline makes:

* :func:`~repro.solvers.linalg.cholesky_downdate` matches a direct
  refactorisation and raises on loss of positive definiteness;
  :meth:`~repro.solvers.linalg.CachedCholesky.modify_rows` prices
  update+downdate pairs as one cost/condition decision,
* :class:`~repro.core.incremental.WindowedRowStore` never holds more
  than ``training_window`` live rows, evicts FIFO, pins the
  default-query row, and its backing buffer never grows (the memory
  bound),
* the windowed trainer's weights match from-scratch training on exactly
  the live window's queries to 1e-9 — bitwise on the refactorisation
  path — under arbitrary observe/observe_many/refit interleavings, with
  the forced update+downdate path holding the same bar, and the window
  favours recent feedback over conflicting old feedback,
* serving: the count and absolute drift triggers keep their labels, the
  ``drift_refits_triggered`` counter reaches snapshots, a windowed
  backend recovers from an abrupt distribution shift where the
  unbounded trainer stays wrong, and windowed keys migrate with their
  windows across cluster resizes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import QuickSelConfig
from repro.core.incremental import IncrementalTrainer, WindowedRowStore
from repro.core.quicksel import QuickSel
from repro.core.training import ObservedQuery, build_problem, solve
from repro.exceptions import SolverError, TrainingError
from repro.serving import RefitPolicy, ServingStats
from repro.serving.stats import BACKEND_ERROR_WINDOW
from repro.solvers.linalg import (
    CachedCholesky,
    cholesky_downdate,
    cholesky_update,
    regularized_solve,
)
from repro.workloads.drift import AbruptShiftStream
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

WEIGHT_PARITY = 1e-9
ESTIMATE_PARITY = 1e-12


@pytest.fixture(scope="module")
def feedback_pool():
    """A deterministic labelled feedback stream over the unit square."""
    dataset = gaussian_dataset(5_000, dimension=2, correlation=0.5, seed=7)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=8)
    return dataset.domain, labelled_feedback(
        generator.generate(400), dataset.rows
    )


def observed(feedback, domain):
    return [
        ObservedQuery(region=p.to_region(domain), selectivity=s)
        for p, s in feedback
    ]


def scratch_weights(trainer_subs, queries, domain, config):
    """From-scratch training on the trainer's own subpopulations."""
    problem = build_problem(
        list(trainer_subs),
        queries,
        domain=domain,
        include_default_query=config.include_default_query,
    )
    return solve(
        problem,
        solver=config.solver,
        penalty=config.penalty,
        regularization=config.regularization,
    ).weights


def random_gram_rows(rng, n, m):
    """Rows whose Gram matrix is safely positive definite."""
    return rng.normal(size=(n, m)) + 0.1 * np.eye(n, m)


# ----------------------------------------------------------------------
# Rank-k Cholesky downdates
# ----------------------------------------------------------------------
class TestCholeskyDowndate:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        m=st.integers(min_value=2, max_value=12),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_downdate_matches_direct_factorization(self, seed, m, k):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(m + 8, m))
        removed = rng.normal(size=(k, m))
        kept = base.T @ base + 1e-3 * np.eye(m)
        full = np.linalg.cholesky(kept + removed.T @ removed)
        downdated = cholesky_downdate(full, removed)
        direct = np.linalg.cholesky(kept)
        assert np.abs(downdated - direct).max() <= 1e-8

    def test_update_then_downdate_roundtrip(self):
        rng = np.random.default_rng(0)
        m = 6
        base = rng.normal(size=(20, m))
        rows = rng.normal(size=(3, m))
        factor = np.linalg.cholesky(base.T @ base + 1e-6 * np.eye(m))
        roundtrip = cholesky_downdate(cholesky_update(factor, rows), rows)
        assert np.abs(roundtrip - factor).max() <= 1e-9

    def test_removing_foreign_rows_breaks_down(self):
        factor = np.linalg.cholesky(np.eye(3))
        with pytest.raises(SolverError, match="positive definiteness"):
            cholesky_downdate(factor, np.array([[2.0, 0.0, 0.0]]))

    def test_input_factor_untouched_and_validation(self):
        factor = np.linalg.cholesky(4.0 * np.eye(2))
        before = factor.copy()
        cholesky_downdate(factor, np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(factor, before)
        with pytest.raises(SolverError, match="square"):
            cholesky_downdate(np.ones((2, 3)), np.ones((1, 3)))
        with pytest.raises(SolverError, match="columns"):
            cholesky_downdate(factor, np.ones((1, 5)))


class TestModifyRows:
    def make_cache(self, G, **kwargs):
        cache = CachedCholesky(**kwargs)
        cache.factorize(G)
        return cache

    def test_pair_matches_exact_solve(self):
        rng = np.random.default_rng(1)
        m, n = 8, 40
        rows = random_gram_rows(rng, n, m)
        added = rng.normal(size=(3, m))
        removed = rows[:3]
        cache = self.make_cache(rows.T @ rows, update_cost_ratio=1.0)
        assert cache.modify_rows(added, removed)
        exact = rows[3:].T @ rows[3:] + added.T @ added
        rhs = rng.normal(size=m)
        expected = regularized_solve(exact, rhs)
        assert np.abs(cache.solve(rhs) - expected).max() <= WEIGHT_PARITY
        assert cache.rank_updates == 1 and cache.rank_downdates == 1

    def test_downdate_then_refactorize_parity(self):
        """A factor downdated rank-k agrees with refactorising from the
        surviving rows — the fallback the trainer relies on."""
        rng = np.random.default_rng(2)
        m, n = 10, 60
        rows = random_gram_rows(rng, n, m)
        cache = self.make_cache(rows.T @ rows, update_cost_ratio=1.0)
        assert cache.downdate_rows(rows[:4])
        refreshed = CachedCholesky()
        refreshed.factorize(rows[4:].T @ rows[4:])
        rhs = rng.normal(size=m)
        assert np.abs(cache.solve(rhs) - refreshed.solve(rhs)).max() <= (
            WEIGHT_PARITY
        )

    def test_cost_gate_prices_the_pair(self):
        rng = np.random.default_rng(3)
        m = 6
        rows = random_gram_rows(rng, 30, m)
        cache = self.make_cache(rows.T @ rows, update_cost_ratio=1e9)
        # Declined on cost: factor untouched, no counters.
        assert not cache.modify_rows(rng.normal(size=(2, m)), rows[:2])
        assert cache.available
        assert cache.rank_updates == 0 and cache.rank_downdates == 0

    def test_breakdown_invalidates_the_factor(self):
        cache = self.make_cache(np.eye(3), update_cost_ratio=1.0)
        assert not cache.modify_rows(None, np.array([[5.0, 0.0, 0.0]]))
        assert not cache.available

    def test_empty_pair_is_a_noop(self):
        rng = np.random.default_rng(4)
        rows = random_gram_rows(rng, 20, 5)
        cache = self.make_cache(rows.T @ rows, update_cost_ratio=1.0)
        assert cache.modify_rows(None, None)
        assert cache.modify_rows(np.zeros((0, 5)), np.zeros(0))
        assert cache.rank_updates == 0 and cache.rank_downdates == 0

    def test_shape_mismatch_declines(self):
        rng = np.random.default_rng(5)
        rows = random_gram_rows(rng, 20, 5)
        cache = self.make_cache(rows.T @ rows, update_cost_ratio=1.0)
        assert not cache.modify_rows(np.ones((1, 4)), None)
        assert cache.available


# ----------------------------------------------------------------------
# The windowed row store (the memory bound)
# ----------------------------------------------------------------------
class TestWindowedRowStore:
    def test_fifo_eviction_returns_the_evicted_rows(self):
        rows = np.arange(12, dtype=float).reshape(6, 2)
        store = WindowedRowStore(rows[:1], window=4, pinned=1)
        store.append(rows[1:5])
        evicted = store.evict(2)
        np.testing.assert_array_equal(evicted, rows[1:3])
        np.testing.assert_array_equal(
            store.array, np.concatenate([rows[:1], rows[3:5]])
        )
        store.append(rows[5:])
        np.testing.assert_array_equal(store.array[0], rows[0])  # pinned

    def test_capacity_is_fixed_when_windowed(self):
        store = WindowedRowStore(np.zeros((1, 3)), window=8, pinned=1)
        baseline = store.nbytes
        for round_ in range(20):
            if store.window_size + 4 > 8:
                store.evict(store.window_size + 4 - 8)
            store.append(np.full((4, 3), float(round_)))
            assert store.window_size <= 8
            assert store.capacity_rows == 9
            assert store.nbytes == baseline

    def test_overflow_raises_instead_of_silently_growing(self):
        store = WindowedRowStore(np.zeros((0, 2)), window=3)
        with pytest.raises(TrainingError, match="overflow"):
            store.append(np.ones((4, 2)))

    def test_initial_rows_beyond_window_keep_the_newest(self):
        rows = np.arange(10, dtype=float).reshape(10, 1)
        store = WindowedRowStore(rows, window=4)
        np.testing.assert_array_equal(store.array, rows[6:])

    def test_one_dimensional_stores(self):
        store = WindowedRowStore(np.array([1.0, 2.0, 3.0]), window=2, pinned=1)
        evicted = store.evict(1)
        store.append(np.array([4.0]))
        np.testing.assert_array_equal(evicted, [2.0])
        np.testing.assert_array_equal(store.array, [1.0, 3.0, 4.0])

    def test_unbounded_store_grows(self):
        store = WindowedRowStore(np.zeros((1, 2)))
        store.append(np.ones((100, 2)))
        assert len(store) == 101
        assert store.window is None

    def test_validation(self):
        with pytest.raises(TrainingError):
            WindowedRowStore(np.zeros((2, 2)), pinned=3)
        with pytest.raises(TrainingError):
            WindowedRowStore(np.zeros((2, 2)), window=0)
        store = WindowedRowStore(np.zeros((3, 2)), window=4)
        with pytest.raises(TrainingError):
            store.evict(-1)
        with pytest.raises(TrainingError):
            store.evict(5)

    @settings(max_examples=30, deadline=None)
    @given(
        batches=st.lists(
            st.integers(min_value=0, max_value=7), min_size=1, max_size=20
        ),
        window=st.integers(min_value=1, max_value=9),
    )
    def test_property_live_rows_never_exceed_window(self, batches, window):
        """The memory-bound regression test at the store level."""
        store = WindowedRowStore(np.zeros((1, 2)), window=window, pinned=1)
        cursor = 0.0
        for size in batches:
            size = min(size, window)
            overflow = store.window_size + size - window
            if overflow > 0:
                store.evict(overflow)
            block = np.full((size, 2), cursor)
            cursor += 1.0
            store.append(block)
            assert store.window_size <= window
            assert len(store) <= window + 1
            assert store.capacity_rows == window + 1


# ----------------------------------------------------------------------
# Windowed trainer parity
# ----------------------------------------------------------------------
def sliding_config(window=96, m=48, **kwargs):
    kwargs.setdefault("random_seed", 0)
    return QuickSelConfig(
        window_policy="sliding",
        training_window=window,
        fixed_subpopulations=m,
        **kwargs,
    )


class TestWindowedTrainer:
    def test_window_never_exceeds_bound_and_stats_report_it(
        self, feedback_pool
    ):
        domain, feedback = feedback_pool
        estimator = QuickSel(domain, sliding_config(window=64, m=32))
        for start in range(0, 320, 16):
            estimator.observe_many(feedback[start : start + 16])
            stats = estimator.refit()
            assert stats.window_size <= 64
            assert stats.window_size == min(start + 16, 64)
            assert len(estimator.observed_queries) <= 64
            assert estimator.trainer.row_store.window_size <= 64
        assert estimator.observed_count == 320
        assert stats.evicted_rows == 16
        assert stats.observed_queries == 320

    def test_row_store_memory_is_flat_after_the_window_fills(
        self, feedback_pool
    ):
        """The trainer-level memory-bound regression test."""
        domain, feedback = feedback_pool
        estimator = QuickSel(
            domain, sliding_config(window=48, m=24, center_rebuild_factor=1e9)
        )
        estimator.observe_many(feedback[:48], refit=True)
        nbytes = estimator.trainer.row_store.nbytes
        capacity = estimator.trainer.row_store.capacity_rows
        for start in range(48, 400, 8):
            estimator.observe_many(feedback[start : start + 8], refit=True)
            assert estimator.trainer.row_store.nbytes == nbytes
            assert estimator.trainer.row_store.capacity_rows == capacity

    def test_windowed_weights_match_scratch_on_the_window(self, feedback_pool):
        domain, feedback = feedback_pool
        config = sliding_config()
        estimator = QuickSel(domain, config)
        for start in range(0, 280, 20):
            estimator.observe_many(feedback[start : start + 20], refit=True)
            expected = scratch_weights(
                estimator.trainer.subpopulations,
                estimator.observed_queries,
                domain,
                config,
            )
            got = estimator.trainer.last_report.result.weights
            assert np.abs(got - expected).max() <= WEIGHT_PARITY
            if estimator.trainer.last_report.refactorized:
                np.testing.assert_array_equal(got, expected)

    def test_forced_downdate_path_keeps_parity(self, feedback_pool):
        """Pin the update+downdate path on and hold the 1e-9 bar."""
        domain, feedback = feedback_pool
        window = 128
        config = sliding_config(window=window, m=48, center_rebuild_factor=1e9)
        trainer = IncrementalTrainer(
            domain,
            config,
            factor_cache=CachedCholesky(update_cost_ratio=1.0),
        )
        rng = np.random.default_rng(0)
        queries = observed(feedback, domain)
        trainer.fit(queries[:window], rng, observed_total=window)
        parity = 0.0
        for upto in range(window + 16, len(queries) + 1, 16):
            live = queries[upto - window : upto]
            report = trainer.fit(live, rng, observed_total=upto)
            expected = scratch_weights(
                report.subpopulations, live, domain, config
            )
            parity = max(
                parity, float(np.abs(report.result.weights - expected).max())
            )
            assert report.evicted_rows == 16 and report.window_size == window
        assert trainer.factor_cache.rank_downdates > 0
        assert parity <= WEIGHT_PARITY

    def test_skipping_a_whole_window_between_refits(self, feedback_pool):
        """Queries that arrive and expire untrained are simply dropped."""
        domain, feedback = feedback_pool
        config = sliding_config(window=32, m=16, center_rebuild_factor=1e9)
        estimator = QuickSel(domain, config)
        estimator.observe_many(feedback[:32], refit=True)
        # 80 observations land before the next refit: 48 of them expire
        # without ever being trained on.
        estimator.observe_many(feedback[32:112], refit=True)
        stats = estimator.last_refit
        assert stats.incremental
        assert stats.window_size == 32
        assert stats.delta_rows == 32
        assert stats.evicted_rows == 32
        expected = scratch_weights(
            estimator.trainer.subpopulations,
            estimator.observed_queries,
            domain,
            config,
        )
        got = estimator.trainer.last_report.result.weights
        assert np.abs(got - expected).max() <= WEIGHT_PARITY

    def test_oversized_query_list_is_rejected(self, feedback_pool):
        domain, feedback = feedback_pool
        trainer = IncrementalTrainer(domain, sliding_config(window=8, m=8))
        with pytest.raises(TrainingError, match="trim"):
            trainer.fit(
                observed(feedback[:20], domain),
                np.random.default_rng(0),
                observed_total=20,
            )

    def test_recent_feedback_dominates_conflicting_old_feedback(
        self, unit_square
    ):
        from repro.core.predicate import box_predicate

        box = box_predicate([(0, 0.2, 0.5), (1, 0.2, 0.5)])
        windowed = QuickSel(unit_square, sliding_config(window=30, m=16))
        unbounded = QuickSel(
            unit_square,
            QuickSelConfig(random_seed=0, fixed_subpopulations=16),
        )
        for estimator in (windowed, unbounded):
            estimator.observe_many([(box, 0.8)] * 30)
            estimator.observe_many([(box, 0.2)] * 30, refit=True)
        assert abs(windowed.estimate(box) - 0.2) < 0.1
        # The unbounded trainer averages the conflict instead.
        assert abs(unbounded.estimate(box) - 0.5) < 0.1

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from(["observe", "observe_many", "refit"]),
                st.integers(min_value=1, max_value=24),
            ),
            min_size=3,
            max_size=12,
        ),
        window=st.sampled_from([24, 40, 72]),
    )
    def test_property_interleavings_match_scratch_on_window(
        self, feedback_pool, plan, window
    ):
        """Any observe/refit/evict interleaving keeps window parity."""
        domain, feedback = feedback_pool
        config = sliding_config(window=window, m=24)
        estimator = QuickSel(domain, config)
        cursor = 0
        for action, count in plan:
            if action == "observe" and cursor < len(feedback):
                predicate, selectivity = feedback[cursor]
                estimator.observe(predicate, selectivity)
                cursor += 1
            elif action == "observe_many":
                batch = feedback[cursor : cursor + count]
                estimator.observe_many(batch)
                cursor += len(batch)
            else:
                estimator.refit()
            assert len(estimator.observed_queries) <= window
        estimator.refit()
        assert estimator.trainer.row_store.window_size <= window
        expected = scratch_weights(
            estimator.trainer.subpopulations,
            estimator.observed_queries,
            domain,
            config,
        )
        got = estimator.trainer.last_report.result.weights
        assert np.abs(got - expected).max() <= WEIGHT_PARITY
        if estimator.trainer.last_report.refactorized:
            np.testing.assert_array_equal(got, expected)


def test_window_config_validation():
    with pytest.raises(TrainingError):
        QuickSelConfig(window_policy="sliding")
    with pytest.raises(TrainingError):
        QuickSelConfig(training_window=32)
    with pytest.raises(TrainingError):
        QuickSelConfig(window_policy="everything")
    with pytest.raises(TrainingError):
        QuickSelConfig(window_policy="decayed", training_window=32)


# ----------------------------------------------------------------------
# Refit triggers and their counters
# ----------------------------------------------------------------------
class TestRefitTriggers:
    def test_count_and_absolute_triggers_keep_their_labels(self):
        policy = RefitPolicy(min_new_observations=4)
        assert policy.decide(4, []).trigger == "count"
        drifted = RefitPolicy(
            min_new_observations=1_000,
            drift_threshold=0.1,
            min_drift_observations=4,
        ).decide(1, [0.5] * 8)
        assert drifted.trigger == "drift"

    def test_drift_refit_counter_lands_in_snapshots(self):
        stats = ServingStats()
        stats.add("refits_triggered")
        stats.add("drift_refits_triggered")
        assert stats.counters()["drift_refits_triggered"] == 1
        assert stats.snapshot()["drift_refits_triggered"] == 1

    def test_stats_error_window_keeps_the_newest(self):
        stats = ServingStats()
        recorded = BACKEND_ERROR_WINDOW + 6
        stats.record_backend_errors("k", "QuickSel", [0.1] * recorded)
        assert (
            len(stats.backend_error_windows()[("k", "QuickSel")])
            == BACKEND_ERROR_WINDOW
        )
        stats.forget_backend_errors("k")
        assert ("k", "QuickSel") not in stats.backend_error_windows()


# ----------------------------------------------------------------------
# End-to-end: serving a drifting key
# ----------------------------------------------------------------------
PRE_SHIFT = 400
POST_SHIFT = 224


def drift_serving_run(windowed: bool):
    """Serve one key through an abrupt shift; returns the error evidence."""
    from repro.serving import RefitScheduler, SelectivityService

    stream = AbruptShiftStream(shift_at=PRE_SHIFT, rows=6_000, seed=13)
    if windowed:
        config = sliding_config(window=128, m=64)
    else:
        config = QuickSelConfig(random_seed=0, fixed_subpopulations=64)
    backend = QuickSel(stream.domain, config)
    backend.observe_many(stream.labelled(256), refit=True)
    policy = RefitPolicy(
        min_new_observations=48,
        drift_threshold=1.0,  # absolute trigger effectively off
        drift_window=16,
        min_drift_observations=8,
    )
    service = SelectivityService(
        policy=policy, scheduler=RefitScheduler("inline")
    )
    key = service.register_model("drifting", backend)
    for predicate, selectivity in stream.labelled(PRE_SHIFT - 256):
        service.observe(key, predicate, selectivity)
    error_before_shift = float(
        np.mean(
            [
                abs(service.estimate(key, p) - s)
                for p, s in stream.probes(80, index=PRE_SHIFT - 1)
            ]
        )
    )
    for predicate, selectivity in stream.labelled(POST_SHIFT):
        service.observe(key, predicate, selectivity)
    error_after_shift = float(
        np.mean(
            [abs(service.estimate(key, p) - s) for p, s in stream.probes(80)]
        )
    )
    return {"error_before": error_before_shift, "error_after": error_after_shift}


class TestServingUnderDrift:
    @pytest.fixture(scope="class")
    def runs(self):
        return drift_serving_run(True), drift_serving_run(False)

    def test_windowed_backend_recovers_where_unbounded_stays_wrong(self, runs):
        windowed, unbounded = runs
        # Both models served the pre-shift distribution well.
        assert windowed["error_before"] < 0.05
        assert unbounded["error_before"] < 0.05
        # After the shift the windowed trainer refits onto its window and
        # recovers; the unbounded one keeps averaging the dead
        # distribution into its normal equations.
        assert windowed["error_after"] < 0.05
        assert windowed["error_after"] < unbounded["error_after"] / 2


# ----------------------------------------------------------------------
# Cluster: windows migrate with their keys
# ----------------------------------------------------------------------
class TestClusterWindowMigration:
    def test_windowed_key_migrates_with_its_window(self):
        import copy

        from repro.cluster import ShardedSelectivityService

        dataset = gaussian_dataset(5_000, dimension=2, correlation=0.5, seed=21)
        generator = RandomRangeQueryGenerator(dataset.domain, seed=22)
        feedback = labelled_feedback(generator.generate(120), dataset.rows)
        base = QuickSel(dataset.domain, sliding_config(window=64, m=32))
        base.observe_many(feedback[:80], refit=True)
        cluster = ShardedSelectivityService(
            num_shards=2, scheduler_mode="inline"
        )
        tables = [f"win{i}" for i in range(6)]
        for table in tables:
            cluster.register_model(table, copy.deepcopy(base))
        for table in tables:
            for predicate, selectivity in feedback[80:100]:
                cluster.observe(table, predicate, selectivity)
        cluster.drain()
        placements = {t: cluster.shard_for(t) for t in tables}
        probes = [p for p, _ in feedback[100:]]
        before = {
            t: cluster.estimate_batch(t, probes).tolist() for t in tables
        }
        cluster.add_shard()
        moved = [t for t in tables if cluster.shard_for(t) != placements[t]]
        assert moved, "no key moved; the ring should reassign some keys"
        for table in tables:
            np.testing.assert_array_equal(
                cluster.estimate_batch(table, probes), before[table]
            )
        for table in moved:
            # The windowed trainer itself moved: feedback count is the
            # lifetime count, and the next refit still trains windowed.
            assert cluster.feedback_count(table) == 100
            cluster.observe(table, probes[0], 0.5)
            snapshot = cluster.refit_now(table)
            assert snapshot.model is not None
        fleet = cluster.fleet_stats()["aggregate"]
        assert fleet["drift_refits_triggered"] >= 0  # counter aggregates
        cluster.close()
