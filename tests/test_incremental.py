"""Tests for the incremental training pipeline.

Covers the anchor reservoir, the cached/rank-k-updated Cholesky
factorisation, the :class:`IncrementalTrainer` delta path, and the
end-to-end QuickSel guarantees: incremental refits must match
from-scratch training (same subpopulations) to 1e-9 in the weights and
1e-12 in the estimates, across arbitrary interleavings of
observe/observe_many/refit — including centre-rebuild boundaries.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.incremental import IncrementalTrainer
from repro.core.mixture import UniformMixtureModel
from repro.core.predicate import BoxPredicate, RangeConstraint
from repro.core.quicksel import QuickSel
from repro.core.region import Region
from repro.core.subpopulation import AnchorReservoir
from repro.core.training import ObservedQuery, build_problem, solve
from repro.exceptions import SolverError, TrainingError
from repro.solvers.linalg import CachedCholesky, cholesky_update

WEIGHT_PARITY = 1e-9
ESTIMATE_PARITY = 1e-12


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


# ----------------------------------------------------------------------
# Anchor reservoir
# ----------------------------------------------------------------------
class TestAnchorReservoir:
    def test_keeps_everything_under_capacity(self):
        reservoir = AnchorReservoir(capacity=100)
        rng = np.random.default_rng(0)
        points = rng.uniform(size=(60, 2))
        reservoir.add(points[:30], rng)
        reservoir.add(points[30:], rng)
        assert len(reservoir) == 60
        assert reservoir.seen == 60
        np.testing.assert_array_equal(reservoir.points(), points)

    def test_capacity_bound_and_uniformity(self):
        reservoir = AnchorReservoir(capacity=50)
        rng = np.random.default_rng(1)
        # Points whose first coordinate encodes their global index.
        total = 5000
        points = np.stack([np.arange(total, dtype=float), np.zeros(total)], axis=1)
        for start in range(0, total, 100):
            reservoir.add(points[start : start + 100], rng)
        assert len(reservoir) == 50
        assert reservoir.seen == total
        kept = reservoir.points()[:, 0]
        # A uniform sample over [0, total): mean near total/2.
        assert abs(kept.mean() - total / 2) < total / 5

    def test_deterministic_given_seed(self):
        def run():
            reservoir = AnchorReservoir(capacity=20)
            rng = np.random.default_rng(9)
            for chunk in np.split(rng.uniform(size=(200, 3)), 10):
                reservoir.add(chunk, rng)
            return reservoir.points()

        np.testing.assert_array_equal(run(), run())

    def test_dimension_mismatch_rejected(self):
        reservoir = AnchorReservoir(capacity=10)
        rng = np.random.default_rng(0)
        reservoir.add(np.zeros((2, 2)), rng)
        with pytest.raises(TrainingError):
            reservoir.add(np.zeros((2, 3)), rng)
        with pytest.raises(TrainingError):
            reservoir.add(np.zeros(4), rng)

    def test_invalid_capacity(self):
        with pytest.raises(TrainingError):
            AnchorReservoir(capacity=0)

    def test_empty_batches_are_noops(self):
        reservoir = AnchorReservoir(capacity=10)
        rng = np.random.default_rng(0)
        reservoir.add(np.zeros((0, 2)), rng)
        assert len(reservoir) == 0
        assert reservoir.points().shape == (0, 0)

    def test_evict_before_drops_expired_births(self):
        reservoir = AnchorReservoir(capacity=12)
        rng = np.random.default_rng(2)
        reservoir.add(np.full((4, 2), 1.0), rng, birth=0)
        reservoir.add(np.full((4, 2), 2.0), rng, birth=3)
        reservoir.add(np.full((4, 2), 3.0), rng, birth=7)
        assert reservoir.evict_before(4) == 8
        assert len(reservoir) == 4
        assert (reservoir.births() == 7.0).all()
        np.testing.assert_array_equal(
            reservoir.points(), np.full((4, 2), 3.0)
        )
        # Algorithm R restarts over the survivors: seen == live count,
        # so the next adds fill the freed slots instead of being
        # discounted by lifetime history.
        assert reservoir.seen == 4
        reservoir.add(np.full((8, 2), 4.0), rng, birth=8)
        assert len(reservoir) == 12

    def test_evict_before_without_matches_is_a_noop(self):
        reservoir = AnchorReservoir(capacity=8)
        rng = np.random.default_rng(3)
        reservoir.add(np.ones((5, 2)), rng, birth=10)
        assert reservoir.evict_before(10) == 0
        assert len(reservoir) == 5
        assert AnchorReservoir(capacity=4).evict_before(99) == 0

    def test_birthless_points_count_as_infinitely_old(self):
        reservoir = AnchorReservoir(capacity=8)
        rng = np.random.default_rng(4)
        reservoir.add(np.ones((3, 2)), rng)
        assert (reservoir.births() == -np.inf).all()
        assert reservoir.evict_before(0) == 3
        assert len(reservoir) == 0

    def test_windowed_trainer_rebuilds_anchor_on_live_window_only(self):
        """After a centre rebuild, every anchor's query is in the window."""
        domain = Hyperrectangle([[0.0, 1.0], [0.0, 1.0]])
        config = QuickSelConfig(
            window_policy="sliding",
            training_window=40,
            max_subpopulations=64,
            anchor_reservoir_capacity=50,
            center_rebuild_factor=1.0,
        )
        model = QuickSel(domain, config)
        rng = np.random.default_rng(5)
        for index in range(200):
            low = rng.uniform(0, 0.8, size=2)
            high = low + 0.2
            predicate = BoxPredicate(
                [
                    RangeConstraint(0, low[0], high[0]),
                    RangeConstraint(1, low[1], high[1]),
                ]
            )
            model.observe(predicate, float((high - low).prod()))
            if (index + 1) % 40 == 0:
                model.refit()
                trainer = model.trainer
                assert trainer.last_report.rebuilt_centers
                births = trainer.reservoir.births()
                window_start = index + 1 - config.training_window
                assert births.shape[0] > 0
                assert (births >= window_start).all()


# ----------------------------------------------------------------------
# Rank-k Cholesky updates
# ----------------------------------------------------------------------
def random_spd(rng, m):
    basis = rng.uniform(0.2, 1.0, size=(m, m))
    return basis @ basis.T + m * np.eye(m)


class TestCholeskyUpdate:
    def test_rank_k_update_matches_refactorization(self, rng):
        m, k = 12, 4
        matrix = random_spd(rng, m)
        rows = rng.uniform(-1.0, 1.0, size=(k, m))
        L = np.linalg.cholesky(matrix)
        updated = cholesky_update(L, rows)
        expected = np.linalg.cholesky(matrix + rows.T @ rows)
        np.testing.assert_allclose(updated, expected, atol=1e-10)
        # Input factor untouched.
        np.testing.assert_array_equal(L, np.linalg.cholesky(matrix))

    def test_single_vector_update(self, rng):
        m = 6
        matrix = random_spd(rng, m)
        vector = rng.uniform(size=m)
        updated = cholesky_update(np.linalg.cholesky(matrix), vector)
        expected = np.linalg.cholesky(matrix + np.outer(vector, vector))
        np.testing.assert_allclose(updated, expected, atol=1e-10)

    def test_shape_validation(self):
        with pytest.raises(SolverError):
            cholesky_update(np.zeros((2, 3)), np.zeros((1, 2)))
        with pytest.raises(SolverError):
            cholesky_update(np.eye(3), np.zeros((1, 2)))

    def test_breakdown_raises(self):
        # A non-finite factor cannot absorb an update.
        bad = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(SolverError):
            cholesky_update(bad, np.ones((1, 2)))


class TestCachedCholesky:
    def test_factorize_and_solve(self, rng):
        matrix = random_spd(rng, 8)
        rhs = rng.uniform(size=8)
        cache = CachedCholesky()
        assert not cache.available
        cache.factorize(matrix)
        assert cache.available
        np.testing.assert_allclose(
            cache.solve(rhs), np.linalg.solve(matrix, rhs), atol=1e-10
        )
        assert cache.refactorizations == 1

    def test_ridge_applied(self, rng):
        matrix = random_spd(rng, 5)
        rhs = rng.uniform(size=5)
        cache = CachedCholesky()
        cache.factorize(matrix, ridge=0.5)
        np.testing.assert_allclose(
            cache.solve(rhs),
            np.linalg.solve(matrix + 0.5 * np.eye(5), rhs),
            atol=1e-10,
        )

    def test_update_rows_folds_into_factor(self, rng):
        matrix = random_spd(rng, 10)
        rows = rng.uniform(-1.0, 1.0, size=(2, 10))
        rhs = rng.uniform(size=10)
        # A tiny cost ratio forces the rank-k path even at small m.
        cache = CachedCholesky(update_cost_ratio=1.0)
        cache.factorize(matrix)
        assert cache.update_rows(rows)
        assert cache.rank_updates == 1
        np.testing.assert_allclose(
            cache.solve(rhs),
            np.linalg.solve(matrix + rows.T @ rows, rhs),
            atol=1e-10,
        )

    def test_update_declined_when_refactorization_cheaper(self, rng):
        matrix = random_spd(rng, 4)
        cache = CachedCholesky()  # default ratio: tiny m always declines
        cache.factorize(matrix)
        assert not cache.update_rows(np.ones((1, 4)))
        assert cache.available  # declined, factor untouched
        assert cache.rank_updates == 0

    def test_update_without_factor_declines(self):
        cache = CachedCholesky(update_cost_ratio=1.0)
        assert not cache.update_rows(np.ones((1, 3)))

    def test_empty_update_is_noop(self, rng):
        cache = CachedCholesky(update_cost_ratio=1.0)
        cache.factorize(random_spd(rng, 3))
        assert cache.update_rows(np.zeros((0, 3)))
        assert cache.rank_updates == 0

    def test_condition_limit_declines_update(self, rng):
        matrix = np.eye(3) * 1e-6
        cache = CachedCholesky(update_cost_ratio=1.0, condition_limit=10.0)
        cache.factorize(matrix)
        # A huge row would blow the diagonal ratio past the limit.
        assert not cache.update_rows(np.full((1, 3), 1e6) * np.array([1, 0, 0]))
        assert cache.available

    def test_non_positive_definite_raises_and_invalidates(self):
        cache = CachedCholesky()
        with pytest.raises(SolverError):
            cache.factorize(-np.eye(3))
        assert not cache.available
        with pytest.raises(SolverError):
            cache.solve(np.ones(3))

    def test_invalidate(self, rng):
        cache = CachedCholesky()
        cache.factorize(random_spd(rng, 3))
        cache.invalidate()
        assert not cache.available


# ----------------------------------------------------------------------
# IncrementalTrainer
# ----------------------------------------------------------------------
@pytest.fixture
def feedback_pool(unit_square, gaussian_rows, random_box_queries):
    predicates = random_box_queries(120, seed=42)
    return [(p, p.selectivity(gaussian_rows)) for p in predicates]


class TestIncrementalTrainer:
    def test_first_fit_is_full(self, unit_square, feedback_pool):
        trainer = IncrementalTrainer(unit_square, QuickSelConfig(random_seed=0))
        rng = np.random.default_rng(0)
        report = trainer.fit(observed(feedback_pool[:10], unit_square), rng)
        assert not report.incremental
        assert report.rebuilt_centers
        assert report.refactorized
        assert report.delta_rows == report.total_rows == 11  # + default query
        assert trainer.trained_count == 10

    def test_steady_state_is_incremental(self, unit_square, feedback_pool):
        config = QuickSelConfig(random_seed=0, center_rebuild_factor=4.0)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        trainer.fit(queries[:40], rng)
        report = trainer.fit(queries[:48], rng)
        assert report.incremental
        assert not report.rebuilt_centers
        assert report.delta_rows == 8
        assert report.total_rows == 49
        assert len(report.subpopulations) == 160  # m frozen at the rebuild

    def test_incremental_weights_match_scratch(self, unit_square, feedback_pool):
        config = QuickSelConfig(random_seed=0)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        for upto in (30, 36, 42, 48, 54, 90, 95, 120):
            report = trainer.fit(queries[:upto], rng)
            expected = scratch_weights(
                report.subpopulations, queries[:upto], unit_square, config
            )
            assert np.abs(report.result.weights - expected).max() <= WEIGHT_PARITY

    def test_forced_rank_updates_match_scratch(self, unit_square, feedback_pool):
        config = QuickSelConfig(random_seed=0, center_rebuild_factor=100.0)
        trainer = IncrementalTrainer(
            unit_square, config, factor_cache=CachedCholesky(update_cost_ratio=1.0)
        )
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        trainer.fit(queries[:20], rng)
        for upto in (28, 36, 44, 52, 60):
            report = trainer.fit(queries[:upto], rng)
            assert report.incremental and not report.refactorized
            expected = scratch_weights(
                report.subpopulations, queries[:upto], unit_square, config
            )
            assert np.abs(report.result.weights - expected).max() <= WEIGHT_PARITY
        assert trainer.factor_cache.rank_updates == 5

    def test_rebuild_factor_boundary(self, unit_square, feedback_pool):
        config = QuickSelConfig(random_seed=0, center_rebuild_factor=2.0)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        trainer.fit(queries[:20], rng)  # rebuild at n=20, m=80
        assert len(trainer.subpopulations) == 80
        report = trainer.fit(queries[:39], rng)
        assert report.incremental  # 39 < 2 * 20
        report = trainer.fit(queries[:40], rng)  # 40 >= 2 * 20
        assert not report.incremental and report.rebuilt_centers
        assert len(report.subpopulations) == 160  # budget follows n again

    def test_rebuild_invalidates_cached_factor(self, unit_square, feedback_pool):
        """Regression: a centre rebuild must not solve with the stale factor."""
        config = QuickSelConfig(random_seed=0, center_rebuild_factor=2.0)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        trainer.fit(queries[:20], rng)
        refactors_before = trainer.factor_cache.refactorizations
        report = trainer.fit(queries[:40], rng)  # rebuild: m 80 -> 160
        assert report.rebuilt_centers and report.refactorized
        assert trainer.factor_cache.refactorizations > refactors_before
        # The weights belong to the *new* problem, not the stale factor.
        expected = scratch_weights(
            report.subpopulations, queries[:40], unit_square, config
        )
        assert report.result.weights.shape == (160,)
        assert np.abs(report.result.weights - expected).max() <= WEIGHT_PARITY

    def test_non_incremental_config_always_rebuilds(
        self, unit_square, feedback_pool
    ):
        config = QuickSelConfig(random_seed=0, incremental_training=False)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        trainer.fit(queries[:20], rng)
        report = trainer.fit(queries[:21], rng)
        assert not report.incremental
        assert report.rebuilt_centers

    def test_shrinking_stream_invalidates(self, unit_square, feedback_pool):
        config = QuickSelConfig(random_seed=0)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool, unit_square)
        trainer.fit(queries[:30], rng)
        report = trainer.fit(queries[:10], rng)  # rewound stream
        assert not report.incremental
        assert trainer.trained_count == 10
        expected = scratch_weights(
            report.subpopulations, queries[:10], unit_square, config
        )
        assert np.abs(report.result.weights - expected).max() <= WEIGHT_PARITY

    def test_empty_stream_builds_domain_model(self, unit_square):
        trainer = IncrementalTrainer(unit_square, QuickSelConfig(random_seed=0))
        report = trainer.fit([], np.random.default_rng(0))
        assert len(report.subpopulations) == 1
        assert report.subpopulations[0].box == unit_square

    def test_refit_with_no_new_queries_reuses_solution(
        self, unit_square, feedback_pool
    ):
        trainer = IncrementalTrainer(unit_square, QuickSelConfig(random_seed=0))
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool[:15], unit_square)
        first = trainer.fit(queries, rng)
        again = trainer.fit(queries, rng)
        assert again.incremental and again.delta_rows == 0
        assert again.result is first.result

    def test_failed_fit_resets_cache_without_duplicate_rows(
        self, unit_square, feedback_pool, monkeypatch
    ):
        """Regression: a solver failure mid-fit must not leave the delta
        rows absorbed — a retry would re-append them and silently break
        the from-scratch parity contract."""
        import repro.core.incremental as incremental_module

        config = QuickSelConfig(random_seed=0, solver="projected_gradient")
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        queries = observed(feedback_pool[:25], unit_square)
        trainer.fit(queries[:20], rng)

        def explode(*args, **kwargs):
            raise SolverError("injected failure")

        monkeypatch.setattr(
            incremental_module, "solve_projected_gradient", explode
        )
        with pytest.raises(SolverError):
            trainer.fit(queries, rng)
        monkeypatch.undo()

        report = trainer.fit(queries, rng)
        assert not report.incremental  # cache dropped: clean full rebuild
        assert report.total_rows == 26  # 25 queries + default row, no dupes
        assert trainer.trained_count == 25

    @pytest.mark.parametrize("solver", ["projected_gradient", "scipy"])
    def test_iterative_solvers_stay_accurate_incrementally(
        self, unit_square, gaussian_rows, random_box_queries, solver
    ):
        config = QuickSelConfig(random_seed=0, solver=solver)
        trainer = IncrementalTrainer(unit_square, config)
        rng = np.random.default_rng(0)
        predicates = random_box_queries(24, seed=11)
        feedback = [(p, p.selectivity(gaussian_rows)) for p in predicates]
        queries = observed(feedback, unit_square)
        trainer.fit(queries[:16], rng)
        report = trainer.fit(queries[:24], rng)
        assert report.incremental
        model = UniformMixtureModel(
            list(report.subpopulations), report.result.weights
        )
        errors = [
            abs(model.estimate(q.region) - q.selectivity) for q in queries[:24]
        ]
        assert float(np.mean(errors)) < 0.1


# ----------------------------------------------------------------------
# QuickSel end-to-end
# ----------------------------------------------------------------------
class TestQuickSelIncremental:
    def test_refit_stats_carry_delta_fields(self, unit_square, feedback_pool):
        estimator = QuickSel(unit_square, QuickSelConfig(random_seed=0))
        estimator.observe_many(feedback_pool[:40], refit=True)
        assert not estimator.last_refit.incremental
        assert estimator.trained_count == 40
        estimator.observe_many(feedback_pool[40:48], refit=True)
        stats = estimator.last_refit
        assert stats.incremental
        assert stats.delta_rows == 8
        assert stats.observed_queries == 48
        assert estimator.trained_count == 48

    def test_estimates_match_scratch_model(self, unit_square, feedback_pool):
        estimator = QuickSel(unit_square, QuickSelConfig(random_seed=0))
        estimator.observe_many(feedback_pool[:64], refit=True)
        for upto in (80, 96, 112):
            estimator.observe_many(feedback_pool[upto - 16 : upto], refit=True)
        assert estimator.last_refit.incremental
        weights = scratch_weights(
            estimator.trainer.subpopulations,
            estimator.observed_queries,
            unit_square,
            estimator.config,
        )
        scratch_model = UniformMixtureModel(
            list(estimator.trainer.subpopulations), weights
        )
        for predicate, _ in feedback_pool[:30]:
            region = predicate.to_region(unit_square)
            assert abs(
                estimator.model.estimate(region) - scratch_model.estimate(region)
            ) <= ESTIMATE_PARITY

    def test_deepcopy_carries_incremental_state(self, unit_square, feedback_pool):
        estimator = QuickSel(unit_square, QuickSelConfig(random_seed=0))
        estimator.observe_many(feedback_pool[:40], refit=True)
        clone = copy.deepcopy(estimator)
        clone.observe_many(feedback_pool[40:44], refit=True)
        assert clone.last_refit.incremental
        assert clone.trained_count == 44
        assert estimator.trained_count == 40  # original untouched
        expected = scratch_weights(
            clone.trainer.subpopulations,
            clone.observed_queries,
            unit_square,
            clone.config,
        )
        assert np.abs(clone.trainer.last_report.result.weights - expected).max() <= (
            WEIGHT_PARITY
        )

    def test_multi_box_regions_supported_incrementally(
        self, unit_square, feedback_pool
    ):
        estimator = QuickSel(unit_square, QuickSelConfig(random_seed=0))
        estimator.observe_many(feedback_pool[:20], refit=True)
        disjunction = Region.from_boxes(
            [
                Hyperrectangle([[0.0, 0.2], [0.0, 1.0]]),
                Hyperrectangle([[0.8, 1.0], [0.0, 1.0]]),
            ]
        )
        estimator.observe(disjunction, 0.4)
        stats = estimator.refit()
        assert stats.incremental and stats.delta_rows == 1
        expected = scratch_weights(
            estimator.trainer.subpopulations,
            estimator.observed_queries,
            unit_square,
            estimator.config,
        )
        weights = estimator.trainer.last_report.result.weights
        assert np.abs(weights - expected).max() <= WEIGHT_PARITY

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from(["observe", "observe_many", "refit"]),
                st.integers(min_value=1, max_value=12),
            ),
            min_size=3,
            max_size=10,
        )
    )
    def test_property_interleavings_match_scratch(
        self, unit_square, feedback_pool, plan
    ):
        """Any observe/observe_many/refit interleaving keeps parity."""
        config = QuickSelConfig(random_seed=0)
        estimator = QuickSel(unit_square, config)
        cursor = 0
        for action, count in plan:
            if action == "observe" and cursor < len(feedback_pool):
                predicate, selectivity = feedback_pool[cursor]
                estimator.observe(predicate, selectivity)
                cursor += 1
            elif action == "observe_many":
                batch = feedback_pool[cursor : cursor + count]
                estimator.observe_many(batch)
                cursor += len(batch)
            else:
                estimator.refit()
        # A final refit pins the model at the full observed stream so the
        # from-scratch comparator sees the same training set.
        estimator.refit()
        expected = scratch_weights(
            estimator.trainer.subpopulations,
            estimator.observed_queries,
            unit_square,
            config,
        )
        weights = estimator.trainer.last_report.result.weights
        assert np.abs(weights - expected).max() <= WEIGHT_PARITY
        scratch_model = UniformMixtureModel(
            list(estimator.trainer.subpopulations), expected
        )
        for predicate, _ in feedback_pool[:10]:
            region = predicate.to_region(unit_square)
            assert abs(
                estimator.model.estimate(region) - scratch_model.estimate(region)
            ) <= ESTIMATE_PARITY
