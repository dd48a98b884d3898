"""Tests for the workload and data generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads.dmv import DMV_SCHEMA, dmv_dataset, dmv_table
from repro.workloads.instacart import INSTACART_SCHEMA, instacart_dataset, instacart_table
from repro.workloads.queries import (
    FixedRangeQueryGenerator,
    RandomRangeQueryGenerator,
    SlidingRangeQueryGenerator,
    dmv_queries,
    filtered_feedback,
    instacart_queries,
    labelled_feedback,
    select_with_min_selectivity,
)
from repro.workloads.drift import AbruptShiftStream, DriftRegime
from repro.workloads.shifts import CorrelationDriftScenario
from repro.workloads.synthetic import correlation_matrix, gaussian_dataset


class TestGaussianDataset:
    def test_shape_and_domain(self):
        dataset = gaussian_dataset(1000, dimension=3, correlation=0.4, seed=1)
        assert dataset.rows.shape == (1000, 3)
        assert dataset.dimension == 3
        assert dataset.row_count == 1000
        assert dataset.domain.contains_points(dataset.rows).all()

    def test_correlation_is_respected(self):
        low = gaussian_dataset(20000, correlation=0.0, seed=1)
        high = gaussian_dataset(20000, correlation=0.8, seed=1)
        corr_low = np.corrcoef(low.rows.T)[0, 1]
        corr_high = np.corrcoef(high.rows.T)[0, 1]
        assert abs(corr_low) < 0.1
        assert corr_high > 0.5

    def test_reproducible_with_seed(self):
        a = gaussian_dataset(100, seed=5).rows
        b = gaussian_dataset(100, seed=5).rows
        np.testing.assert_array_equal(a, b)

    def test_correlation_matrix_validation(self):
        with pytest.raises(WorkloadError):
            correlation_matrix(0, 0.5)
        with pytest.raises(WorkloadError):
            correlation_matrix(2, 1.5)
        with pytest.raises(WorkloadError):
            correlation_matrix(4, -0.9)

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            gaussian_dataset(-1)
        with pytest.raises(WorkloadError):
            gaussian_dataset(10, scale=0)


class TestRealWorldStandIns:
    def test_dmv_rows_respect_schema_domain(self):
        dataset = dmv_dataset(5000, seed=0)
        assert dataset.rows.shape == (5000, 3)
        assert dataset.domain.contains_points(dataset.rows).all()

    def test_dmv_correlations_are_realistic(self):
        rows = dmv_dataset(20000, seed=0).rows
        # Registration dates follow model years; expirations follow registrations.
        assert np.corrcoef(rows[:, 0], rows[:, 1])[0, 1] > 0.5
        assert np.corrcoef(rows[:, 1], rows[:, 2])[0, 1] > 0.8
        assert (rows[:, 2] >= rows[:, 1] - 1e-9).all()

    def test_instacart_rows_respect_schema_domain(self):
        dataset = instacart_dataset(5000, seed=0)
        assert dataset.rows.shape == (5000, 2)
        assert dataset.domain.contains_points(dataset.rows).all()
        # Integer-valued columns.
        np.testing.assert_array_equal(dataset.rows, np.floor(dataset.rows))

    def test_instacart_hour_distribution_is_daytime_heavy(self):
        rows = instacart_dataset(20000, seed=0).rows
        daytime = ((rows[:, 0] >= 8) & (rows[:, 0] <= 18)).mean()
        assert daytime > 0.6

    def test_tables_are_built(self):
        assert dmv_table(1000).row_count == 1000
        assert instacart_table(1000).row_count == 1000

    def test_invalid_row_counts(self):
        with pytest.raises(WorkloadError):
            dmv_dataset(-1)
        with pytest.raises(WorkloadError):
            instacart_dataset(-1)


class TestQueryGenerators:
    def test_random_generator_boxes_inside_domain(self, unit_square):
        generator = RandomRangeQueryGenerator(unit_square, seed=0)
        for predicate in generator.generate(50):
            box = predicate.to_box(unit_square)
            assert unit_square.contains_box(box)
            assert box.volume > 0

    def test_random_generator_respects_dimensions(self, unit_cube_3d):
        generator = RandomRangeQueryGenerator(unit_cube_3d, dimensions=[0, 2], seed=0)
        for predicate in generator.generate(10):
            constrained = {c.dim for c in predicate.constraints}
            assert constrained == {0, 2}

    def test_random_generator_validation(self, unit_square):
        with pytest.raises(WorkloadError):
            RandomRangeQueryGenerator(unit_square, min_width=0.5, max_width=0.2)
        with pytest.raises(WorkloadError):
            RandomRangeQueryGenerator(unit_square, dimensions=[5])

    def test_sliding_generator_moves_across_domain(self, unit_square):
        generator = SlidingRangeQueryGenerator(unit_square, total=20, jitter=0.0, seed=0)
        predicates = generator.generate(20)
        first = predicates[0].to_box(unit_square).center
        last = predicates[-1].to_box(unit_square).center
        assert (last > first).all()

    def test_fixed_generator_repeats_one_predicate(self, unit_square):
        generator = FixedRangeQueryGenerator(unit_square)
        predicates = generator.generate(5)
        boxes = [p.to_box(unit_square) for p in predicates]
        assert all(box == boxes[0] for box in boxes)

    def test_dataset_query_templates(self):
        dmv_predicates = dmv_queries(20, seed=0)
        assert len(dmv_predicates) == 20
        domain = DMV_SCHEMA.domain()
        for predicate in dmv_predicates:
            assert domain.contains_box(predicate.to_box(domain))
        instacart_predicates = instacart_queries(20, seed=0)
        domain = INSTACART_SCHEMA.domain()
        for predicate in instacart_predicates:
            assert domain.contains_box(predicate.to_box(domain))

    def test_labelled_feedback(self, unit_square, gaussian_rows):
        generator = RandomRangeQueryGenerator(unit_square, seed=0)
        feedback = labelled_feedback(generator.generate(10), gaussian_rows)
        assert len(feedback) == 10
        for predicate, selectivity in feedback:
            assert selectivity == pytest.approx(predicate.selectivity(gaussian_rows))

    def test_selectivity_floor_filtering(self, unit_square, gaussian_rows):
        generator = RandomRangeQueryGenerator(
            unit_square, min_width=0.05, max_width=0.1, seed=0
        )
        feedback = filtered_feedback(
            generator, gaussian_rows, 20, min_selectivity=0.01, oversample=8
        )
        assert len(feedback) == 20
        # Most selected queries respect the floor (top-up is allowed but rare).
        above = sum(1 for _, s in feedback if s >= 0.01)
        assert above >= len(feedback) // 2
        unfiltered = labelled_feedback(generator.generate(20), gaussian_rows)
        unfiltered_above = sum(1 for _, s in unfiltered if s >= 0.01)
        assert above >= unfiltered_above

    def test_select_with_min_selectivity_top_up(self, unit_square, gaussian_rows):
        generator = RandomRangeQueryGenerator(unit_square, seed=0)
        predicates = generator.generate(5)
        # Impossible floor: falls back to unfiltered queries, still 5 results.
        feedback = select_with_min_selectivity(
            predicates, gaussian_rows, 5, min_selectivity=0.99
        )
        assert len(feedback) == 5


class TestDriftScenario:
    def test_phase_schedule(self):
        scenario = CorrelationDriftScenario(
            initial_rows=1000,
            insert_rows=200,
            queries_per_phase=10,
            phases=3,
            seed=0,
        )
        assert scenario.total_queries == 30
        assert scenario.initial_data().shape == (1000, 2)
        phases = list(scenario.phases())
        assert len(phases) == 3
        assert phases[0].new_rows.shape[0] == 0
        assert phases[1].new_rows.shape[0] == 200
        assert phases[1].correlation == pytest.approx(0.1)
        assert all(len(phase.queries) == 10 for phase in phases)

    def test_invalid_configuration(self):
        with pytest.raises(WorkloadError):
            CorrelationDriftScenario(initial_rows=0)
        with pytest.raises(WorkloadError):
            CorrelationDriftScenario(queries_per_phase=0)
        with pytest.raises(WorkloadError):
            CorrelationDriftScenario(correlation_step=2.0)


class TestDriftStreams:
    ROWS = 4_000  # small datasets keep labelling fast

    def test_streams_are_deterministic(self):
        def stream():
            return AbruptShiftStream(shift_at=40, rows=self.ROWS, seed=9)

        first, second = stream().labelled(60), stream().labelled(60)
        domain = stream().domain
        for (pa, sa), (pb, sb) in zip(first, second):
            assert sa == sb
            np.testing.assert_array_equal(
                pa.to_box(domain).as_array(), pb.to_box(domain).as_array()
            )

    def test_labels_stay_valid_selectivities(self):
        stream = AbruptShiftStream(shift_at=25, rows=self.ROWS, seed=3)
        feedback = stream.labelled(75)
        assert len(feedback) == 75
        assert stream.position == 75
        for predicate, selectivity in feedback:
            assert 0.0 <= selectivity <= 1.0
            assert stream.domain.contains_box(predicate.to_box(stream.domain))

    def test_abrupt_shift_changes_the_truth(self):
        stream = AbruptShiftStream(shift_at=50, rows=self.ROWS, seed=1)
        pre = stream.probes(40, index=0)
        post = stream.probes(40, index=50)
        # Same held-out predicates (same probe seed), different labels.
        gap = float(np.mean([abs(a[1] - b[1]) for a, b in zip(pre, post)]))
        assert gap > 0.05
        # The shift lands mid-batch at the advertised index.
        assert stream.regime_at(49) != stream.regime_at(50)
        assert stream.regime_at(0) == stream.regime_at(49)

    def test_probes_are_held_out_from_the_stream(self):
        stream = AbruptShiftStream(shift_at=50, rows=self.ROWS, seed=1)
        trained = {
            tuple(p.to_box(stream.domain).as_array().ravel())
            for p, _ in stream.labelled(40)
        }
        probed = {
            tuple(p.to_box(stream.domain).as_array().ravel())
            for p, _ in stream.probes(40)
        }
        assert not trained & probed

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            AbruptShiftStream(shift_at=0)
        with pytest.raises(WorkloadError):
            regime = DriftRegime(mean=(0.5, 0.5))
            AbruptShiftStream(shift_at=10, before=regime, after=regime)
        with pytest.raises(WorkloadError):
            DriftRegime(mean=(1.5, 0.5))
        with pytest.raises(WorkloadError):
            DriftRegime(mean=(0.5, 0.5), scale=0.0)
        with pytest.raises(WorkloadError):
            # Regime dimensionality must match the stream's.
            AbruptShiftStream(
                shift_at=10,
                before=DriftRegime(mean=(0.3, 0.3, 0.3)),
                after=DriftRegime(mean=(0.7, 0.7, 0.7)),
                dimension=2,
            ).labelled(1)
