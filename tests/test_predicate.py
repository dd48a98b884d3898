"""Unit tests for the predicate algebra."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.geometry import Hyperrectangle
from repro.core.predicate import (
    BoxPredicate,
    Conjunction,
    Disjunction,
    EqualityConstraint,
    Negation,
    RangeConstraint,
    TruePredicate,
    and_,
    box_predicate,
    not_,
    or_,
)
from repro.exceptions import PredicateError

NAN = float("nan")


@pytest.fixture
def domain():
    return Hyperrectangle([[0, 10], [0, 10]])


@pytest.fixture
def grid_points():
    xs, ys = np.meshgrid(np.linspace(0.5, 9.5, 10), np.linspace(0.5, 9.5, 10))
    return np.stack([xs.ravel(), ys.ravel()], axis=1)


class TestConstraints:
    def test_range_constraint_bounds(self, domain):
        constraint = RangeConstraint(0, 2, 5)
        assert constraint.bounds_within(domain) == (2, 5)

    def test_one_sided_constraints_use_domain(self, domain):
        assert RangeConstraint(0, low=3).bounds_within(domain) == (3, 10)
        assert RangeConstraint(1, high=4).bounds_within(domain) == (0, 4)

    def test_out_of_domain_constraint_collapses(self, domain):
        constraint = RangeConstraint(0, 20, 30)
        low, high = constraint.bounds_within(domain)
        assert low == high

    def test_invalid_range_rejected(self):
        with pytest.raises(PredicateError):
            RangeConstraint(0, 5, 2)
        with pytest.raises(PredicateError):
            RangeConstraint(0)
        with pytest.raises(PredicateError):
            RangeConstraint(-1, 0, 1)
        # A NaN side would lower as open but match no row.
        for low, high in ((NAN, 2.0), (1.0, NAN), (NAN, None), (None, NAN)):
            with pytest.raises(PredicateError):
                RangeConstraint(0, low, high)

    def test_range_matches(self):
        constraint = RangeConstraint(0, 2, 5)
        np.testing.assert_array_equal(
            constraint.matches(np.array([1.0, 2.0, 3.0, 5.0, 6.0])),
            [False, True, True, True, False],
        )

    def test_equality_constraint_discrete(self, domain):
        constraint = EqualityConstraint(0, 3, width=1.0)
        assert constraint.bounds_within(domain) == (3, 4)
        np.testing.assert_array_equal(
            constraint.matches(np.array([2.9, 3.0, 3.5, 4.0])),
            [False, True, True, False],
        )

    def test_equality_constraint_continuous(self):
        constraint = EqualityConstraint(0, 3, width=0.0)
        np.testing.assert_array_equal(
            constraint.matches(np.array([3.0, 3.1])), [True, False]
        )

    def test_equality_invalid(self):
        with pytest.raises(PredicateError):
            EqualityConstraint(0, 1, width=-1)
        with pytest.raises(PredicateError):
            EqualityConstraint(-2, 1)
        # [value, value + width) must be defined: no NaN, no -inf + inf.
        for value, width in ((NAN, 1.0), (1.0, NAN), (-math.inf, math.inf)):
            with pytest.raises(PredicateError):
                EqualityConstraint(1, value, width)


class TestBoxPredicate:
    def test_to_box(self, domain):
        predicate = box_predicate([(0, 1, 4), (1, 2, 6)])
        box = predicate.to_box(domain)
        np.testing.assert_allclose(box.bounds, [[1, 4], [2, 6]])

    def test_unconstrained_dimension_spans_domain(self, domain):
        predicate = box_predicate([(0, 1, 4)])
        box = predicate.to_box(domain)
        np.testing.assert_allclose(box.bounds, [[1, 4], [0, 10]])

    def test_empty_constraint_list_rejected(self):
        with pytest.raises(PredicateError):
            BoxPredicate([])

    def test_constraint_beyond_domain_dimension_rejected(self, domain):
        predicate = box_predicate([(5, 0, 1)])
        with pytest.raises(PredicateError):
            predicate.to_box(domain)

    def test_matches_and_selectivity(self, domain, grid_points):
        predicate = box_predicate([(0, 0, 5), (1, 0, 5)])
        # Exactly a quarter of the uniform grid falls in [0,5]x[0,5].
        assert predicate.selectivity(grid_points) == pytest.approx(0.25)

    def test_selectivity_of_empty_data(self):
        predicate = box_predicate([(0, 0, 1)])
        assert predicate.selectivity(np.zeros((0, 2))) == 0.0

    def test_region_matches_box(self, domain):
        predicate = box_predicate([(0, 1, 4), (1, 2, 6)])
        region = predicate.to_region(domain)
        assert region.volume == pytest.approx(predicate.to_box(domain).volume)


class TestTruePredicate:
    def test_selects_everything(self, domain, grid_points):
        predicate = TruePredicate()
        assert predicate.selectivity(grid_points) == 1.0
        assert predicate.to_region(domain).volume == pytest.approx(domain.volume)


class TestCompositePredicates:
    def test_conjunction(self, domain, grid_points):
        a = box_predicate([(0, 0, 5)])
        b = box_predicate([(1, 0, 5)])
        conjunction = a & b
        assert isinstance(conjunction, Conjunction)
        assert conjunction.selectivity(grid_points) == pytest.approx(0.25)
        region = conjunction.to_region(domain)
        assert region.volume == pytest.approx(25.0)

    def test_disjunction(self, domain, grid_points):
        a = box_predicate([(0, 0, 5)])
        b = box_predicate([(1, 0, 5)])
        disjunction = a | b
        assert isinstance(disjunction, Disjunction)
        # P(A or B) = 0.5 + 0.5 - 0.25 on the uniform grid.
        assert disjunction.selectivity(grid_points) == pytest.approx(0.75)
        assert disjunction.to_region(domain).volume == pytest.approx(75.0)

    def test_negation(self, domain, grid_points):
        a = box_predicate([(0, 0, 5)])
        negation = ~a
        assert isinstance(negation, Negation)
        assert negation.selectivity(grid_points) == pytest.approx(0.5)
        assert negation.to_region(domain).volume == pytest.approx(50.0)

    def test_nested_composition_region_measure(self, domain, grid_points):
        # (x <= 5 AND y <= 5) OR NOT (x <= 8)
        predicate = or_(
            and_(box_predicate([(0, 0, 5)]), box_predicate([(1, 0, 5)])),
            not_(box_predicate([(0, 0, 8)])),
        )
        region = predicate.to_region(domain)
        # Region measure / domain volume equals selectivity of uniform data.
        expected = predicate.selectivity(grid_points)
        assert region.volume / domain.volume == pytest.approx(expected, abs=0.01)

    def test_empty_children_rejected(self):
        with pytest.raises(PredicateError):
            Conjunction([])
        with pytest.raises(PredicateError):
            Disjunction([])

    def test_single_argument_helpers_pass_through(self):
        predicate = box_predicate([(0, 0, 1)])
        assert and_(predicate) is predicate
        assert or_(predicate) is predicate
