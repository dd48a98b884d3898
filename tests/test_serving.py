"""Tests for the selectivity-serving subsystem (repro.serving).

Covers the contracts the serving layer makes:

* registry snapshots are immutable, versions are monotonic, and hot-swaps
  stay atomic under interleaved refit/estimate threads,
* the LRU result cache is version-scoped and invalidated on publish,
* ``estimate_many``/``estimate_batch`` match scalar ``estimate``
  elementwise (property-tested over random predicates),
* the refit policy's count and drift triggers fire as specified,
* the engine's :class:`~repro.engine.feedback.FeedbackLoop` routes
  executor feedback through the service and the optimizer plans off the
  served snapshot.
"""

from __future__ import annotations

import copy
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.predicate import (
    BoxBatch,
    BoxPredicate,
    EqualityConstraint,
    RangeConstraint,
    TruePredicate,
    box_predicate,
)
from repro.core.quicksel import QuickSel
from repro.core.region import Region
from repro.engine import (
    AccessPathOptimizer,
    Catalog,
    Column,
    Executor,
    FeedbackLoop,
    QueryBuilder,
    Schema,
    Table,
)
from repro.exceptions import PredicateError, ServingError
from repro.serving import (
    EstimateCache,
    EstimatorRegistry,
    ModelKey,
    ModelSnapshot,
    RefitPolicy,
    RefitScheduler,
    SelectivityService,
    ServingEstimator,
    ServingStats,
    normalize_key,
    predicate_cache_key,
)
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset


@pytest.fixture(scope="module")
def trained_world():
    """A dataset, feedback stream, and a trained QuickSel."""
    dataset = gaussian_dataset(8_000, dimension=2, correlation=0.5, seed=3)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=4)
    feedback = labelled_feedback(generator.generate(120), dataset.rows)
    trained = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
    trained.observe_many(feedback[:80], refit=True)
    return dataset, feedback, trained


# ----------------------------------------------------------------------
# Registry and snapshots
# ----------------------------------------------------------------------
class TestRegistry:
    def test_bootstrap_snapshot_is_uniform(self, unit_square):
        registry = EstimatorRegistry()
        key = ModelKey("t")
        snapshot = registry.register(key, unit_square)
        assert snapshot.version == 0
        assert snapshot.is_bootstrap
        box = Hyperrectangle([[0.0, 0.5], [0.0, 0.5]])
        assert snapshot.estimate(box) == pytest.approx(0.25)

    def test_bootstrap_clips_region_predicates_to_domain(self, unit_square):
        """A region sticking out of the domain must only count the part
        inside it (regression: unclipped pieces doubled the estimate)."""
        registry = EstimatorRegistry()
        snapshot = registry.register(ModelKey("t"), unit_square)
        half_out_box = Hyperrectangle([[0.5, 1.5], [0.0, 1.0]])
        region = Region.from_box(half_out_box)
        assert snapshot.estimate(region) == pytest.approx(0.5)
        assert snapshot.estimate(half_out_box) == pytest.approx(0.5)
        np.testing.assert_allclose(
            snapshot.estimate_many([region, half_out_box]), [0.5, 0.5]
        )

    def test_register_is_idempotent(self, unit_square):
        registry = EstimatorRegistry()
        key = ModelKey("t")
        first = registry.register(key, unit_square)
        again = registry.register(key, unit_square)
        assert again is first

    def test_publish_bumps_version_by_one(self, trained_world, unit_square):
        _, _, trained = trained_world
        registry = EstimatorRegistry()
        key = ModelKey("t")
        registry.register(key, trained.domain)
        first = registry.publish(key, trained.model, trained.observed_count)
        second = registry.publish(key, trained.model, trained.observed_count)
        assert (first.version, second.version) == (1, 2)
        assert registry.current(key) is second

    def test_publish_to_unknown_key_raises(self, trained_world):
        _, _, trained = trained_world
        registry = EstimatorRegistry()
        with pytest.raises(ServingError):
            registry.publish(ModelKey("nope"), trained.model, 1)

    def test_current_unknown_key_raises(self):
        with pytest.raises(ServingError):
            EstimatorRegistry().current(ModelKey("missing"))

    @pytest.mark.parametrize(
        "table",
        [
            123,
            None,
            b"t",
            ModelKey(None),
            ModelKey("t", ("x", 1)),
            ModelKey("t", ["x"]),
        ],
        ids=["int", "none", "bytes", "none-table", "int-column", "list-columns"],
    )
    def test_normalize_key_refuses_malformed_keys(self, table):
        with pytest.raises(ServingError, match="model key"):
            normalize_key(table)

    def test_listeners_fire_on_publish(self, trained_world):
        _, _, trained = trained_world
        registry = EstimatorRegistry()
        key = ModelKey("t")
        registry.register(key, trained.domain)
        seen = []
        registry.add_listener(lambda k, snap: seen.append((k, snap.version)))
        registry.publish(key, trained.model, trained.observed_count)
        assert seen == [(key, 1)]

    def test_version_atomicity_under_interleaved_refit_and_estimate(
        self, trained_world
    ):
        """Readers racing a publisher must only ever see complete snapshots
        with monotonically non-decreasing versions.

        The models are trained up front and every thread does a fixed
        amount of work, so the race is the publishes themselves and the
        test's length does not depend on how the GIL is scheduled.
        """
        dataset, feedback, _ = trained_world
        registry = EstimatorRegistry()
        key = ModelKey("t")
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=1))
        registry.register(key, dataset.domain)
        models = []
        for count in range(5, 45, 5):
            trainer.observe_many(feedback[:count])
            trainer.refit()
            models.append((trainer.model, trainer.observed_count))
        probe = feedback[100][0]
        errors: list[str] = []
        start = threading.Barrier(5)

        def publisher():
            start.wait()
            for model, trained_on in models:
                registry.publish(key, model, trained_on)

        def reader():
            start.wait()
            last_version = -1
            for _ in range(200):
                snapshot = registry.current(key)
                if snapshot.version < last_version:
                    errors.append(
                        f"version went backwards: {last_version} -> "
                        f"{snapshot.version}"
                    )
                last_version = snapshot.version
                value = snapshot.estimate(probe)
                if not (0.0 <= value <= 1.0):
                    errors.append(f"broken snapshot served {value}")

        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer = threading.Thread(target=publisher)
        for thread in readers + [writer]:
            thread.start()
        for thread in readers + [writer]:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in readers + [writer])
        assert not errors
        assert registry.current(key).version == 8


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestEstimateCache:
    def test_lru_eviction(self):
        cache = EstimateCache(capacity=2)
        cache.put(("k", 1, "a"), 0.1)
        cache.put(("k", 1, "b"), 0.2)
        assert cache.get(("k", 1, "a")) == 0.1  # refresh "a"
        cache.put(("k", 1, "c"), 0.3)  # evicts "b"
        assert cache.get(("k", 1, "b")) is None
        assert cache.get(("k", 1, "a")) == 0.1
        assert cache.get(("k", 1, "c")) == 0.3

    def test_invalidate_drops_only_the_model_key(self):
        cache = EstimateCache()
        cache.put(("k1", 1, "a"), 0.1)
        cache.put(("k1", 2, "b"), 0.2)
        cache.put(("k2", 1, "a"), 0.3)
        assert cache.invalidate("k1") == 2
        assert cache.get(("k1", 1, "a")) is None
        assert cache.get(("k2", 1, "a")) == 0.3

    def test_predicate_cache_key_distinguishes_predicates(self):
        p1 = box_predicate([(0, 0.1, 0.5), (1, 0.2, 0.6)])
        p2 = box_predicate([(0, 0.1, 0.5), (1, 0.2, 0.7)])
        same_as_p1 = box_predicate([(0, 0.1, 0.5), (1, 0.2, 0.6)])
        assert predicate_cache_key(p1) == predicate_cache_key(same_as_p1)
        assert predicate_cache_key(p1) != predicate_cache_key(p2)
        assert predicate_cache_key(p1 | p2) != predicate_cache_key(p1 & p2)
        assert predicate_cache_key(~p1) != predicate_cache_key(p1)

    def test_injected_empty_cache_is_not_discarded(self, make_service):
        """Regression: an empty EstimateCache is falsy (it has __len__),
        so `cache or EstimateCache()` silently replaced an injected
        small cache with a default-capacity one."""
        small = EstimateCache(capacity=2)
        service = make_service(cache=small)
        assert service.cache is small

    def test_unbudgeted_cache_behaviour_unchanged(self):
        cache = EstimateCache(capacity=8)
        for index in range(6):
            cache.put(("k", 1, index), float(index))
        assert len(cache) == 6  # no per-key bound applies
        assert cache.entries_for("k") == 6
        cache.clear()
        assert len(cache) == 0

    def test_cache_invalidation_on_hot_swap(self, trained_world, make_service):
        """After a publish, estimates must come from the new version even
        though the old result was cached."""
        dataset, feedback, _ = trained_world
        # Disable both triggers so refit_now() below is the trainer's
        # first refit (keeping its RNG in lockstep with the direct twin).
        service = make_service(
            policy=RefitPolicy(min_new_observations=10_000, drift_threshold=1.0)
        )
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", trainer)
        probe = feedback[100][0]

        uniform_estimate = service.estimate(key, probe)
        assert service.estimate(key, probe) == uniform_estimate  # cached hit
        assert service.stats.cache_hits >= 1

        for predicate, selectivity in feedback[:60]:
            service.observe(key, predicate, selectivity)
        swapped = service.refit_now(key)
        assert swapped.version >= 1

        fresh = service.estimate(key, probe)
        direct = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        direct.observe_many(feedback[:60], refit=True)
        assert fresh == pytest.approx(direct.estimate(probe), abs=1e-9)
        assert fresh != uniform_estimate


# ----------------------------------------------------------------------
# Batch estimation equivalence (property test)
# ----------------------------------------------------------------------
class TestBatchEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_estimate_many_matches_scalar_elementwise(
        self, data, trained_world
    ):
        _, _, trained = trained_world
        count = data.draw(st.integers(min_value=1, max_value=12))
        predicates = []
        for index in range(count):
            low_x = data.draw(
                st.floats(min_value=0.0, max_value=0.8), label=f"lx{index}"
            )
            low_y = data.draw(
                st.floats(min_value=0.0, max_value=0.8), label=f"ly{index}"
            )
            width = data.draw(
                st.floats(min_value=0.0, max_value=0.5), label=f"w{index}"
            )
            predicate = box_predicate(
                [
                    (0, low_x, min(low_x + width, 1.0)),
                    (1, low_y, min(low_y + width, 1.0)),
                ]
            )
            if data.draw(st.booleans(), label=f"neg{index}"):
                predicate = ~predicate
            predicates.append(predicate)
        batched = trained.estimate_many(predicates)
        scalar = np.array([trained.estimate(p) for p in predicates])
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_batch_equivalence_for_regions_and_boxes(self, trained_world):
        _, feedback, trained = trained_world
        box = Hyperrectangle([[0.2, 0.7], [0.1, 0.5]])
        mixed = [
            feedback[0][0],
            feedback[1][0] | feedback[2][0],
            ~feedback[3][0],
            box,
            feedback[4][0].to_region(trained.domain),
        ]
        batched = trained.estimate_many(mixed)
        scalar = np.array([trained.estimate(p) for p in mixed])
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_service_batch_matches_direct_estimator(self, trained_world, make_service):
        dataset, feedback, trained = trained_world
        service = make_service()
        twin = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        twin.observe_many(feedback[:80], refit=True)
        key = service.register_model("t", twin)
        probes = [predicate for predicate, _ in feedback[80:]]
        served = service.estimate_batch(key, probes)
        direct = np.array([trained.estimate(p) for p in probes])
        np.testing.assert_allclose(served, direct, atol=1e-9)
        # A second pass is answered from the cache with identical values.
        again = service.estimate_batch(key, probes)
        np.testing.assert_array_equal(served, again)
        assert service.stats.cache_hits == len(probes)

    def test_empty_batch(self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        service = make_service()
        twin = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", twin)
        assert service.estimate_batch(key, []).shape == (0,)

    def test_a_repeat_within_one_batch_is_priced_once(
        self, trained_world, make_service, monkeypatch
    ):
        """One vectorised pass can price the same box an ulp apart at two
        positions (0.0898205449664693 and 0.08982054496646928 for this
        batch), so a repeat is priced once and every position, and the
        cache, get the first value."""
        dataset, _, trained = trained_world
        probes = RandomRangeQueryGenerator(dataset.domain, seed=9).generate(400)
        batch = probes[1:7] + [probes[0], probes[8], probes[0]]
        priced: list[int] = []
        estimate_many = ModelSnapshot.estimate_many

        def spy(self, predicates):
            priced.append(len(predicates))
            return estimate_many(self, predicates)

        monkeypatch.setattr(ModelSnapshot, "estimate_many", spy)
        service = make_service()
        key = service.register_model("t", copy.deepcopy(trained))
        served = service.estimate_batch(key, batch)
        assert priced == [8]
        assert served[6].tobytes() == served[8].tobytes()
        assert service.stats.cache_misses == len(batch)
        assert np.float64(service.estimate(key, probes[0])).tobytes() == (
            served[6].tobytes()
        )


# ----------------------------------------------------------------------
# The row form of a burst of boxes (BoxBatch)
# ----------------------------------------------------------------------
#: Bounds on the unit square's dimensions, inside and outside it, with
#: both zeros so sign bits are exercised.
_EDGES = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5), st.sampled_from([-0.0, 0.0, 1.0])
)


@st.composite
def _box_constraints(draw):
    dim = draw(st.integers(min_value=0, max_value=1))
    kind = draw(st.sampled_from(["range", "low", "high", "equality"]))
    if kind == "equality":
        width = draw(st.sampled_from([0.0, 0.5, 1.0, math.inf]))
        return EqualityConstraint(dim, draw(_EDGES), width)
    low, high = sorted((draw(_EDGES), draw(_EDGES)))
    return RangeConstraint(
        dim, None if kind == "high" else low, None if kind == "low" else high
    )


#: 1-4 constraints per box, dimensions may repeat.
_BOXES = st.lists(_box_constraints(), min_size=1, max_size=4).map(BoxPredicate)


class TestRowForm:
    @settings(max_examples=60, deadline=None)
    @given(
        predicates=st.lists(_BOXES, min_size=1, max_size=12),
        rows_first=st.booleans(),
    )
    def test_rows_rebuild_key_and_serve_like_the_predicates(
        self, trained_world, predicates, rows_first
    ):
        dataset, _, trained = trained_world
        batch = pickle.loads(pickle.dumps(BoxBatch.pack(predicates)))
        assert len(batch) == len(predicates)
        for index, predicate in enumerate(predicates):
            # Equal bytes: equal bounds with the same sign bits.
            assert (
                batch[index].to_bounds_array(dataset.domain).tobytes()
                == predicate.to_bounds_array(dataset.domain).tobytes()
            )
            assert predicate_cache_key(predicate) == ("P", batch.key(index))
        # The service prices each distinct box once, in first-seen order.
        tokens = [predicate_cache_key(p) for p in predicates]
        distinct: dict = {}
        for token, predicate in zip(tokens, predicates):
            distinct.setdefault(token, predicate)
        service = SelectivityService(scheduler=RefitScheduler("inline"))
        try:
            key = service.register_model("t", copy.deepcopy(trained))
            priced = dict(
                zip(
                    distinct,
                    service.snapshot_for(key).estimate_many(
                        list(distinct.values())
                    ),
                )
            )
            first, second = (batch, predicates) if rows_first else (predicates, batch)
            served = service.estimate_batch(key, first)
            hits = service.stats.cache_hits
            again = service.estimate_batch(key, second)
            assert service.stats.cache_hits - hits == len(predicates)
        finally:
            service.close()
        np.testing.assert_array_equal(served, [priced[t] for t in tokens])
        np.testing.assert_array_equal(again, served)

    def test_only_plain_boxes_pack(self, unit_square):
        box = box_predicate([(0, 0.1, 0.5)])
        assert len(BoxBatch.pack([box, box])) == 2
        for other in (
            box | box,
            ~box,
            Hyperrectangle([[0.0, 0.5], [0.0, 0.5]]),
            Region.from_box(unit_square),
            TruePredicate(),
        ):
            assert BoxBatch.pack([box, other]) is None

    def test_malformed_rows_are_refused(self):
        rows = np.zeros((2, 3))
        for bad_rows, offsets in (
            (np.zeros((2, 2)), [0, 2]),
            (rows, [0, 3]),
            (rows, [1, 2]),
            (rows, [0, 0, 2]),
            (rows, []),
        ):
            with pytest.raises(PredicateError):
                BoxBatch(bad_rows, offsets)


# ----------------------------------------------------------------------
# Refit policy and background scheduler
# ----------------------------------------------------------------------
class TestRefitPolicy:
    def test_count_trigger(self):
        policy = RefitPolicy(min_new_observations=5)
        assert not policy.decide(4, [])
        decision = policy.decide(5, [])
        assert decision and decision.reason.startswith("count")

    def test_drift_trigger(self):
        policy = RefitPolicy(
            min_new_observations=1_000,
            drift_threshold=0.1,
            drift_window=4,
            min_drift_observations=4,
        )
        assert not policy.decide(3, [0.05, 0.05, 0.05, 0.05])
        decision = policy.decide(3, [0.0, 0.3, 0.3, 0.3])
        assert decision and decision.reason.startswith("drift")

    def test_drift_needs_minimum_observations(self):
        policy = RefitPolicy(
            min_new_observations=1_000, drift_threshold=0.01,
            min_drift_observations=8,
        )
        assert not policy.decide(3, [0.9] * 7)
        assert policy.decide(3, [0.9] * 8)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ServingError):
            RefitPolicy(min_new_observations=0)
        with pytest.raises(ServingError):
            RefitPolicy(drift_threshold=0.0)

    def test_count_trigger_drives_background_refit(self, trained_world):
        dataset, feedback, _ = trained_world
        service = SelectivityService(
            policy=RefitPolicy(min_new_observations=10),
            scheduler=RefitScheduler("background"),
        )
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", trainer)
        for predicate, selectivity in feedback[:20]:
            service.observe(key, predicate, selectivity)
        service.drain(timeout=30)
        snapshot = service.snapshot_for(key)
        assert snapshot.version >= 1
        assert not snapshot.is_bootstrap
        assert service.stats.refits_completed >= 1
        assert not service.scheduler.failures

    def test_drift_trigger_fires_before_count(self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        service = make_service(
            policy=RefitPolicy(
                min_new_observations=10_000,
                drift_threshold=0.05,
                drift_window=4,
                min_drift_observations=4,
            )
        )
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", trainer)
        # The bootstrap uniform model badly mis-estimates a selective
        # workload, so the drift statistic crosses the threshold quickly.
        triggered = False
        for predicate, selectivity in feedback[:12]:
            triggered = service.observe(key, predicate, selectivity) or triggered
        assert triggered
        assert service.stats.drift_refits_triggered >= 1
        assert service.snapshot_for(key).version >= 1

    def test_scheduler_coalesces_queued_but_not_running_keys(self):
        scheduler = RefitScheduler("inline")
        ran = []
        assert scheduler.submit("k", lambda: ran.append(1))
        assert scheduler.submit("k", lambda: ran.append(2))  # ran: not pending
        assert ran == [1, 2]
        barrier = threading.Event()
        release = threading.Event()
        followed_up = []
        background = RefitScheduler("background")
        background.submit("k1", lambda: (barrier.set(), release.wait(5)))
        assert barrier.wait(5)
        # k1's job is *running*: a new trigger must queue a follow-up
        # (the running refit trained before this feedback existed).
        assert background.submit("k1", lambda: followed_up.append(1))
        # k2's job is *queued* behind the busy worker: coalesce.
        assert background.submit("k2", lambda: None)
        assert not background.submit("k2", lambda: None)
        release.set()
        background.drain(timeout=10)
        assert background.coalesced == 1
        assert followed_up == [1]
        background.shutdown()

    def test_scheduler_records_failures(self):
        scheduler = RefitScheduler("inline")

        def boom():
            raise ValueError("training exploded")

        scheduler.submit("k", boom)
        assert len(scheduler.failures) == 1
        key, error = scheduler.failures[0]
        assert key == "k" and isinstance(error, ValueError)


# ----------------------------------------------------------------------
# Service surface
# ----------------------------------------------------------------------
class TestSelectivityService:
    def test_malformed_key_registers_nothing(self, trained_world, make_service):
        dataset, _, _ = trained_world
        service = make_service()
        with pytest.raises(ServingError):
            service.register_model(123, QuickSel(dataset.domain))
        assert service.model_keys() == ()
        assert service.registry.keys() == ()

    def test_duplicate_registration_rejected(self, trained_world, make_service):
        dataset, _, _ = trained_world
        service = make_service()
        service.register_model("t", QuickSel(dataset.domain))
        with pytest.raises(ServingError):
            service.register_model("t", QuickSel(dataset.domain))

    def test_columns_scope_distinct_models(self, trained_world, make_service):
        dataset, _, _ = trained_world
        service = make_service()
        key_all = service.register_model("t", QuickSel(dataset.domain))
        key_xy = service.register_model(
            ModelKey("t", ("x", "y")), QuickSel(dataset.domain)
        )
        assert key_all != key_xy
        assert set(service.model_keys()) == {key_all, key_xy}

    def test_registration_absorbs_unfitted_backlog(self, trained_world, make_service):
        """A trainer registered with recorded-but-unfitted feedback must
        not serve uniform bootstrap estimates forever (regression)."""
        dataset, feedback, _ = trained_world
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        trainer.observe_many(feedback[:40])  # no refit
        service = make_service()
        key = service.register_model("t", trainer)
        snapshot = service.snapshot_for(key)
        assert not snapshot.is_bootstrap
        assert snapshot.version == 1
        assert snapshot.trained_on == 40
        direct = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        direct.observe_many(feedback[:40], refit=True)
        probe = feedback[100][0]
        assert service.estimate(key, probe) == pytest.approx(
            direct.estimate(probe), abs=1e-9
        )

    def test_pretrained_model_served_immediately(self, trained_world, make_service):
        dataset, feedback, trained = trained_world
        service = make_service()
        twin = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        twin.observe_many(feedback[:80], refit=True)
        key = service.register_model("t", twin)
        assert service.snapshot_for(key).version == 1
        probe = feedback[100][0]
        assert service.estimate(key, probe) == pytest.approx(
            trained.estimate(probe), abs=1e-9
        )

    def test_observe_before_register_raises(self, trained_world, unit_square, make_service):
        _, feedback, _ = trained_world
        service = make_service()
        with pytest.raises(ServingError):
            service.observe("ghost", feedback[0][0], 0.5)

    def test_custom_predicate_subclass_served_uncached(self, trained_world, make_service):
        """User-defined predicates are estimable everywhere else, so the
        service must serve them (uncached) instead of rejecting them."""
        from repro.core.predicate import Predicate
        from repro.core.region import Region as _Region

        class Half(Predicate):
            def to_region(self, domain):
                lower = domain.lower.copy()
                upper = domain.upper.copy()
                upper[0] = 0.5 * (lower[0] + upper[0])
                return _Region.from_box(
                    Hyperrectangle(np.stack([lower, upper], axis=1))
                )

        dataset, feedback, trained = trained_world
        service = make_service()
        twin = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        twin.observe_many(feedback[:80], refit=True)
        key = service.register_model("t", twin)
        custom = Half()
        expected = trained.estimate(custom)
        assert service.estimate(key, custom) == pytest.approx(expected, abs=1e-9)
        batch = service.estimate_batch(key, [custom, feedback[100][0]])
        assert batch[0] == pytest.approx(expected, abs=1e-9)
        assert len(service.cache) >= 1  # the keyable predicate is cached

    def test_close_leaves_shared_scheduler_running(self, trained_world):
        dataset, feedback, _ = trained_world
        shared = RefitScheduler("inline")
        first = SelectivityService(scheduler=shared)
        second = SelectivityService(
            scheduler=shared, policy=RefitPolicy(min_new_observations=5)
        )
        first.register_model("a", QuickSel(dataset.domain))
        key = second.register_model("b", QuickSel(dataset.domain))
        first.close()
        for predicate, selectivity in feedback[:6]:
            second.observe(key, predicate, selectivity)  # must not raise
        assert second.snapshot_for(key).version >= 1

    def test_stats_surface(self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        service = make_service(policy=RefitPolicy(min_new_observations=5))
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", trainer)
        for predicate, selectivity in feedback[:10]:
            service.observe(key, predicate, selectivity)
        service.estimate(key, feedback[20][0])
        service.estimate(key, feedback[20][0])
        snapshot = service.stats.snapshot()
        assert snapshot["observations"] == 10
        assert snapshot["refits_completed"] >= 1
        assert snapshot["cache_hits"] >= 1
        assert 0.0 <= snapshot["hit_rate"] <= 1.0
        assert snapshot["p99_latency_seconds"] >= snapshot["p50_latency_seconds"] >= 0.0

    def test_snapshot_reads_the_stats_once(self, record_between_reads):
        """A request landing mid-snapshot cannot make the hit rate
        disagree with the hit and miss counts beside it."""
        stats = ServingStats()
        stats.record_estimate(0.001, cache_hit=False)
        record_between_reads(stats)
        snapshot = stats.snapshot()
        lookups = snapshot["cache_hits"] + snapshot["cache_misses"]
        assert snapshot["hit_rate"] == snapshot["cache_hits"] / lookups

    def test_concurrent_counter_adds_are_not_lost(self):
        stats = ServingStats()
        start = threading.Barrier(8, timeout=10.0)

        def bump() -> None:
            start.wait()
            for _ in range(100_000):
                stats.add("observations")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert stats.counters()["observations"] == 8 * 100_000


# ----------------------------------------------------------------------
# Lifecycle hardening (double close / drain-after-close regressions)
# ----------------------------------------------------------------------
class TestSchedulerLifecycle:
    def test_double_shutdown_is_a_noop(self):
        scheduler = RefitScheduler("background")
        ran: list[int] = []
        scheduler.submit("k", lambda: ran.append(1))
        scheduler.drain(timeout=10)
        scheduler.shutdown()
        scheduler.shutdown()  # regression: second call must not raise
        scheduler.close()  # nor the alias
        assert scheduler.closed
        assert ran == [1]

    def test_drain_after_close_is_a_noop(self):
        scheduler = RefitScheduler("background")
        scheduler.submit("k", lambda: None)
        scheduler.shutdown()
        scheduler.drain()  # regression: must return immediately, no error
        scheduler.drain(timeout=0.01)

    def test_inline_scheduler_lifecycle(self):
        scheduler = RefitScheduler("inline")
        scheduler.drain()
        scheduler.close()
        scheduler.close()
        assert scheduler.closed

    def test_submit_after_close_still_rejected(self):
        scheduler = RefitScheduler("background")
        scheduler.shutdown()
        with pytest.raises(ServingError):
            scheduler.submit("k", lambda: None)

    def test_service_close_is_idempotent(self, trained_world, make_service):
        dataset, _, _ = trained_world
        service = make_service()
        service.register_model("t", QuickSel(dataset.domain))
        assert not service.closed
        service.close()
        service.close()  # regression: double close must not raise
        assert service.closed
        service.drain()  # drain-after-close is a no-op too


# ----------------------------------------------------------------------
# Hand-off surface (what the cluster builds on)
# ----------------------------------------------------------------------
class TestHandOffSurface:
    def test_unregister_returns_trainer_and_forgets_key(self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        service = make_service()
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        trainer.observe_many(feedback[:40], refit=True)
        key = service.register_model("t", trainer)
        service.estimate(key, feedback[50][0])
        assert len(service.cache) == 1
        returned = service.unregister_model(key)
        assert returned is trainer
        assert returned.observed_count == 40
        assert key not in service.model_keys()
        assert len(service.cache) == 0
        with pytest.raises(ServingError):
            service.estimate(key, feedback[50][0])
        with pytest.raises(ServingError):
            service.unregister_model(key)

    def test_register_without_backlog_refit_serves_model_as_is(
        self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        trainer.observe_many(feedback[:40], refit=True)
        trainer.observe_many(feedback[40:50])  # unabsorbed backlog of 10
        model_before = trainer.model
        service = make_service(policy=RefitPolicy(min_new_observations=12))
        key = service.register_model("t", trainer, refit_backlog=False)
        assert trainer.model is model_before  # no retraining happened
        assert service.snapshot_for(key).trained_on == 40
        # The backlog counts toward the policy: 2 more observations tip
        # the count trigger (10 carried + 2 = 12).
        service.observe(key, feedback[50][0], feedback[50][1])
        triggered = service.observe(key, feedback[51][0], feedback[51][1])
        assert triggered
        service.drain(timeout=30)
        assert service.snapshot_for(key).trained_on == 52

    def test_apply_feedback_batches_under_one_lock(self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        service = make_service(policy=RefitPolicy(min_new_observations=5))
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", trainer)
        triples = [
            (predicate, selectivity, service.current_estimate(key, predicate))
            for predicate, selectivity in feedback[:5]
        ]
        assert service.apply_feedback(key, lambda: []) is False
        triggered = service.apply_feedback(key, lambda: triples)
        assert triggered is True  # count trigger fired on the batch
        assert service.stats.observations == 5
        assert service.feedback_count(key) == 5
        service.drain(timeout=30)
        assert service.snapshot_for(key).version >= 1

    def test_apply_feedback_nonblocking_refuses_under_contention(
        self, trained_world, make_service):
        dataset, feedback, _ = trained_world
        service = make_service()
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        key = service.register_model("t", trainer)
        holding = threading.Event()
        release = threading.Event()
        refused: list[object] = []
        taken: list[int] = []

        def take():
            taken.append(1)
            return [(feedback[0][0], 0.5, 0.5)]

        def hold_lock():
            with service._served_model(key).lock:
                holding.set()
                release.wait(timeout=5)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert holding.wait(timeout=5)
        refused.append(service.apply_feedback(key, take, blocking=False))
        release.set()
        holder.join(timeout=5)
        assert not holder.is_alive()
        assert refused == [None]  # refused, nothing applied
        assert taken == []  # the caller's queue was never touched
        assert service.feedback_count(key) == 0

    def test_estimate_batch_mixed_matches_per_key_batches(
        self, trained_world, make_service):
        dataset, feedback, trained = trained_world
        service = make_service()
        for name in ("a", "b", "c"):
            twin = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
            twin.observe_many(feedback[:80], refit=True)
            service.register_model(name, twin)
        probes = [predicate for predicate, _ in feedback[80:110]]
        pairs = [
            (("a", "b", "c")[index % 3], predicate)
            for index, predicate in enumerate(probes)
        ]
        mixed = service.estimate_batch_mixed(pairs)
        scalar = np.array(
            [service.estimate(table, predicate) for table, predicate in pairs]
        )
        np.testing.assert_allclose(mixed, scalar, rtol=0, atol=1e-12)
        assert service.estimate_batch_mixed([]).shape == (0,)


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------
class TestEngineWiring:
    @pytest.fixture
    def engine_world(self):
        rng = np.random.default_rng(11)
        schema = Schema([Column("x"), Column("y")])
        table = Table("events", schema)
        table.insert(rng.uniform(0.0, 1.0, size=(4_000, 2)))
        executor = Executor()
        executor.register_table(table)
        catalog = Catalog()
        loop = FeedbackLoop(executor, catalog)
        return rng, schema, table, executor, catalog, loop

    def random_query(self, rng, builder):
        low = rng.uniform(0.0, 0.6, size=2)
        high = low + rng.uniform(0.1, 0.4, size=2)
        predicate = box_predicate(
            [(0, low[0], min(high[0], 1.0)), (1, low[1], min(high[1], 1.0))]
        )
        return builder.query("events", predicate)

    def test_feedback_loop_routes_to_service(self, engine_world, make_service):
        rng, schema, table, executor, catalog, loop = engine_world
        service = make_service(policy=RefitPolicy(min_new_observations=8))
        trainer = QuickSel(table.domain(), QuickSelConfig(random_seed=0))
        adapter = loop.register_service("events", service, trainer=trainer)
        assert isinstance(adapter, ServingEstimator)
        assert adapter in loop.estimators_for("events")

        builder = QueryBuilder(schema)
        for _ in range(16):
            executor.execute(self.random_query(rng, builder))
        service.drain(timeout=30)

        assert service.stats.observations == 16
        assert adapter.observed_count == 16
        assert adapter.version >= 1
        assert catalog.feedback_count("events") == 16

    def test_register_service_requires_known_key_without_trainer(
        self, engine_world, make_service):
        *_, loop = engine_world
        with pytest.raises(ServingError):
            loop.register_service("events", make_service())

    def test_register_service_rejects_snapshot_without_owned_trainer(
        self, engine_world, unit_square, make_service):
        """A snapshot living in a shared registry is not enough: feedback
        needs this service to own the trainer."""
        *_, loop = engine_world
        service = make_service()
        service.registry.register(normalize_key("events"), unit_square)
        with pytest.raises(ServingError, match="owns no trainer"):
            loop.register_service("events", service)

    def test_optimizer_plans_through_served_snapshot(self, engine_world, make_service):
        rng, schema, table, executor, catalog, loop = engine_world
        service = make_service(policy=RefitPolicy(min_new_observations=8))
        trainer = QuickSel(table.domain(), QuickSelConfig(random_seed=0))
        adapter = loop.register_service("events", service, trainer=trainer)
        builder = QueryBuilder(schema)
        for _ in range(16):
            executor.execute(self.random_query(rng, builder))
        service.drain(timeout=30)

        optimizer = AccessPathOptimizer(table, adapter)
        optimizer.add_index("x")
        queries = [self.random_query(rng, builder) for _ in range(12)]
        predicates = [query.predicate for query in queries]
        plans = optimizer.plan_many(predicates)
        assert len(plans) == len(predicates)
        scalar_plans = [optimizer.plan(predicate) for predicate in predicates]
        for batched, scalar in zip(plans, scalar_plans):
            assert batched.access_path == scalar.access_path
            assert batched.estimated_selectivity == pytest.approx(
                scalar.estimated_selectivity, abs=1e-9
            )
        # The burst went through the service's batch path.
        assert service.stats.batch_requests >= 1
