"""Tests for the native estimation kernels and the serving fast path.

Covers the ISSUE 10 contracts:

* the NumPy kernels match a brute-force per-pair oracle to ≤1e-12,
  property-tested over random, empty, and degenerate boxes,
* ``owners_array`` certifies the identity permutation correctly
  (regression: an endpoints-only check passed ``[0, 0, 2]``),
* the :class:`~repro.kernels.arena.KernelArena` reuses buffers and is
  thread-local,
* the :class:`~repro.serving.cache.EstimateCache`: ``_model_key_of``
  no longer attributes foreign tuple keys to their first element, and
  TinyLFU admission is scan-resistant,
* :class:`~repro.serving.service.FastSlot` parity with
  ``SelectivityService.estimate`` and its buffered stats accounting.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.core.config import QuickSelConfig
from repro.core.geometry import Hyperrectangle
from repro.core.mixture import UniformMixtureModel
from repro.core.predicate import box_predicate
from repro.core.quicksel import QuickSel
from repro.core.subpopulation import Subpopulation
from repro.estimators.buckets import Bucket, BucketSet
from repro.estimators.stholes import STHoles
from repro.exceptions import ServingError
from repro.kernels import (
    KernelArena,
    get_arena,
    intersection_volumes,
    owners_array,
    stack_pieces,
    weighted_overlap_estimates,
    weighted_overlap_estimates_into,
)
from repro.serving import (
    EstimateCache,
    FrequencySketch,
    ModelKey,
    RefitPolicy,
    RefitScheduler,
    SelectivityService,
)
from repro.serving.cache import _model_key_of
from repro.serving.snapshot import ModelSnapshot
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

def _volumes_oracle(row_lower, row_upper, col_lower, col_upper):
    """Box-intersection volumes, one pair and one dimension at a time."""
    volumes = np.zeros((row_lower.shape[0], col_lower.shape[0]))
    for i in range(row_lower.shape[0]):
        for j in range(col_lower.shape[0]):
            volume = 1.0
            for k in range(row_lower.shape[1]):
                low = max(row_lower[i, k], col_lower[j, k])
                high = min(row_upper[i, k], col_upper[j, k])
                volume *= max(high - low, 0.0)
            volumes[i, j] = volume
    return volumes


def _estimates_oracle(
    row_lower, row_upper, owners, count, col_lower, col_upper,
    weight_over_volume,
):
    """Per-predicate clipped sums of piece overlaps times weight/volume."""
    volumes = _volumes_oracle(row_lower, row_upper, col_lower, col_upper)
    estimates = np.zeros(count)
    for i, owner in enumerate(owners):
        for j in range(col_lower.shape[0]):
            estimates[owner] += volumes[i, j] * weight_over_volume[j]
    return np.clip(estimates, 0.0, 1.0)


def _random_bounds(rng, count, dimension, degenerate_frac=0.0):
    lower = rng.uniform(-5.0, 5.0, size=(count, dimension))
    width = rng.uniform(0.0, 4.0, size=(count, dimension))
    if degenerate_frac:
        flat = rng.random(size=(count, dimension)) < degenerate_frac
        width[flat] = 0.0
    return lower, lower + width


@st.composite
def bounds_case(draw):
    """Random (rows, cols) bound sets, including empty and degenerate."""
    dimension = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6))
    m = draw(st.integers(0, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    degenerate = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(seed)
    row_lower, row_upper = _random_bounds(rng, n, dimension, degenerate)
    col_lower, col_upper = _random_bounds(rng, m, dimension, degenerate)
    return row_lower, row_upper, col_lower, col_upper


class TestKernelBackend:
    def test_backend_report_is_explicit(self):
        report = kernels.backend_report()
        assert report["backend"] == "numpy"
        assert report["numpy"] == np.__version__

    @settings(max_examples=60, deadline=None)
    @given(case=bounds_case())
    def test_intersection_volumes_matches_reference_f64(self, case):
        row_lower, row_upper, col_lower, col_upper = case
        active = intersection_volumes(row_lower, row_upper, col_lower, col_upper)
        oracle = _volumes_oracle(row_lower, row_upper, col_lower, col_upper)
        assert active.shape == oracle.shape
        np.testing.assert_allclose(active, oracle, atol=1e-12, rtol=0)

    @settings(max_examples=60, deadline=None)
    @given(case=bounds_case(), seed=st.integers(0, 2**31 - 1))
    def test_weighted_overlap_estimates_matches_reference(self, case, seed):
        row_lower, row_upper, col_lower, col_upper = case
        n, m = row_lower.shape[0], col_lower.shape[0]
        rng = np.random.default_rng(seed)
        owners = np.sort(rng.integers(0, max(n, 1), size=n)).astype(np.intp)
        weight_over_volume = rng.uniform(0.0, 2.0, size=m)
        active = weighted_overlap_estimates(
            row_lower, row_upper, owners, max(n, 1),
            col_lower, col_upper, weight_over_volume,
        )
        oracle = _estimates_oracle(
            row_lower, row_upper, owners, max(n, 1),
            col_lower, col_upper, weight_over_volume,
        )
        np.testing.assert_allclose(active, oracle, atol=1e-12, rtol=0)
        assert (active >= 0.0).all() and (active <= 1.0).all()

    def test_into_variant_matches_allocating_variant(self):
        rng = np.random.default_rng(11)
        row_lower, row_upper = _random_bounds(rng, 7, 3)
        col_lower, col_upper = _random_bounds(rng, 5, 3)
        weight_over_volume = rng.uniform(0.0, 1.5, size=5)
        owners = np.array([0, 0, 1, 2, 2, 2, 3], dtype=np.intp)
        count = 4
        expected = weighted_overlap_estimates(
            row_lower, row_upper, owners, count,
            col_lower, col_upper, weight_over_volume,
        )
        arena = KernelArena()
        out = np.zeros(count)
        got = weighted_overlap_estimates_into(
            row_lower, row_upper, owners, col_lower, col_upper,
            weight_over_volume,
            arena.request("a", (7, 5, 3)),
            arena.request("b", (7, 5, 3)),
            arena.request("o", (7, 5)),
            arena.request("p", (7,)),
            out,
            owners_identity=False,
        )
        assert got is out
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)


class TestOwnersArray:
    def test_identity_is_certified(self):
        arena = KernelArena()
        view, identity = owners_array([0, 1, 2, 3], 4, "o", arena)
        assert identity
        np.testing.assert_array_equal(view, [0, 1, 2, 3])

    def test_regression_0_0_2_is_not_identity(self):
        """Endpoint checks (first==0, last==n-1) pass [0, 0, 2]; the
        certificate must not."""
        arena = KernelArena()
        _, identity = owners_array([0, 0, 2], 3, "o", arena)
        assert not identity

    def test_non_zero_start_is_not_identity(self):
        arena = KernelArena()
        _, identity = owners_array([1, 2, 3], 3, "o", arena)
        assert not identity

    def test_length_mismatch_is_not_identity(self):
        arena = KernelArena()
        _, identity = owners_array([0, 0, 1], 2, "o", arena)
        assert not identity

    def test_empty_and_singleton(self):
        arena = KernelArena()
        _, empty_identity = owners_array([], 0, "o", arena)
        assert empty_identity
        _, single = owners_array([0], 1, "o", arena)
        assert single

    def test_identity_skip_equals_scatter_add(self):
        """The owners_identity fast path must produce the same result as
        the scatter-add path it skips."""
        rng = np.random.default_rng(5)
        row_lower, row_upper = _random_bounds(rng, 6, 2)
        col_lower, col_upper = _random_bounds(rng, 4, 2)
        weight_over_volume = rng.uniform(0.0, 1.0, size=4)
        owners = np.arange(6, dtype=np.intp)
        arena = KernelArena()
        results = []
        for identity in (True, False):
            out = np.zeros(6)
            weighted_overlap_estimates_into(
                row_lower, row_upper, owners, col_lower, col_upper,
                weight_over_volume,
                arena.request("a", (6, 4, 2)),
                arena.request("b", (6, 4, 2)),
                arena.request("o", (6, 4)),
                arena.request("p", (6,)),
                out,
                owners_identity=identity,
            )
            results.append(out)
        np.testing.assert_allclose(results[0], results[1], atol=1e-12, rtol=0)


class TestArena:
    def test_buffers_are_reused(self):
        arena = KernelArena()
        first = arena.request("x", (4, 4))
        second = arena.request("x", (4, 4))
        assert first.base is second.base

    def test_buffers_grow_geometrically(self):
        arena = KernelArena()
        arena.request("x", (4,))
        small = arena.nbytes()
        arena.request("x", (5,))
        assert arena.nbytes() >= 2 * small

    def test_distinct_dtypes_do_not_alias(self):
        arena = KernelArena()
        a = arena.request("x", (8,), np.float64)
        b = arena.request("x", (8,), np.intp)
        a[:] = 1.0
        b[:] = 3
        assert (a == 1.0).all() and (b == 3).all()

    def test_get_arena_is_thread_local(self):
        main = get_arena()
        seen = []
        thread = threading.Thread(target=lambda: seen.append(get_arena()))
        thread.start()
        thread.join()
        assert seen[0] is not main
        assert get_arena() is main

    def test_stack_pieces_copies_rows(self):
        arena = KernelArena()
        rows = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]
        view = stack_pieces(rows, "s", arena)
        np.testing.assert_array_equal(view, [[1.0, 2.0], [3.0, 4.0]])


def _mixture_model(seed=0, components=12, dimension=2):
    rng = np.random.default_rng(seed)
    subs = []
    for _ in range(components):
        low = rng.uniform(0.0, 0.6, size=dimension)
        high = low + rng.uniform(0.1, 0.4, size=dimension)
        box = Hyperrectangle(np.stack([low, high], axis=1))
        subs.append(Subpopulation(box, center=(low + high) / 2.0))
    weights = rng.dirichlet(np.ones(components))
    return UniformMixtureModel(subs, weights)


class TestModelBatchKernels:
    def test_mixture_batch_matches_scalar(self):
        model = _mixture_model(seed=4)
        rng = np.random.default_rng(9)
        boxes = []
        for _ in range(7):
            low = rng.uniform(0.0, 0.7, size=2)
            boxes.append(
                Hyperrectangle(
                    np.stack([low, low + rng.uniform(0.05, 0.3, size=2)], axis=1)
                )
            )
        batched = model.estimate_many(boxes)
        scalar = np.array([model.estimate(box) for box in boxes])
        np.testing.assert_allclose(batched, scalar, atol=1e-9)

    def test_bucket_set_batch_matches_scalar_after_inplace_feedback(self):
        """STHoles mutates bucket frequencies in place; the cached
        frequency/volume vector must observe it (the dirty protocol)."""
        domain = Hyperrectangle.unit(2)
        estimator = STHoles(domain, max_buckets=16)
        rng = np.random.default_rng(2)
        for _ in range(12):
            low = rng.uniform(0.0, 0.6, size=2)
            high = low + rng.uniform(0.1, 0.4, size=2)
            box = Hyperrectangle(np.stack([low, high], axis=1))
            estimator.observe(box, float(rng.uniform(0.0, 1.0)))
            probe = Hyperrectangle(np.stack([low, np.minimum(high + 0.05, 1.0)], axis=1))
            batched = estimator.estimate_many([probe])[0]
            assert batched == pytest.approx(estimator.estimate(probe), abs=1e-9)

    def test_bucket_set_set_frequencies_invalidates_cache(self):
        domain = Hyperrectangle.unit(1)
        buckets = BucketSet(
            domain=domain,
            buckets=[
                Bucket(Hyperrectangle([[0.0, 0.5]]), frequency=0.5),
                Bucket(Hyperrectangle([[0.5, 1.0]]), frequency=0.5),
            ],
        )
        probe_lower = [np.array([0.0])]
        probe_upper = [np.array([0.5])]
        first = buckets.estimate_from_bounds(probe_lower, probe_upper, [0], 1)
        assert first[0] == pytest.approx(0.5)
        buckets.set_frequencies([1.0, 0.0])
        second = buckets.estimate_from_bounds(probe_lower, probe_upper, [0], 1)
        assert second[0] == pytest.approx(1.0)


class TestCacheModelKeyOf:
    def test_service_shaped_keys_are_recognised(self):
        key = (ModelKey("t"), 3, ("H", b"bytes"))
        assert _model_key_of(key) == ModelKey("t")
        scoped = (("challenger", ModelKey("t")), 0, ("T",))
        assert _model_key_of(scoped) == ("challenger", ModelKey("t"))

    def test_bare_predicate_tokens_are_foreign(self):
        """Regression: ("H", bytes) was bucketed under phantom model key
        "H" — invalidate("H") would drop it and entries_for("H") counted
        it."""
        assert _model_key_of(("H", b"\x00" * 32)) is None
        assert _model_key_of(("T",)) is None
        assert _model_key_of(("r", 0, 1.0, 2.0)) is None
        assert _model_key_of("plain") is None

    def test_raw_token_survives_unrelated_invalidate(self):
        cache = EstimateCache(capacity=8)
        token = ("H", b"\x01" * 16)
        cache.put(token, 0.25)
        assert cache.entries_for("H") == 0
        assert cache.invalidate("H") == 0
        assert cache.get(token) == pytest.approx(0.25)


class TestTinyLFU:
    def test_sketch_counts_and_saturates(self):
        sketch = FrequencySketch(64)
        assert sketch.estimate("k") == 0
        for _ in range(40):
            sketch.increment("k")
        assert sketch.estimate("k") == 15  # 4-bit saturation

    def test_sketch_ages_by_halving(self):
        sketch = FrequencySketch(4)  # sample size 40 → quick aging
        for _ in range(12):
            sketch.increment("hot")
        before = sketch.estimate("hot")
        for i in range(40):
            sketch.increment(("filler", i))
        assert sketch.estimate("hot") < before

    def test_scan_resistance(self):
        """A one-pass scan mixed into a hot working set must not flush
        the hot keys out of a TinyLFU cache, while plain LRU loses them."""
        capacity = 64
        hot = [("hot", i) for i in range(capacity // 2)]
        rng = np.random.default_rng(0)

        def run(cache):
            # Warm the hot working set with repeated hits.
            for _ in range(8):
                for key in hot:
                    if cache.get(key) is None:
                        cache.put(key, 1.0)
            # One-pass scan of never-repeated keys, hot gets re-probed.
            # The scan is wide enough (8 cold keys per hot probe against a
            # 64-entry cache) that a recency-only policy churns through
            # its whole capacity between repeat touches of any hot key.
            hits = 0
            probes = 0
            scan_key = 0
            for i in range(500):
                for _ in range(8):
                    cache.get(("scan", scan_key))
                    cache.put(("scan", scan_key), 0.0)
                    scan_key += 1
                key = hot[int(rng.integers(len(hot)))]
                probes += 1
                if cache.get(key) is not None:
                    hits += 1
                else:
                    cache.put(key, 1.0)
            return hits / probes

        lru_rate = run(EstimateCache(capacity=capacity))
        tlfu_rate = run(EstimateCache(capacity=capacity, admission="tinylfu"))
        assert lru_rate < 0.5  # LRU thrashes under the scan
        assert tlfu_rate >= 2 * lru_rate
        assert tlfu_rate > 0.9  # scan keys never displace the hot set

    def test_admission_rejects_cold_new_key_when_full(self):
        cache = EstimateCache(capacity=2, admission="tinylfu")
        for _ in range(5):
            cache.put("a", 1.0)
            cache.put("b", 2.0)
        cache.put("cold", 3.0)  # first sighting loses to warm victims
        assert cache.get("cold") is None
        assert cache.get("a") == pytest.approx(1.0)
        assert cache.get("b") == pytest.approx(2.0)

    def test_repeatedly_requested_key_is_eventually_admitted(self):
        cache = EstimateCache(capacity=2, admission="tinylfu")
        cache.put("a", 1.0)
        cache.put("b", 2.0)
        for _ in range(20):
            cache.get("comeback")  # misses still count as frequency
        cache.put("comeback", 3.0)
        assert cache.get("comeback") == pytest.approx(3.0)


@pytest.fixture(scope="module")
def fast_world():
    """A service with a trained QuickSel model and probe predicates."""
    dataset = gaussian_dataset(4_000, dimension=2, correlation=0.4, seed=21)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=22)
    feedback = labelled_feedback(generator.generate(60), dataset.rows)
    trained = QuickSel(dataset.domain, QuickSelConfig(random_seed=1))
    trained.observe_many(feedback, refit=True)
    service = SelectivityService(scheduler=RefitScheduler("inline"))
    service.register_model("orders", trained)
    rng = np.random.default_rng(7)
    predicates = []
    for _ in range(32):
        low = rng.uniform(0.0, 0.6, size=2)
        high = np.minimum(low + rng.uniform(0.1, 0.4, size=2), 1.0)
        predicates.append(
            box_predicate([(0, low[0], high[0]), (1, low[1], high[1])])
        )
    yield service, predicates
    service.close()


class TestFastSlot:
    def test_slot_matches_service_estimate(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders", flush_every=8)
        for predicate in predicates:
            assert slot.estimate(predicate) == pytest.approx(
                service.estimate("orders", predicate), abs=1e-12
            )
        slot.flush()

    def test_buffered_stats_flush(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders", flush_every=1000)
        before = service.stats.counters()
        for predicate in predicates[:10]:
            slot.estimate(predicate)
        mid = service.stats.counters()
        assert mid["estimate_requests"] == before["estimate_requests"]
        slot.flush()
        after = service.stats.counters()
        assert (
            after["estimate_requests"] - before["estimate_requests"] == 10
        )
        assert after["predicates_served"] - before["predicates_served"] == 10
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        assert hits + misses == 10

    def test_flush_every_one_records_immediately(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders", flush_every=1)
        before = service.stats.counters()["estimate_requests"]
        slot.estimate(predicates[0])
        assert service.stats.counters()["estimate_requests"] == before + 1

    def test_slot_sees_publishes_instantly(self, fast_world):
        service, predicates = fast_world
        slot = service.fast_slot("orders")
        version = slot.snapshot().version
        service.refit_now("orders")
        assert slot.snapshot().version == version + 1
        slot.flush()

    def test_slot_for_unknown_key_raises(self, fast_world):
        service, _ = fast_world
        with pytest.raises(ServingError):
            service.fast_slot("missing-table")

    def test_estimate_still_raises_for_unknown_key(self, fast_world):
        service, predicates = fast_world
        with pytest.raises(ServingError):
            service.estimate("missing-table", predicates[0])

    def test_slot_survives_unregister_reregister(self, make_service, fast_world):
        _, predicates = fast_world
        dataset = gaussian_dataset(2_000, dimension=2, correlation=0.2, seed=31)
        generator = RandomRangeQueryGenerator(dataset.domain, seed=32)
        feedback = labelled_feedback(generator.generate(40), dataset.rows)
        trained = QuickSel(dataset.domain, QuickSelConfig(random_seed=2))
        trained.observe_many(feedback, refit=True)
        service = make_service()
        service.register_model("t", trained)
        slot = service.fast_slot("t", flush_every=1)
        first = slot.estimate(predicates[0])
        trainer = service.unregister_model("t")
        with pytest.raises(ServingError):
            slot.estimate(predicates[0])
        service.register_model("t", trainer)
        assert slot.estimate(predicates[0]) == pytest.approx(first, abs=1e-9)

    def test_memo_never_serves_a_value_from_before_a_publish(
        self, make_service, monkeypatch
    ):
        """A reader still pricing against the old snapshot when a publish
        lands must not seed the new snapshot's memo with its old value."""
        dataset = gaussian_dataset(2_000, dimension=2, correlation=0.2, seed=31)
        generator = RandomRangeQueryGenerator(dataset.domain, seed=32)
        feedback = labelled_feedback(generator.generate(60), dataset.rows)
        trained = QuickSel(dataset.domain, QuickSelConfig(random_seed=2))
        trained.observe_many(feedback[:30], refit=True)
        service = make_service(policy=RefitPolicy(min_new_observations=10_000))
        service.register_model("t", trained)
        slot = service.fast_slot("t", flush_every=1)
        held, other = generator.generate(2)
        old = service.snapshot_for("t")
        entered, release = threading.Event(), threading.Event()
        estimate = ModelSnapshot.estimate

        def held_inside_old_version(snapshot, predicate):
            if snapshot is old and predicate is held:
                entered.set()
                release.wait(timeout=10.0)
            return estimate(snapshot, predicate)

        monkeypatch.setattr(ModelSnapshot, "estimate", held_inside_old_version)
        reader = threading.Thread(target=slot.estimate, args=(held,))
        reader.start()
        assert entered.wait(timeout=10.0)
        for predicate, selectivity in feedback[30:]:
            service.observe("t", predicate, selectivity)
        current = service.refit_now("t")
        slot.estimate(other)  # the first read of the new snapshot
        release.set()
        reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert current.version == old.version + 1
        expected = estimate(current, held)
        assert abs(expected - estimate(old, held)) > 1e-6
        assert slot.estimate(held) == pytest.approx(expected, abs=1e-12)
