"""Tests for backend-agnostic serving (repro.estimators.backend).

Covers the contracts the TrainableBackend refactor makes:

* protocol conformance — QuickSel natively, the adapters for every
  query-driven and scan-based baseline, and ``as_backend`` coercion,
* the served-parity suite: every registered backend served through
  :class:`~repro.serving.service.SelectivityService` returns the same
  estimates as the bare estimator fed the same feedback (<= 1e-12),
  scalar and batched,
* vectorised ``estimate_many`` overrides for ST-Holes / ISOMER /
  AutoHist match the scalar loop elementwise,
* the cluster: three backend families served behind one ring, and
  shard-migration hand-off of non-QuickSel backends (exact-snapshot
  parity).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.cluster import ShardedSelectivityService
from repro.estimators import (
    AutoHist,
    AutoSample,
    Isomer,
    KDEEstimator,
    QueryDrivenBackend,
    QueryModel,
    ScanBackend,
    STHoles,
    TrainableBackend,
    as_backend,
)
from repro.exceptions import EstimatorError
from repro.serving import RefitPolicy
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY = 1e-12


@pytest.fixture(scope="module")
def world():
    """A dataset, a feedback stream, and probe predicates."""
    dataset = gaussian_dataset(6_000, dimension=2, correlation=0.5, seed=11)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=12)
    feedback = labelled_feedback(generator.generate(60), dataset.rows)
    probes = generator.generate(150)
    return dataset, feedback, probes


def query_driven_estimators(domain):
    return {
        "stholes": lambda: STHoles(domain, max_buckets=300),
        "isomer": lambda: Isomer(domain, max_buckets=2_000),
        "query_model": lambda: QueryModel(domain),
    }


def scan_based_estimators(domain, rows):
    source = lambda: rows  # noqa: E731 - tiny fixture closure
    return {
        "auto_hist": lambda: AutoHist(domain, source, bucket_budget=100),
        "auto_sample": lambda: AutoSample(domain, source, sample_size=200),
        "kde": lambda: KDEEstimator(domain, source, sample_size=100),
    }


# ----------------------------------------------------------------------
# Protocol conformance
# ----------------------------------------------------------------------
class TestProtocol:
    def test_quicksel_is_a_backend_natively(self, world):
        dataset, feedback, _ = world
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        assert isinstance(trainer, TrainableBackend)
        assert as_backend(trainer) is trainer
        assert trainer.snapshot_model() is None
        trainer.observe_many(feedback[:20], refit=True)
        model = trainer.snapshot_model()
        assert model is trainer.model
        assert trainer.trained_count == 20

    def test_adapters_satisfy_the_protocol(self, world):
        dataset, _, _ = world
        for make in query_driven_estimators(dataset.domain).values():
            backend = as_backend(make())
            assert isinstance(backend, QueryDrivenBackend)
            assert isinstance(backend, TrainableBackend)
        for make in scan_based_estimators(dataset.domain, dataset.rows).values():
            backend = as_backend(make())
            assert isinstance(backend, ScanBackend)
            assert isinstance(backend, TrainableBackend)

    def test_as_backend_passthrough_and_rejection(self, world):
        dataset, _, _ = world
        wrapped = QueryDrivenBackend(STHoles(dataset.domain))
        assert as_backend(wrapped) is wrapped
        with pytest.raises(EstimatorError, match="not a TrainableBackend"):
            as_backend(object())
        with pytest.raises(EstimatorError):
            QueryDrivenBackend(AutoSample(dataset.domain, lambda: dataset.rows))
        with pytest.raises(EstimatorError):
            ScanBackend(STHoles(dataset.domain))

    def test_query_driven_backend_defers_training(self, world):
        dataset, feedback, probes = world
        backend = QueryDrivenBackend(STHoles(dataset.domain, max_buckets=300))
        backend.observe_many(feedback[:10])
        assert backend.observed_count == 10
        assert backend.trained_count == 0
        # The wrapped estimator has not been touched yet.
        assert backend.estimator.observed_count == 0
        assert backend.refit() == 10
        assert backend.trained_count == 10
        model = backend.snapshot_model()
        assert backend.snapshot_model() is model  # cached until state changes
        backend.observe(feedback[10][0], feedback[10][1])
        backend.refit()
        assert backend.snapshot_model() is not model

    def test_adapter_validates_selectivity_eagerly(self, world):
        """Bad feedback fails at observe time, like the bare estimator."""
        dataset, feedback, _ = world
        backend = QueryDrivenBackend(STHoles(dataset.domain))
        with pytest.raises(EstimatorError, match=r"\[0, 1\]"):
            backend.observe(feedback[0][0], 1.5)
        with pytest.raises(EstimatorError, match=r"\[0, 1\]"):
            backend.observe_many([(feedback[0][0], -0.1)])
        assert backend.observed_count == 0  # nothing was queued

    def test_partial_refit_never_reabsorbs(self, world):
        """A failing replay leaves exactly the unabsorbed tail queued."""
        dataset, feedback, _ = world

        class Flaky(STHoles):
            fail_on: object = None

            def observe(self, predicate, selectivity):
                if predicate is self.fail_on:
                    raise EstimatorError("boom")
                super().observe(predicate, selectivity)

        flaky = Flaky(dataset.domain, max_buckets=300)
        backend = QueryDrivenBackend(flaky)
        backend.observe_many(feedback[:3])
        flaky.fail_on = feedback[1][0]
        with pytest.raises(EstimatorError, match="boom"):
            backend.refit()
        assert flaky.observed_count == 1  # first item absorbed exactly once
        flaky.fail_on = None
        assert backend.refit() == 2  # only the tail is replayed
        assert flaky.observed_count == 3

    def test_frozen_snapshot_is_isolated_from_live_training(self, world):
        dataset, feedback, probes = world
        backend = QueryDrivenBackend(STHoles(dataset.domain, max_buckets=300))
        backend.observe_many(feedback[:10])
        backend.refit()
        frozen = backend.snapshot_model()
        before = frozen.estimate_many(probes)
        backend.observe_many(feedback[10:30])
        backend.refit()
        after = frozen.estimate_many(probes)
        np.testing.assert_array_equal(before, after)

    def test_scan_snapshot_does_not_copy_the_data_source(self, world):
        """Freezing detaches the data source — no dataset duplication."""
        dataset, _, probes = world

        class Holder:
            def __init__(self, rows):
                self.rows = rows
                self.copies = 0

            def __deepcopy__(self, memo):
                self.copies += 1
                return Holder(self.rows.copy())

            def source(self):
                return self.rows

        holder = Holder(dataset.rows)
        backend = ScanBackend(
            AutoHist(dataset.domain, holder.source, bucket_budget=64)
        )
        backend.refit()
        frozen = backend.snapshot_model()
        assert holder.copies == 0  # the bound method's owner was not copied
        # The live backend still rescans; the frozen copy refuses to.
        assert backend.estimator._data_source == holder.source
        with pytest.raises(EstimatorError, match="frozen"):
            frozen.refresh()
        # And the frozen statistics still serve.
        assert np.abs(
            frozen.estimate_many(probes)
            - backend.estimator.estimate_many(probes)
        ).max() == 0.0

    def test_isomer_snapshot_excludes_replay_history(self, world):
        """Frozen ISOMER serves identically without its query history."""
        dataset, feedback, probes = world
        live = Isomer(dataset.domain, max_buckets=2_000)
        backend = QueryDrivenBackend(live)
        backend.observe_many(feedback[:15])
        backend.refit()
        frozen = backend.snapshot_model()
        assert frozen._queries == []  # history stays on the live estimator
        assert len(live._queries) == 15
        np.testing.assert_array_equal(
            frozen.estimate_many(probes), live.estimate_many(probes)
        )

    def test_scan_backend_refit_is_a_rescan(self, world):
        dataset, feedback, _ = world
        backend = ScanBackend(
            AutoHist(dataset.domain, lambda: dataset.rows, bucket_budget=64)
        )
        assert backend.snapshot_model() is None
        backend.observe_many(feedback[:5])
        assert backend.observed_count == 5
        backend.refit()
        assert backend.estimator.refresh_count == 1
        assert backend.trained_count == 5
        model = backend.snapshot_model()
        assert backend.snapshot_model() is model
        backend.refit()
        assert backend.snapshot_model() is not model


# ----------------------------------------------------------------------
# Vectorised estimate_many overrides (satellite)
# ----------------------------------------------------------------------
class TestVectorisedBatches:
    def test_bucket_histograms_match_scalar(self, world):
        dataset, feedback, probes = world
        for name, make in query_driven_estimators(dataset.domain).items():
            if name == "query_model":
                continue  # no vectorised override; loop fallback elsewhere
            estimator = make()
            for predicate, selectivity in feedback[:15]:
                estimator.observe(predicate, selectivity)
            scalar = np.array([estimator.estimate(p) for p in probes])
            batched = estimator.estimate_many(probes)
            assert np.abs(scalar - batched).max() <= PARITY

    def test_auto_hist_matches_scalar(self, world):
        dataset, _, probes = world
        estimator = AutoHist(dataset.domain, lambda: dataset.rows, bucket_budget=144)
        estimator.refresh()
        scalar = np.array([estimator.estimate(p) for p in probes])
        batched = estimator.estimate_many(probes)
        assert np.abs(scalar - batched).max() <= PARITY

    def test_auto_hist_batch_requires_refresh(self, world):
        dataset, _, probes = world
        estimator = AutoHist(dataset.domain, lambda: dataset.rows)
        with pytest.raises(EstimatorError, match="refresh"):
            estimator.estimate_many(probes)

    def test_empty_batches(self, world):
        dataset, feedback, _ = world
        estimator = STHoles(dataset.domain)
        estimator.observe(*feedback[0])
        assert estimator.estimate_many([]).shape == (0,)


# ----------------------------------------------------------------------
# Served parity: every backend through the service == the bare estimator
# ----------------------------------------------------------------------
class TestServedParity:
    def _assert_served_matches_bare(self, make_service, bare, backend, probes):
        service = make_service()
        key = service.register_model("t", backend)
        served_scalar = np.array([service.estimate(key, p) for p in probes])
        served_batch = service.estimate_batch(key, probes)
        bare_scalar = np.array([bare.estimate(p) for p in probes])
        assert np.abs(served_scalar - bare_scalar).max() <= PARITY
        assert np.abs(served_batch - bare_scalar).max() <= PARITY
        service.close()

    def test_query_driven_backends(self, world, make_service):
        dataset, feedback, probes = world
        for make in query_driven_estimators(dataset.domain).values():
            bare = make()
            for predicate, selectivity in feedback[:20]:
                bare.observe(predicate, selectivity)
            twin = make()
            backend = QueryDrivenBackend(twin)
            backend.observe_many(feedback[:20])
            self._assert_served_matches_bare(make_service, bare, backend, probes)

    def test_scan_based_backends(self, world, make_service):
        dataset, _, probes = world
        for make in scan_based_estimators(dataset.domain, dataset.rows).values():
            bare = make()
            bare.refresh()
            twin = make()
            twin.refresh()
            self._assert_served_matches_bare(make_service, bare, twin, probes)

    def test_quicksel_backend(self, world, make_service):
        dataset, feedback, probes = world
        bare = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        bare.observe_many(feedback[:40], refit=True)
        twin = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        twin.observe_many(feedback[:40], refit=True)
        self._assert_served_matches_bare(make_service, bare, twin, probes)

    def test_served_feedback_loop_matches_bare(self, world, make_service):
        """Feeding through service.observe == feeding the bare estimator."""
        dataset, feedback, probes = world
        bare = STHoles(dataset.domain, max_buckets=300)
        service = make_service(policy=RefitPolicy(min_new_observations=8))
        key = service.register_model("t", STHoles(dataset.domain, max_buckets=300))
        for predicate, selectivity in feedback[:32]:
            bare.observe(predicate, selectivity)
            service.observe(key, predicate, selectivity)
        service.refit_now(key)  # absorb any sub-trigger tail
        served = service.estimate_batch(key, probes)
        expected = bare.estimate_many(probes)
        assert np.abs(served - expected).max() <= PARITY
        service.close()

    def test_bare_estimators_are_wrapped_on_registration(self, world, make_service):
        dataset, feedback, _ = world
        service = make_service()
        key = service.register_model("t", STHoles(dataset.domain))
        service.observe(key, feedback[0][0], feedback[0][1])
        backend = service.unregister_model(key)
        assert isinstance(backend, QueryDrivenBackend)
        service.close()

    def test_hand_off_republishes_the_exact_snapshot(self, world, make_service):
        dataset, feedback, probes = world
        backend = QueryDrivenBackend(STHoles(dataset.domain, max_buckets=300))
        backend.observe_many(feedback[:20])
        backend.refit()
        model = backend.snapshot_model()
        source = make_service()
        key = source.register_model("t", backend)
        assert source.snapshot_for(key).model is model
        moved = source.unregister_model(key)
        dest = make_service()
        dest.register_model(key, moved, refit_backlog=False)
        assert dest.snapshot_for(key).model is model
        source.close()
        dest.close()


# ----------------------------------------------------------------------
# Cluster: multi-backend serving and migration
# ----------------------------------------------------------------------
class TestClusterBackends:
    def _cluster(self, **kwargs):
        kwargs.setdefault("num_shards", 3)
        kwargs.setdefault("scheduler_mode", "inline")
        kwargs.setdefault("policy", RefitPolicy(min_new_observations=16))
        return ShardedSelectivityService(**kwargs)

    def test_three_backend_families_behind_one_ring(self, world):
        dataset, feedback, probes = world
        cluster = self._cluster()
        try:
            cluster.register_model(
                "quicksel", QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
            )
            cluster.register_model("stholes", STHoles(dataset.domain, max_buckets=300))
            hist = AutoHist(dataset.domain, lambda: dataset.rows, bucket_budget=100)
            hist.refresh()
            cluster.register_model("auto_hist", hist)
            tables = ("quicksel", "stholes", "auto_hist")
            for predicate, selectivity in feedback[:32]:
                for table in tables:
                    cluster.observe(table, predicate, selectivity)
            cluster.drain()
            for table in tables:
                assert cluster.snapshot_for(table).version >= 1
                scalar = np.array(
                    [cluster.estimate(table, p) for p in probes[:40]]
                )
                batch = cluster.estimate_batch(table, probes[:40])
                assert np.abs(scalar - batch).max() <= PARITY
            mixed = cluster.estimate_batch_mixed(
                [(tables[i % 3], p) for i, p in enumerate(probes[:60])]
            )
            for index, predicate in enumerate(probes[:60]):
                direct = cluster.estimate(tables[index % 3], predicate)
                assert abs(mixed[index] - direct) <= PARITY
        finally:
            cluster.close()

    def test_migration_hands_off_non_quicksel_backends(self, world):
        dataset, feedback, probes = world
        cluster = self._cluster(num_shards=2)
        try:
            keys = []
            for index in range(6):
                estimator = STHoles(dataset.domain, max_buckets=300)
                keys.append(cluster.register_model(f"table-{index}", estimator))
            for predicate, selectivity in feedback[:24]:
                for key in keys:
                    cluster.observe(key, predicate, selectivity)
            cluster.drain()
            before = {key: cluster.estimate_batch(key, probes) for key in keys}
            versions = {key: cluster.snapshot_for(key).version for key in keys}
            counts = {key: cluster.feedback_count(key) for key in keys}
            cluster.add_shard()
            moved = sum(
                1
                for key in keys
                if cluster.shard_for(key) not in ("shard-0", "shard-1")
            )
            assert moved >= 1  # something actually migrated
            for key in keys:
                after = cluster.estimate_batch(key, probes)
                assert np.abs(after - before[key]).max() <= PARITY
                assert cluster.feedback_count(key) == counts[key]
            cluster.remove_shard("shard-0")
            for key in keys:
                after = cluster.estimate_batch(key, probes)
                assert np.abs(after - before[key]).max() <= PARITY
        finally:
            cluster.close()
