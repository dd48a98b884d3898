"""Tests for the sharded selectivity-serving cluster (repro.cluster).

Covers the contracts the cluster makes:

* routing — the hash ring is deterministic and stable across router
  instances; membership changes migrate only the consistent-hash minimal
  key set (property-tested over arbitrary table names),
* serving parity — scalar, single-key batch, and cross-shard mixed-batch
  estimates agree with a plain :class:`SelectivityService` to 1e-12 for
  every shard count, and mixed batches reassemble in input order,
* the non-blocking write path — ``observe`` never waits on the trainer
  lock; feedback buffered during a refit replays right after the
  publish, losing nothing,
* elasticity — ``add_shard``/``remove_shard`` hand off the exact served
  snapshot (estimates unchanged, feedback preserved),
* fleet metrics — ``fleet_stats()`` sums counters and merges latency
  windows instead of averaging per-shard percentiles,
* engine wiring — :meth:`FeedbackLoop.register_service` and
  :func:`plan_many_tables` work identically on plain and sharded
  backends.
"""

from __future__ import annotations

import copy
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BufferedObservation,
    ObservationBuffer,
    ShardedSelectivityService,
    ShardRouter,
    ShardWorker,
)
from repro.core.config import QuickSelConfig
from repro.core.predicate import box_predicate
from repro.core.quicksel import QuickSel
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
from repro.engine.optimizer import plan_many_tables
from repro.exceptions import ClusterError, ServingError
from repro.net import GatewayServer, WorkerServer, connect
from repro.serving import (
    ModelKey,
    RefitPolicy,
    RefitScheduler,
    SelectivityService,
    SelectivityServing,
    ServingEstimator,
    normalize_key,
)
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

TABLES = tuple(f"tbl{index:02d}" for index in range(10))


@pytest.fixture(scope="module")
def cluster_world():
    """A trained base model, its domain, and probe predicates."""
    dataset = gaussian_dataset(6_000, dimension=2, correlation=0.5, seed=7)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=8)
    feedback = labelled_feedback(generator.generate(60), dataset.rows)
    base = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
    base.observe_many(feedback[:40], refit=True)
    probes = [predicate for predicate, _ in feedback[40:]]
    return dataset, base, probes, feedback


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestShardRouter:
    def keys(self, count: int = 64) -> list[ModelKey]:
        return [ModelKey(f"table-{index}") for index in range(count)]

    def test_routing_is_deterministic_across_instances(self):
        first = ShardRouter(["a", "b", "c"])
        second = ShardRouter(["c", "a", "b"])  # insertion order irrelevant
        for key in self.keys():
            assert first.route(key) == second.route(key)

    def test_columns_distinguish_keys(self):
        router = ShardRouter([f"s{index}" for index in range(8)])
        routed = {
            router.route(ModelKey("t", ("x",))),
            router.route(ModelKey("t", ("y",))),
            router.route(ModelKey("t")),
        }
        # Not all three need to differ, but routing must at least be
        # well-defined per distinct key; spot-check determinism.
        assert routed <= set(router.shards)

    @given(
        table=st.text(min_size=1, max_size=30),
        columns=st.lists(st.text(min_size=1, max_size=8), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_key_always_lands_on_same_shard(self, table, columns):
        key = ModelKey(table, tuple(columns))
        first = ShardRouter(["s0", "s1", "s2", "s3"])
        second = ShardRouter(["s3", "s2", "s1", "s0"])
        assert first.route(key) == second.route(key)
        assert first.route(key) == first.route(key)

    def test_adding_a_shard_only_moves_keys_onto_it(self):
        router = ShardRouter(["s0", "s1", "s2"])
        keys = self.keys(128)
        before = {key: router.route(key) for key in keys}
        router.add("s3")
        moved = 0
        for key in keys:
            after = router.route(key)
            if after != before[key]:
                assert after == "s3"
                moved += 1
        assert moved > 0  # the new shard takes over some arcs
        assert router.moves(before) == [
            (key, before[key], router.route(key))
            for key in sorted(keys)
            if router.route(key) != before[key]
        ]

    def test_removing_a_shard_only_remaps_its_own_keys(self):
        router = ShardRouter(["s0", "s1", "s2", "s3"])
        keys = self.keys(128)
        before = {key: router.route(key) for key in keys}
        router.remove("s3")
        for key in keys:
            if before[key] != "s3":
                assert router.route(key) == before[key]
            else:
                assert router.route(key) != "s3"
        assert router.moves(before) == [
            (key, "s3", router.route(key))
            for key in sorted(keys)
            if before[key] == "s3"
        ]

    def test_distribution_is_not_degenerate(self):
        router = ShardRouter([f"s{index}" for index in range(4)], replicas=64)
        owners = [router.route(key) for key in self.keys(512)]
        counts = {shard: owners.count(shard) for shard in router.shards}
        assert all(count > 0 for count in counts.values())

    def test_membership_errors(self):
        router = ShardRouter(["only"])
        with pytest.raises(ClusterError):
            router.add("only")
        with pytest.raises(ClusterError):
            router.remove("ghost")
        with pytest.raises(ClusterError):
            router.remove("only")  # never empty the ring
        with pytest.raises(ClusterError):
            ShardRouter([])
        with pytest.raises(ClusterError):
            ShardRouter(["a"], replicas=0)
        with pytest.raises(ClusterError):
            ShardRouter([""])


# ----------------------------------------------------------------------
# The write-path buffer
# ----------------------------------------------------------------------
class TestObservationBuffer:
    def observation(self, index: int) -> BufferedObservation:
        return BufferedObservation(
            predicate=index, selectivity=0.1 * index, served_estimate=0.0
        )

    def test_take_pops_in_arrival_order(self):
        buffer = ObservationBuffer()
        for index in range(5):
            buffer.append("k", self.observation(index))
        assert [item.predicate for item in buffer.take("k")] == [0, 1, 2, 3, 4]
        assert buffer.pending("k") == 0
        assert buffer.applied == 5
        assert buffer.take("k") == []

    def test_putback_goes_ahead_of_later_arrivals(self):
        buffer = ObservationBuffer()
        for index in range(3):
            buffer.append("k", self.observation(index))
        taken = buffer.take("k")
        buffer.append("k", self.observation(3))  # arrives mid-absorb
        buffer.putback("k", taken)  # the absorb raised
        assert buffer.pending("k") == 4
        assert buffer.requeued == 3
        assert buffer.applied == 0
        assert [item.predicate for item in buffer.take("k")] == [0, 1, 2, 3]
        assert buffer.applied == 4

    def test_taken_queue_is_released(self):
        buffer = ObservationBuffer()
        buffer.append("k", self.observation(0))
        buffer.take("k")
        assert len(buffer._queues) == 0  # no empty deque left behind

    def test_counters_and_keys(self):
        buffer = ObservationBuffer()
        buffer.append("a", self.observation(0))
        buffer.append("b", self.observation(1))
        assert set(buffer.keys()) == {"a", "b"}
        assert buffer.total_pending() == 2
        counters = buffer.counters()
        assert counters["appended"] == 2
        assert counters["pending"] == 2

    def test_discard_returns_leftovers_and_releases_state(self):
        buffer = ObservationBuffer()
        buffer.append("k", self.observation(0))
        buffer.append("k", self.observation(1))
        leftovers = buffer.discard("k")
        assert [item.predicate for item in leftovers] == [0, 1]
        assert buffer.pending("k") == 0
        assert buffer.discard("k") == []
        # Per-key state does not accumulate for keys that moved away.
        assert "k" not in buffer.keys()
        assert len(buffer._queues) == 0


# ----------------------------------------------------------------------
# Serving parity and batch reassembly
# ----------------------------------------------------------------------
class TestShardedServingParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_scalar_and_mixed_batch_match_plain_service(
        self, cluster_world, num_shards, make_cluster, register_tables):
        dataset, base, probes, _ = cluster_world
        plain = SelectivityService(scheduler=RefitScheduler("inline"))
        register_tables(plain, base, TABLES)
        cluster = make_cluster(num_shards)
        register_tables(cluster, base, TABLES)
        try:
            pairs = [
                (TABLES[index % len(TABLES)], predicate)
                for index, predicate in enumerate(probes)
            ]
            expected = plain.estimate_batch_mixed(pairs)
            mixed = cluster.estimate_batch_mixed(pairs)
            np.testing.assert_allclose(mixed, expected, rtol=0, atol=1e-12)
            scalar = np.array(
                [cluster.estimate(table, predicate) for table, predicate in pairs]
            )
            np.testing.assert_allclose(scalar, expected, rtol=0, atol=1e-12)
            for table in TABLES[:3]:
                batch = cluster.estimate_batch(table, probes)
                plain_batch = plain.estimate_batch(table, probes)
                np.testing.assert_allclose(
                    batch, plain_batch, rtol=0, atol=1e-12
                )
        finally:
            cluster.close()
            plain.close()

    def test_mixed_batch_preserves_input_order(self, cluster_world, rng, make_cluster, register_tables):
        """Shuffled interleavings of keys must come back positionally."""
        dataset, base, probes, _ = cluster_world
        cluster = make_cluster(4)
        register_tables(cluster, base, TABLES)
        try:
            pairs = [
                (TABLES[index % len(TABLES)], predicate)
                for index, predicate in enumerate(probes)
            ]
            order = rng.permutation(len(pairs))
            shuffled = [pairs[index] for index in order]
            baseline = cluster.estimate_batch_mixed(pairs)
            reshuffled = cluster.estimate_batch_mixed(shuffled)
            np.testing.assert_allclose(
                reshuffled, baseline[order], rtol=0, atol=0
            )
        finally:
            cluster.close()

    def test_moved_key_is_rerouted_once(
        self, cluster_world, make_cluster, register_tables, monkeypatch
    ):
        """A shard refusing a key once, as if the key had just moved
        away, costs one re-route, never a wrong or missing answer."""
        _, base, probes, _ = cluster_world
        plain = SelectivityService(scheduler=RefitScheduler("inline"))
        register_tables(plain, base, TABLES)
        cluster = make_cluster(4)
        register_tables(cluster, base, TABLES)
        moved = normalize_key(TABLES[0])
        worker = cluster.shard(cluster.shard_for(moved))
        refused: list[str] = []
        for name in ("estimate_batch", "estimate"):
            def refuse_once(key, *args, _name=name, _call=getattr(worker, name)):
                if key == moved and _name not in refused:
                    refused.append(_name)
                    raise ServingError(f"{key} just moved")
                return _call(key, *args)

            monkeypatch.setattr(worker, name, refuse_once)
        try:
            pairs = [
                (TABLES[index % len(TABLES)], predicate)
                for index, predicate in enumerate(probes)
            ]
            expected = plain.estimate_batch_mixed(pairs)
            mixed = cluster.estimate_batch_mixed(pairs)
            np.testing.assert_allclose(mixed, expected, rtol=0, atol=1e-12)
            scalar = np.array(
                [cluster.estimate(table, predicate) for table, predicate in pairs]
            )
            np.testing.assert_allclose(scalar, expected, rtol=0, atol=1e-12)
            assert refused == ["estimate_batch", "estimate"]
        finally:
            plain.close()

    def test_empty_mixed_batch(self, cluster_world, make_cluster):
        _, base, _, _ = cluster_world
        cluster = make_cluster(2)
        try:
            assert cluster.estimate_batch_mixed([]).shape == (0,)
        finally:
            cluster.close()

    def test_duplicate_registration_rejected_cluster_wide(self, cluster_world, make_cluster):
        dataset, base, _, _ = cluster_world
        cluster = make_cluster(4)
        try:
            cluster.register_model("t", copy.deepcopy(base))
            with pytest.raises(ServingError):
                cluster.register_model("t", copy.deepcopy(base))
        finally:
            cluster.close()

    def test_unknown_key_raises(self, cluster_world, make_cluster):
        _, base, probes, _ = cluster_world
        cluster = make_cluster(2)
        try:
            with pytest.raises(ServingError):
                cluster.estimate("ghost", probes[0])
            with pytest.raises(ServingError):
                cluster.observe("ghost", probes[0], 0.5)
        finally:
            cluster.close()

    def test_satisfies_serving_protocol(self, cluster_world, make_cluster):
        cluster = make_cluster(2)
        try:
            assert isinstance(cluster, SelectivityServing)
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# The non-blocking write path
# ----------------------------------------------------------------------
class _SlowRefitQuickSel(QuickSel):
    """A trainer whose refit dawdles before solving (deterministic stall)."""

    def __init__(self, *args, delay: float = 0.6, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._delay = delay
        self.slow = False

    def refit(self):
        if self.slow:
            time.sleep(self._delay)
        return super().refit()


@contextmanager
def _trainer_lock_held(worker: ShardWorker, key: ModelKey):
    """Hold ``key``'s trainer lock on another thread for the block."""
    holding = threading.Event()
    release = threading.Event()

    def hold():
        with worker.service._served_model(key).lock:
            holding.set()
            release.wait(timeout=10)

    holder = threading.Thread(target=hold)
    holder.start()
    assert holding.wait(timeout=5)
    try:
        yield
    finally:
        release.set()
        holder.join(timeout=5)
    assert not holder.is_alive()


class TestNonBlockingObserve:
    def buffered_key(self, cluster_world, make_cluster):
        """A shard key with 40 trained observations and 3 buffered."""
        _, base, probes, _ = cluster_world
        cluster = make_cluster(1)
        key = cluster.register_model("t", copy.deepcopy(base))
        worker = cluster.shard(cluster.shard_ids[0])
        with _trainer_lock_held(worker, key):
            for predicate in probes[:3]:
                assert worker.observe(key, predicate, 0.5) is False
        assert worker.buffer.pending(key) == 3
        return worker, key, probes[:3]

    def test_observe_does_not_wait_for_inflight_refit(self, cluster_world):
        dataset, _, probes, feedback = cluster_world
        cluster = ShardedSelectivityService(
            num_shards=2, scheduler_mode="background"
        )
        trainer = _SlowRefitQuickSel(
            dataset.domain, QuickSelConfig(random_seed=0), delay=0.8
        )
        trainer.observe_many(feedback[:30], refit=True)
        try:
            key = cluster.register_model("slow", trainer)
            shard = cluster.shard(cluster.shard_for("slow"))
            before = cluster.feedback_count("slow")
            trainer.slow = True
            refitting = threading.Thread(
                target=lambda: cluster.refit_now("slow")
            )
            refitting.start()
            time.sleep(0.15)  # well inside the 0.8 s stall window
            start = time.perf_counter()
            cluster.observe("slow", probes[0], 0.5)
            elapsed = time.perf_counter() - start
            # The refit owns the trainer lock right now; a blocking write
            # path would stall ~0.65 s here.
            assert elapsed < 0.3
            assert shard.buffer.pending(key) == 1
            refitting.join(timeout=10)
            # The publish listener replayed the backlog with no extra
            # traffic or explicit flush.
            assert shard.buffer.pending(key) == 0
            assert cluster.feedback_count("slow") == before + 1
            assert shard.buffer.applied >= 1
        finally:
            cluster.close()

    def test_blocking_flush_during_refit_does_not_deadlock(
        self, cluster_world
    ):
        """Regression: a blocking flush waiting on the trainer lock while
        a refit holds it must not wedge the refit thread's publish-time
        replay, nor be wedged by it."""
        dataset, _, probes, feedback = cluster_world
        cluster = ShardedSelectivityService(
            num_shards=1, scheduler_mode="background"
        )
        trainer = _SlowRefitQuickSel(
            dataset.domain, QuickSelConfig(random_seed=0), delay=0.6
        )
        trainer.observe_many(feedback[:30], refit=True)
        try:
            key = cluster.register_model("hot", trainer)
            worker = cluster.shard(cluster.shard_for("hot"))
            trainer.slow = True
            refitting = threading.Thread(
                target=lambda: cluster.refit_now("hot")
            )
            refitting.start()
            time.sleep(0.15)  # the refit now owns the trainer lock
            cluster.observe("hot", probes[0], 0.5)  # buffered, lock busy
            assert worker.buffer.pending(key) == 1
            # Blocking flush: waits on the trainer lock the refit holds,
            # with the backlog still queued.
            flusher = threading.Thread(
                target=lambda: worker.flush(key, blocking=True)
            )
            flusher.start()
            time.sleep(0.1)  # the flusher now waits on the trainer lock
            # A second write lands while the flusher waits: at publish
            # time the buffer is non-empty, so the listener replays on the
            # refit thread while the flusher is still parked on the lock.
            cluster.observe("hot", probes[1], 0.5)
            refitting.join(timeout=10)
            flusher.join(timeout=10)
            assert not refitting.is_alive(), "refit thread wedged"
            assert not flusher.is_alive(), "blocking flush wedged"
            cluster.drain(timeout=10)  # used to raise 'still running'
            worker.flush(key, blocking=True)
            assert worker.buffer.pending(key) == 0
            assert cluster.feedback_count("hot") == 32
        finally:
            cluster.close()

    def test_backlog_replay_schedules_followup_refit(self, cluster_world):
        """Regression: a refit triggered by the publish-time replay used
        to be coalesced into the still-running job and dropped — a key
        that then went quiet served the stale model forever."""
        dataset, _, probes, feedback = cluster_world
        cluster = ShardedSelectivityService(
            num_shards=1,
            scheduler_mode="background",
            policy=RefitPolicy(min_new_observations=3),
        )
        trainer = _SlowRefitQuickSel(
            dataset.domain, QuickSelConfig(random_seed=0), delay=0.5
        )
        trainer.observe_many(feedback[:30], refit=True)
        try:
            cluster.register_model("hot", trainer)
            trainer.slow = True
            refitting = threading.Thread(
                target=lambda: cluster.refit_now("hot")
            )
            refitting.start()
            time.sleep(0.15)  # the refit owns the trainer lock
            for predicate, selectivity in feedback[30:34]:
                cluster.observe("hot", predicate, selectivity)  # buffered
            refitting.join(timeout=10)
            cluster.drain(timeout=10)
            # No further traffic arrives, yet the backlog the replay
            # absorbed must have been retrained into a published model.
            assert cluster.snapshot_for("hot").trained_on == 34
        finally:
            cluster.close()

    def test_orphan_buffered_key_does_not_poison_flush(self, cluster_world, make_cluster):
        """Regression: an observation buffered for a key the shard no
        longer serves (observe raced a migration's final sweep) used to
        make every later flush/drain raise ServingError forever."""
        from repro.cluster.buffer import BufferedObservation

        dataset, base, probes, feedback = cluster_world
        cluster = make_cluster(1)
        key = cluster.register_model("t", copy.deepcopy(base))
        try:
            worker = cluster.shard(cluster.shard_ids[0])
            orphan = ModelKey("never-registered")
            worker.buffer.append(
                orphan, BufferedObservation(probes[0], 0.5, 0.5)
            )
            cluster.observe("t", probes[0], 0.5)
            cluster.flush()  # must not raise
            cluster.drain(timeout=10)  # must not raise
            assert worker.buffer.pending(orphan) == 0
            assert worker.buffer.discarded == 1
            assert cluster.feedback_count("t") == 41  # real key unaffected
        finally:
            cluster.close()

    def test_buffered_feedback_reaches_policy(self, cluster_world, make_cluster):
        """Buffered observations still drive count-triggered refits."""
        dataset, _, probes, feedback = cluster_world
        cluster = make_cluster(
            2, policy=RefitPolicy(min_new_observations=5)
        )
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=0))
        trainer.observe_many(feedback[:20], refit=True)
        try:
            key = cluster.register_model("t", trainer)
            version_before = cluster.snapshot_for("t").version
            for predicate, selectivity in feedback[20:26]:
                cluster.observe("t", predicate, selectivity)
            cluster.drain()
            assert cluster.snapshot_for("t").version > version_before
        finally:
            cluster.close()

    def test_feedback_count_reads_one_moment(
        self, cluster_world, make_cluster, monkeypatch
    ):
        """A replay landing between the trainer's count and the buffer's
        must not hide its batch from both."""
        worker, key, _ = self.buffered_key(cluster_world, make_cluster)
        reader = threading.get_ident()
        pending = ObservationBuffer.pending
        raced: list[threading.Thread] = []

        def racing_pending(buffer, target):
            if threading.get_ident() == reader and not raced:
                raced.append(threading.Thread(
                    target=lambda: worker.flush(key, blocking=False)
                ))
                raced[0].start()
                raced[0].join(timeout=5)
            return pending(buffer, target)

        monkeypatch.setattr(ObservationBuffer, "pending", racing_pending)
        assert worker.feedback_count(key) == 43
        assert raced and not raced[0].is_alive()
        assert worker.flush(key) == 3  # the raced replay was refused
        assert worker.feedback_count(key) == 43

    def test_a_waiting_replay_hides_no_observation(
        self, cluster_world, make_cluster, monkeypatch
    ):
        """A replay waiting for the trainer lock has not taken the queue
        yet, so its batch still counts as buffered."""
        worker, key, _ = self.buffered_key(cluster_world, make_cluster)
        entered = threading.Event()
        release = threading.Event()
        apply_feedback = SelectivityService.apply_feedback

        def waiting_apply(service, *args, **kwargs):
            entered.set()
            release.wait(timeout=5)
            return apply_feedback(service, *args, **kwargs)

        monkeypatch.setattr(SelectivityService, "apply_feedback", waiting_apply)
        applied: list[int] = []
        flusher = threading.Thread(
            target=lambda: applied.append(worker.flush(key))
        )
        flusher.start()
        try:
            assert entered.wait(timeout=5)
            assert worker.feedback_count(key) == 43
        finally:
            release.set()
            flusher.join(timeout=5)
        assert not flusher.is_alive()
        assert applied == [3]
        assert worker.feedback_count(key) == 43

    def test_raising_absorb_puts_the_batch_back_in_order(
        self, cluster_world, make_cluster, monkeypatch
    ):
        """A batch whose absorb raises is not lost: it goes back to the
        front of the queue and the next flush applies it, in order."""
        worker, key, predicates = self.buffered_key(
            cluster_world, make_cluster
        )
        trainer = worker.service._served_model(key).trainer
        observe_many = trainer.observe_many
        batches: list[list[object]] = []

        def failing_once(pairs):
            batches.append([predicate for predicate, _ in pairs])
            if len(batches) == 1:
                raise RuntimeError("absorb failed")
            return observe_many(pairs)

        monkeypatch.setattr(trainer, "observe_many", failing_once)
        requeued = worker.buffer.requeued
        with pytest.raises(RuntimeError):
            worker.flush(key)
        assert worker.buffer.pending(key) == 3
        assert worker.buffer.requeued == requeued + 3
        assert worker.feedback_count(key) == 43
        assert worker.flush(key) == 3
        assert batches == [predicates, predicates]
        assert worker.buffer.pending(key) == 0
        assert worker.feedback_count(key) == 43

    def test_concurrent_writes_and_refits_lose_no_observation(
        self, cluster_world
    ):
        """Writers on more threads than cores race background refits and
        their publish-time replays; a reader never counts fewer
        observations than were acknowledged before its read."""
        _, base, probes, _ = cluster_world
        cluster = ShardedSelectivityService(
            num_shards=1,
            scheduler_mode="background",
            policy=RefitPolicy(min_new_observations=16),
        )
        writers, per_writer = 4, 40
        acknowledged = [0] * writers
        start = threading.Barrier(writers + 1, timeout=10.0)
        low_reads: list[tuple[int, int]] = []
        try:
            key = cluster.register_model("t", copy.deepcopy(base))
            worker = cluster.shard(cluster.shard_ids[0])

            def write(index: int) -> None:
                start.wait()
                for step in range(per_writer):
                    predicate = probes[(index + step) % len(probes)]
                    worker.observe(key, predicate, 0.25)
                    acknowledged[index] += 1

            threads = [
                threading.Thread(target=write, args=(index,))
                for index in range(writers)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                start.wait()
                while any(thread.is_alive() for thread in threads):
                    floor = 40 + sum(acknowledged)
                    count = worker.feedback_count(key)
                    if count < floor:
                        low_reads.append((count, floor))
                for thread in threads:
                    thread.join(10.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert low_reads == []
            cluster.drain(timeout=30)
            total = 40 + writers * per_writer
            assert worker.feedback_count(key) == total
            counters = worker.buffer.counters()
            assert counters["pending"] == 0
            assert counters["applied"] == writers * per_writer
            assert counters["appended"] == (
                counters["applied"] + counters["pending"]
                + counters["discarded"]
            )
        finally:
            cluster.close()


# ----------------------------------------------------------------------
# Elastic membership
# ----------------------------------------------------------------------
class TestElasticMembership:
    def test_add_shard_hands_off_snapshots_exactly(self, cluster_world, make_cluster, register_tables):
        dataset, base, probes, feedback = cluster_world
        cluster = make_cluster(3)
        register_tables(cluster, base, TABLES)
        try:
            pairs = [
                (TABLES[index % len(TABLES)], predicate)
                for index, predicate in enumerate(probes)
            ]
            # Leave some feedback unabsorbed so the hand-off must carry it.
            for table in TABLES[:4]:
                cluster.observe(table, probes[0], 0.5)
            before_counts = {
                table: cluster.feedback_count(table) for table in TABLES
            }
            before_estimates = cluster.estimate_batch_mixed(pairs)
            new_shard = cluster.add_shard()
            assert new_shard in cluster.shard_ids
            after_estimates = cluster.estimate_batch_mixed(pairs)
            np.testing.assert_allclose(
                after_estimates, before_estimates, rtol=0, atol=0
            )
            assert {
                table: cluster.feedback_count(table) for table in TABLES
            } == before_counts
            # Placement matches the ring for every key.
            for table in TABLES:
                owner = cluster.shard_for(table)
                assert normalize_key(table) in cluster.shard(
                    owner
                ).model_keys()
        finally:
            cluster.close()

    def test_remove_shard_rehomes_only_its_keys(self, cluster_world, make_cluster, register_tables):
        dataset, base, probes, _ = cluster_world
        cluster = make_cluster(4)
        register_tables(cluster, base, TABLES)
        try:
            victim = cluster.shard_ids[0]
            victim_keys = set(cluster.shard(victim).model_keys())
            placements = {
                table: cluster.shard_for(table) for table in TABLES
            }
            pairs = [
                (TABLES[index % len(TABLES)], predicate)
                for index, predicate in enumerate(probes)
            ]
            before = cluster.estimate_batch_mixed(pairs)
            migrated = cluster.remove_shard(victim)
            assert migrated == len(victim_keys)
            assert victim not in cluster.shard_ids
            for table in TABLES:
                key = normalize_key(table)
                if key in victim_keys:
                    assert cluster.shard_for(table) != victim
                else:
                    assert cluster.shard_for(table) == placements[table]
            np.testing.assert_allclose(
                cluster.estimate_batch_mixed(pairs), before, rtol=0, atol=0
            )
        finally:
            cluster.close()

    def test_migration_carries_drift_window(self, cluster_world, make_cluster, register_tables):
        """A key one bad query from a drift refit must stay that close
        after migrating — the error window moves with the trainer."""
        dataset, base, probes, _ = cluster_world
        cluster = make_cluster(
            2,
            # Both triggers disabled: the window must *accumulate* so we
            # can watch it survive the migration intact.
            policy=RefitPolicy(
                min_new_observations=10_000,
                drift_threshold=1.0,
                drift_window=8,
                min_drift_observations=4,
            ),
        )
        register_tables(cluster, base, TABLES)
        try:
            for name in TABLES:
                for predicate in probes[:5]:
                    cluster.observe(name, predicate, 0.9)  # large errors

            def windows():
                return {
                    name: cluster.shard(
                        cluster.shard_for(name)
                    ).service.drift_errors(name)
                    for name in TABLES
                }

            placements = {name: cluster.shard_for(name) for name in TABLES}
            before = windows()
            assert all(len(window) == 5 for window in before.values())
            new_shard = cluster.add_shard()
            moved = [
                name for name in TABLES
                if cluster.shard_for(name) != placements[name]
            ]
            assert moved  # the resize must actually migrate something
            assert windows() == before
        finally:
            cluster.close()

    def test_membership_errors(self, cluster_world, make_cluster):
        cluster = make_cluster(2)
        try:
            with pytest.raises(ClusterError):
                cluster.remove_shard("ghost")
            with pytest.raises(ClusterError):
                cluster.add_shard(cluster.shard_ids[0])
            cluster.remove_shard(cluster.shard_ids[0])
            with pytest.raises(ClusterError):
                cluster.remove_shard(cluster.shard_ids[0])
        finally:
            cluster.close()

    def test_traffic_flows_after_resize(self, cluster_world, make_cluster, register_tables):
        dataset, base, probes, feedback = cluster_world
        cluster = make_cluster(2, policy=RefitPolicy(min_new_observations=4))
        register_tables(cluster, base, TABLES)
        try:
            cluster.add_shard()
            for predicate, selectivity in feedback[40:46]:
                cluster.observe(TABLES[0], predicate, selectivity)
            cluster.drain()
            assert cluster.snapshot_for(TABLES[0]).version >= 1
            values = cluster.estimate_batch(TABLES[0], probes)
            assert values.shape == (len(probes),)
        finally:
            cluster.close()

    def test_closed_cluster_rejects_membership_changes(self, cluster_world, make_cluster):
        cluster = make_cluster(2)
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(ClusterError):
            cluster.add_shard()


# ----------------------------------------------------------------------
# Fleet metrics
# ----------------------------------------------------------------------
class TestClusterStats:
    def test_aggregate_sums_and_merged_percentiles(self, cluster_world, make_cluster, register_tables):
        dataset, base, probes, feedback = cluster_world
        cluster = make_cluster(4, policy=RefitPolicy(min_new_observations=4))
        register_tables(cluster, base, TABLES)
        try:
            pairs = [
                (TABLES[index % len(TABLES)], predicate)
                for index, predicate in enumerate(probes)
            ]
            cluster.estimate_batch_mixed(pairs)
            cluster.estimate_batch_mixed(pairs)  # warm pass: cache hits
            for predicate, selectivity in feedback[40:50]:
                cluster.observe(TABLES[0], predicate, selectivity)
            cluster.drain()
            snapshot = cluster.fleet_stats()
            aggregate = snapshot["aggregate"]
            per_shard = snapshot["per_shard"]
            assert aggregate["shard_count"] == 4
            assert aggregate["model_keys"] == len(TABLES)
            assert aggregate["predicates_served"] == sum(
                view["predicates_served"] for view in per_shard.values()
            )
            assert aggregate["cache_hits"] > 0
            assert 0.0 < aggregate["hit_rate"] <= 1.0
            assert aggregate["observations"] == 10
            assert aggregate["observations_appended"] == 10
            assert aggregate["refits_completed"] >= 1
            assert (
                aggregate["p99_latency_seconds"]
                >= aggregate["p50_latency_seconds"]
                >= 0.0
            )
            assert set(snapshot) == {
                "aggregate", "per_shard", "backend_errors"
            }
        finally:
            cluster.close()

    def test_snapshot_folds_one_read_of_every_shard(
        self, cluster_world, make_cluster, register_tables, monkeypatch
    ):
        """Traffic landing between two shard reads cannot make the
        aggregate and the per-shard breakdown of one snapshot disagree."""
        _, base, probes, _ = cluster_world
        cluster = make_cluster(2)
        register_tables(cluster, base, TABLES)
        stats_view = ShardWorker.stats_view

        def view_then_serve(worker):
            view = stats_view(worker)
            cluster.estimate_batch(TABLES[0], probes[:1])
            return view

        monkeypatch.setattr(ShardWorker, "stats_view", view_then_serve)
        snapshot = cluster.fleet_stats()
        assert snapshot["aggregate"]["predicates_served"] == sum(
            view["predicates_served"] for view in snapshot["per_shard"].values()
        )

    def test_cluster_and_gateway_share_one_per_shard_schema(
        self, make_cluster
    ):
        cluster = make_cluster(2)
        worker = WorkerServer(shard_id="w0")
        worker.start()
        server = GatewayServer({"w0": ("127.0.0.1", worker.port)})
        server.start()
        client = connect(*server.address)
        try:
            remote = client.fleet_stats()
            local = cluster.fleet_stats()
        finally:
            client.close()
            server.close()
            worker.close()
        assert set(remote["per_shard"]) == {"w0"}
        schema = set(remote["per_shard"]["w0"])
        assert schema == set(remote["aggregate"]) == set(local["aggregate"])
        for entry in local["per_shard"].values():
            assert set(entry) == schema

    def test_fleet_aggregate_covers_the_service_snapshot(
        self, make_service, make_cluster
    ):
        service_keys = set(make_service().stats.snapshot()) - {"backend_errors"}
        assert service_keys <= set(make_cluster(2).fleet_stats()["aggregate"])

    def test_stats_view_reads_the_stats_once(
        self, cluster_world, make_cluster, register_tables,
        record_between_reads,
    ):
        """A request landing mid-view cannot leave the view holding more
        latencies than the requests it counts."""
        _, base, probes, _ = cluster_world
        cluster = make_cluster(1)
        register_tables(cluster, base, TABLES[:1])
        cluster.estimate_batch(TABLES[0], probes[:1])
        worker = cluster.shard(cluster.shard_ids[0])
        record_between_reads(worker.stats)
        view = worker.stats_view()
        counters = view["counters"]
        assert len(view["latencies"]) == (
            counters["estimate_requests"] + counters["batch_requests"]
        )


# ----------------------------------------------------------------------
# Engine wiring (feedback loop + multi-table planning)
# ----------------------------------------------------------------------
class TestEngineClusterWiring:
    @pytest.fixture
    def engine_world(self):
        rng = np.random.default_rng(23)
        executor = Executor()
        tables = []
        for name in ("events", "orders", "users"):
            schema = Schema([Column("x"), Column("y")])
            table = Table(name, schema)
            table.insert(rng.uniform(0.0, 1.0, size=(3_000, 2)))
            executor.register_table(table)
            tables.append(table)
        catalog = Catalog()
        loop = FeedbackLoop(executor, catalog)
        return rng, executor, catalog, loop, tables

    def random_predicate(self, rng):
        low = rng.uniform(0.0, 0.6, size=2)
        high = low + rng.uniform(0.1, 0.4, size=2)
        return box_predicate(
            [(0, low[0], min(high[0], 1.0)), (1, low[1], min(high[1], 1.0))]
        )

    def test_feedback_loop_routes_to_sharded_service(self, engine_world):
        rng, executor, catalog, loop, tables = engine_world
        cluster = ShardedSelectivityService(
            num_shards=2,
            scheduler_mode="inline",
            policy=RefitPolicy(min_new_observations=6),
        )
        try:
            adapters = {
                table.name: loop.register_service(
                    table.name,
                    cluster,
                    trainer=QuickSel(table.domain(), QuickSelConfig(random_seed=0)),
                )
                for table in tables
            }
            assert all(
                isinstance(adapter, ServingEstimator)
                for adapter in adapters.values()
            )
            for table in tables:
                builder = QueryBuilder(table.schema)
                for _ in range(8):
                    builder_query = builder.query(
                        table.name, self.random_predicate(rng)
                    )
                    executor.execute(builder_query)
            cluster.drain()
            for table in tables:
                assert catalog.feedback_count(table.name) == 8
                assert adapters[table.name].observed_count == 8
                assert adapters[table.name].version >= 1
        finally:
            cluster.close()

    def test_plan_many_tables_uses_one_mixed_batch(self, engine_world):
        rng, executor, catalog, loop, tables = engine_world
        cluster = ShardedSelectivityService(
            num_shards=2, scheduler_mode="inline"
        )
        try:
            optimizers = {}
            for table in tables:
                adapter = loop.register_service(
                    table.name,
                    cluster,
                    trainer=QuickSel(table.domain(), QuickSelConfig(random_seed=0)),
                )
                optimizer = AccessPathOptimizer(table, adapter)
                optimizer.add_index("x")
                optimizers[table.name] = optimizer
            for table in tables:
                builder = QueryBuilder(table.schema)
                for _ in range(10):
                    executor.execute(
                        builder.query(table.name, self.random_predicate(rng))
                    )
            cluster.drain()
            requests = [
                (tables[index % len(tables)].name, self.random_predicate(rng))
                for index in range(24)
            ]
            plans = plan_many_tables(optimizers, requests)
            assert len(plans) == len(requests)
            for (table_name, predicate), plan in zip(requests, plans):
                scalar = optimizers[table_name].plan(predicate)
                assert plan.access_path == scalar.access_path
                assert plan.estimated_selectivity == pytest.approx(
                    scalar.estimated_selectivity, abs=1e-12
                )
        finally:
            cluster.close()

    def test_plan_many_tables_mixed_backends_falls_back(self, engine_world):
        """Tables on different backends still plan correctly (per-table)."""
        rng, executor, catalog, loop, tables = engine_world
        cluster = ShardedSelectivityService(
            num_shards=2, scheduler_mode="inline"
        )
        plain = SelectivityService(scheduler=RefitScheduler("inline"))
        try:
            optimizers = {}
            backends = [cluster, plain, cluster]
            for table, backend in zip(tables, backends):
                adapter = loop.register_service(
                    table.name,
                    backend,
                    trainer=QuickSel(table.domain(), QuickSelConfig(random_seed=0)),
                )
                optimizers[table.name] = AccessPathOptimizer(table, adapter)
            requests = [
                (tables[index % len(tables)].name, self.random_predicate(rng))
                for index in range(12)
            ]
            plans = plan_many_tables(optimizers, requests)
            assert len(plans) == len(requests)
            for (table_name, predicate), plan in zip(requests, plans):
                scalar = optimizers[table_name].plan(predicate)
                assert plan.estimated_selectivity == pytest.approx(
                    scalar.estimated_selectivity, abs=1e-12
                )
        finally:
            cluster.close()
            plain.close()


class TestDrainBudget:
    """drain(timeout=...) is a fleet-total budget, not per-shard."""

    def _cluster_with_recording_drains(self, monkeypatch, sleep_seconds):
        cluster = ShardedSelectivityService(
            num_shards=3, scheduler_mode="inline"
        )
        received: list[float | None] = []
        for shard_id in cluster.shard_ids:
            worker = cluster.shard(shard_id)

            def fake_drain(timeout=None, _sleep=sleep_seconds):
                received.append(timeout)
                time.sleep(_sleep)

            monkeypatch.setattr(worker, "drain", fake_drain)
        return cluster, received

    def test_remaining_budget_shrinks_across_shards(self, monkeypatch):
        cluster, received = self._cluster_with_recording_drains(
            monkeypatch, sleep_seconds=0.05
        )
        try:
            cluster.drain(timeout=5.0)
        finally:
            cluster.close()
        assert len(received) == 3
        assert received[0] <= 5.0
        # Each later shard sees the budget minus the time its
        # predecessors spent — the regression was every shard getting
        # the full 5.0.
        assert received[1] < received[0] - 0.04
        assert received[2] < received[1] - 0.04

    def test_exhausted_budget_raises_with_shards_left(self, monkeypatch):
        cluster, received = self._cluster_with_recording_drains(
            monkeypatch, sleep_seconds=0.2
        )
        try:
            with pytest.raises(ServingError, match="drain budget"):
                cluster.drain(timeout=0.3)
        finally:
            cluster.close()
        # The first shards consumed the budget; at least one never ran.
        assert 0 < len(received) < 3

    def test_no_timeout_means_unbounded_everywhere(self, monkeypatch):
        cluster, received = self._cluster_with_recording_drains(
            monkeypatch, sleep_seconds=0.0
        )
        try:
            cluster.drain()
        finally:
            cluster.close()
        assert received == [None, None, None]
