"""Gateway, worker-server, client, and net-stats tests (in-thread).

Everything here runs worker servers inside the test process (real
sockets, real protocol, no child interpreters) so failures are
debuggable and coverage is measured; the true multi-process paths are
exercised in ``test_net_e2e.py``.
"""

from __future__ import annotations

import copy
import inspect
import time

import numpy as np
import pytest

from repro.cluster import ShardedSelectivityService
from repro.cluster.shard import ShardWorker
from repro.core.config import QuickSelConfig
from repro.core.predicate import BoxBatch
from repro.core.quicksel import QuickSel
from repro.exceptions import (
    ClusterError,
    NetError,
    RemoteTimeoutError,
    ServingError,
    WorkerUnavailableError,
)
from repro.net import (
    GatewayServer,
    GatewayStats,
    RemoteSelectivityService,
    WorkerServer,
    connect,
    merge_worker_stats,
)
from repro.net.gateway import SelectivityGateway, _WorkerLink
from repro.net.protocol import encode_backend
from repro.serving import (
    ModelKey,
    RefitScheduler,
    SelectivityService,
    normalize_key,
)
from repro.serving.stats import LATENCY_WINDOW
from repro.serving.adapter import SelectivityServing, ServingEstimator
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY = 1e-12


@pytest.fixture(scope="module")
def workload():
    dataset = gaussian_dataset(1500, dimension=2, correlation=0.5, seed=21)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=22)
    feedback = labelled_feedback(generator.generate(50), dataset.rows)
    probes = RandomRangeQueryGenerator(dataset.domain, seed=23).generate(30)
    trainers = {}
    for index, table in enumerate(("orders", "parts", "supplies")):
        trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=index))
        trainer.observe_many(feedback, refit=True)
        trainers[table] = trainer
    return dataset, feedback, probes, trainers


@pytest.fixture
def fleet(workload):
    """Two in-thread workers behind a gateway server, plus a client."""
    workers = {}
    for name in ("w1", "w2"):
        server = WorkerServer(shard_id=name)
        server.start()
        workers[name] = server
    gateway_server = GatewayServer(
        {name: ("127.0.0.1", server.port) for name, server in workers.items()},
        retry_backoff=0.01,
    )
    gateway_server.start()
    client = connect(*gateway_server.address)
    yield workers, gateway_server, client
    client.close()
    gateway_server.close()
    for server in workers.values():
        server.close()


def _reference(trainers, workload):
    service = SelectivityService(scheduler=RefitScheduler("inline"))
    for table, trainer in trainers.items():
        service.register_model(table, copy.deepcopy(trainer))
    return service


def _respawn_on(port: int, shard_id: str) -> WorkerServer:
    """Rebind a worker on a just-released port, retrying through the
    window where the old connections are still tearing down."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            return WorkerServer(port=port, shard_id=shard_id)
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


# ----------------------------------------------------------------------
# GatewayStats / merge_worker_stats units
# ----------------------------------------------------------------------
class TestGatewayStats:
    def test_counters_track_requests(self):
        stats = GatewayStats()
        stats.record_request_started()
        stats.record_request_started()
        stats.record_request_finished(True)
        stats.record_request_finished(False)
        counters = stats.counters()
        assert counters["requests"] == 2
        assert counters["responses"] == 1
        assert counters["errors"] == 1
        assert counters["in_flight"] == 0

    def test_latency_percentiles_per_worker_and_merged(self):
        stats = GatewayStats()
        for value in (0.010, 0.020, 0.030):
            stats.record_worker_call("a", value)
        stats.record_worker_call("b", 0.100)
        view = stats.snapshot()
        assert set(view["per_worker_latency"]) == {"a", "b"}
        latency = view["per_worker_latency"]["a"]
        assert latency["calls"] == 3
        assert latency["p50_latency_seconds"] == pytest.approx(0.020)
        # Merged over every worker's window: p99 of 10, 20, 30, 100 ms.
        assert view["p99_latency_seconds"] == pytest.approx(0.0979)

    def test_forget_worker_drops_its_window(self):
        stats = GatewayStats()
        stats.record_worker_call("gone", 1.0)
        stats.forget_worker("gone")
        view = stats.snapshot()
        assert view["per_worker_latency"] == {}
        assert view["p99_latency_seconds"] == 0.0

    def test_window_bound_and_validation(self):
        stats = GatewayStats()
        for value in range(LATENCY_WINDOW + 2):
            stats.record_worker_call("a", float(value))
        latency = stats.snapshot()["per_worker_latency"]["a"]
        assert latency["calls"] == LATENCY_WINDOW
        # The newest calls, 2 .. LATENCY_WINDOW + 1, are kept.
        assert latency["p50_latency_seconds"] == pytest.approx(
            (LATENCY_WINDOW + 3) / 2
        )

    def test_snapshot_schema(self):
        """The counter names dashboards and the benchmark read."""
        assert set(GatewayStats().snapshot()) == {
            "requests",
            "responses",
            "errors",
            "retries",
            "reconnects",
            "timeouts",
            "in_flight",
            "fanouts",
            "migrations",
            "degraded_estimates",
            "breaker_opens",
            "buffered_writes",
            "buffered_writes_replayed",
            "lost_writes",
            "checkpoint_restores",
            "health_failures",
            "per_worker_latency",
            "p99_latency_seconds",
        }


class TestMergeWorkerStats:
    def test_sums_counters_and_recomputes_hit_rate(self):
        merged = merge_worker_stats(
            {
                "w1": {
                    "counters": {"cache_hits": 8, "cache_misses": 2,
                                 "estimate_requests": 10},
                    "latencies": (0.010, 0.020),
                    "buffer": {"appended": 3, "pending": 1},
                    "backend_error_windows": {("m", "QuickSel"): (0.1, 0.3)},
                    "model_keys": 2,
                },
                "w2": {
                    "counters": {"cache_hits": 2, "cache_misses": 8,
                                 "estimate_requests": 10},
                    "latencies": (0.040,),
                    "buffer": {"appended": 1, "pending": 0},
                    "backend_error_windows": {("m", "QuickSel"): (0.2,)},
                    "model_keys": 1,
                },
            }
        )
        aggregate = merged["aggregate"]
        assert aggregate["estimate_requests"] == 20
        # True fleet rate from summed hits/misses, not an average of rates.
        assert aggregate["hit_rate"] == pytest.approx(0.5)
        assert aggregate["p50_latency_seconds"] == pytest.approx(0.020)
        assert aggregate["observations_appended"] == 4
        assert aggregate["observations_pending"] == 1
        assert aggregate["shard_count"] == 2
        assert aggregate["model_keys"] == 3
        assert merged["backend_errors"]["m"]["QuickSel"] == pytest.approx(0.2)

    def test_empty_fleet_merges_to_zeroes(self):
        merged = merge_worker_stats({})
        assert merged["aggregate"]["hit_rate"] == 0.0
        assert merged["aggregate"]["p99_latency_seconds"] == 0.0
        assert merged["backend_errors"] == {}


# ----------------------------------------------------------------------
# Worker server, dialled directly (the client speaks to it natively)
# ----------------------------------------------------------------------
class TestWorkerServerDirect:
    def test_client_serves_worker_without_a_gateway(self, workload):
        _, _, probes, trainers = workload
        server = WorkerServer(shard_id="solo")
        server.start()
        reference = _reference({"orders": trainers["orders"]}, workload)
        try:
            client = connect("127.0.0.1", server.port)
            client.register_model("orders", copy.deepcopy(trainers["orders"]))
            remote = client.estimate_batch("orders", probes)
            local = reference.estimate_batch("orders", probes)
            assert np.max(np.abs(remote - local)) <= PARITY
            assert client.feedback_count("orders") == 50
            assert client.model_keys() == (normalize_key("orders"),)
            client.close()
        finally:
            reference.close()
            server.close()

    def test_mixed_burst_served_without_a_gateway(self, workload, monkeypatch):
        """A worker speaks the client's grouped burst too: a box group
        arrives as a BoxBatch, a group holding a Disjunction as a list."""
        _, _, probes, trainers = workload
        tables = ("orders", "parts")
        served = {table: trainers[table] for table in tables}
        pairs = [(table, probe) for probe in probes for table in tables]
        pairs[1] = ("parts", probes[0] | probes[1])
        arrivals = []
        batch = ShardWorker.estimate_batch

        def spy_batch(self, key, predicates):
            arrivals.append((key.table, type(predicates)))
            return batch(self, key, predicates)

        server = WorkerServer(shard_id="solo")
        server.start()
        reference = _reference(served, workload)
        try:
            client = connect("127.0.0.1", server.port)
            for table, trainer in served.items():
                client.register_model(table, copy.deepcopy(trainer))
            monkeypatch.setattr(ShardWorker, "estimate_batch", spy_batch)
            remote = client.estimate_batch_mixed(pairs)
            local = reference.estimate_batch_mixed(pairs)
            assert np.max(np.abs(remote - local)) <= PARITY
            assert sorted(arrivals) == [("orders", BoxBatch), ("parts", list)]
            client.close()
        finally:
            reference.close()
            server.close()

    def test_malformed_burst_is_refused_before_any_estimate(self, workload):
        _, _, probes, trainers = workload
        server = WorkerServer(shard_id="solo")
        server.start()
        try:
            client = connect("127.0.0.1", server.port)
            orders = client.register_model(
                "orders", copy.deepcopy(trainers["orders"])
            )
            two = BoxBatch.pack(probes[:2])
            for pairs in (
                [(orders, [0, 1], two), (orders, [1], [probes[2]])],
                [(orders, [0, 1], two), (orders, [2, 3], [probes[2]])],
            ):
                with pytest.raises(NetError, match="exactly once"):
                    client._call("estimate_batch_mixed", {"pairs": pairs})
            assert server.worker.stats.batch_requests == 0
            client.close()
        finally:
            server.close()

    def test_unknown_method_is_a_typed_error(self, workload):
        server = WorkerServer(shard_id="solo")
        server.start()
        try:
            client = RemoteSelectivityService("127.0.0.1", server.port)
            with pytest.raises(NetError, match="unknown wire method"):
                client._call("no_such_method")
            client.close()
        finally:
            server.close()

    def test_slow_call_surfaces_remote_timeout(self):
        server = WorkerServer(shard_id="solo")
        server.start()
        try:
            client = RemoteSelectivityService("127.0.0.1", server.port)
            with pytest.raises(RemoteTimeoutError):
                client._call("ping", {"delay": 1.0}, timeout=0.15)
            # The connection was dropped (a late reply would desync);
            # the next call redials and works.
            assert client.ping() == "pong"
            client.close()
        finally:
            server.close()

    def test_shutdown_over_the_wire(self):
        server = WorkerServer(shard_id="solo")
        server.start()
        client = RemoteSelectivityService("127.0.0.1", server.port)
        assert client._call("shutdown") == "stopping"
        assert server.wait(timeout=10.0)
        client.close()

    def test_malformed_key_is_refused_and_registers_nothing(self, workload):
        """A worker builds every key a client sends with normalize_key,
        so a key that is not a name or a ModelKey of strings is refused
        before it reaches the shard's registry."""
        _, _, _, trainers = workload
        server = WorkerServer(shard_id="solo")
        server.start()
        try:
            client = RemoteSelectivityService("127.0.0.1", server.port)
            backend = encode_backend(copy.deepcopy(trainers["orders"]))
            for table in (None, ModelKey(None), ModelKey("orders", ("x", 1))):
                with pytest.raises(ServingError, match="model key"):
                    client._call(
                        "register_model", {"table": table, "backend": backend}
                    )
            assert client.model_keys() == ()
            client.close()
        finally:
            server.close()

    def test_unserved_key_maps_to_serving_error(self):
        server = WorkerServer(shard_id="solo")
        server.start()
        try:
            client = RemoteSelectivityService("127.0.0.1", server.port)
            with pytest.raises(ServingError):
                client.estimate("ghost", None)
            client.close()
        finally:
            server.close()


# ----------------------------------------------------------------------
# Gateway end to end (in-thread workers)
# ----------------------------------------------------------------------
class TestGatewayServing:
    def test_remote_satisfies_selectivity_serving(self, fleet):
        _, _, client = fleet
        assert isinstance(client, SelectivityServing)

    @pytest.mark.parametrize(
        "front_end",
        [
            SelectivityService,
            ShardedSelectivityService,
            RemoteSelectivityService,
        ],
    )
    def test_front_end_takes_the_protocol_parameters(self, front_end):
        """``runtime_checkable`` checks only that the method names
        exist; a caller written against the protocol also needs each
        front end to take its parameters under the same names, in the
        same order.  A front end may add only the parameters listed
        here after them, so a second spelling of an argument (a
        ``columns`` beside ``table``) cannot creep back into one."""
        extras = {
            (SelectivityService, "register_model"): [
                "refit_backlog",
                "initial_errors",
            ],
        }
        for name, method in vars(SelectivityServing).items():
            if name.startswith("_") or not callable(method):
                continue
            expected = list(inspect.signature(method).parameters)
            actual = list(
                inspect.signature(getattr(front_end, name)).parameters
            )
            assert actual == expected + extras.get((front_end, name), []), name

    def test_estimates_match_in_process_service(self, fleet, workload):
        _, _, probes, trainers = workload
        _, _, client = fleet
        reference = _reference(trainers, workload)
        try:
            for table, trainer in trainers.items():
                client.register_model(table, copy.deepcopy(trainer))
            pairs = [
                (table, probe) for probe in probes for table in trainers
            ]
            remote = client.estimate_batch_mixed(pairs)
            local = reference.estimate_batch_mixed(pairs)
            assert np.max(np.abs(remote - local)) <= PARITY
            for table in trainers:
                assert abs(
                    client.estimate(table, probes[0])
                    - reference.estimate(table, probes[0])
                ) <= PARITY
        finally:
            reference.close()

    def test_box_groups_cross_as_rows_and_others_as_objects(
        self, fleet, workload, monkeypatch
    ):
        """One burst, two payload forms: the client packs each key's boxes
        into a BoxBatch, a group holding a Disjunction goes as a list, and
        both pass the traced names perfbench wraps (the gateway's
        ``estimate_batch_mixed(pairs=...)``, one ``estimate_batch_mixed``
        RPC per owning worker, and per key the worker's
        ``ShardWorker.estimate_batch``)."""
        _, _, probes, trainers = workload
        _, server, client = fleet
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        either = probes[0] | probes[1]
        pairs = [(table, probe) for probe in probes for table in trainers]
        pairs[1] = ("parts", either)
        bursts, rpcs, arrivals = [], [], []
        mixed = SelectivityGateway.estimate_batch_mixed
        call = _WorkerLink.call
        batch = ShardWorker.estimate_batch

        async def spy_mixed(self, pairs):
            bursts.append(pairs)
            return await mixed(self, pairs=pairs)

        async def spy_call(self, method, *args, **kwargs):
            rpcs.append((self.name, method))
            return await call(self, method, *args, **kwargs)

        def spy_batch(self, key, predicates):
            arrivals.append((key, predicates))
            return batch(self, key, predicates)

        monkeypatch.setattr(SelectivityGateway, "estimate_batch_mixed", spy_mixed)
        monkeypatch.setattr(_WorkerLink, "call", spy_call)
        monkeypatch.setattr(ShardWorker, "estimate_batch", spy_batch)
        reference = _reference(trainers, workload)
        try:
            remote = client.estimate_batch_mixed(pairs)
            local = reference.estimate_batch_mixed(pairs)
        finally:
            reference.close()
        assert np.max(np.abs(remote - local)) <= PARITY
        keys = {table: normalize_key(table) for table in trainers}
        assert len(bursts) == 1 and len(bursts[0]) == len(trainers)
        owners = {server.gateway.router.route(key) for key in keys.values()}
        assert sorted(rpcs) == sorted(
            (owner, "estimate_batch_mixed") for owner in owners
        )
        forms = {key: type(predicates) for key, predicates in arrivals}
        assert len(arrivals) == len(forms) == len(trainers)
        assert forms == {
            key: list if table == "parts" else BoxBatch
            for table, key in keys.items()
        }

    def test_misrouted_key_is_rerouted_once(self, fleet, workload, monkeypatch):
        """A key the ring sends to the wrong worker on its first lookup,
        as if it had just moved, costs one re-route: live answers, not
        degraded ones."""
        _, _, probes, trainers = workload
        _, server, client = fleet
        gateway = server.gateway
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        moved = normalize_key("orders")
        owner = gateway.router.route(moved)
        wrong = next(name for name in gateway.router.shards if name != owner)
        link_for = gateway._link_for
        misrouted: list[str] = []

        def first_lookup_wrong(key):
            if key == moved and not misrouted:
                misrouted.append(wrong)
                return gateway._links[wrong]
            return link_for(key)

        monkeypatch.setattr(gateway, "_link_for", first_lookup_wrong)
        reference = _reference(trainers, workload)
        try:
            pairs = [
                (table, probe) for probe in probes for table in trainers
            ]
            remote = client.estimate_batch_mixed(pairs)
            local = reference.estimate_batch_mixed(pairs)
            assert np.max(np.abs(remote - local)) <= PARITY
            assert misrouted == [wrong]
            assert client.fleet_stats()["gateway"]["degraded_estimates"] == 0
        finally:
            reference.close()

    def test_unregistered_key_is_resplit_once_then_refused(
        self, fleet, workload, monkeypatch
    ):
        """A burst naming a key no worker serves is split once more on
        the current ring and then refused: its owner gets two burst RPCs
        and no per-key fallback."""
        _, _, probes, trainers = workload
        _, server, client = fleet
        gateway = server.gateway
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        ghost_owner = gateway.router.route(normalize_key("ghost"))
        calls: list[str] = []
        call = _WorkerLink.call

        async def spy_call(self, method, *args, **kwargs):
            if self.name == ghost_owner:
                calls.append(method)
            return await call(self, method, *args, **kwargs)

        monkeypatch.setattr(_WorkerLink, "call", spy_call)
        pairs = [
            (table, probe) for probe in probes for table in (*trainers, "ghost")
        ]
        with pytest.raises(ServingError):
            client.estimate_batch_mixed(pairs)
        assert calls == ["estimate_batch_mixed"] * 2

    def test_keys_actually_spread_across_workers(self, fleet, workload):
        _, _, _, trainers = workload
        workers, server, client = fleet
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        placement = {
            name: len(worker.worker.model_keys())
            for name, worker in workers.items()
        }
        assert sum(placement.values()) == len(trainers)
        router = server.gateway.router
        for table in trainers:
            owner = router.route(normalize_key(table))
            assert normalize_key(table) in workers[owner].worker.model_keys()

    def test_observe_round_trip_drives_remote_refit(self, fleet, workload):
        _, feedback, _, trainers = workload
        _, _, client = fleet
        client.register_model("orders", copy.deepcopy(trainers["orders"]))
        before = client.snapshot_for("orders")
        for predicate, selectivity in feedback[:10]:
            client.observe("orders", predicate, selectivity)
        assert client.feedback_count("orders") == 60
        after = client.refit_now("orders")
        assert after.version > before.version
        assert after.trained_on == 60

    def test_serving_estimator_works_over_the_wire(self, fleet, workload):
        _, _, probes, trainers = workload
        _, _, client = fleet
        key = client.register_model("orders", copy.deepcopy(trainers["orders"]))
        estimator = ServingEstimator(client, key)
        reference = _reference({"orders": trainers["orders"]}, workload)
        try:
            expected = reference.estimate_batch("orders", probes)
            assert np.max(np.abs(estimator.estimate_many(probes) - expected)) \
                <= PARITY
            estimator.observe(probes[0], 0.25)
            assert estimator.observed_count == 51
        finally:
            reference.close()

    def test_fleet_stats_aggregates_cluster_shape(self, fleet, workload):
        _, _, probes, trainers = workload
        _, _, client = fleet
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        for table in trainers:
            client.estimate_batch(table, probes)
        view = client.fleet_stats()
        assert set(view) >= {"aggregate", "per_shard", "backend_errors",
                             "gateway", "unreachable"}
        assert view["aggregate"]["batch_requests"] == len(trainers)
        assert view["aggregate"]["shard_count"] == 2
        assert view["unreachable"] == ()
        assert view["gateway"]["requests"] > 0
        assert view["gateway"]["errors"] == 0

    def test_empty_mixed_batch(self, fleet):
        _, _, client = fleet
        assert client.estimate_batch_mixed([]).shape == (0,)


class TestGatewayMembership:
    def test_add_worker_migrates_with_snapshot_parity(self, fleet, workload):
        _, _, probes, trainers = workload
        workers, server, client = fleet
        for table, trainer in trainers.items():
            client.register_model(table, copy.deepcopy(trainer))
        before = {
            table: client.snapshot_for(table).estimate_many(probes)
            for table in trainers
        }
        extra = WorkerServer(shard_id="w3")
        extra.start()
        try:
            client.add_worker("w3", "127.0.0.1", extra.port)
            assert client.worker_names() == ("w1", "w2", "w3")
            # Only keys whose route changed moved, and every snapshot is
            # bit-identical to what the source served.
            for table in trainers:
                after = client.snapshot_for(table).estimate_many(probes)
                assert np.max(np.abs(after - before[table])) <= PARITY
            moved_here = len(extra.worker.model_keys())
            migrations = client.fleet_stats()["gateway"]["migrations"]
            assert migrations == moved_here
            removed = client.remove_worker("w3")
            assert removed == moved_here
            assert client.worker_names() == ("w1", "w2")
            for table in trainers:
                after = client.snapshot_for(table).estimate_many(probes)
                assert np.max(np.abs(after - before[table])) <= PARITY
        finally:
            extra.close()

    def test_migration_carries_buffered_feedback(self, fleet, workload):
        _, feedback, _, trainers = workload
        workers, server, client = fleet
        client.register_model("orders", copy.deepcopy(trainers["orders"]))
        for predicate, selectivity in feedback[:7]:
            client.observe("orders", predicate, selectivity)
        count_before = client.feedback_count("orders")
        extra = WorkerServer(shard_id="w3")
        extra.start()
        try:
            client.add_worker("w3", "127.0.0.1", extra.port)
            assert client.feedback_count("orders") == count_before
            client.remove_worker("w3")
            assert client.feedback_count("orders") == count_before
        finally:
            extra.close()

    def test_membership_validation(self, fleet):
        _, server, client = fleet
        with pytest.raises(ClusterError, match="already on the ring"):
            client.add_worker("w1", "127.0.0.1", 1)
        with pytest.raises(ClusterError, match="unknown worker"):
            client.remove_worker("nope")
        client.remove_worker("w2")
        with pytest.raises(ClusterError, match="last worker"):
            client.remove_worker("w1")

    def test_remove_worker_can_shut_it_down(self, workload):
        _, _, _, trainers = workload
        w1 = WorkerServer(shard_id="w1")
        w2 = WorkerServer(shard_id="w2")
        w1.start()
        w2.start()
        server = GatewayServer(
            {"w1": ("127.0.0.1", w1.port), "w2": ("127.0.0.1", w2.port)}
        )
        server.start()
        try:
            client = connect(*server.address)
            client.remove_worker("w2", shutdown=True)
            assert w2.wait(timeout=10.0)
            client.close()
        finally:
            server.close()
            w1.close()
            w2.close()


class TestGatewayFaultPaths:
    def test_worker_killed_mid_batch_retries_to_reconnected_worker(
        self, workload
    ):
        import queue
        import threading

        _, _, probes, trainers = workload
        workers = {}
        for name in ("w1", "w2"):
            worker = WorkerServer(shard_id=name)
            worker.start()
            workers[name] = worker
        # A wide retry window so the respawn can land inside it.
        server = GatewayServer(
            {name: ("127.0.0.1", w.port) for name, w in workers.items()},
            retry_backoff=0.25,
            max_retries=4,
        )
        server.start()
        client = connect(*server.address)
        try:
            client.register_model("orders", copy.deepcopy(trainers["orders"]))
            expected = client.estimate_batch("orders", probes)
            owner = server.gateway.router.route(normalize_key("orders"))
            victim = workers[owner]
            port = victim.port
            trainer_state = copy.deepcopy(trainers["orders"])
            victim.close()  # hard stop: connections severed, port released
            # Issue the batch against the dead worker from a side thread,
            # then respawn on the same port while the gateway is inside
            # its retry backoff — the read lands on the new incarnation.
            outcome: queue.Queue = queue.Queue()
            reader = threading.Thread(
                target=lambda: outcome.put(
                    client.estimate_batch("orders", probes)
                )
            )
            reader.start()
            time.sleep(0.1)  # let the first attempt fail
            respawned = _respawn_on(port, owner)
            respawned.worker.register_model("orders", trainer_state)
            respawned.start()
            workers[owner] = respawned
            reader.join(timeout=30.0)
            assert not reader.is_alive()
            again = outcome.get_nowait()
            assert np.max(np.abs(again - expected)) <= PARITY
            stats = client.fleet_stats()["gateway"]
            assert stats["reconnects"] >= 1
            assert stats["retries"] >= 1
        finally:
            client.close()
            server.close()
            for worker in workers.values():
                worker.close()

    def test_observe_is_never_auto_retried(self, fleet, workload):
        _, feedback, _, trainers = workload
        workers, server, client = fleet
        client.register_model("orders", copy.deepcopy(trainers["orders"]))
        owner = server.gateway.router.route(normalize_key("orders"))
        retries_before = server.gateway.stats.counters()["retries"]
        workers[owner].close()
        predicate, selectivity = feedback[0]
        with pytest.raises(WorkerUnavailableError):
            client.observe("orders", predicate, selectivity)
        # The failure surfaced instead of being replayed: no retry was
        # recorded for the write (reads would have recorded one).
        assert server.gateway.stats.counters()["retries"] == retries_before

    def test_request_timeout_surfaces_typed_error(self, fleet):
        _, server, client = fleet
        with pytest.raises(RemoteTimeoutError):
            server.run(
                server.gateway._links["w1"].call(
                    "ping", {"delay": 1.0}, timeout=0.15
                )
            )
        assert server.gateway.stats.counters()["timeouts"] == 1

    def test_drain_then_shutdown_loses_zero_buffered_feedback(self, workload):
        _, feedback, _, trainers = workload
        worker = WorkerServer(shard_id="w1", scheduler_mode="background")
        worker.start()
        server = GatewayServer({"w1": ("127.0.0.1", worker.port)})
        server.start()
        try:
            client = connect(*server.address)
            client.register_model("orders", copy.deepcopy(trainers["orders"]))
            for predicate, selectivity in feedback[:20]:
                client.observe("orders", predicate, selectivity)
            client.drain(timeout=60.0)
            key = normalize_key("orders")
            # Every buffered observation was replayed into the trainer
            # before shutdown: nothing pending, all absorbed.
            assert worker.worker.buffer.total_pending() == 0
            assert worker.worker.service.feedback_count(key) == 70
            client.close()
        finally:
            server.close()
            worker.close()

    def test_gateway_drain_budget_exhaustion_raises(self, fleet):
        _, server, client = fleet
        with pytest.raises(ServingError, match="drain budget"):
            client.drain(timeout=1e-9)

    def test_set_worker_address_repoints_a_link(self, fleet, workload):
        _, _, probes, trainers = workload
        workers, server, client = fleet
        client.register_model("orders", copy.deepcopy(trainers["orders"]))
        expected = client.estimate_batch("orders", probes)
        owner = server.gateway.router.route(normalize_key("orders"))
        trainer_state = copy.deepcopy(trainers["orders"])
        workers[owner].close()
        replacement = WorkerServer(shard_id=owner)  # new ephemeral port
        replacement.worker.register_model("orders", trainer_state)
        replacement.start()
        workers[owner] = replacement
        client.set_worker_address(owner, "127.0.0.1", replacement.port)
        again = client.estimate_batch("orders", probes)
        assert np.max(np.abs(again - expected)) <= PARITY
        with pytest.raises(ClusterError, match="unknown worker"):
            client.set_worker_address("nope", "127.0.0.1", 1)

    def test_unreachable_worker_reported_in_fleet_stats(self, fleet):
        workers, server, client = fleet
        workers["w2"].close()
        view = client.fleet_stats()
        assert view["unreachable"] == ("w2",)
        assert "w2" not in view["per_shard"]
