"""One per-key state value across every transport.

A key's learned state — trainer, drift window, error history — leaves
a shard as one :class:`~repro.cluster.shard.KeyState` and re-enters
another through ``install_state``.  These tests load a key with every
kind of evidence and check that it arrives intact over each transport:
an in-process resize, a wire migration between worker servers, and a
disk checkpoint restored into a fresh worker.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cluster import ShardedSelectivityService, ShardWorker
from repro.core.config import QuickSelConfig
from repro.core.quicksel import QuickSel
from repro.net import CheckpointStore, WorkerServer, connect, encode_backend
from repro.serving import ModelKey, RefitPolicy
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY = 1e-12

# Neither trigger can fire, so the drift windows survive to the hand-off.
QUIET = RefitPolicy(min_new_observations=10_000, drift_threshold=1.0)

# The fields checkpoints carried before states took raced buffer
# leftovers along; such files must still restore.
CHECKPOINT_FIELDS = (
    "key",
    "trainer",
    "drift_errors",
    "backend_windows",
    "feedback_count",
)
# What older worker checkpoints also carried: the challenger role's
# fields and the removed shift trigger's lifetime error totals.
# Restore must ignore these fields.
LEGACY_FIELDS = {
    "challenger": None,
    "challenger_errors": (),
    "shadow_frac": 1.0,
    "lifetime_totals": {("orders", "QuickSel"): (12, 0.5)},
}


@pytest.fixture(scope="module")
def workload():
    dataset = gaussian_dataset(1200, dimension=2, correlation=0.5, seed=51)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=52)
    feedback = labelled_feedback(generator.generate(40), dataset.rows)
    probes = RandomRangeQueryGenerator(dataset.domain, seed=53).generate(20)
    trainer = QuickSel(dataset.domain, QuickSelConfig(random_seed=5))
    trainer.observe_many(feedback[:20], refit=True)
    return dataset, feedback, probes, trainer


def _load(worker: ShardWorker, workload) -> ModelKey:
    """Register a trained model, then observe."""
    _, feedback, _, trainer = workload
    key = worker.register_model("orders", copy.deepcopy(trainer))
    for predicate, selectivity in feedback[20:32]:
        worker.observe(key, predicate, selectivity)
    worker.drain()
    return key


def _observed(trainer) -> int:
    return trainer.observed_count


def _evidence(worker: ShardWorker, key: ModelKey, probes) -> dict:
    """Everything a hand-off must carry, read off a serving worker."""
    service = worker.service
    scope = str(key)
    return {
        "feedback_count": worker.feedback_count(key),
        "trainer_observed": service.export_trainer(key, serializer=_observed),
        "drift_errors": service.drift_errors(key),
        "backend_windows": {
            backend: window
            for (model, backend), window
            in worker.stats.backend_error_windows().items()
            if model == scope
        },
        "estimates": worker.estimate_batch(key, probes),
    }


def _assert_same_evidence(got: dict, expected: dict) -> None:
    assert np.max(np.abs(got["estimates"] - expected["estimates"])) <= PARITY
    for name, value in expected.items():
        if name != "estimates":
            assert got[name] == value, name


def _via_resize(workload, tmp_path):
    cluster = ShardedSelectivityService(
        num_shards=1, policy=QUIET, scheduler_mode="inline"
    )
    try:
        home = cluster.shard_for("orders")
        source = cluster.shard(home)
        key = _load(source, workload)
        before = _evidence(source, key, workload[2])
        for _ in range(16):
            cluster.add_shard()
            if cluster.shard_for(key) != home:
                break
        owner = cluster.shard(cluster.shard_for(key))
        assert owner is not source
        assert key not in source.model_keys()
        return before, _evidence(owner, key, workload[2])
    finally:
        cluster.close()


def _via_wire(workload, tmp_path):
    servers = [
        WorkerServer(shard_id=name, policy=QUIET) for name in ("w1", "w2")
    ]
    clients = []
    try:
        for server in servers:
            server.start()
            clients.append(connect("127.0.0.1", server.port))
        source, dest = servers
        key = _load(source.worker, workload)
        before = _evidence(source.worker, key, workload[2])
        state = clients[0]._call("migrate_out", {"table": key})
        clients[1]._call("migrate_in", {"bundle": state})
        assert key not in source.worker.model_keys()
        return before, _evidence(dest.worker, key, workload[2])
    finally:
        for client in clients:
            client.close()
        for server in servers:
            server.close()


def _via_checkpoint(workload, tmp_path):
    directory = str(tmp_path / "w1")
    source = WorkerServer(shard_id="w1", policy=QUIET, checkpoint_dir=directory)
    try:
        key = _load(source.worker, workload)
        assert source.checkpoint_key(key)
        before = _evidence(source.worker, key, workload[2])
    finally:
        source.close()
    restored = WorkerServer(
        shard_id="w1", policy=QUIET, checkpoint_dir=directory
    )
    try:
        return before, _evidence(restored.worker, key, workload[2])
    finally:
        restored.close()


@pytest.mark.parametrize(
    "transport",
    [_via_resize, _via_wire, _via_checkpoint],
    ids=["add_shard", "migrate_out-migrate_in", "checkpoint-restore"],
)
def test_every_field_arrives_equal(transport, workload, tmp_path):
    before, after = transport(workload, tmp_path)
    # The key really carried evidence of every kind.
    assert before["drift_errors"]
    assert set(before["backend_windows"]) == {"QuickSel"}
    _assert_same_evidence(after, before)


def test_checkpoint_without_leftovers_still_restores(workload, tmp_path):
    """A checkpoint file holding only the older checkpoint fields (no
    ``leftovers``, plus the legacy fields) boots a worker serving
    exactly what it captured."""
    source = ShardWorker("w0", policy=QUIET, scheduler_mode="inline")
    try:
        key = _load(source, workload)
        before = _evidence(source, key, workload[2])
        state = source.export_state(key, withdraw=False, encode=encode_backend)
    finally:
        source.close()
    CheckpointStore(tmp_path / "w1").save(
        {field: state[field] for field in CHECKPOINT_FIELDS}
        | LEGACY_FIELDS
    )
    restored = WorkerServer(
        shard_id="w1", policy=QUIET, checkpoint_dir=str(tmp_path / "w1")
    )
    try:
        _assert_same_evidence(_evidence(restored.worker, key, workload[2]), before)
    finally:
        restored.close()
