"""Wire-protocol tests: framing, error mapping, snapshot round trips.

The snapshot property tests are the PR 4 detach invariants, enforced at
the serialisation boundary: every backend family's frozen snapshot must
cross the wire with estimate parity <= 1e-12, exact metadata, and
neither a live data source nor a replay history in the payload.
"""

from __future__ import annotations

import inspect
import pickle
import socket
import threading

import numpy as np
import pytest

from repro.estimators.backend import QueryDrivenBackend, ScanBackend, as_backend
from repro.estimators.registry import (
    QUERY_DRIVEN_ESTIMATORS,
    SCAN_BASED_ESTIMATORS,
    make_query_driven,
    make_scan_based,
)
from repro.exceptions import (
    EstimatorError,
    NetError,
    RemoteError,
    ServingError,
)
from repro.net.gateway import GatewayServer, SelectivityGateway
from repro.net.protocol import (
    IDEMPOTENT_READS,
    MAX_FRAME_BYTES,
    Request,
    Response,
    attach_data_source,
    decode_backend,
    decode_frame,
    decode_snapshot,
    encode_backend,
    encode_frame,
    encode_snapshot,
    error_response,
    raise_remote_error,
    recv_message,
    send_message,
)
from repro.net.worker import WorkerServer
from repro.serving.snapshot import ModelSnapshot
from repro.workloads.queries import RandomRangeQueryGenerator, labelled_feedback
from repro.workloads.synthetic import gaussian_dataset

PARITY = 1e-12


@pytest.fixture(scope="module")
def workload():
    """A small trained-workload bundle shared by the round-trip tests."""
    dataset = gaussian_dataset(1500, dimension=2, correlation=0.5, seed=11)
    generator = RandomRangeQueryGenerator(dataset.domain, seed=12)
    feedback = labelled_feedback(generator.generate(40), dataset.rows)
    probes = RandomRangeQueryGenerator(dataset.domain, seed=13).generate(25)
    return dataset, feedback, probes


def _trained_backend(name: str, workload):
    """Build, feed, and refit one named backend family."""
    dataset, feedback, _ = workload
    if name in QUERY_DRIVEN_ESTIMATORS:
        estimator = make_query_driven(name, dataset.domain)
    else:
        estimator = make_scan_based(
            name, dataset.domain, lambda: dataset.rows
        )
    backend = as_backend(estimator)
    backend.observe_many(feedback)
    backend.refit()
    return backend


def _snapshot_of(backend) -> ModelSnapshot:
    return ModelSnapshot(
        version=1,
        domain=backend.domain,
        model=backend.snapshot_model(),
        trained_on=backend.trained_count,
    )


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_frame_round_trip(self):
        message = Request(7, "estimate", {"table": "t", "predicate": None})
        frame = encode_frame(message)
        assert decode_frame(frame[4:]) == message

    def test_frame_ceiling_enforced_on_encode(self):
        with pytest.raises(NetError, match="frame ceiling"):
            encode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_undecodable_payload_raises_net_error(self):
        with pytest.raises(NetError, match="undecodable"):
            decode_frame(b"not a pickle")

    def test_socket_round_trip_and_clean_eof(self):
        server, client = socket.socketpair()
        try:
            send_message(client, Response(3, ok=True, value=42))
            received = recv_message(server)
            assert received == Response(3, ok=True, value=42)
            client.close()
            with pytest.raises(EOFError):
                recv_message(server)
        finally:
            server.close()

    def test_mid_frame_close_raises_net_error(self):
        server, client = socket.socketpair()
        try:
            frame = encode_frame({"payload": "truncated"})
            client.sendall(frame[: len(frame) - 3])
            client.close()
            with pytest.raises(NetError, match="mid-frame"):
                recv_message(server)
        finally:
            server.close()

    def test_hostile_length_prefix_rejected(self):
        server, client = socket.socketpair()
        try:
            client.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(NetError, match="frame ceiling"):
                recv_message(server)
        finally:
            server.close()
            client.close()

    def test_pipelined_out_of_order_responses(self):
        """The request_id echo keeps concurrent replies attributable."""
        server, client = socket.socketpair()
        try:
            for request_id in (1, 2, 3):
                send_message(client, Request(request_id, "ping"))
            requests = [recv_message(server) for _ in range(3)]
            for request in reversed(requests):
                send_message(server, Response(request.request_id, ok=True))
            replies = [recv_message(client) for _ in range(3)]
            assert [reply.request_id for reply in replies] == [3, 2, 1]
        finally:
            server.close()
            client.close()


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
class TestRetryAllowlist:
    def test_every_idempotent_read_names_a_live_method(self):
        """The retry allowlist cannot outlive the methods it names."""
        stale = {
            name
            for name in IDEMPOTENT_READS
            if name not in GatewayServer.METHODS
            and not hasattr(WorkerServer, f"_do_{name}")
        }
        assert not stale

    def test_every_gateway_method_names_a_coroutine(self):
        """The gateway's wire allowlist cannot outlive its methods."""
        stale = {
            name
            for name in GatewayServer.METHODS
            if not inspect.iscoroutinefunction(
                getattr(SelectivityGateway, name, None)
            )
        }
        assert not stale


class TestErrorMapping:
    def test_repro_errors_come_back_typed(self):
        response = error_response(5, ServingError("unknown model key"))
        with pytest.raises(ServingError, match="unknown model key"):
            raise_remote_error(response)

    def test_foreign_errors_become_remote_error(self):
        response = error_response(5, KeyError("boom"))
        with pytest.raises(RemoteError, match="KeyError"):
            raise_remote_error(response)

    def test_ok_response_is_a_no_op(self):
        raise_remote_error(Response(1, ok=True, value="fine"))


# ----------------------------------------------------------------------
# Snapshot round trips (one test per backend family)
# ----------------------------------------------------------------------
ALL_FAMILIES = sorted(QUERY_DRIVEN_ESTIMATORS) + sorted(SCAN_BASED_ESTIMATORS)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_estimates_survive_the_wire(self, name, workload):
        _, _, probes = workload
        snapshot = _snapshot_of(_trained_backend(name, workload))
        decoded = decode_snapshot(encode_snapshot(snapshot))
        drift = np.max(
            np.abs(decoded.estimate_many(probes) - snapshot.estimate_many(probes))
        )
        assert drift <= PARITY, f"{name} drifted {drift} across the wire"

    @pytest.mark.parametrize("name", ALL_FAMILIES)
    def test_metadata_survives_exactly(self, name, workload):
        snapshot = _snapshot_of(_trained_backend(name, workload))
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.version == snapshot.version
        assert decoded.trained_on == snapshot.trained_on
        assert decoded.created_at == snapshot.created_at
        assert decoded.domain == snapshot.domain

    def test_bootstrap_snapshot_round_trips(self, workload):
        dataset, _, probes = workload
        snapshot = ModelSnapshot(version=0, domain=dataset.domain, model=None)
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.model is None
        assert np.allclose(
            decoded.estimate_many(probes), snapshot.estimate_many(probes)
        )

    @pytest.mark.parametrize("name", sorted(SCAN_BASED_ESTIMATORS))
    def test_no_data_source_crosses_the_wire(self, name, workload):
        snapshot = _snapshot_of(_trained_backend(name, workload))
        decoded = decode_snapshot(encode_snapshot(snapshot))
        with pytest.raises(EstimatorError):
            decoded.model.refresh()

    def test_live_data_source_is_refused(self, workload):
        """A snapshot not built via frozen_copy() must not be encodable."""
        dataset, _, _ = workload
        estimator = make_scan_based(
            "AutoHist", dataset.domain, lambda: dataset.rows
        )
        estimator.refresh()
        live = ModelSnapshot(
            version=1, domain=dataset.domain, model=estimator, trained_on=0
        )
        with pytest.raises(NetError, match="live data source"):
            encode_snapshot(live)

    def test_no_replay_history_crosses_the_wire(self, workload):
        """ISOMER's frozen copy drops its query history; the wire keeps it
        dropped."""
        snapshot = _snapshot_of(_trained_backend("ISOMER", workload))
        decoded = decode_snapshot(encode_snapshot(snapshot))
        assert decoded.model._queries == []

    def test_decode_rejects_non_snapshots(self):
        with pytest.raises(NetError, match="not a ModelSnapshot"):
            decode_snapshot(pickle.dumps("not a snapshot"))


# ----------------------------------------------------------------------
# Backend (trainer) round trips — registration and migration payloads
# ----------------------------------------------------------------------
class TestBackendRoundTrip:
    @pytest.mark.parametrize("name", sorted(QUERY_DRIVEN_ESTIMATORS))
    def test_query_driven_backends_ship_whole(self, name, workload):
        _, feedback, probes = workload
        backend = _trained_backend(name, workload)
        reference = _snapshot_of(backend).estimate_many(probes)
        decoded = decode_backend(encode_backend(backend))
        arrived = _snapshot_of(decoded).estimate_many(probes)
        assert np.max(np.abs(arrived - reference)) <= PARITY
        # The decoded trainer keeps learning: pending feedback survives
        # and a refit absorbs it, exactly like the original would.
        decoded.observe_many(feedback[:5])
        decoded.refit()
        assert decoded.trained_count == backend.trained_count + 5

    @pytest.mark.parametrize("name", sorted(SCAN_BASED_ESTIMATORS))
    def test_scan_backends_ship_detached(self, name, workload):
        dataset, _, probes = workload
        backend = _trained_backend(name, workload)
        reference = _snapshot_of(backend).estimate_many(probes)
        payload = encode_backend(backend)
        # Detaching is non-destructive: the sender keeps its source.
        assert backend.estimator._data_source() is dataset.rows
        decoded = decode_backend(payload)
        arrived = _snapshot_of(decoded).estimate_many(probes)
        assert np.max(np.abs(arrived - reference)) <= PARITY
        with pytest.raises(EstimatorError):
            decoded.refit()  # no data source on this side of the wire
        attach_data_source(decoded, lambda: dataset.rows)
        decoded.refit()  # rescan works once re-pointed at local data

    def test_wire_payload_excludes_the_dataset(self, workload):
        """Shipping the trainer must cost model-size, not dataset-size."""
        dataset, _, _ = workload
        backend = _trained_backend("AutoHist", workload)
        payload = encode_backend(backend)
        assert len(payload) < dataset.rows.nbytes / 4

    def test_attach_rejects_query_driven_backends(self, workload):
        backend = _trained_backend("QuickSel", workload)
        with pytest.raises(NetError, match="no data source"):
            attach_data_source(backend, lambda: np.zeros((1, 2)))

    def test_encode_coerces_bare_estimators(self, workload):
        dataset, feedback, _ = workload
        estimator = make_query_driven("STHoles", dataset.domain)
        for predicate, selectivity in feedback[:10]:
            estimator.observe(predicate, selectivity)
        decoded = decode_backend(encode_backend(estimator))
        assert isinstance(decoded, QueryDrivenBackend)

    def test_unpicklable_backend_is_a_net_error(self, workload):
        dataset, _, _ = workload
        estimator = make_query_driven("QuickSel", dataset.domain)
        estimator._poison = threading.Lock()  # unpicklable attribute
        with pytest.raises(NetError, match="cannot serialise"):
            encode_backend(estimator)
