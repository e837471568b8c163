"""Remote-backend tests: wire protocol, equivalence, supervision.

The chaos (proxy-injected) failure modes live in
``test_remote_faults.py``; this file pins the happy path — the framing
and handshake contract, bit-identical equivalence with the serial
reference, registry/serving integration — plus the direct worker-loss
semantics (kill, all-dead, reconnect) that need no proxy.
"""

from __future__ import annotations

import socket
import struct
import time

import numpy as np
import pytest

from repro.backends import (
    EngineSpec,
    RemoteBackend,
    WorkerCrashedError,
    WorkerServer,
    parse_worker_addresses,
)
from repro.backends import wire
from tests.backends.test_equivalence import assert_results_equal


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestWireFormat:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            arrays = {
                "a": np.arange(12, dtype=np.int64).reshape(3, 4),
                "b": np.linspace(0.0, 1.0, 5),
            }
            wire.send_frame(left, wire.RECALL, {"count": 3}, arrays)
            kind, version, header, received = wire.recv_frame(right)
            assert kind == wire.RECALL
            assert version == wire.PROTOCOL_VERSION
            assert header["count"] == 3
            assert np.array_equal(received["a"], arrays["a"])
            assert np.array_equal(received["b"], arrays["b"])
        finally:
            left.close()
            right.close()

    def test_bad_magic_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"GET / HTTP/1.1\r\n" + b"\x00" * 32)
            with pytest.raises(wire.WireProtocolError, match="magic"):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_oversized_lengths_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(
                struct.pack(
                    "<4sBHIQ", wire.MAGIC, wire.PING, wire.PROTOCOL_VERSION,
                    wire.MAX_HEADER_BYTES + 1, 0,
                )
            )
            with pytest.raises(wire.WireProtocolError, match="too large"):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_overflowing_shape_rejected_before_allocation(self):
        """Regression: a hostile arrays manifest whose shape product
        wraps an int64 (e.g. [2**32, 2**32]) must be refused as a
        protocol error, not slip past the size bound into numpy."""
        import json

        left, right = socket.socketpair()
        try:
            header = json.dumps(
                {"arrays": [["a", "<f8", [2**32, 2**32]]]}
            ).encode()
            left.sendall(
                struct.pack(
                    "<4sBHIQ", wire.MAGIC, wire.RECALL, wire.PROTOCOL_VERSION,
                    len(header), 0,
                )
            )
            left.sendall(header)
            with pytest.raises(wire.WireProtocolError, match="overruns"):
                wire.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_eof_mid_frame_is_connection_closed(self):
        left, right = socket.socketpair()
        left.sendall(wire.MAGIC)  # a torn prefix, then EOF
        left.close()
        try:
            with pytest.raises(wire.ConnectionClosedError):
                wire.recv_frame(right)
        finally:
            right.close()

    def test_spec_round_trip_is_exact(self, backend_amm):
        spec = EngineSpec.from_module(backend_amm)
        header, arrays = wire.spec_to_wire(spec)
        # The header must be pure JSON (the pickle-free contract).
        import json

        json.dumps(header)
        clone = wire.spec_from_wire(header, arrays)
        module = clone.module
        assert np.array_equal(
            module.crossbar.conductances, backend_amm.crossbar.conductances
        )
        assert np.array_equal(
            module.input_dacs.bit_conductances, backend_amm.input_dacs.bit_conductances
        )
        assert np.array_equal(module.wta._dac_gains, backend_amm.wta._dac_gains)
        assert np.array_equal(module.column_labels, backend_amm.column_labels)
        assert module.include_parasitics == backend_amm.include_parasitics
        assert module.input_variation == backend_amm.input_variation

    def test_rebuilt_module_recalls_bit_identically(
        self, backend_amm, request_codes, request_seeds
    ):
        header, arrays = wire.spec_to_wire(EngineSpec.from_module(backend_amm))
        clone = wire.spec_from_wire(header, arrays)
        rebuilt = clone.module.recognise_batch_seeded(request_codes, request_seeds)
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        assert np.array_equal(rebuilt.winner_column, reference.winner_column)
        assert np.array_equal(rebuilt.codes, reference.codes)
        assert np.array_equal(rebuilt.column_currents, reference.column_currents)
        assert list(rebuilt.events) == list(reference.events)


class TestAddressParsing:
    def test_string_forms(self):
        assert parse_worker_addresses("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(["a:1", ("b", 2)]) == [("a", 1), ("b", 2)]
        assert parse_worker_addresses(None) == []

    @pytest.mark.parametrize("bad", ["nocolon", "host:", "host:xyz", "host:0"])
    def test_bad_addresses_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_worker_addresses(bad)

    def test_backend_requires_addresses(self, backend_amm):
        with pytest.raises(ValueError, match="worker_addresses"):
            RemoteBackend(backend_amm)


class TestHandshake:
    @pytest.mark.parametrize("skew", [-1, 1], ids=["older", "newer"])
    def test_version_mismatch_is_clean_error_not_hang(self, worker_servers, skew):
        """A peer speaking an older or newer protocol version gets an
        immediate typed ERROR frame and a close — never a hang (regression
        for the worker agent's handshake).  The frame is packed by hand so
        the in-process worker (which shares the wire module) is unaffected."""
        import json

        address = worker_servers[0].address
        other_version = wire.PROTOCOL_VERSION + skew
        header_bytes = json.dumps(
            {"protocol": other_version, "arrays": []}
        ).encode()
        sock = socket.create_connection(address, timeout=5.0)
        try:
            sock.settimeout(5.0)  # a hang would trip this, failing the test
            sock.sendall(
                struct.pack(
                    "<4sBHIQ", wire.MAGIC, wire.HELLO, other_version,
                    len(header_bytes), 0,
                )
            )
            sock.sendall(header_bytes)
            kind, _, header, _ = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert header["type"] == "ProtocolVersionError"
            # The worker closes after the error: next read sees EOF.
            with pytest.raises(wire.ConnectionClosedError):
                wire.recv_frame(sock)
        finally:
            sock.close()

    def test_non_hello_first_frame_rejected(self, worker_servers):
        sock = socket.create_connection(worker_servers[0].address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            wire.send_frame(sock, wire.PING)
            kind, _, header, _ = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert "HELLO" in header["message"]
        finally:
            sock.close()

    def test_garbage_peer_gets_error_frame(self, worker_servers):
        sock = socket.create_connection(worker_servers[0].address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            sock.sendall(b"\x00" * 64)
            kind, _, header, _ = wire.recv_frame(sock)
            assert kind == wire.ERROR
        finally:
            sock.close()


class TestRemoteEquivalence:
    def test_matches_reference(
        self, remote_backend, request_codes, request_seeds, reference_results
    ):
        """Parasitic path: discrete outputs exactly equal, analog to
        solver precision (different shard stack shapes take different
        BLAS kernel paths in the last ulp — the suite-wide convention).
        Bit-identity is pinned on the ideal path by
        ``test_equivalence_properties.py``."""
        result = remote_backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_shard_boundary_invariance(
        self, backend_amm, remote_backend, request_codes, request_seeds
    ):
        for begin, end in [(0, 5), (3, 24), (0, 24)]:
            result = remote_backend.recall_batch_seeded(
                request_codes[begin:end], request_seeds[begin:end]
            )
            chunk = backend_amm.recognise_batch_seeded(
                request_codes[begin:end], request_seeds[begin:end]
            )
            assert_results_equal(result, chunk)

    def test_solve_batch_matches_solver(
        self, backend_amm, remote_backend, request_codes
    ):
        conductances = backend_amm.input_dacs.conductances(request_codes)
        reference = backend_amm.solver.solve_batch(conductances)
        solution = remote_backend.solve_batch(conductances)
        assert np.array_equal(solution.column_currents, reference.column_currents)
        assert np.array_equal(solution.supply_current, reference.supply_current)

    def test_validation_errors_transported(self, remote_backend, request_codes):
        with pytest.raises(ValueError):
            remote_backend.recall_batch_seeded(
                np.full_like(request_codes, 99), np.arange(request_codes.shape[0])
            )
        # The links stay healthy after a transported error.
        result = remote_backend.recall_batch_seeded(
            request_codes[:2], np.array([1, 2], dtype=np.int64)
        )
        assert len(result) == 2

    def test_capabilities(self, remote_backend):
        capabilities = remote_backend.capabilities()
        assert capabilities.name == "remote"
        assert capabilities.workers == 2
        assert capabilities.shards_batches
        assert capabilities.escapes_gil

    def test_concurrent_callers_share_links(
        self, remote_backend, request_codes, request_seeds, reference_results
    ):
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(
                    remote_backend.recall_batch_seeded, request_codes, request_seeds
                )
                for _ in range(4)
            ]
            for future in futures:
                assert_results_equal(future.result(timeout=30.0), reference_results)


class TestSupervision:
    def test_kill_one_worker_retries_on_survivor(
        self, backend_amm, worker_servers, remote_backend, request_codes, request_seeds
    ):
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        worker_servers[0].close()
        result = remote_backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference)
        # The lost shard was retried, not silently dropped.
        assert len(result) == len(request_seeds)

    def test_all_workers_dead_raises_retryable(
        self, worker_servers, remote_backend, request_codes, request_seeds
    ):
        for server in worker_servers:
            server.close()
        with pytest.raises(WorkerCrashedError):
            remote_backend.recall_batch_seeded(request_codes, request_seeds)
        assert getattr(WorkerCrashedError, "retryable", False)

    def test_worker_restart_reconnects_with_backoff(
        self, backend_amm, worker_servers, remote_backend, request_codes, request_seeds
    ):
        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        victim = worker_servers[0]
        host, port = victim.address
        victim.close()
        # Force the loss to be noticed mid-flight.
        remote_backend.recall_batch_seeded(request_codes, request_seeds)
        assert wait_until(lambda: not remote_backend._replicas[0].alive)
        # Restart an agent on the same port; the supervisor re-dials it.
        replacement = WorkerServer(host=host, port=port).start()
        try:
            assert wait_until(lambda: remote_backend._replicas[0].alive), (
                "supervisor never reconnected to the restarted worker"
            )
            assert remote_backend.reconnects >= 1
            result = remote_backend.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference)
        finally:
            replacement.close()

    def test_crash_looping_worker_exhausts_retry_budget(
        self, remote_backend, request_codes, request_seeds, monkeypatch
    ):
        """Regression: a worker that reconnects fine but dies on every
        command must not spin a request forever — after the retry
        budget the dispatch raises the retryable WorkerCrashedError."""
        from repro.backends import fleet as fleet_module

        def always_crashing(self, kind, header, arrays):
            raise ConnectionError("simulated crash-looping worker")

        monkeypatch.setattr(fleet_module._Replica, "exchange", always_crashing)
        with pytest.raises(WorkerCrashedError, match="safe to retry"):
            remote_backend.recall_batch_seeded(request_codes, request_seeds)

    def test_prepare_fails_fast_when_nothing_listens(self, backend_amm):
        # An address nothing listens on: bind-then-close guarantees it is
        # currently free without ever hard-coding a port number.
        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        backend = RemoteBackend(
            backend_amm, worker_addresses=[address], connect_timeout=0.5
        )
        with pytest.raises(ConnectionError):
            backend.prepare()
        backend.close()


class TestIntegration:
    def test_registry_creates_remote(self, backend_amm, worker_servers):
        from repro.backends import create_backend

        backend = create_backend(
            "remote",
            backend_amm,
            workers=2,
            worker_addresses=[server.address for server in worker_servers],
        )
        try:
            assert isinstance(backend, RemoteBackend)
            assert backend.capabilities().workers == 2
        finally:
            backend.close()

    def test_remote_adopts_only(self, backend_amm, worker_servers):
        """``remote`` is a fleet that never spawns workers and never opens a
        control socket, even when handed the fleet-only options."""
        from repro.backends import FleetSupervisor

        backend = RemoteBackend(
            backend_amm,
            workers=4,
            worker_addresses=[server.address for server in worker_servers],
            spawn_workers=2,
            control=("127.0.0.1", 0),
        ).prepare()
        try:
            assert isinstance(backend, FleetSupervisor)
            assert backend.control_address is None
            origins = [entry["origin"] for entry in backend.fleet_stats()["replicas"]]
            assert origins == ["adopted", "adopted"]
        finally:
            backend.close()

    def test_evaluate_through_remote_matches_serial(
        self, backend_amm, remote_backend, request_codes
    ):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        serial = backend_amm.evaluate(request_codes, labels, backend="serial")
        remote = backend_amm.evaluate(request_codes, labels, backend=remote_backend)
        assert remote["accuracy"] == serial["accuracy"]
        assert remote["acceptance_rate"] == serial["acceptance_rate"]
        assert remote["tie_rate"] == serial["tie_rate"]
        assert remote["mean_static_power"] == serial["mean_static_power"]

    def test_service_over_remote_backend(
        self, backend_amm, remote_backend, request_codes, request_seeds
    ):
        from repro.serving import RecognitionService

        reference = backend_amm.recognise_batch_seeded(request_codes, request_seeds)
        with RecognitionService(
            backend_amm, max_batch_size=8, max_wait=1e-3, backend=remote_backend
        ) as service:
            assert service.health()["backend"] == "remote"
            results = service.recognise_many(
                request_codes, seeds=list(request_seeds), timeout=30.0
            )
            assert service.stats()["fleet"]["routable"] == 2
        for index, result in enumerate(results):
            assert result.winner_column == reference[index].winner_column
            assert result.dom_code == reference[index].dom_code

    def test_worker_cli_subprocess_round_trip(self, backend_amm, request_codes, request_seeds):
        """The real `python -m repro worker` agent serves a backend."""
        from repro.backends import spawn_local_worker

        process, address = spawn_local_worker()
        try:
            backend = RemoteBackend(
                backend_amm, worker_addresses=[address], min_shard_size=4
            ).prepare()
            try:
                result = backend.recall_batch_seeded(
                    request_codes[:6], request_seeds[:6]
                )
                reference = backend_amm.recognise_batch_seeded(
                    request_codes[:6], request_seeds[:6]
                )
                assert_results_equal(result, reference)
            finally:
                backend.close()
        finally:
            process.terminate()
            process.wait(timeout=10.0)
