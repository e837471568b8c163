"""Fleet control-plane tests: weighted routing, membership, re-spec, admin.

The chaos (proxy-injected) failure modes live in
``test_fleet_faults.py`` and the randomised event-sequence invariants in
``test_fleet_properties.py``; this file pins the happy path — the
:func:`~repro.backends.fleet.weighted_shards` partition contract,
bit-identical equivalence with the serial reference, drain/join
semantics, rolling re-spec, EWMA-weighted routing, the control socket
(admin client and CLI verb), and registry/serving integration.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.backends import (
    FleetAdminClient,
    FleetSupervisor,
    contiguous_shards,
    create_backend,
    weighted_shards,
    wire,
)
from repro.backends.fleet import FleetMembershipError, ReplicaDrainedError
from tests.backends.chaos import ChaosProxy
from tests.backends.test_equivalence import assert_results_equal
from tests.backends.test_remote import wait_until


class TestWeightedShards:
    def test_equal_weights_match_contiguous_rule(self):
        """Live weights are ``1/ewma``, never exactly 1.0: the floor rule
        must hold for any common weight, not only the default."""
        for weight in (1.0, 1 / 3, 0.1, 7.3e-5, 2.5e3):
            for count in (7, 16, 24, 100, 599):
                for workers in (1, 2, 3, 5, 8):
                    for minimum in (1, 4):
                        equal = weighted_shards(count, [weight] * workers, minimum)
                        assert equal == contiguous_shards(count, workers, minimum), (
                            weight, count, workers, minimum
                        )

    def test_sizes_follow_weights(self):
        shards = weighted_shards(40, [3.0, 1.0], 2)
        sizes = [end - begin for begin, end in shards]
        assert sizes == [30, 10]

    def test_exact_partition_and_minimum_size(self):
        for weights in ([5.0, 1.0, 1.0], [0.1, 10.0], [2.0, 2.0, 1.0, 1.0]):
            for count in (2, 3, 8, 11, 64):
                shards = weighted_shards(count, weights, 2)
                assert shards[0][0] == 0 and shards[-1][1] == count
                for (_, left_end), (right_begin, _) in zip(shards, shards[1:]):
                    assert left_end == right_begin
                if len(shards) > 1:
                    assert all(end - begin >= 2 for begin, end in shards)

    def test_small_batches_stay_whole(self):
        assert weighted_shards(3, [1.0, 9.0], 2) == [(0, 3)]
        assert weighted_shards(1, [1.0, 1.0, 1.0], 1) == [(0, 1)]

    def test_extreme_skew_cannot_starve_a_shard(self):
        shards = weighted_shards(8, [1e9, 1.0], 4)
        assert [end - begin for begin, end in shards] == [4, 4]

    def test_empty_and_invalid_inputs(self):
        assert weighted_shards(0, [1.0], 4) == []
        with pytest.raises(ValueError):
            weighted_shards(8, [], 4)
        with pytest.raises(ValueError):
            weighted_shards(8, [1.0], 0)


class TestFleetEquivalence:
    def test_recall_matches_serial_reference(
        self, fleet_backend, request_codes, request_seeds, reference_results
    ):
        result = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_solve_batch_matches_solver(self, fleet_backend, backend_amm, request_codes):
        conductances = backend_amm.input_dacs.conductances(request_codes)
        reference = backend_amm.solver.solve_batch(conductances)
        solution = fleet_backend.solve_batch(conductances)
        assert np.array_equal(solution.column_currents, reference.column_currents)
        assert np.array_equal(solution.supply_current, reference.supply_current)

    def test_capabilities_and_context_manager(self, fleet_backend):
        capabilities = fleet_backend.capabilities()
        assert capabilities.name == "fleet"
        assert capabilities.workers == 2
        assert capabilities.shards_batches and capabilities.escapes_gil


class TestMembership:
    def test_drained_replica_serves_no_shard(
        self,
        fleet_backend,
        worker_servers,
        request_codes,
        request_seeds,
        reference_results,
    ):
        target = worker_servers[1]
        info = fleet_backend.drain(target.address)
        assert info["state"] == "drained"
        served_before = target.commands_served
        for _ in range(3):
            result = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
        assert target.commands_served == served_before
        # Readmission is instant: the link never disconnected.
        assert fleet_backend.join(target.address)["state"] == "live"
        fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert wait_until(lambda: target.commands_served > served_before)

    def test_drained_exchange_refused_before_any_bytes(
        self, fleet_backend, worker_servers
    ):
        replica = fleet_backend._find(worker_servers[0].address)
        fleet_backend.drain(replica.address)
        with pytest.raises(ReplicaDrainedError):
            replica.exchange(wire.PING, None, None)
        # Control traffic still flows on the drained link.
        kind, _, _ = replica.exchange(wire.PING, None, None, control=True)
        assert kind == wire.PONG

    def test_join_admits_new_worker_under_running_fleet(
        self, fleet_backend, request_codes, request_seeds, reference_results
    ):
        from repro.backends import WorkerServer

        joiner = WorkerServer().start()
        try:
            info = fleet_backend.join(joiner.address)
            assert info["state"] == "live" and info["origin"] == "joined"
            assert len(fleet_backend.fleet_stats()["replicas"]) == 3
            result = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
            assert_results_equal(result, reference_results)
            assert wait_until(lambda: joiner.commands_served > 0)
        finally:
            joiner.close()

    def test_join_unreachable_worker_raises_and_stays_out(self, fleet_backend):
        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()  # nothing listens here any more
        with pytest.raises((ConnectionError, OSError)):
            fleet_backend.join(address)
        assert len(fleet_backend.fleet_stats()["replicas"]) == 2

    def test_unknown_address_raises_membership_error(self, fleet_backend):
        with pytest.raises(FleetMembershipError):
            # Deliberately unreachable — never bound, so no port race.
            fleet_backend.drain("127.0.0.1:1")  # repro-lint: disable=TEST001
        assert isinstance(FleetMembershipError("x"), ValueError)


class TestRespec:
    def test_rolling_respec_same_spec_is_invisible(
        self, fleet_backend, request_codes, request_seeds, reference_results
    ):
        before = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        report = fleet_backend.respec()
        assert [entry["outcome"] for entry in report] == ["updated", "updated"]
        assert fleet_backend.spec_version == 1
        after = fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(before, reference_results)
        assert_results_equal(after, reference_results)

    def test_respec_preserves_drained_exclusion(self, fleet_backend, worker_servers):
        fleet_backend.drain(worker_servers[1].address)
        fleet_backend.respec()
        stats = fleet_backend.fleet_stats()
        states = {entry["address"]: entry["state"] for entry in stats["replicas"]}
        host, port = worker_servers[1].address
        assert states[f"{host}:{port}"] == "drained"
        assert stats["routable"] == 1


class TestWeightedRouting:
    def test_slow_replica_gets_fewer_rows(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        from repro.backends import WorkerServer

        fast, slow = WorkerServer().start(), WorkerServer().start()
        proxy = ChaosProxy(slow.address)
        proxy.delay(0.08)
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[fast.address, proxy.address],
            min_shard_size=2,
            heartbeat_interval=0.5,
            io_timeout=20.0,
            latency_alpha=0.5,
        ).prepare()
        try:
            for _ in range(4):
                result = fleet.recall_batch_seeded(request_codes, request_seeds)
                assert_results_equal(result, reference_results)
            fast_replica = fleet._find(fast.address)
            slow_replica = fleet._find(proxy.address)
            # Slow is not dead: the link stayed alive the whole time …
            assert slow_replica.alive and fleet.reconnects == 0
            # … but its measured per-row latency dwarfs the fast one's,
            # so routing weight (and therefore rows) shifted away.
            assert slow_replica.ewma_row_seconds > fast_replica.ewma_row_seconds
            assert fast_replica.rows_served > slow_replica.rows_served
            stats = fleet.fleet_stats()
            weights = {
                entry["address"]: entry["weight"] for entry in stats["replicas"]
            }
            fast_key = f"{fast.address[0]}:{fast.address[1]}"
            slow_key = f"{proxy.address[0]}:{proxy.address[1]}"
            assert weights[fast_key] > weights[slow_key]
        finally:
            fleet.close()
            proxy.close()
            fast.close()
            slow.close()

    def test_one_routing_snapshot_per_round(
        self, fleet_backend, request_codes, request_seeds, monkeypatch
    ):
        """A batch with no lost shard is sized and assigned from a single
        snapshot, so a concurrent EWMA update cannot hand the biggest
        shard to a different replica than the one it was sized for."""
        calls = []
        original = FleetSupervisor._ordered_routable

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(FleetSupervisor, "_ordered_routable", counting)
        fleet_backend.recall_batch_seeded(request_codes, request_seeds)
        assert len(calls) == 1


class TestControlSocket:
    def test_status_join_drain_respec_via_admin_client(
        self, fleet_backend, worker_servers
    ):
        with FleetAdminClient(fleet_backend.control_address) as admin:
            status = admin.status()
            assert status["routable"] == 2
            assert status["spec_version"] == 0
            assert {entry["state"] for entry in status["replicas"]} == {"live"}
            host, port = worker_servers[1].address
            drained = admin.drain(f"{host}:{port}")
            assert drained["state"] == "drained"
            assert admin.status()["routable"] == 1
            rejoined = admin.join(f"{host}:{port}")
            assert rejoined["state"] == "live"
            report = admin.respec()
            assert [entry["outcome"] for entry in report] == ["updated", "updated"]
            assert admin.status()["counters"]["drains"] == 1

    def test_admin_errors_are_transported_types(self, fleet_backend):
        with FleetAdminClient(fleet_backend.control_address) as admin:
            with pytest.raises(ValueError):
                # Not a member, never bound — no port race.
                admin.drain("127.0.0.1:1")  # repro-lint: disable=TEST001
            # The connection survives a failed verb.
            assert admin.status()["routable"] == 2

    def test_version_skew_rejected_cleanly(self, fleet_backend):
        sock = socket.create_connection(fleet_backend.control_address, timeout=5.0)
        try:
            sock.settimeout(5.0)
            wire.send_frame(sock, wire.HELLO, {"protocol": 999})
            kind, _, header, _ = wire.recv_frame(sock)
            assert kind == wire.ERROR
            assert header["type"] == "ProtocolVersionError"
        finally:
            sock.close()


class TestRegistryAndServing:
    def test_registry_creates_fleet_backend(self, backend_amm, worker_servers):
        backend = create_backend(
            "fleet",
            backend_amm,
            worker_addresses=[server.address for server in worker_servers],
        )
        try:
            assert isinstance(backend, FleetSupervisor)
            assert backend.prepare() is backend.prepare()  # idempotent
        finally:
            backend.close()

    def test_service_stats_surface_fleet_section(
        self, fleet_backend, backend_amm, request_codes, request_seeds
    ):
        from repro.serving import RecognitionService

        service = RecognitionService(
            backend_amm, max_batch_size=16, max_wait=0.001, backend=fleet_backend
        )
        try:
            futures = [
                service.submit(code, seed)
                for code, seed in zip(request_codes[:4], request_seeds[:4])
            ]
            for future in futures:
                future.result(timeout=30)
            stats = service.stats()
            assert "fleet" in stats
            assert stats["fleet"]["routable"] == 2
            assert len(stats["fleet"]["replicas"]) == 2
        finally:
            service.close()

    def test_cli_admin_status_and_drain(self, fleet_backend, worker_servers, capsys):
        from repro.cli import main

        host, port = fleet_backend.control_address
        control = f"{host}:{port}"
        assert main(["admin", "status", "--control", control]) == 0
        output = capsys.readouterr().out
        assert "live" in output and "spec version 0" in output
        worker_host, worker_port = worker_servers[1].address
        assert main(
            ["admin", "drain", f"{worker_host}:{worker_port}", "--control", control]
        ) == 0
        assert "drained" in capsys.readouterr().out
        assert main(["admin", "respec", "--control", control]) == 0
        assert "updated" in capsys.readouterr().out


class TestThreadDiscipline:
    def test_close_joins_supervisor_and_control_threads(
        self, backend_amm, worker_servers
    ):
        baseline = set(threading.enumerate())
        fleet = FleetSupervisor(
            backend_amm,
            worker_addresses=[server.address for server in worker_servers],
            heartbeat_interval=0.1,
            control=("127.0.0.1", 0),
        ).prepare()
        fleet.close()
        fleet.close()  # idempotent
        assert wait_until(lambda: set(threading.enumerate()) <= baseline)
