"""Thread hygiene: ``close()`` must not leak supervision machinery.

Every backend owns background threads of some kind — shard executors,
process watchers, link supervisors, heartbeats, worker-connection
handlers, control-socket acceptors.  The contract pinned here: after
``close()`` returns (plus a short grace for daemon threads to finish
unwinding), ``threading.enumerate()`` is back to what it was before the
backend existed.  This pins two latent leaks: remote/fleet supervisor
threads that could outlive the backend when a reconnect dial was in
flight (the join budget now covers ``connect_timeout``), and worker
handler threads that were started but never joined by
``WorkerServer.close()``.
"""

from __future__ import annotations

import threading

import pytest

from repro.backends import (
    FleetSupervisor,
    ProcessPoolBackend,
    RemoteBackend,
    SerialBackend,
    ThreadedBackend,
    WorkerServer,
)
from tests.backends.test_remote import wait_until


def _assert_threads_return_to(baseline):
    __tracebackhide__ = True
    assert wait_until(
        lambda: set(threading.enumerate()) <= baseline, timeout=15.0
    ), (
        "threads leaked past close(): "
        f"{[t.name for t in set(threading.enumerate()) - baseline]}"
    )


def _serial(amm):
    return SerialBackend(amm), []


def _threads(amm):
    return ThreadedBackend(amm, workers=2, min_shard_size=4), []


def _processes(amm):
    return ProcessPoolBackend(amm, workers=1, min_shard_size=4), []


def _remote(amm):
    servers = [WorkerServer().start(), WorkerServer().start()]
    backend = RemoteBackend(
        amm,
        worker_addresses=[server.address for server in servers],
        min_shard_size=4,
        heartbeat_interval=0.1,
        io_timeout=20.0,
    )
    return backend, servers


def _fleet(amm):
    servers = [WorkerServer().start(), WorkerServer().start()]
    backend = FleetSupervisor(
        amm,
        worker_addresses=[server.address for server in servers],
        min_shard_size=4,
        heartbeat_interval=0.1,
        io_timeout=20.0,
        control=("127.0.0.1", 0),
    )
    return backend, servers


@pytest.mark.parametrize(
    "factory", [_serial, _threads, _processes, _remote, _fleet],
    ids=["serial", "threads", "processes", "remote", "fleet"],
)
def test_backend_close_joins_all_threads(
    factory, backend_amm, request_codes, request_seeds
):
    baseline = set(threading.enumerate())
    backend, servers = factory(backend_amm)
    try:
        backend.prepare()
        backend.recall_batch_seeded(request_codes, request_seeds)
    finally:
        backend.close()
        for server in servers:
            server.close()
    _assert_threads_return_to(baseline)


def test_worker_server_close_joins_handler_threads(backend_amm):
    """The worker agent itself: accept loop AND per-connection handlers.

    The handler threads used to be fire-and-forget daemons; a close()
    racing a busy handler could return while the handler still ran.
    """
    import socket

    from repro.backends import EngineSpec, wire

    baseline = set(threading.enumerate())
    server = WorkerServer().start()
    connections = []
    try:
        # Open two real handshaken connections so two handler threads run.
        spec_header, spec_arrays = wire.spec_to_wire(
            EngineSpec.from_module(backend_amm)
        )
        for _ in range(2):
            sock = socket.create_connection(server.address, timeout=5.0)
            sock.settimeout(10.0)
            wire.send_frame(sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
            kind, _, _, _ = wire.recv_frame(sock)
            assert kind == wire.HELLO
            wire.send_frame(sock, wire.SPEC, spec_header, spec_arrays)
            kind, _, _, _ = wire.recv_frame(sock)
            assert kind == wire.OK
            connections.append(sock)
        # Leave the connections open: close() must evict the handlers.
    finally:
        server.close()
        for sock in connections:
            sock.close()
    _assert_threads_return_to(baseline)


def test_fleet_close_is_prompt_with_reconnect_in_flight(backend_amm):
    """close() during a reconnect dial still joins the supervisor."""
    server = WorkerServer().start()
    baseline = set(threading.enumerate()) | {threading.current_thread()}
    fleet = FleetSupervisor(
        backend_amm,
        worker_addresses=[server.address],
        heartbeat_interval=0.05,
        backoff_base=0.01,
        backoff_max=0.05,
        connect_timeout=1.0,
        io_timeout=5.0,
    ).prepare()
    # Kill the only worker so the supervisor enters its reconnect loop.
    server.close()
    replica = fleet._replicas_snapshot()[0]
    assert wait_until(lambda: not replica.alive, timeout=10.0)
    fleet.close()
    _assert_threads_return_to(baseline)


def test_first_shard_runs_on_the_callers_thread(
    remote_backend, request_codes, request_seeds, monkeypatch
):
    """A single-shard batch starts no thread; a multi-shard round starts
    one per shard after the first."""
    from repro.backends import fleet as fleet_module

    seen = []
    original = fleet_module._Replica.exchange

    def recording(self, *args, **kwargs):
        seen.append(threading.current_thread())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(fleet_module._Replica, "exchange", recording)
    remote_backend.recall_batch_seeded(request_codes[:3], request_seeds[:3])
    assert seen == [threading.current_thread()]
    seen.clear()
    remote_backend.recall_batch_seeded(request_codes, request_seeds)
    assert len(seen) == 2
    assert seen.count(threading.current_thread()) == 1


def test_close_unblocks_a_recv_on_the_callers_thread(backend_amm, request_codes):
    """close() force-closes a link whose recv is blocked on the caller's
    own thread: the recall fails promptly with the retryable error
    instead of waiting out the io budget."""
    from repro.backends import WorkerCrashedError
    from tests.backends.chaos import ChaosProxy

    server = WorkerServer().start()
    proxy = ChaosProxy(server.address)
    backend = RemoteBackend(
        backend_amm,
        worker_addresses=[proxy.address],
        heartbeat_interval=30.0,
        io_timeout=30.0,
    ).prepare()
    outcome = []

    def recall():
        try:
            backend.recall_batch_seeded(request_codes[:2], [1, 2])
        except BaseException as error:  # noqa: BLE001 — asserted below
            outcome.append(error)

    caller = threading.Thread(target=recall)
    try:
        proxy.partition()
        caller.start()
        replica = backend._replicas[0]
        assert wait_until(replica.lock.locked, timeout=5.0)
        backend.close()
        caller.join(timeout=5.0)
        assert not caller.is_alive(), "close() left the caller blocked in recv"
        assert len(outcome) == 1 and isinstance(outcome[0], WorkerCrashedError)
    finally:
        backend.close()
        proxy.close()
        server.close()
