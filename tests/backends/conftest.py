"""Shared fixtures for the execution-backend tests.

Same reduced 32x6 geometry as the serving suite, with input variation on
so both per-request noise substreams (input variation, latch offsets) are
exercised by every backend.  The process-pool backend is expensive to
boot (each worker is a fresh interpreter importing numpy/scipy), so one
two-worker pool is shared across the whole module run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import ProcessPoolBackend
from repro.core.amm import AssociativeMemoryModule

FEATURES = 32
TEMPLATES = 6
SEED = 3


def build_amm(**kwargs) -> AssociativeMemoryModule:
    """A fresh reduced module; identical for identical keyword arguments."""
    rng = np.random.default_rng(SEED)
    templates = rng.integers(0, 32, size=(FEATURES, TEMPLATES))
    return AssociativeMemoryModule.from_templates(templates, seed=SEED, **kwargs)


@pytest.fixture(scope="session")
def backend_amm() -> AssociativeMemoryModule:
    return build_amm(include_parasitics=True, input_variation=0.05)


@pytest.fixture(scope="session")
def request_codes() -> np.ndarray:
    rng = np.random.default_rng(SEED + 2000)
    return rng.integers(0, 32, size=(24, FEATURES))


@pytest.fixture(scope="session")
def request_seeds(request_codes) -> np.ndarray:
    return np.arange(request_codes.shape[0], dtype=np.int64) + 700


@pytest.fixture(scope="session")
def reference_results(backend_amm, request_codes, request_seeds):
    """Ground truth: the module's own seeded engine, one batch."""
    return backend_amm.recognise_batch_seeded(request_codes, request_seeds)


@pytest.fixture(scope="session")
def process_pool(backend_amm):
    """One shared two-worker process pool (spawning workers is slow)."""
    backend = ProcessPoolBackend(
        backend_amm, workers=2, min_shard_size=4, max_batch_size=64
    ).prepare()
    yield backend
    backend.close()


@pytest.fixture()
def worker_servers():
    """Two in-process worker agents on ephemeral ports.

    Function-scoped: fault tests kill them, so sharing would leak state
    between tests.  Always bind port 0 — never a hard-coded port.
    """
    from repro.backends import WorkerServer

    servers = [WorkerServer().start(), WorkerServer().start()]
    yield servers
    for server in servers:
        server.close()


@pytest.fixture()
def fleet_backend(backend_amm, worker_servers):
    """A two-replica fleet supervisor with its control socket bound.

    Same test-speed supervision knobs as ``remote_backend``; the control
    socket binds an ephemeral port (never hard-coded) so admin-client
    tests can dial it.
    """
    from repro.backends import FleetSupervisor

    backend = FleetSupervisor(
        backend_amm,
        worker_addresses=[server.address for server in worker_servers],
        min_shard_size=2,
        heartbeat_interval=0.1,
        backoff_base=0.02,
        backoff_max=0.2,
        connect_timeout=5.0,
        io_timeout=20.0,
        control=("127.0.0.1", 0),
    ).prepare()
    yield backend
    backend.close()


@pytest.fixture()
def remote_backend(backend_amm, worker_servers):
    """A two-replica remote backend with test-speed supervision knobs."""
    from repro.backends import RemoteBackend

    backend = RemoteBackend(
        backend_amm,
        worker_addresses=[server.address for server in worker_servers],
        min_shard_size=4,
        heartbeat_interval=0.1,
        backoff_base=0.02,
        backoff_max=0.2,
        connect_timeout=5.0,
        io_timeout=20.0,
    ).prepare()
    yield backend
    backend.close()
