"""Property-based cross-backend equivalence: serial ≡ threads ≡
processes ≡ remote ≡ auto, bit-identically, on the ideal and the
parasitic path.

This suite drives seeded-random workloads (shared strategies in
``strategies.py``) through every backend and asserts **exact** equality
of every output field — the engine solves every row independently of
its batch on both paths, so any difference at all is a transport or
seeding bug, not numerics.

Two layers, trading construction cost for coverage:

* random *geometries* are checked serial-vs-threads (cheap in-process
  replicas, a fresh module per example);
* random *batch shapes/contents/seeds* run against long-lived
  process/remote pools on one shared geometry (worker boot is the
  expensive part, and the transport is geometry-agnostic).
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis", reason="property suite needs hypothesis")
from hypothesis import HealthCheck, given, settings

from repro.backends import (
    AutoBackend,
    ProcessPoolBackend,
    RemoteBackend,
    SerialBackend,
    ThreadedBackend,
    WorkerServer,
)
from tests.backends.strategies import build_test_amm, geometries, recall_batches

#: Shared geometry of the long-lived pools (input variation on so the
#: per-request noise substream is part of every property).
FEATURES = 16
TEMPLATES = 4
GEOMETRY_SEED = 11


def assert_bit_identical(result, reference):
    """Every field exactly equal — no tolerances on either path."""
    assert np.array_equal(result.winner_column, reference.winner_column)
    assert np.array_equal(result.winner, reference.winner)
    assert np.array_equal(result.dom_code, reference.dom_code)
    assert np.array_equal(result.accepted, reference.accepted)
    assert np.array_equal(result.tie, reference.tie)
    assert np.array_equal(result.codes, reference.codes)
    assert np.array_equal(result.column_currents, reference.column_currents)
    assert np.array_equal(result.static_power, reference.static_power)
    assert list(result.events) == list(reference.events)


@pytest.fixture(scope="module")
def worker_agents():
    """Two worker agents shared by both matrices (each link pushes its own spec)."""
    workers = [WorkerServer().start(), WorkerServer().start()]
    yield workers
    for server in workers:
        server.close()


def _backend_matrix(amm, worker_agents):
    """serial / threads / processes / remote / auto, one prepared pool each.

    ``auto`` routes through its own serial/threads/processes candidates
    by measured cost — whatever plan its calibration picked on this run,
    the properties below must hold bit-for-bit.
    """
    serial = SerialBackend(amm).prepare()
    threads = ThreadedBackend(amm, workers=2, min_shard_size=2).prepare()
    processes = ProcessPoolBackend(
        amm, workers=2, min_shard_size=2, max_batch_size=64
    ).prepare()
    remote = RemoteBackend(
        amm,
        worker_addresses=[server.address for server in worker_agents],
        min_shard_size=2,
        heartbeat_interval=0.5,
    ).prepare()
    auto = AutoBackend(amm, workers=2, min_shard_size=2).prepare()
    yield {
        "serial": serial,
        "threads": threads,
        "processes": processes,
        "remote": remote,
        "auto": auto,
    }
    for backend in (serial, threads, processes, remote, auto):
        backend.close()


@pytest.fixture(scope="module")
def backend_matrix(worker_agents):
    """The pools on the ideal path."""
    yield from _backend_matrix(
        build_test_amm(FEATURES, TEMPLATES, GEOMETRY_SEED), worker_agents
    )


#: The pools are fixtures, not instance state, so the parasitic subclass
#: re-running these properties from another executor is safe.
_SHARED_POOLS = [HealthCheck.function_scoped_fixture, HealthCheck.differing_executors]


class TestBackendMatrixProperties:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=_SHARED_POOLS,
    )
    @given(case=recall_batches(FEATURES))
    def test_all_backends_bit_identical(self, backend_matrix, case):
        """For any batch shape, content and seed vector: five backends,
        one answer, to the last bit."""
        codes, seeds = case
        reference = backend_matrix["serial"].recall_batch_seeded(codes, seeds)
        for name in ("threads", "processes", "remote", "auto"):
            result = backend_matrix[name].recall_batch_seeded(codes, seeds)
            assert_bit_identical(result, reference)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=_SHARED_POOLS,
    )
    @given(case=recall_batches(FEATURES))
    def test_splitting_a_batch_changes_nothing(self, backend_matrix, case):
        """Dispatching the same rows as one batch or one-by-one is
        invisible in the results (the serving micro-batcher relies on
        exactly this)."""
        codes, seeds = case
        whole = backend_matrix["remote"].recall_batch_seeded(codes, seeds)
        for index in range(codes.shape[0]):
            single = backend_matrix["remote"].recall_batch_seeded(
                codes[index : index + 1], seeds[index : index + 1]
            )[0]
            reference = whole[index]
            assert single.winner_column == reference.winner_column
            assert single.winner == reference.winner
            assert single.dom_code == reference.dom_code
            assert single.accepted == reference.accepted
            assert single.tie == reference.tie
            assert np.array_equal(single.codes, reference.codes)
            assert np.array_equal(
                single.column_currents, reference.column_currents
            )
            assert single.static_power == reference.static_power
            assert single.events == reference.events

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=_SHARED_POOLS,
    )
    @given(case=recall_batches(FEATURES))
    def test_equal_seeds_equal_results(self, backend_matrix, case):
        """Determinism per row: re-running any row with the same seed on
        a different backend replica reproduces it exactly."""
        codes, seeds = case
        first = backend_matrix["processes"].recall_batch_seeded(codes, seeds)
        second = backend_matrix["remote"].recall_batch_seeded(codes, seeds)
        assert_bit_identical(second, first)


class TestParasiticBackendMatrixProperties(TestBackendMatrixProperties):
    """The same properties on the parasitic (Woodbury) path."""

    @pytest.fixture(scope="class")
    def backend_matrix(self, worker_agents):
        yield from _backend_matrix(
            build_test_amm(
                FEATURES, TEMPLATES, GEOMETRY_SEED, include_parasitics=True
            ),
            worker_agents,
        )


class TestGeometryProperties:
    @settings(max_examples=8, deadline=None)
    @given(geometry=geometries())
    def test_serial_threads_identical_for_any_geometry(self, geometry):
        """Backend equivalence holds for arbitrary module geometries and
        construction seeds, not just the suite's pet 32x6 module."""
        amm = build_test_amm(**geometry)
        rng = np.random.default_rng(geometry["seed"] + 1)
        codes = rng.integers(0, 32, size=(6, geometry["features"]))
        seeds = rng.integers(0, 2**31 - 1, size=6)
        with SerialBackend(amm) as serial, ThreadedBackend(
            amm, workers=2, min_shard_size=2
        ) as threads:
            reference = serial.recall_batch_seeded(codes, seeds)
            assert_bit_identical(
                threads.recall_batch_seeded(codes, seeds), reference
            )

    @settings(max_examples=8, deadline=None)
    @given(geometry=geometries())
    def test_sharding_rule_covers_exactly(self, geometry):
        """The shared shard rule (every parallel backend uses it) always
        partitions [0, B) exactly, whatever the workload shape."""
        from repro.backends import contiguous_shards

        rng = np.random.default_rng(geometry["seed"])
        count = int(rng.integers(1, 200))
        workers = int(rng.integers(1, 9))
        min_shard = int(rng.integers(1, 33))
        shards = contiguous_shards(count, workers, min_shard)
        assert shards[0][0] == 0 and shards[-1][1] == count
        assert all(b == c for (_, b), (c, _) in zip(shards, shards[1:]))
        assert len(shards) <= workers
