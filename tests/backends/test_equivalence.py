"""Cross-backend equivalence matrix.

The acceptance contract of the pluggable-backend refactor: for the same
per-request seeds, every backend — serial, threaded (any worker count,
any shard boundary) and process-pool — returns *identical* winner codes,
DOM codes, acceptance/tie flags and event counters, and
solver-precision-equal analog outputs.  The reference is the module's own
seeded engine; all backends run the same arithmetic on replicas of the
same network, so the discrete outputs must be exactly equal and the
analog outputs bit-identical in practice (asserted to 1e-12 relative to
stay robust to BLAS build differences).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import SerialBackend, ThreadedBackend, contiguous_shards


def assert_results_equal(result, reference):
    """Every field bit-identical: the engine solves each row independently
    of its batch, so backend, worker and shard choice change nothing."""
    assert np.array_equal(result.winner_column, reference.winner_column)
    assert np.array_equal(result.winner, reference.winner)
    assert np.array_equal(result.dom_code, reference.dom_code)
    assert np.array_equal(result.accepted, reference.accepted)
    assert np.array_equal(result.tie, reference.tie)
    assert np.array_equal(result.codes, reference.codes)
    assert list(result.events) == list(reference.events)
    assert np.array_equal(result.column_currents, reference.column_currents)
    assert np.array_equal(result.static_power, reference.static_power)


class TestSerialBackend:
    def test_matches_module_engine(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        with SerialBackend(backend_amm) as backend:
            result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_solve_batch_matches_solver(self, backend_amm, request_codes):
        conductances = backend_amm.input_dacs.conductances(request_codes)
        reference = backend_amm.solver.solve_batch(conductances)
        with SerialBackend(backend_amm) as backend:
            solution = backend.solve_batch(conductances)
        assert np.array_equal(solution.column_currents, reference.column_currents)
        assert np.array_equal(solution.supply_current, reference.supply_current)


class TestThreadedBackend:
    @pytest.mark.parametrize("workers,min_shard_size", [(1, 16), (2, 4), (3, 2)])
    def test_invariant_across_workers_and_shards(
        self,
        backend_amm,
        request_codes,
        request_seeds,
        reference_results,
        workers,
        min_shard_size,
    ):
        with ThreadedBackend(
            backend_amm, workers=workers, min_shard_size=min_shard_size
        ) as backend:
            result = backend.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_solve_batch_sharded(self, backend_amm, request_codes):
        conductances = backend_amm.input_dacs.conductances(request_codes)
        reference = backend_amm.solver.solve_batch(conductances)
        with ThreadedBackend(backend_amm, workers=3, min_shard_size=2) as backend:
            solution = backend.solve_batch(conductances)
        assert np.array_equal(solution.column_currents, reference.column_currents)

    def test_concurrent_callers_share_engine_pool(
        self, backend_amm, request_codes, request_seeds, reference_results
    ):
        import concurrent.futures

        with ThreadedBackend(backend_amm, workers=2, min_shard_size=4) as backend:
            with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        backend.recall_batch_seeded, request_codes, request_seeds
                    )
                    for _ in range(4)
                ]
                for future in futures:
                    assert_results_equal(future.result(timeout=30.0), reference_results)


class TestProcessPoolBackend:
    def test_matches_reference(
        self, process_pool, request_codes, request_seeds, reference_results
    ):
        result = process_pool.recall_batch_seeded(request_codes, request_seeds)
        assert_results_equal(result, reference_results)

    def test_shard_boundary_invariance(
        self, backend_amm, process_pool, request_codes, request_seeds, reference_results
    ):
        """Different slices (hence different shard splits) agree sample-for-sample."""
        for begin, end in [(0, 5), (3, 24), (0, 24)]:
            result = process_pool.recall_batch_seeded(
                request_codes[begin:end], request_seeds[begin:end]
            )
            chunk = backend_amm.recognise_batch_seeded(
                request_codes[begin:end], request_seeds[begin:end]
            )
            assert_results_equal(result, chunk)

    def test_batches_larger_than_buffers_round_trip(
        self, backend_amm, process_pool, request_codes, request_seeds
    ):
        """A batch beyond workers x max_batch_size is processed in rounds."""
        big_codes = np.tile(request_codes, (8, 1))[:160]
        big_seeds = np.arange(160, dtype=np.int64) + 11
        result = process_pool.recall_batch_seeded(big_codes, big_seeds)
        reference = backend_amm.recognise_batch_seeded(big_codes, big_seeds)
        assert_results_equal(result, reference)

    def test_solve_batch_matches_solver(self, backend_amm, process_pool, request_codes):
        conductances = backend_amm.input_dacs.conductances(request_codes)
        reference = backend_amm.solver.solve_batch(conductances)
        solution = process_pool.solve_batch(conductances)
        assert np.array_equal(solution.column_currents, reference.column_currents)
        assert np.array_equal(solution.supply_current, reference.supply_current)

    def test_validation_errors_transported(self, process_pool, request_codes):
        with pytest.raises(ValueError):
            process_pool.recall_batch_seeded(
                np.full_like(request_codes, 99), np.arange(request_codes.shape[0])
            )
        # The pool stays healthy after a transported error.
        result = process_pool.recall_batch_seeded(
            request_codes[:2], np.array([1, 2], dtype=np.int64)
        )
        assert len(result) == 2


class TestEvaluateThroughBackends:
    def test_evaluate_invariant_across_backends(
        self, backend_amm, request_codes, process_pool
    ):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        serial = backend_amm.evaluate(request_codes, labels, backend="serial")
        threaded = backend_amm.evaluate(
            request_codes, labels, backend="threads", workers=2
        )
        processes = backend_amm.evaluate(request_codes, labels, backend=process_pool)
        for other in (threaded, processes):
            assert other["accuracy"] == serial["accuracy"]
            assert other["acceptance_rate"] == serial["acceptance_rate"]
            assert other["tie_rate"] == serial["tie_rate"]
            assert other["mean_static_power"] == serial["mean_static_power"]

    def test_workers_without_backend_rejected(self, backend_amm, request_codes):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        with pytest.raises(ValueError, match="backend"):
            backend_amm.evaluate(request_codes, labels, workers=4)
        with pytest.raises(ValueError, match="backend"):
            backend_amm.evaluate(request_codes, labels, base_seed=7)

    def test_evaluate_invariant_under_batch_size(self, backend_amm, request_codes):
        labels = np.zeros(request_codes.shape[0], dtype=np.int64)
        whole = backend_amm.evaluate(request_codes, labels, backend="serial")
        chunked = backend_amm.evaluate(
            request_codes, labels, batch_size=5, backend="serial"
        )
        assert chunked["accuracy"] == whole["accuracy"]
        assert chunked["acceptance_rate"] == whole["acceptance_rate"]
        assert chunked["tie_rate"] == whole["tie_rate"]
        assert chunked["mean_static_power"] == whole["mean_static_power"]


class TestSharding:
    def test_contiguous_shards_cover_exactly(self):
        for count in (1, 5, 24, 100):
            for workers in (1, 2, 3, 8):
                for min_shard in (1, 4, 16):
                    shards = contiguous_shards(count, workers, min_shard)
                    assert shards[0][0] == 0 and shards[-1][1] == count
                    for (a, b), (c, d) in zip(shards, shards[1:]):
                        assert b == c
                    assert len(shards) <= workers

    def test_small_batches_stay_whole(self):
        assert contiguous_shards(6, 3, 16) == [(0, 6)]

    def test_empty_input(self):
        assert contiguous_shards(0, 3, 16) == []
