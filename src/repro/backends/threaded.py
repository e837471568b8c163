"""The threaded backend: shard batches across engine replicas in threads.

This is PR 2's sharded worker pool, extracted out of
``repro.serving.workers`` so offline consumers (``evaluate`` sweeps,
Monte-Carlo studies) can use it too.  Each execution slot owns a private
pre-factorised :class:`~repro.crossbar.batched.BatchedCrossbarEngine`
replica; a batch is split into contiguous shards (at most one per slot,
each at least ``min_shard_size`` samples) and the shards run concurrently
on a thread pool.  The dense Woodbury solves execute in LAPACK, which
releases the GIL, so shards overlap on multi-core hosts — but the Python
glue (DAC conversion, per-request substreams, the WTA loop) still
serialises on the one interpreter lock; the process backend exists to
escape that.
"""

from __future__ import annotations

import concurrent.futures
import queue
import threading
from typing import Optional, Sequence

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    contiguous_shards,
)
from repro.core.amm import (
    AssociativeMemoryModule,
    BatchRecognitionResult,
    concatenate_batch_results,
)
from repro.crossbar.batched import (
    BatchCrossbarSolution,
    concatenate_batch_solutions,
)
from repro.utils.validation import check_integer


class ThreadedBackend(RecallBackend):
    """Thread-pool execution over per-slot engine replicas.

    Parameters
    ----------
    module:
        The (read-only, seeded-path) module recalls are served from.
    workers:
        Engine replicas / maximum concurrent shards.
    min_shard_size:
        A batch is split only when every shard would hold at least this
        many samples.
    """

    name = "threads"

    def __init__(
        self,
        module: AssociativeMemoryModule,
        workers: int = 1,
        min_shard_size: int = 16,
        **_ignored,
    ) -> None:
        check_integer("workers", workers, minimum=1)
        check_integer("min_shard_size", min_shard_size, minimum=1)
        self.module = module
        self.workers = workers
        self.min_shard_size = min_shard_size
        self.spec = EngineSpec.from_module(module)
        self._engines: Optional[queue.Queue] = None
        self._executor: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._prepare_lock = threading.Lock()
        self._closed = False

    def prepare(self) -> "ThreadedBackend":
        # Serialised: concurrent first recalls on a shared backend must
        # not both build engine pools (duplicate factorisations, leaked
        # executor) — the recall path is declared thread-safe.
        with self._prepare_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if self._engines is None:
                engines: queue.Queue = queue.Queue()
                for _ in range(self.workers):
                    engines.put(self.spec.build_engine())
                self._engines = engines
                self._executor = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="recall-backend"
                )
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def _run_sharded(self, count: int, shard_fn):
        """Run ``shard_fn(engine, begin, end)`` over the contiguous shards.

        Single-shard batches run inline on the caller's thread (no handoff
        latency); larger batches fan out on the executor.  Engines are
        checked out of the shared pool per shard, so concurrent callers
        simply interleave their shards over the available replicas.
        """
        self.prepare()
        shards = contiguous_shards(count, self.workers, self.min_shard_size)

        def run_one(bounds):
            engine = self._engines.get()
            try:
                return shard_fn(engine, *bounds)
            finally:
                self._engines.put(engine)

        if len(shards) <= 1:
            return [run_one(shards[0])] if shards else []
        # Fan out every shard but the first, then run the first inline:
        # the caller's thread would otherwise just block in ``wait``, so
        # using it as an execution slot saves one handoff and one worker
        # wakeup per dispatch (a pure fixed-cost saving — the shard
        # count never exceeds the engine-pool size, so the inline shard
        # cannot starve the executor of a replica).
        futures = [self._executor.submit(run_one, bounds) for bounds in shards[1:]]
        try:
            first = run_one(shards[0])
        finally:
            # Let every shard settle before any result (or the inline
            # failure) propagates, so no engine is left checked out.
            concurrent.futures.wait(futures)
        return [first] + [future.result() for future in futures]

    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        codes_batch = np.asarray(codes_batch, dtype=np.int64)
        seeds = np.asarray(request_seeds, dtype=np.int64)
        chunks = self._run_sharded(
            codes_batch.shape[0] if codes_batch.ndim == 2 else 0,
            lambda engine, begin, end: self.module.recognise_batch_seeded(
                codes_batch[begin:end], seeds[begin:end], engine=engine
            ),
        )
        if not chunks:
            # Delegate empty/misshaped input to the module's validation.
            return self.module.recognise_batch_seeded(codes_batch, seeds)
        return concatenate_batch_results(chunks)

    def solve_batch(
        self, dac_conductances: np.ndarray, include_parasitics: bool = True
    ) -> BatchCrossbarSolution:
        dac = np.asarray(dac_conductances, dtype=float)
        chunks = self._run_sharded(
            dac.shape[0] if dac.ndim == 2 else 0,
            lambda engine, begin, end: engine.solve_batch(
                dac[begin:end], include_parasitics=include_parasitics
            ),
        )
        if not chunks:
            self.prepare()
            engine = self._engines.get()
            try:
                return engine.solve_batch(dac, include_parasitics=include_parasitics)
            finally:
                self._engines.put(engine)
        return concatenate_batch_solutions(chunks)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._prepare_lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self._engines = None

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            workers=self.workers,
            shards_batches=True,
            escapes_gil=False,
        )
