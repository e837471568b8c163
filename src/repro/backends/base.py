"""The execution-backend contract of the recall engine.

A :class:`RecallBackend` owns *how* batched recalls execute — one
in-process engine, a sharded thread pool, or a pool of worker processes —
while the physics stays in :class:`~repro.core.amm.AssociativeMemoryModule`
and :class:`~repro.crossbar.batched.BatchedCrossbarEngine`.  Everything a
backend runs goes through the *seeded* recall path, so results are a pure
function of ``(module, codes, seed)`` and therefore invariant across
backend choice, worker count and shard boundaries (pinned by
``tests/backends/test_equivalence.py``).

:class:`EngineSpec` is the picklable construction recipe a backend ships
to remote execution contexts (process-pool workers): the module
configuration and programmed conductances, never a factorisation — each
worker rebuilds and re-factorises its own engine locally (see
:meth:`~repro.crossbar.batched.BatchedCrossbarEngine.__getstate__`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import TracebackType
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.amm import AssociativeMemoryModule, BatchRecognitionResult
from repro.crossbar.batched import BatchCrossbarSolution, BatchedCrossbarEngine

#: Fixed order in which per-sample WTA event counters cross an execution
#: boundary (shared-memory blocks, remote-worker frames) as one int64 row.
EVENT_KEYS = (
    "latch_senses",
    "sar_bit_writes",
    "dac_transitions",
    "dwn_switches",
    "tracking_writes",
    "detection_discharges",
    "detection_precharges",
)


class WorkerCrashedError(RuntimeError):
    """A backend worker died while holding in-flight requests.

    The work was *not* completed, but the backend has already replaced the
    worker, so the request is safe to retry — callers (and the HTTP front
    end, which maps this to a retryable 503) can distinguish it from a
    permanent per-request failure via :attr:`retryable`.
    """

    retryable: bool = True


@dataclass(frozen=True)
class BackendCapabilities:
    """What one backend instance can do, for dispatchers and health pages.

    Attributes
    ----------
    name:
        Registry name of the backend ("serial", "threads", "processes", …).
    workers:
        Number of independent execution units (engine replicas).
    shards_batches:
        Whether a single batch may be split across execution units.
    escapes_gil:
        Whether execution units run on separate interpreters, so CPU-bound
        work scales with cores rather than contending for one GIL.
    """

    name: str
    workers: int
    shards_batches: bool
    escapes_gil: bool


@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for rebuilding a recall engine somewhere else.

    The spec carries the served module — whose pickled form is its
    configuration plus programmed state (conductances, DAC bank, WTA
    devices, labels); any engine factorisation inside it is dropped at
    pickle time.  ``build_engine()`` on the receiving side constructs and
    (optionally) pre-factorises a private
    :class:`~repro.crossbar.batched.BatchedCrossbarEngine` replica.

    Attributes
    ----------
    module:
        The associative memory module to serve.
    """

    module: AssociativeMemoryModule

    @classmethod
    def from_module(cls, module: AssociativeMemoryModule) -> "EngineSpec":
        """Capture the spec of an existing module."""
        return cls(module=module)

    def build_engine(self, prepare: bool = True) -> BatchedCrossbarEngine:
        """Construct a fresh engine replica for this spec's network."""
        engine = BatchedCrossbarEngine(
            self.module.crossbar,
            delta_v=self.module.solver.delta_v,
            termination_resistance=self.module.solver.termination_resistance,
        )
        if prepare:
            engine.prepare(self.module.include_parasitics)
        return engine


class RecallBackend(abc.ABC):
    """Pluggable execution strategy for batched associative recall.

    Implementations own engine replicas (and possibly threads or
    processes) but never module state: recalls go through
    :meth:`~repro.core.amm.AssociativeMemoryModule.recognise_batch_seeded`,
    which mutates nothing, so one module can be shared by every execution
    unit.  Lifecycle: construct → :meth:`prepare` (idempotent; builds
    factorisations/workers) → any number of :meth:`recall_batch_seeded` /
    :meth:`solve_batch` calls (thread-safe) → :meth:`close`.
    """

    #: Registry name; implementations override.
    name: str = "abstract"

    @abc.abstractmethod
    def prepare(self) -> "RecallBackend":
        """Build factorisations / spawn workers eagerly; returns ``self``."""

    @abc.abstractmethod
    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        """Recall a ``(B, features)`` code batch under per-request seeds."""

    @abc.abstractmethod
    def solve_batch(
        self, dac_conductances: np.ndarray, include_parasitics: bool = True
    ) -> BatchCrossbarSolution:
        """Solve raw DAC-conductance vectors through the crossbar (no WTA)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release workers and engines; idempotent."""

    @abc.abstractmethod
    def capabilities(self) -> BackendCapabilities:
        """Describe this instance (name, workers, sharding, GIL escape)."""

    def __enter__(self) -> "RecallBackend":
        self.prepare()
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        self.close()


def contiguous_shards(
    count: int,
    workers: int,
    min_shard_size: int,
    max_shard_size: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Split ``count`` samples into contiguous per-worker shard bounds.

    At most ``workers`` shards, and only when each shard would hold at
    least ``min_shard_size`` samples — small batches stay whole rather
    than pay a per-shard dispatch cost.  ``max_shard_size``
    (used by backends whose transport buffers have a fixed capacity) is a
    hard capacity ceiling: when ``count > workers * max_shard_size`` the
    shard count rises *beyond* ``workers`` rather than ever returning a
    shard that would overrun a fixed buffer (capacity beats both the
    worker cap and, in that regime, ``min_shard_size``).  This is the
    single sharding rule every parallel backend uses, so results (which
    are seed-pure and order-preserving by construction) and performance
    behaviour stay consistent across backends.

    Guarantees, relied on by the ``auto`` cost model and pinned by
    ``tests/backends/test_sharding.py``:

    * shards partition ``[0, count)`` exactly, in order, no empties;
    * the split is the floor rule ``bounds[i] = i * count // shards``,
      so shard sizes differ by at most one and the bounds are
      bit-stable across platforms (no float rounding involved);
    * every shard holds ``>= min_shard_size`` samples whenever the
      min rule set the shard count (when ``max_shard_size`` forces more
      shards than the min rule allows, capacity wins and shards may
      drop below ``min_shard_size``);
    * every shard holds ``<= max_shard_size`` samples, always.
    """
    if count <= 0:
        return []
    shards = min(workers, max(1, count // min_shard_size))
    if max_shard_size is not None:
        if max_shard_size < 1:
            raise ValueError(
                f"max_shard_size must be >= 1, got {max_shard_size}"
            )
        needed = -(-count // max_shard_size)  # ceil
        shards = max(shards, needed)
    # Floor-based split: shards <= count always holds (count // min <= count
    # and ceil(count / max) <= count), so every shard is non-empty, sizes are
    # floor(count / shards) or that plus one, and the smaller size only
    # appears when it still respects the rule that set the shard count.
    bounds = [count * index // shards for index in range(shards + 1)]
    return list(zip(bounds[:-1], bounds[1:]))
