"""The ``auto`` backend: cost-model-driven backend selection per dispatch.

``auto`` owns one prepared instance of every *candidate* backend (serial
always; threads and processes when more than one worker is configured;
remote when worker addresses are given), calibrates a measured
:class:`~repro.backends.costmodel.CostModel` for each at :meth:`prepare`
time, and routes every batch to whichever candidate the model predicts
cheapest for that batch size — so small batches never leave the caller's
core, and large batches fan out only when parallelism actually pays on
this host.

Bit-compatibility across plans: every row's result depends only on that
row's inputs (the engine's solves are row-independent), so whichever plan
the model picks — even different plans for the same workload on different
runs — the results are identical to the last bit on the seeded recall
path (pinned by ``tests/backends/test_auto.py`` and the equivalence
property suite).
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    RecallBackend,
)
from repro.backends.costmodel import (
    CALIBRATION_REPEATS,
    CostModel,
    DispatchPlan,
    DispatchPlanner,
    ShardRule,
    calibrate_backend,
)
from repro.backends.fleet import RemoteBackend
from repro.backends.process import ProcessPoolBackend
from repro.backends.serial import SerialBackend
from repro.backends.threaded import ThreadedBackend
from repro.core.amm import AssociativeMemoryModule, BatchRecognitionResult
from repro.crossbar.batched import BatchCrossbarSolution
from repro.utils.validation import check_integer

#: Candidate name -> backend class (direct classes, not the registry, to
#: avoid a registry <-> auto import cycle).
_CANDIDATE_CLASSES = {
    "serial": SerialBackend,
    "threads": ThreadedBackend,
    "processes": ProcessPoolBackend,
    "remote": RemoteBackend,
}

#: Construction seed of the calibration workload (any fixed value works;
#: calibration only measures time, never results).
_CALIBRATION_SEED = 0xC057

#: Candidates whose parallelism runs on this host — their fitted speedup
#: is capped at the physical core count (anything above it is noise).
_LOCAL_CANDIDATES = frozenset({"serial", "threads", "processes"})

#: Default routing margin: a parallel plan must predict at least this
#: much improvement over the incumbent before a batch leaves serial.
#: Calibration noise on millisecond dispatches is of this order, so a
#: smaller margin lets noise route batches into plans that lose.
DEFAULT_ROUTING_MARGIN = 0.15


class AutoBackend(RecallBackend):
    """Cost-model-routed execution over a pool of candidate backends.

    Parameters
    ----------
    module:
        The served module, shared by every candidate.
    workers:
        Execution units for the parallel candidates.  With ``workers=1``
        (the default) only the serial candidate exists and ``auto`` is
        serial with a calibration step.
    min_shard_size:
        Baseline sharding threshold forwarded to the parallel
        candidates; calibration then *raises* each candidate's live
        threshold to its measured break-even shard size
        (``ceil(fixed / marginal)``), so no candidate ever splits a
        batch into shards too small to pay their own dispatch cost.
    candidates:
        Explicit candidate names (any of ``serial``, ``threads``,
        ``processes``, ``remote``); ``serial`` is always included.
        Default: serial, plus threads and processes when ``workers > 1``,
        plus remote when ``worker_addresses`` is given.
    calibration_repeats:
        Timed repetitions per calibration point (minimum kept).
    routing_margin:
        Fraction by which a candidate's predicted time must beat the
        incumbent's before the planner routes away from it (serial is
        the first incumbent).  Guards against calibration noise; see
        :class:`~repro.backends.costmodel.DispatchPlanner`.
    worker_addresses:
        Remote worker endpoints; enables the ``remote`` candidate.
    **options:
        Forwarded to every candidate factory (each ignores what it does
        not understand — e.g. ``max_batch_size`` for processes,
        ``heartbeat_interval`` for remote).
    """

    name = "auto"

    def __init__(
        self,
        module: AssociativeMemoryModule,
        workers: int = 1,
        min_shard_size: int = 16,
        candidates: Optional[Sequence[str]] = None,
        calibration_repeats: int = CALIBRATION_REPEATS,
        routing_margin: float = DEFAULT_ROUTING_MARGIN,
        worker_addresses=None,
        **options,
    ) -> None:
        check_integer("workers", workers, minimum=1)
        check_integer("min_shard_size", min_shard_size, minimum=1)
        check_integer("calibration_repeats", calibration_repeats, minimum=1)
        self.module = module
        self.workers = workers
        self.min_shard_size = min_shard_size
        self.calibration_repeats = calibration_repeats
        self.routing_margin = routing_margin
        self._worker_addresses = worker_addresses
        self._options = dict(options)
        if candidates is None:
            names: List[str] = ["serial"]
            if workers > 1:
                names += ["threads", "processes"]
            if worker_addresses:
                names.append("remote")
        else:
            names = list(dict.fromkeys(["serial", *candidates]))
            unknown = [name for name in names if name not in _CANDIDATE_CLASSES]
            if unknown:
                raise ValueError(
                    f"unknown auto candidates {unknown}; "
                    f"choose from {sorted(_CANDIDATE_CLASSES)}"
                )
            if "remote" in names and not worker_addresses:
                raise ValueError(
                    "the 'remote' candidate requires worker_addresses"
                )
        self._candidate_names = names
        self._backends: Dict[str, RecallBackend] = {}
        self._planner: Optional[DispatchPlanner] = None
        self._prepare_lock = threading.Lock()
        self._closed = False
        #: Calibrated models by candidate name (after :meth:`prepare`).
        self.cost_models: Dict[str, CostModel] = {}
        #: Dispatch counts by chosen candidate (observability).
        self.plan_counts: Dict[str, int] = {}
        #: The plan of the most recent dispatch.
        self.last_plan: Optional[DispatchPlan] = None

    # ------------------------------------------------------------------ #
    # Calibration / preparation
    # ------------------------------------------------------------------ #
    def _calibration_batch(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """A fixed random workload of ``count`` valid rows for timing."""
        rng = np.random.default_rng(_CALIBRATION_SEED)
        codes = rng.integers(
            0,
            self.module.input_dacs.max_code + 1,
            size=(count, self.module.crossbar.rows),
            dtype=np.int64,
        )
        seeds = rng.integers(0, 2**31 - 1, size=count, dtype=np.int64)
        return codes, seeds

    def _build_candidate(self, candidate: str) -> RecallBackend:
        factory = _CANDIDATE_CLASSES[candidate]
        options = dict(self._options)
        if candidate == "remote":
            options["worker_addresses"] = self._worker_addresses
        return factory(
            self.module,
            workers=self.workers,
            min_shard_size=self.min_shard_size,
            **options,
        ).prepare()

    def prepare(self) -> "AutoBackend":
        with self._prepare_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if self._planner is not None:
                return self
            backends: Dict[str, RecallBackend] = {
                candidate: self._build_candidate(candidate)
                for candidate in self._candidate_names
            }
            models: Dict[str, CostModel] = {}
            entries: Dict[str, Tuple[CostModel, ShardRule]] = {}
            host_cores = os.cpu_count() or 1
            for candidate in self._candidate_names:
                backend = backends[candidate]
                model = calibrate_backend(
                    backend,
                    self._calibration_batch,
                    repeats=self.calibration_repeats,
                    # A local pool cannot overlap shards beyond the
                    # physical cores; remote workers can.
                    max_speedup=(
                        float(host_cores)
                        if candidate in _LOCAL_CANDIDATES
                        else None
                    ),
                )
                models[candidate] = model
                if candidate == "serial":
                    rule = ShardRule(workers=1, min_shard_size=1)
                else:
                    # Raise the candidate's live threshold to its
                    # measured break-even shard size: below it a shard
                    # cannot pay its own fixed dispatch cost.
                    break_even = (
                        math.ceil(model.fixed / model.marginal)
                        if model.marginal > 0
                        else 1
                    )
                    live_min = max(self.min_shard_size, min(break_even, 4096))
                    if hasattr(backend, "min_shard_size"):
                        backend.min_shard_size = live_min
                    rule = ShardRule(
                        workers=backend.capabilities().workers,
                        min_shard_size=live_min,
                        max_shard_size=getattr(backend, "max_batch_size", None),
                    )
                entries[candidate] = (model, rule)
            self._backends = backends
            self.cost_models = models
            self.plan_counts = {name: 0 for name in self._candidate_names}
            self._planner = DispatchPlanner(entries, margin=self.routing_margin)
        return self

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def plan_for(self, count: int) -> DispatchPlan:
        """The plan the model would choose for a ``count``-image batch."""
        self.prepare()
        return self._planner.plan(count)

    def _route(self, count: int) -> RecallBackend:
        self.prepare()
        plan = self._planner.plan(count)
        self.last_plan = plan
        self.plan_counts[plan.backend] += 1
        return self._backends[plan.backend]

    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        codes = np.asarray(codes_batch)
        count = codes.shape[0] if codes.ndim == 2 else 0
        if count <= 0:
            # Delegate shape/emptiness validation to the serial reference.
            self.prepare()
            return self._backends["serial"].recall_batch_seeded(
                codes_batch, request_seeds
            )
        return self._route(count).recall_batch_seeded(codes_batch, request_seeds)

    def solve_batch(
        self, dac_conductances: np.ndarray, include_parasitics: bool = True
    ) -> BatchCrossbarSolution:
        dac = np.asarray(dac_conductances)
        count = dac.shape[0] if dac.ndim == 2 else 0
        if count <= 0:
            self.prepare()
            return self._backends["serial"].solve_batch(
                dac_conductances, include_parasitics=include_parasitics
            )
        return self._route(count).solve_batch(
            dac_conductances, include_parasitics=include_parasitics
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._prepare_lock:
            self._closed = True
            for backend in self._backends.values():
                backend.close()
            self._backends = {}
            self._planner = None

    def capabilities(self) -> BackendCapabilities:
        if self._backends:
            sub = [backend.capabilities() for backend in self._backends.values()]
            return BackendCapabilities(
                name=self.name,
                workers=max(caps.workers for caps in sub),
                shards_batches=any(caps.shards_batches for caps in sub),
                escapes_gil=any(caps.escapes_gil for caps in sub),
            )
        return BackendCapabilities(
            name=self.name,
            workers=self.workers,
            shards_batches=len(self._candidate_names) > 1,
            escapes_gil=False,
        )
