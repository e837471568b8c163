"""The serial backend: one engine, the caller's thread, no concurrency.

This is the equivalence reference every other backend is pinned against:
it recalls through exactly the per-batch seeded path of the module with a
single private pre-factorised engine replica.  Because the seeded path is
a pure function of ``(module, codes, seed)``, any backend that matches the
serial backend sample-for-sample is correct by definition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.base import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
)
from repro.core.amm import AssociativeMemoryModule, BatchRecognitionResult
from repro.crossbar.batched import BatchCrossbarSolution


class SerialBackend(RecallBackend):
    """Single-engine, single-thread execution (the reference strategy).

    Parameters
    ----------
    module:
        The (read-only) module recalls are served from.
    """

    name = "serial"

    def __init__(
        self,
        module: AssociativeMemoryModule,
        **_ignored,
    ) -> None:
        self.module = module
        self.spec = EngineSpec.from_module(module)
        self._engine = None
        self._closed = False

    def prepare(self) -> "SerialBackend":
        if self._closed:
            raise RuntimeError("backend is closed")
        if self._engine is None:
            self._engine = self.spec.build_engine()
        return self

    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        self.prepare()
        return self.module.recognise_batch_seeded(
            codes_batch, request_seeds, engine=self._engine
        )

    def solve_batch(
        self, dac_conductances: np.ndarray, include_parasitics: bool = True
    ) -> BatchCrossbarSolution:
        self.prepare()
        return self._engine.solve_batch(
            dac_conductances, include_parasitics=include_parasitics
        )

    def close(self) -> None:
        self._engine = None
        self._closed = True

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name, workers=1, shards_batches=False, escapes_gil=False
        )
