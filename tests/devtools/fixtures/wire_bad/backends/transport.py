"""Known-bad fixture for WIRE001: pickle on the transport path and an
EngineSpec field carrying a factorisation. Never executed — lint fodder."""

import pickle
from dataclasses import dataclass
from typing import Optional


@dataclass
class EngineSpec:
    module: object
    # Solver state must never ride in the spec.
    factorisation: Optional["SuperLUFactor"] = None


def encode(spec):
    return pickle.dumps(spec)
