"""Pluggable execution backends for batched associative recall.

The numerical engine (:mod:`repro.crossbar.batched`) knows *what* to
compute; this package owns *where and how* it executes:

``serial``
    :class:`~repro.backends.serial.SerialBackend` — one pre-factorised
    engine on the caller's thread.  The equivalence reference.

``threads``
    :class:`~repro.backends.threaded.ThreadedBackend` — PR 2's sharded
    thread pool, extracted from the serving layer: contiguous shards over
    per-slot engine replicas; the LAPACK solves overlap (they release the
    GIL) but the Python glue still serialises.

``processes``
    :class:`~repro.backends.process.ProcessPoolBackend` — N worker
    processes, each rebuilding its own pre-factorised engine from a
    picklable :class:`~repro.backends.base.EngineSpec` (configuration +
    programmed conductances; the factorisation never crosses the process
    boundary) and exchanging batches through shared-memory buffers, so
    recalls scale with cores instead of contending for one GIL.

``remote``
    :class:`~repro.backends.fleet.RemoteBackend` — worker *agents*
    (:class:`~repro.backends.remote.WorkerServer`, started with
    ``python -m repro worker --listen HOST:PORT``) on any host, spoken to
    over the pickle-free length-prefixed TCP protocol of
    :mod:`repro.backends.wire`.  A ``fleet`` of adopted workers only:
    links are supervised (heartbeats, reconnect with backoff), shards are
    routed by measured replica speed, and in-flight shards retry onto
    surviving replicas, so recall scales across machines and survives
    worker loss.

``fleet``
    :class:`~repro.backends.fleet.FleetSupervisor` — the one client-side
    remote transport, which ``remote`` specialises.  Spawns and/or adopts
    worker agents, weights shard routing by measured per-replica EWMA
    latency (slow replicas get proportionally fewer rows, never declared
    dead), admits workers *joining a running service*, drains replicas
    out of routing without disconnecting them, and performs rolling
    ``EngineSpec`` updates verified by a canary recall — zero-downtime
    reprogramming.  Admin verbs (``status``/``join``/``drain``/
    ``respec``) are served on a control socket
    (:class:`~repro.backends.fleet.FleetControlServer`, spoken to by
    :class:`~repro.backends.fleet.FleetAdminClient` and
    ``python -m repro admin``).

``auto``
    :class:`~repro.backends.auto.AutoBackend` — a router, not an
    executor: it prepares the candidates above, calibrates a measured
    :class:`~repro.backends.costmodel.CostModel` for each (per-shard
    fixed cost + per-image marginal cost + effective parallel speedup)
    and sends every batch to whichever candidate the model predicts
    cheapest for that batch size.  Every row's result depends only on
    that row's inputs, so the routing decision never changes a result
    bit.

All backends execute the *seeded* recall path, so results are a pure
function of ``(module, codes, seed)`` — invariant across backend choice,
worker count and shard boundaries (``tests/backends/``), which is what
makes the strategy a deployment decision instead of a correctness one.
Consumers select a backend by name through the registry
(:func:`create_backend` / :func:`resolve_backend`); see ``README.md`` in
this directory for the protocol and the custom-backend recipe.
"""

from repro.backends.auto import AutoBackend
from repro.backends.base import (
    EVENT_KEYS,
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    WorkerCrashedError,
    contiguous_shards,
)
from repro.backends.fleet import (
    FleetAdminClient,
    FleetControlServer,
    FleetSupervisor,
    RemoteBackend,
    weighted_shards,
)
from repro.backends.process import ProcessPoolBackend
from repro.backends.registry import (
    DEFAULT_BACKEND,
    UnknownBackendError,
    backend_names,
    create_backend,
    register_backend,
    resolve_backend,
)
from repro.backends.remote import (
    WorkerServer,
    parse_worker_addresses,
    spawn_local_worker,
)
from repro.backends.serial import SerialBackend
from repro.backends.threaded import ThreadedBackend

from repro.backends.costmodel import (
    CostModel,
    DispatchPlan,
    DispatchPlanner,
    ShardRule,
    calibrate_backend,
)

__all__ = [
    "AutoBackend",
    "BackendCapabilities",
    "CostModel",
    "DispatchPlan",
    "DispatchPlanner",
    "ShardRule",
    "DEFAULT_BACKEND",
    "EVENT_KEYS",
    "EngineSpec",
    "FleetAdminClient",
    "FleetControlServer",
    "FleetSupervisor",
    "ProcessPoolBackend",
    "RecallBackend",
    "RemoteBackend",
    "SerialBackend",
    "ThreadedBackend",
    "UnknownBackendError",
    "WorkerCrashedError",
    "WorkerServer",
    "backend_names",
    "calibrate_backend",
    "contiguous_shards",
    "create_backend",
    "parse_worker_addresses",
    "register_backend",
    "resolve_backend",
    "spawn_local_worker",
    "weighted_shards",
]
