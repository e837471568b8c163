"""The client side of the remote transport: supervised replica sets.

Every worker agent (:mod:`repro.backends.remote`) holds a full replica,
so any survivor can serve any shard.  This module is the one client of
those agents:

* :class:`FleetSupervisor` — registered as ``"fleet"``.  Spawns local
  worker agents (``spawn_local_worker``) and/or adopts remote ones
  (``worker_addresses``) and supervises one socket link per member:
  heartbeats probe idle links, dead links reconnect with exponential
  backoff on a background thread, and a shard in flight on a dying
  worker is retried on the survivors — the retryable
  :class:`~repro.backends.base.WorkerCrashedError` (HTTP 503 through the
  serving stack) is raised only when no routable replica remains.  It
  tracks an EWMA of each replica's measured per-row shard latency, and
  routing is *health-weighted*: shard sizes are proportional to each
  replica's measured speed (:func:`weighted_shards`), so a slow replica
  receives proportionally fewer rows — it is never declared dead for
  being slow (slow ≠ dead), it just stops being the bottleneck.  Because
  routing only decides *which replica* solves a shard and every recall
  runs the row-independent seeded path, no routing decision can change a
  result bit.
* :class:`RemoteBackend` — registered as ``"remote"``: the same
  supervisor over adopted workers only (``worker_addresses`` required,
  nothing spawned, no control socket).
* **Online membership** — :meth:`FleetSupervisor.join` admits a worker
  into a *running* fleet (scale-out under load): the supervisor dials
  it, pushes the current spec over the ordinary handshake and starts
  routing to it.  :meth:`~FleetSupervisor.drain` excludes a replica
  from routing, waits for its in-flight shard and leaves the link warm
  (control traffic still flows), so an operator can take a worker out
  for maintenance without failing a single request; ``join`` on a
  drained address readmits it.
* **Rolling re-spec** — :meth:`FleetSupervisor.respec` reprograms the
  whole fleet without dropping traffic: one replica at a time is
  drained, pushed the new :class:`~repro.backends.base.EngineSpec`
  (the ``SPEC`` frame is valid mid-connection), *verified with a canary
  recall* against a locally computed reference, and readmitted before
  the next replica starts.  A replica that fails its canary stays out
  of routing; a replica that is partitioned mid-roll is marked dead and
  picks the new spec up on reconnect (the supervisor always pushes the
  current spec).
* **Admin surface** — :class:`FleetControlServer` serves the ``JOIN`` /
  ``DRAIN`` / ``RESPEC`` / ``STATUS`` control frames of
  :mod:`repro.backends.wire` on a control socket;
  :class:`FleetAdminClient` (and ``python -m repro admin``) speaks them
  from outside the serving process.  :meth:`FleetSupervisor.fleet_stats`
  is the JSON snapshot behind ``STATUS`` and the ``fleet`` section of
  the serving ``/stats`` endpoint.

Membership changes move *capacity*, never correctness — the chaos
matrices (``tests/backends/test_remote_faults.py``,
``tests/backends/test_fleet_faults.py``) and the property suite
(``tests/backends/test_fleet_properties.py``) pin bit-identical results
across every fleet event.
"""

from __future__ import annotations

import socket
import subprocess
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import wire
from repro.backends.base import (
    BackendCapabilities,
    EngineSpec,
    RecallBackend,
    WorkerCrashedError,
)
from repro.backends.remote import (
    Address,
    Command,
    WorkerServer,
    parse_worker_addresses,
    spawn_local_worker,
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


class ReplicaDrainedError(ConnectionError):
    """A shard was offered to a drained replica; the dispatcher re-queues.

    Raised *before any bytes leave* — the admitted flag is checked under
    the link lock — so a drained replica can never serve part of a
    batch.  A :class:`ConnectionError` subtype on purpose: the dispatch
    retry machinery already treats those as "route elsewhere".
    """


class FleetMembershipError(ValueError):
    """An admin verb named a worker address the fleet does not know."""


# A membership error raised inside the serving process must reach the
# admin client as the same type (not the RuntimeError fallback), so a
# typo'd `repro admin drain` address fails exactly like the in-process
# call would.  Registered here, next to the type, not in wire.py — the
# protocol module stays ignorant of fleet semantics.
wire.TRANSPORTABLE_ERRORS.setdefault("FleetMembershipError", FleetMembershipError)

#: Resolution of the integer routing weights :func:`weighted_shards`
#: quantises to (the largest weight maps to this many quanta).
_WEIGHT_QUANTA = 1 << 32


def weighted_shards(
    count: int,
    weights: Sequence[float],
    min_shard_size: int,
) -> List[Tuple[int, int]]:
    """Split ``count`` samples into shards sized proportionally to weights.

    The health-weighted generalisation of
    :func:`~repro.backends.base.contiguous_shards`: ``weights[i]`` is the
    measured speed of target ``i`` (higher = faster = bigger shard).
    Guarantees, pinned by ``tests/backends/test_fleet.py``:

    * shards partition ``[0, count)`` exactly, in order, no empties;
    * at most ``len(weights)`` shards, and only as many as keep every
      shard at least ``min_shard_size`` samples (small batches stay
      whole, exactly like the unweighted rule);
    * every shard holds ``>= min_shard_size`` samples whenever more than
      one shard is produced — proportionality is clamped rather than
      ever emitting a sub-minimum shard;
    * with equal weights — of any positive value — the split is exactly
      ``contiguous_shards`` (floor rule, sizes differ by at most one).
      The weights are quantised to integers relative to the largest and
      the bounds computed as ``count * prefix // total``, so equal
      weights become equal integers and no float rounding enters.

    Routing weights decide *where* rows are solved, never what the
    answer is: the seeded recall path makes results independent of the
    shard plan, so this function is free to chase throughput.
    """
    if count <= 0:
        return []
    if not weights:
        raise ValueError("weighted_shards needs at least one weight")
    check_integer("min_shard_size", min_shard_size, minimum=1)
    shards = min(len(weights), max(1, count // min_shard_size))
    live = [max(float(weight), 1e-12) for weight in weights[:shards]]
    top = max(live)
    quanta = [max(1, round(weight / top * _WEIGHT_QUANTA)) for weight in live]
    total = sum(quanta)
    bounds = [0] * (shards + 1)
    bounds[shards] = count
    prefix = 0
    for index in range(1, shards):
        prefix += quanta[index - 1]
        bounds[index] = count * prefix // total
    # Clamp to the minimum shard size: shards <= count // min_shard_size,
    # so low <= high always holds and the pass keeps the exact partition.
    for index in range(1, shards):
        low = bounds[index - 1] + min_shard_size
        high = count - (shards - index) * min_shard_size
        bounds[index] = min(max(bounds[index], low), high)
    return list(zip(bounds[:-1], bounds[1:]))


def _parse_control(
    control: Union[str, Address, None]
) -> Optional[Address]:
    """Normalise a control-socket selection into ``(host, port)`` or None.

    Unlike worker addresses, port 0 is meaningful here (bind ephemeral
    and read :attr:`FleetSupervisor.control_address` back).
    """
    if control is None:
        return None
    if isinstance(control, str):
        host, separator, port_text = control.strip().rpartition(":")
        if not separator or not host:
            raise ValueError(
                f"control address {control!r} must look like 'host:port'"
            )
        return host, int(port_text)
    host, port = control
    return str(host), int(port)


def _dial(address: Address, connect_timeout: float, io_timeout: float) -> socket.socket:
    """Connect to a wire-protocol server and complete the ``HELLO`` handshake.

    Used by worker links and the admin client alike.  A version skew (or
    any non-``HELLO`` answer) raises :class:`wire.ProtocolVersionError`;
    an ``ERROR`` reply resurfaces as its transported type.  The socket is
    closed on every failure.
    """
    sock = socket.create_connection(address, timeout=connect_timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(io_timeout)
        wire.send_frame(sock, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
        kind, version, header, _ = wire.recv_frame(sock)
        if kind == wire.ERROR:
            raise wire.transported_error(header["type"], header["message"])
        if kind != wire.HELLO or version != wire.PROTOCOL_VERSION:
            raise wire.ProtocolVersionError(
                f"{address[0]}:{address[1]} answered kind {kind} "
                f"protocol {version}; expected HELLO v{wire.PROTOCOL_VERSION}"
            )
    except BaseException:
        sock.close()
        raise
    return sock


def _expect(kind: int, header: dict, expected: int, what: str) -> None:
    """Check a reply's kind; an ``ERROR`` frame raises its transported type."""
    if kind == wire.ERROR:
        raise wire.transported_error(header["type"], header["message"])
    if kind != expected:
        raise wire.WireProtocolError(f"{what} answered with kind {kind}")


class _Replica:
    """One replica: the supervised socket link to a worker agent, plus its
    health and routing state.

    The only client socket to a worker agent.  Frame exchange is
    serialised under :attr:`lock` (one in-flight command per link), and
    every liveness transition goes through :meth:`connect` /
    :meth:`mark_dead`, so the dispatcher and the supervisor never
    disagree about ``alive``.

    ``admitted`` is the routing flag — cleared by a drain, set by
    ``join``/readmit — and is checked *under the link lock* in
    :meth:`exchange`, so the drain contract ("no shard after the drain
    returns") has no check-then-send race.  ``ewma_row_seconds`` is the
    exponentially weighted moving average of measured seconds per row
    over this replica's served shards; ``None`` until the first shard.
    """

    def __init__(self, address: Address, io_timeout: float, origin: str) -> None:
        self.address = address
        self.io_timeout = io_timeout
        self.origin = origin
        self.lock = threading.Lock()
        self.sock: Optional[socket.socket] = None
        self.alive = False
        self.backoff: float = 0.0
        self.next_attempt: float = 0.0
        self.admitted = True
        self.draining = False
        self.ewma_row_seconds: Optional[float] = None
        self.shards_served = 0
        self.rows_served = 0
        self._stats_lock = threading.Lock()

    @property
    def state(self) -> str:
        """``live`` | ``draining`` | ``drained`` | ``dead`` (dead wins)."""
        if not self.alive:
            return "dead"
        if self.draining:
            return "draining"
        if not self.admitted:
            return "drained"
        return "live"

    def connect(
        self, spec_header: dict, spec_arrays: Dict[str, np.ndarray],
        connect_timeout: float,
    ) -> None:
        """Dial, handshake and push the spec.

        Any failure (refused, version skew, handshake garbage) leaves the
        link dead and re-raises — the caller decides whether that is
        fatal (``prepare`` with no survivors) or retryable (supervisor).
        """
        sock = _dial(self.address, connect_timeout, self.io_timeout)
        try:
            wire.send_frame(sock, wire.SPEC, spec_header, spec_arrays)
            kind, _, header, _ = wire.recv_frame(sock)
            _expect(kind, header, wire.OK, f"worker {self.address} SPEC")
        except BaseException:
            sock.close()
            raise
        with self.lock:
            self.sock = sock
            self.alive = True
            self.backoff = 0.0

    def mark_dead(self) -> None:
        """Tear the socket down; the supervisor will schedule a reconnect."""
        with self.lock:
            self._mark_dead_locked()

    def _mark_dead_locked(self) -> None:
        self.alive = False
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    def exchange(
        self,
        kind: int,
        header: Optional[dict],
        arrays,
        control: bool = False,
    ) -> Tuple[int, dict, Dict[str, np.ndarray]]:
        """Send one command frame and await its reply, holding the lock.

        Recall traffic is refused with :class:`ReplicaDrainedError` when
        the replica is drained; ``control=True`` bypasses that check
        (drained replicas still accept SPEC pushes and canary recalls —
        that is the whole point of draining instead of disconnecting).
        Socket trouble (EOF, reset, timeout — a worker slower than
        ``io_timeout`` is indistinguishable from a dead one) marks the
        link dead and raises :class:`ConnectionError`.
        """
        with self.lock:
            if not control and not self.admitted:
                raise ReplicaDrainedError(
                    f"replica {self.address} is drained; shard re-queued"
                )
            if not self.alive or self.sock is None:
                raise ConnectionError(f"link to {self.address} is down")
            try:
                wire.send_frame(self.sock, kind, header, arrays)
                reply_kind, _, reply_header, reply_arrays = wire.recv_frame(self.sock)
            except (OSError, wire.WireProtocolError, wire.ConnectionClosedError) as error:
                self._mark_dead_locked()
                raise ConnectionError(
                    f"worker {self.address} failed mid-command: {error}"
                ) from error
            return reply_kind, reply_header, reply_arrays

    def ping(self, timeout: float = 1.0) -> bool:
        """Heartbeat probe; returns liveness (marking the link on failure).

        ``timeout`` must be the caller's full io budget: once the PING is
        on the wire its PONG has to be read (or the socket torn down —
        a late PONG would corrupt the next command's framing), so timing
        out early declares a merely *slow* worker dead and forces a
        spurious failover.  The probe skips busy links entirely (a link
        serving a shard is alive by definition), so a slow probe only
        delays supervision of the other links, never dispatch.
        """
        if not self.lock.acquire(blocking=False):
            return True  # busy serving a shard — alive by definition
        try:
            if not self.alive or self.sock is None:
                return False
            try:
                self.sock.settimeout(min(timeout, self.io_timeout))
                wire.send_frame(self.sock, wire.PING)
                kind, _, _, _ = wire.recv_frame(self.sock)
            except (OSError, wire.WireProtocolError, wire.ConnectionClosedError):
                self._mark_dead_locked()
                return False
            finally:
                if self.sock is not None:
                    try:
                        self.sock.settimeout(self.io_timeout)
                    except OSError:
                        pass
            if kind != wire.PONG:
                self._mark_dead_locked()
                return False
            return True
        finally:
            self.lock.release()

    def close(self, timeout: float = 1.0) -> None:
        """Tear the link down without waiting on an in-flight command.

        A graceful BYE is sent only if the lock is free within
        ``timeout``; otherwise the socket is force-closed from here — the
        holder's blocked recv fails immediately with ``OSError`` (handled
        as a dead link), so backend shutdown never waits out a full
        ``io_timeout``.
        """
        acquired = self.lock.acquire(timeout=timeout)
        try:
            sock = self.sock
            if sock is not None and acquired:
                try:
                    wire.send_frame(sock, wire.BYE)
                except OSError:
                    pass
            self.alive = False
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
            if acquired:
                self.sock = None
        finally:
            if acquired:
                self.lock.release()

    def observe(self, rows: int, elapsed: float, alpha: float) -> None:
        """Fold one served shard into the health/latency estimate."""
        per_row = elapsed / max(1, rows)
        with self._stats_lock:
            if self.ewma_row_seconds is None:
                self.ewma_row_seconds = per_row
            else:
                self.ewma_row_seconds = (
                    alpha * per_row + (1.0 - alpha) * self.ewma_row_seconds
                )
            self.shards_served += 1
            self.rows_served += rows


class FleetSupervisor(RecallBackend):
    """Health-weighted, dynamically-membered replica set of worker agents.

    Parameters
    ----------
    module:
        The served module; its wire spec is pushed to every worker at
        connect time, on every reconnect, and (rolling) on re-spec.
    workers:
        When no ``worker_addresses`` are given, how many local worker
        agents to spawn at :meth:`prepare` (registry-factory
        compatibility: ``--backend fleet --workers 2`` just works).
    worker_addresses:
        Worker agents to *adopt* — ``"host:port,host:port"`` or a
        sequence of addresses.  May be combined with ``spawn_workers``.
    spawn_workers:
        Local agents to spawn in addition to any adopted addresses
        (``None`` = ``workers`` when no addresses were given, else 0).
    min_shard_size:
        A batch is split across replicas only when every shard would hold
        at least this many samples.
    connect_timeout, io_timeout:
        Socket budgets for dialling and for one in-flight command; a
        worker slower than ``io_timeout`` is treated as crashed and its
        shard is retried on the survivors.
    heartbeat_interval:
        Seconds between idle-link PING probes; dead links found by the
        probe are reconnected with exponential backoff (``backoff_base``
        doubling to ``backoff_max``).
    latency_alpha:
        EWMA smoothing factor for per-row shard latency (0 < alpha <= 1;
        higher = reacts faster to a replica speeding up or bogging down).
    control:
        ``(host, port)`` or ``"host:port"`` to serve the fleet control
        socket (``port`` 0 = ephemeral; read
        :attr:`control_address` back).  ``None`` = no control socket.
    canary_batch:
        Rows in the re-spec canary recall (the verification batch every
        replica must answer bit-identically before readmission).
    """

    name = "fleet"

    def __init__(
        self,
        module: AssociativeMemoryModule,
        workers: int = 2,
        worker_addresses: Union[str, Sequence[Union[str, Address]], None] = None,
        spawn_workers: Optional[int] = None,
        min_shard_size: int = 16,
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
        heartbeat_interval: float = 2.0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        latency_alpha: float = 0.3,
        control: Union[str, Address, None] = None,
        canary_batch: int = 4,
        **_ignored,
    ) -> None:
        addresses = parse_worker_addresses(worker_addresses)
        if spawn_workers is None:
            spawn_workers = 0 if addresses else max(1, int(workers))
        check_integer("spawn_workers", spawn_workers, minimum=0)
        if not addresses and spawn_workers == 0:
            raise ValueError(
                "fleet backend needs members: pass worker_addresses "
                "and/or spawn_workers (or a positive workers count)"
            )
        check_integer("min_shard_size", min_shard_size, minimum=1)
        check_integer("canary_batch", canary_batch, minimum=1)
        if not 0.0 < latency_alpha <= 1.0:
            raise ValueError(
                f"latency_alpha must be in (0, 1], got {latency_alpha}"
            )
        self.module = module
        self.min_shard_size = min_shard_size
        self.spec = EngineSpec.from_module(module)
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.heartbeat_interval = heartbeat_interval
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.latency_alpha = latency_alpha
        self._spawn_workers = spawn_workers
        self._control_request = _parse_control(control)
        self._control_server: Optional[FleetControlServer] = None
        self._processes: List[subprocess.Popen] = []
        #: Guards the replica list (membership) and the spec reference.
        self._fleet_lock = threading.Lock()
        self._replicas: List[_Replica] = [
            _Replica(address, io_timeout, origin="adopted")
            for address in addresses
        ]
        self._prepare_lock = threading.Lock()
        self._prepared = False
        self._closed = False
        self._supervisor: Optional[threading.Thread] = None
        self._wake = threading.Event()
        # The canary workload is a pure function of the module geometry,
        # so every re-spec (and every test) verifies the same recall.
        rows = module.crossbar.rows
        levels = 2 ** module.input_dacs.bits
        self._canary_codes = (
            np.arange(canary_batch * rows, dtype=np.int64).reshape(
                canary_batch, rows
            )
            * 7
        ) % levels
        self._canary_seeds = np.arange(canary_batch, dtype=np.int64) + 9001
        #: Observability counters (all surfaced by :meth:`fleet_stats`).
        self.reconnects = 0
        self.retried_shards = 0
        self.joins = 0
        self.readmits = 0
        self.drains = 0
        self.respecs = 0
        #: Monotone spec generation; bumped by every successful re-spec.
        self.spec_version = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def control_address(self) -> Optional[Address]:
        """The bound control socket address (after :meth:`prepare`)."""
        if self._control_server is None:
            return None
        return self._control_server.address

    def _spec_wire(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        with self._fleet_lock:
            spec = self.spec
        return wire.spec_to_wire(spec)

    def _replicas_snapshot(self) -> List[_Replica]:
        with self._fleet_lock:
            return list(self._replicas)

    def prepare(self) -> "FleetSupervisor":
        with self._prepare_lock:
            if self._closed:
                raise RuntimeError("backend is closed")
            if self._prepared:
                return self
            for _ in range(self._spawn_workers):
                process, address = spawn_local_worker()
                self._processes.append(process)
                with self._fleet_lock:
                    self._replicas.append(
                        _Replica(address, self.io_timeout, origin="spawned")
                    )
            header, arrays = self._spec_wire()
            first_error: Optional[BaseException] = None
            for replica in self._replicas_snapshot():
                try:
                    replica.connect(header, arrays, self.connect_timeout)
                except Exception as error:
                    first_error = first_error or error
                    replica.next_attempt = time.monotonic()
            if not any(r.alive for r in self._replicas_snapshot()):
                raise ConnectionError(
                    f"no {self.name} worker reachable at "
                    f"{[r.address for r in self._replicas_snapshot()]}: "
                    f"{first_error}"
                )
            if self._control_request is not None:
                self._control_server = FleetControlServer(
                    self, *self._control_request
                )
            self._supervisor = threading.Thread(
                target=self._supervise,
                name=f"{self.name}-supervisor",
                daemon=True,
            )
            self._prepared = True
            self._supervisor.start()
            return self

    def _supervise(self) -> None:
        """Heartbeat idle links; reconnect dead members with backoff.

        Reconnects always push the *current* spec, so a replica that was
        dead through a re-spec comes back consistent with the fleet.
        """
        while not self._closed:
            next_heartbeat = time.monotonic() + self.heartbeat_interval
            for replica in self._replicas_snapshot():
                if self._closed:
                    return
                if replica.alive:
                    # Probe with the full io budget: a PONG that takes
                    # longer than a short probe window but arrives within
                    # io_timeout is a *slow* worker, and slow is not dead
                    # — a shorter timeout here used to mark such links
                    # dead and trigger spurious failover (pinned by
                    # tests/backends/test_remote_faults.py).  Once a PING
                    # is sent the reply must be read or the socket torn
                    # down (a late PONG would corrupt the next command's
                    # framing), so the only safe probe timeout is the one
                    # that actually defines death.
                    replica.ping(timeout=self.io_timeout)
                if not replica.alive and time.monotonic() >= replica.next_attempt:
                    try:
                        header, arrays = self._spec_wire()
                        replica.connect(header, arrays, self.connect_timeout)
                        self.reconnects += 1
                    except Exception:
                        replica.backoff = min(
                            self.backoff_max,
                            (replica.backoff * 2) or self.backoff_base,
                        )
                        replica.next_attempt = time.monotonic() + replica.backoff
            delay = max(0.0, next_heartbeat - time.monotonic())
            dead = [
                replica
                for replica in self._replicas_snapshot()
                if not replica.alive
            ]
            if dead:
                soonest = min(r.next_attempt for r in dead)
                delay = min(delay, max(0.0, soonest - time.monotonic()), 0.25)
            self._wake.wait(timeout=max(delay, 0.01))
            self._wake.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wake.set()
        if self._control_server is not None:
            self._control_server.close()
        # Close links before joining the supervisor (a heartbeat blocked
        # in recv unblocks the moment its socket is force-closed), and
        # give the join the connect budget too — the supervisor may be
        # inside a reconnect dial, which closing a link cannot interrupt
        # (a flat 5 s used to leak the thread past close() whenever
        # connect_timeout was raised above it).  A reconnect may have
        # raced the first sweep and resurrected a socket; the second
        # sweep (idempotent) catches it.
        for replica in self._replicas_snapshot():
            replica.close()
        if self._supervisor is not None:
            self._supervisor.join(timeout=max(5.0, self.connect_timeout + 1.0))
        for replica in self._replicas_snapshot():
            replica.close()
        for process in self._processes:
            process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck agent
                process.kill()
                process.wait(timeout=10.0)
        self._processes = []

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            workers=len(self._replicas_snapshot()),
            shards_batches=True,
            escapes_gil=True,
        )

    # ------------------------------------------------------------------ #
    # Membership and health
    # ------------------------------------------------------------------ #
    def _find(self, address: Union[str, Address]) -> _Replica:
        (parsed,) = parse_worker_addresses([address])
        for replica in self._replicas_snapshot():
            if replica.address == parsed:
                return replica
        raise FleetMembershipError(
            f"no fleet member at {parsed[0]}:{parsed[1]}; members: "
            f"{[f'{h}:{p}' for h, p in (r.address for r in self._replicas_snapshot())]}"
        )

    def join(self, address: Union[str, Address]) -> dict:
        """Admit (or readmit) a worker into the running fleet.

        A new address is dialled, handshaken and pushed the current spec
        before it enters routing — a worker that cannot serve never
        joins.  A known address is readmitted: a drained replica returns
        to routing immediately, a dead one on its next reconnect.
        Returns the replica's :meth:`fleet_stats` entry.
        """
        self.prepare()
        (parsed,) = parse_worker_addresses([address])
        try:
            replica = self._find(parsed)
        except FleetMembershipError:
            replica = _Replica(parsed, self.io_timeout, origin="joined")
            header, arrays = self._spec_wire()
            replica.connect(header, arrays, self.connect_timeout)
            with self._fleet_lock:
                self._replicas.append(replica)
            self.joins += 1
            self._wake.set()
            return self._replica_info(replica)
        if not replica.admitted:
            replica.admitted = True
            self.readmits += 1
        if not replica.alive:
            replica.next_attempt = time.monotonic()
            self._wake.set()
        return self._replica_info(replica)

    def _drain_replica(self, replica: _Replica, timeout: float) -> None:
        """Exclude from routing, then wait out the in-flight shard.

        The link lock serialises exchanges, so once it is acquired here
        no recall can be in flight; any dispatch that raced the flag
        flip fails inside :meth:`_Replica.exchange` (admitted is checked
        under the same lock) and re-queues its shard elsewhere.
        """
        replica.admitted = False
        replica.draining = True
        try:
            acquired = replica.lock.acquire(timeout=timeout)
            if not acquired:
                raise TimeoutError(
                    f"replica {replica.address} still has a shard in flight "
                    f"after {timeout}s; it stays out of routing"
                )
        finally:
            if acquired:
                replica.lock.release()
            replica.draining = False

    def drain(
        self, address: Union[str, Address], timeout: float = 30.0
    ) -> dict:
        """Take one replica out of routing; returns once it is idle.

        The link stays connected and heartbeated (control traffic —
        SPEC pushes, canary recalls — still flows), so readmission via
        :meth:`join` is instant.  Returns the replica's stats entry.
        """
        self.prepare()
        replica = self._find(address)
        self._drain_replica(replica, timeout)
        self.drains += 1
        return self._replica_info(replica)

    # ------------------------------------------------------------------ #
    # Rolling re-spec
    # ------------------------------------------------------------------ #
    def _canary_expected(self, spec: EngineSpec) -> BatchRecognitionResult:
        engine = spec.build_engine(prepare=True)
        return spec.module.recognise_batch_seeded(
            self._canary_codes, self._canary_seeds, engine=engine
        )

    def _canary_matches(
        self, replica: _Replica, expected: BatchRecognitionResult
    ) -> bool:
        kind, header, arrays = replica.exchange(
            wire.RECALL,
            {"count": int(self._canary_codes.shape[0])},
            {"codes": self._canary_codes, "seeds": self._canary_seeds},
            control=True,
        )
        _expect(kind, header, wire.RESULT, "canary RECALL")
        result = wire.result_from_wire(arrays)
        discrete = (
            np.array_equal(result.winner_column, expected.winner_column)
            and np.array_equal(result.winner, expected.winner)
            and np.array_equal(result.dom_code, expected.dom_code)
            and np.array_equal(result.accepted, expected.accepted)
            and np.array_equal(result.tie, expected.tie)
            and np.array_equal(result.codes, expected.codes)
        )
        # Tolerant: the replica may run on another host's BLAS build.
        analog = np.allclose(
            result.column_currents,
            expected.column_currents,
            rtol=1e-9,
            atol=0.0,
        ) and np.allclose(
            result.static_power, expected.static_power, rtol=1e-9, atol=0.0
        )
        return discrete and analog

    def respec(
        self,
        module: Optional[AssociativeMemoryModule] = None,
        drain_timeout: float = 30.0,
    ) -> List[dict]:
        """Rolling spec update: drain → push → canary → readmit, per replica.

        ``module=None`` re-pushes the current module (the admin
        ``respec`` verb: re-synchronise the fleet, e.g. after in-process
        reprogramming), bit-invisible to results.  The roll never
        touches more than one replica at a time, so a fleet of two or
        more keeps serving throughout.  Returns one report entry per replica:
        ``{"address", "outcome"}`` with outcome ``updated`` (canary
        passed, readmitted), ``skipped-dead`` (will get the new spec on
        reconnect), ``lost`` (failed mid-push; ditto), or
        ``canary-mismatch`` (answered the canary wrongly — kept out of
        routing until an operator joins it back).
        """
        self.prepare()
        if module is None:
            module = self.module
        new_spec = EngineSpec.from_module(module)
        expected = self._canary_expected(new_spec)
        with self._fleet_lock:
            self.spec = new_spec
        self.module = module
        header, arrays = wire.spec_to_wire(new_spec)
        report: List[dict] = []
        for replica in self._replicas_snapshot():
            entry = {"address": f"{replica.address[0]}:{replica.address[1]}"}
            if not replica.alive:
                entry["outcome"] = "skipped-dead"
                report.append(entry)
                continue
            was_admitted = replica.admitted
            self._drain_replica(replica, drain_timeout)
            try:
                kind, reply_header, _ = replica.exchange(
                    wire.SPEC, header, arrays, control=True
                )
                _expect(kind, reply_header, wire.OK, "SPEC")
                if not self._canary_matches(replica, expected):
                    # Wrong answers are worse than no answers: keep the
                    # replica out of routing and drop the link so a human
                    # (or a reconnect + explicit join) has to bring it back.
                    replica.mark_dead()
                    entry["outcome"] = "canary-mismatch"
                    report.append(entry)
                    continue
            except ConnectionError:
                # Partitioned or died mid-push: the supervisor reconnects
                # with the new spec; restore the routing intent for then.
                replica.admitted = was_admitted
                entry["outcome"] = "lost"
                report.append(entry)
                self._wake.set()
                continue
            replica.admitted = was_admitted
            entry["outcome"] = "updated"
            report.append(entry)
        self.respecs += 1
        self.spec_version += 1
        return report

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _routable(self) -> List[_Replica]:
        return [
            replica
            for replica in self._replicas_snapshot()
            if replica.alive and replica.admitted
        ]

    def _weights(self, replicas: List[_Replica]) -> List[float]:
        """Routing weight per replica: measured rows/second, mean for new.

        A replica without a measurement yet (fresh joiner) gets the mean
        weight of the measured ones — it is neither flooded nor starved
        until its first shards establish an EWMA.
        """
        known = [
            1.0 / replica.ewma_row_seconds
            for replica in replicas
            if replica.ewma_row_seconds
        ]
        default = (sum(known) / len(known)) if known else 1.0
        return [
            (1.0 / replica.ewma_row_seconds)
            if replica.ewma_row_seconds
            else default
            for replica in replicas
        ]

    def _ordered_routable(self) -> Tuple[List[_Replica], List[float]]:
        routable = self._routable()
        weights = self._weights(routable)
        order = sorted(
            range(len(routable)),
            key=lambda index: (-weights[index], routable[index].address),
        )
        return (
            [routable[index] for index in order],
            [weights[index] for index in order],
        )

    def _dispatch_shards(
        self, count: int, command: Callable[[int, int], tuple], expected: int
    ) -> List[Dict[str, np.ndarray]]:
        """Shard ``[0, count)`` across routable replicas, retrying lost shards.

        ``command(begin, end)`` builds one shard's ``(kind, header,
        arrays)`` frame; every reply must be of kind ``expected``, and the
        reply arrays come back in shard order.  Each round sizes and
        assigns its shards from one :meth:`_ordered_routable` snapshot:
        the first round proportionally to replica speed (fastest replica,
        biggest shard); later rounds hand shards lost to a dying — or
        just-drained — replica to the survivors, and every loss pokes the
        supervisor so it starts reconnecting at once.  The retryable
        :class:`WorkerCrashedError` surfaces when no routable replica
        remains — or when a shard has burned its retry budget, so a
        crash-looping worker (reconnects fine, dies on every command)
        cannot spin a request forever.
        """
        self.prepare()
        ordered, weights = self._ordered_routable()
        if not ordered:
            # Give the supervisor one short window — a worker may be
            # mid-reconnect after a transient drop.
            self._wake.set()
            deadline = time.monotonic() + min(1.0, self.connect_timeout)
            while not ordered and time.monotonic() < deadline:
                time.sleep(0.02)
                ordered, weights = self._ordered_routable()
        if not ordered:
            raise WorkerCrashedError(
                f"no routable {self.name} replica remains at "
                f"{[r.address for r in self._replicas_snapshot()]}; the batch "
                "was not started and is safe to retry"
            )
        pending = weighted_shards(count, weights, self.min_shard_size)
        replies: Dict[int, Dict[str, np.ndarray]] = {}
        attempts: Dict[Tuple[int, int], int] = {}
        max_attempts = max(3, 2 * len(self._replicas_snapshot()))
        while pending:
            round_shards = pending[: len(ordered)]
            pending = pending[len(ordered):]
            outcomes = self._run_round(
                list(zip(ordered, round_shards)), command, expected
            )
            for bounds, outcome in zip(round_shards, outcomes):
                if not isinstance(outcome, BaseException):
                    replies[bounds[0]] = outcome
                elif isinstance(outcome, ConnectionError):
                    attempts[bounds] = attempts.get(bounds, 0) + 1
                    if attempts[bounds] >= max_attempts:
                        raise WorkerCrashedError(
                            f"shard {bounds} failed on {attempts[bounds]} "
                            "replicas in a row; giving up this request "
                            "(safe to retry)"
                        ) from outcome
                    pending.append(bounds)
                    self.retried_shards += 1
                    self._wake.set()
                else:
                    raise outcome
            if pending:
                ordered, _ = self._ordered_routable()
                if not ordered:
                    raise WorkerCrashedError(
                        f"every routable {self.name} replica was lost with "
                        "shards in flight; the request was not completed and "
                        "is safe to retry"
                    )
        return [replies[begin] for begin in sorted(replies)]

    def _run_round(
        self,
        assignments: List[Tuple[_Replica, Tuple[int, int]]],
        command: Callable[[int, int], tuple],
        expected: int,
    ) -> list:
        """Exchange one round's shards; returns each reply's arrays or error.

        The first shard runs on the caller's thread and only the rest get
        a thread each, so a single-shard batch starts no thread at all.
        """
        outcomes: list = [None] * len(assignments)

        def run(index: int) -> None:
            replica, (begin, end) = assignments[index]
            started = time.monotonic()
            try:
                kind, header, arrays = replica.exchange(*command(begin, end))
                _expect(kind, header, expected, f"{self.name} shard")
            except BaseException as error:  # noqa: BLE001 — sorted by caller
                outcomes[index] = error
            else:
                replica.observe(
                    end - begin, time.monotonic() - started, self.latency_alpha
                )
                outcomes[index] = arrays

        threads = [
            threading.Thread(target=run, args=(index,), daemon=True)
            for index in range(1, len(assignments))
        ]
        for thread in threads:
            thread.start()
        run(0)
        for thread in threads:
            thread.join()
        return outcomes

    # ------------------------------------------------------------------ #
    # RecallBackend surface
    # ------------------------------------------------------------------ #
    def recall_batch_seeded(
        self, codes_batch: np.ndarray, request_seeds: Sequence[int]
    ) -> BatchRecognitionResult:
        codes = np.asarray(codes_batch, dtype=np.int64)
        seeds = np.asarray(request_seeds, dtype=np.int64)
        rows = self.module.crossbar.rows
        if codes.ndim != 2 or codes.shape[1] != rows:
            raise ValueError(
                f"codes_batch must have shape (B, {rows}), got {codes.shape}"
            )
        if codes.shape[0] == 0:
            raise ValueError("codes_batch must not be empty")
        if seeds.shape != (codes.shape[0],):
            raise ValueError(
                f"request_seeds must have shape ({codes.shape[0]},), "
                f"got {seeds.shape}"
            )
        replies = self._dispatch_shards(
            codes.shape[0],
            lambda begin, end: (
                wire.RECALL,
                {"count": end - begin},
                {"codes": codes[begin:end], "seeds": seeds[begin:end]},
            ),
            wire.RESULT,
        )
        return concatenate_batch_results(
            [wire.result_from_wire(arrays) for arrays in replies]
        )

    def solve_batch(
        self, dac_conductances: np.ndarray, include_parasitics: bool = True
    ) -> BatchCrossbarSolution:
        dac = np.asarray(dac_conductances, dtype=float)
        rows = self.module.crossbar.rows
        if dac.ndim != 2 or dac.shape[1] != rows:
            raise ValueError(
                f"dac_conductances must have shape (B, {rows}), got {dac.shape}"
            )
        replies = self._dispatch_shards(
            dac.shape[0],
            lambda begin, end: (
                wire.SOLVE,
                {"include_parasitics": bool(include_parasitics)},
                {"dac": dac[begin:end]},
            ),
            wire.SOLUTION,
        )
        delta_v = self.module.solver.delta_v
        return concatenate_batch_solutions(
            [wire.solution_from_wire(arrays, delta_v) for arrays in replies]
        )

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _replica_info(self, replica: _Replica) -> dict:
        ewma = replica.ewma_row_seconds
        return {
            "address": f"{replica.address[0]}:{replica.address[1]}",
            "state": replica.state,
            "origin": replica.origin,
            "ewma_row_ms": None if ewma is None else round(ewma * 1e3, 6),
            "shards_served": replica.shards_served,
            "rows_served": replica.rows_served,
        }

    def fleet_stats(self) -> dict:
        """JSON snapshot of the replica set, health and control counters.

        Served by the ``STATUS`` control frame and, through
        :meth:`repro.serving.service.RecognitionService.stats`, as the
        ``fleet`` section of the HTTP ``/stats`` endpoint (schema in
        ``src/repro/serving/README.md``).
        """
        replicas = self._replicas_snapshot()
        routable = [r for r in replicas if r.alive and r.admitted]
        weights = dict(
            zip((id(r) for r in routable), self._weights(routable))
        )
        total = sum(weights.values()) or 1.0
        entries = []
        for replica in replicas:
            entry = self._replica_info(replica)
            weight = weights.get(id(replica))
            entry["weight"] = (
                None if weight is None else round(weight / total, 6)
            )
            entries.append(entry)
        control = self.control_address
        return {
            "replicas": entries,
            "routable": len(routable),
            "spec_version": self.spec_version,
            "control_address": (
                None if control is None else f"{control[0]}:{control[1]}"
            ),
            "counters": {
                "joins": self.joins,
                "readmits": self.readmits,
                "drains": self.drains,
                "respecs": self.respecs,
                "reconnects": self.reconnects,
                "retried_shards": self.retried_shards,
            },
        }

    def __del__(self):  # pragma: no cover - last-resort cleanup
        try:
            self.close()
        except Exception:
            pass


#: The transport knobs ``remote`` forwards; other options are ignored,
#: since the registry passes one option set to whichever backend was named.
_REMOTE_KNOBS = frozenset({
    "min_shard_size", "connect_timeout", "io_timeout",
    "heartbeat_interval", "backoff_base", "backoff_max",
})


class RemoteBackend(FleetSupervisor):
    """Registered as ``"remote"``: a fleet of adopted worker agents only —
    ``worker_addresses`` required, nothing spawned, no control socket.
    Forwards the knobs in ``_REMOTE_KNOBS``; ignores ``workers`` and the rest.
    """

    name = "remote"

    def __init__(self, module, workers: int = 1, worker_addresses=None, **options) -> None:
        if not parse_worker_addresses(worker_addresses):
            raise ValueError(
                "remote backend needs worker_addresses "
                "(e.g. worker_addresses='127.0.0.1:7070,127.0.0.1:7071' or "
                "--workers 127.0.0.1:7070,127.0.0.1:7071 on the CLI); start "
                "agents with `python -m repro worker --listen HOST:PORT`"
            )
        knobs = {key: options[key] for key in _REMOTE_KNOBS & options.keys()}
        super().__init__(module, worker_addresses=worker_addresses, **knobs)


# ---------------------------------------------------------------------- #
# Control socket
# ---------------------------------------------------------------------- #
class FleetControlServer(WorkerServer):
    """Serves the fleet admin verbs on a TCP control socket.

    A :class:`~repro.backends.remote.WorkerServer` with a different
    command table: the same framing, handshake (a torn or hostile frame
    is answered/dropped exactly like on a worker socket, never crashes
    the loop) and shutdown, mapping ``STATUS`` / ``JOIN`` / ``DRAIN`` /
    ``RESPEC`` frames onto the supervisor.  Lives inside the serving
    process; started by :meth:`FleetSupervisor.prepare` when a
    ``control`` address was configured.
    """

    role = "fleet-control"

    def __init__(
        self, supervisor: FleetSupervisor, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        super().__init__(host, port, backlog=8)
        self._supervisor = supervisor
        self.start()

    def _session(self) -> Command:
        return self._command

    def _command(self, kind, header, arrays):
        fleet = self._supervisor
        timeout = float(header.get("timeout", 30.0))
        if kind == wire.STATUS:
            reply = {"fleet": fleet.fleet_stats()}
        elif kind == wire.JOIN:
            reply = {"replica": fleet.join(header["address"])}
        elif kind == wire.DRAIN:
            reply = {"replica": fleet.drain(header["address"], timeout=timeout)}
        elif kind == wire.RESPEC:
            reply = {"replicas": fleet.respec(drain_timeout=timeout)}
        else:
            raise wire.WireProtocolError(f"unknown control frame kind {kind}")
        return wire.OK, reply, None


class FleetAdminClient:
    """Client side of the control socket (``python -m repro admin``).

    One persistent connection, one verb per call; every reply ``ERROR``
    frame resurfaces as the transported exception type, so a typo'd
    address raises ``ValueError`` here just as it would in-process.
    """

    def __init__(
        self,
        address: Union[str, Address],
        connect_timeout: float = 5.0,
        io_timeout: float = 60.0,
    ) -> None:
        self._sock = _dial(_parse_control(address), connect_timeout, io_timeout)

    def _command(self, kind: int, header: Optional[dict] = None) -> dict:
        wire.send_frame(self._sock, kind, header)
        reply_kind, _, reply_header, _ = wire.recv_frame(self._sock)
        _expect(reply_kind, reply_header, wire.OK, f"control verb {kind}")
        return reply_header

    def status(self) -> dict:
        """The supervisor's :meth:`FleetSupervisor.fleet_stats` snapshot."""
        return self._command(wire.STATUS)["fleet"]

    def join(self, worker_address: str) -> dict:
        """Admit (or readmit) ``host:port`` into the fleet."""
        return self._command(wire.JOIN, {"address": worker_address})["replica"]

    def drain(self, worker_address: str, timeout: float = 30.0) -> dict:
        """Take ``host:port`` out of routing once its in-flight shard ends."""
        return self._command(
            wire.DRAIN, {"address": worker_address, "timeout": timeout}
        )["replica"]

    def respec(self, timeout: float = 30.0) -> List[dict]:
        """Trigger a rolling re-push of the current spec across the fleet."""
        return self._command(wire.RESPEC, {"timeout": timeout})["replicas"]

    def close(self) -> None:
        try:
            wire.send_frame(self._sock, wire.BYE)
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "FleetAdminClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
