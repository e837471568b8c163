"""The worker-agent side of the remote transport.

The process pool escapes the GIL but not the machine.  This module moves
the same ``EngineSpec`` contract over TCP so recall can shard across
*hosts*:

* :class:`WorkerServer` — the worker agent (``python -m repro worker
  --listen HOST:PORT``).  Each accepted connection performs the versioned
  handshake, receives the pickle-free spec (configuration + programmed
  conductances, numpy buffers raw — see :mod:`repro.backends.wire`),
  rebuilds and pre-factorises a private
  :class:`~repro.crossbar.batched.BatchedCrossbarEngine`, and then serves
  ``RECALL`` / ``SOLVE`` / ``PING`` frames until the peer goes away.  A
  mismatched protocol version is answered with a clean ``ERROR`` frame
  and a close — never a hang.  The fleet's control socket
  (:class:`~repro.backends.fleet.FleetControlServer`) is the same server
  with a different command table.
* :func:`spawn_local_worker` — start an agent as a subprocess on this
  host and parse its ephemeral port back.
* :func:`parse_worker_addresses` — the ``"host:port,host:port"`` form
  every consumer accepts.

The client side — supervised links, shard dispatch and retry, the
``remote`` and ``fleet`` backends — lives in :mod:`repro.backends.fleet`.
Every worker holds a full replica, so any survivor can serve any shard
(the fractional-repetition view): worker loss degrades capacity, never
correctness.
"""

from __future__ import annotations

import select
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backends import wire
from repro.core.amm import AssociativeMemoryModule

Address = Tuple[str, int]

#: One connection's command handler: ``(kind, header, arrays)`` in, the
#: reply frame's ``(kind, header, arrays)`` out.  Raising sends the error
#: back as an ``ERROR`` frame and keeps the connection open.
Command = Callable[
    [int, dict, Dict[str, np.ndarray]],
    Tuple[int, Optional[dict], Optional[Dict[str, np.ndarray]]],
]


def parse_worker_addresses(
    addresses: Union[str, Sequence[Union[str, Address]], None]
) -> List[Address]:
    """Normalise a worker-address selection into ``[(host, port), ...]``.

    Accepts a comma-separated ``"host:port,host:port"`` string (the CLI
    form), a sequence of such strings, or a sequence of ``(host, port)``
    pairs.  Raises ``ValueError`` on anything unparseable so a typo'd
    ``--workers`` flag fails at construction, not first dispatch.
    """
    if addresses is None:
        return []
    if isinstance(addresses, str):
        addresses = [token for token in addresses.split(",") if token.strip()]
    parsed: List[Address] = []
    for entry in addresses:
        if isinstance(entry, str):
            host, separator, port_text = entry.strip().rpartition(":")
            if not separator or not host:
                raise ValueError(
                    f"worker address {entry!r} must look like 'host:port'"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"worker address {entry!r} has a non-integer port"
                ) from None
        else:
            host, port = entry
            port = int(port)
        if not 0 < port < 65536:
            raise ValueError(f"worker port {port} out of range (1-65535)")
        parsed.append((host, port))
    return parsed


# ---------------------------------------------------------------------- #
# Worker agent
# ---------------------------------------------------------------------- #
class WorkerServer:
    """A recall worker agent serving backend connections on one socket.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read it back
        from :attr:`address`).
    backlog:
        Listen backlog for concurrent backend connections; each accepted
        connection gets its own handler thread, engine replica and module
        rebuild, so connections share nothing.

    The accept loop, handshake, ``PING``/``BYE`` handling and shutdown
    are shared with every server speaking the wire framing; a subclass
    supplies only :meth:`_session`, its per-connection command table.
    """

    #: Names this server in handshake errors and thread names.
    role = "worker"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        self._listener = socket.create_server((host, port), backlog=backlog)
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._connections: List[socket.socket] = []
        self._conn_threads: List[threading.Thread] = []
        #: Recall/solve commands served since start (observability).
        self.commands_served = 0

    @property
    def address(self) -> Address:
        """The bound ``(host, port)`` — after an ephemeral ``port=0`` bind."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    def start(self) -> "WorkerServer":
        """Serve connections on a daemon thread; returns ``self``."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name=f"repro-{self.role}-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant used by the CLI entry point."""
        self.start()
        while not self._closed.wait(0.5):
            pass

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conn_lock:
                if self._closed.is_set():
                    conn.close()
                    return
                self._connections.append(conn)
                # Track handler threads so close() can join them —
                # otherwise a handler can outlive the server and leak
                # past the owner's close() (pinned by
                # tests/backends/test_thread_hygiene.py).  Finished
                # handlers are pruned here rather than on their own
                # thread so the list cannot grow without bound.
                self._conn_threads = [
                    thread for thread in self._conn_threads if thread.is_alive()
                ]
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(conn,),
                    name=f"repro-{self.role}-conn",
                    daemon=True,
                )
                self._conn_threads.append(thread)
            thread.start()

    def _session(self) -> Command:
        """One connection's command handler: the engine its ``SPEC`` built."""
        module: Optional[AssociativeMemoryModule] = None
        engine = None

        def command(kind, header, arrays):
            nonlocal module, engine
            if kind == wire.SPEC:
                spec = wire.spec_from_wire(header, arrays)
                module = spec.module
                engine = spec.build_engine(prepare=True)
                return wire.OK, {}, None
            if kind == wire.RECALL:
                if module is None:
                    raise RuntimeError("RECALL before SPEC on this link")
                result = module.recognise_batch_seeded(
                    np.array(arrays["codes"], dtype=np.int64),
                    np.array(arrays["seeds"], dtype=np.int64),
                    engine=engine,
                )
                self.commands_served += 1
                return wire.RESULT, None, wire.result_to_wire(result)
            if kind == wire.SOLVE:
                if engine is None:
                    raise RuntimeError("SOLVE before SPEC on this link")
                solution = engine.solve_batch(
                    np.array(arrays["dac"], dtype=np.float64),
                    include_parasitics=bool(header["include_parasitics"]),
                )
                self.commands_served += 1
                return wire.SOLUTION, None, wire.solution_to_wire(solution)
            raise wire.WireProtocolError(f"unknown frame kind {kind}")

        return command

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # A backend that vanishes without a FIN (host loss, cable
            # pull) must not pin this handler thread forever: let the
            # kernel's keepalive probes surface the dead peer as an EOF.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            kind, version, header, _ = wire.recv_frame(conn)
            if kind != wire.HELLO:
                wire.send_error(
                    conn,
                    wire.WireProtocolError(
                        f"expected HELLO as the first frame, got kind {kind}"
                    ),
                )
                return
            if version != wire.PROTOCOL_VERSION or (
                header.get("protocol") != wire.PROTOCOL_VERSION
            ):
                # The one place a version skew is *expected*: answer with
                # a clean, typed error so an old backend fails fast.
                wire.send_error(
                    conn,
                    wire.ProtocolVersionError(
                        f"{self.role} speaks protocol {wire.PROTOCOL_VERSION}, "
                        f"peer sent {header.get('protocol', version)}"
                    ),
                )
                return
            wire.send_frame(conn, wire.HELLO, {"protocol": wire.PROTOCOL_VERSION})
            command = self._session()
            while not self._closed.is_set():
                kind, _, header, arrays = wire.recv_frame(conn)
                if kind == wire.BYE:
                    return
                if kind == wire.PING:
                    wire.send_frame(conn, wire.PONG)
                    continue
                try:
                    wire.send_frame(conn, *command(kind, header, arrays))
                except (wire.ConnectionClosedError, BrokenPipeError, OSError):
                    raise
                except Exception as error:  # transport, never crash the loop
                    wire.send_error(conn, error)
        except (wire.ConnectionClosedError, ConnectionError, OSError):
            pass  # peer went away (or tore a frame); nothing to answer
        except wire.WireProtocolError as error:
            try:
                wire.send_error(conn, error)
            except OSError:
                pass
        finally:
            with self._conn_lock:
                if conn in self._connections:
                    self._connections.remove(conn)
            conn.close()

    def close(self) -> None:
        """Stop accepting, drop live connections and release the port."""
        if self._closed.is_set():
            return
        self._closed.set()
        # Closing a listener does not wake a thread blocked in accept()
        # on Linux; shutdown() does (and a dummy dial covers platforms
        # where shutdown of a listening socket is refused).
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            try:
                poke = socket.create_connection(self.address, timeout=0.5)
                poke.close()
            except OSError:
                pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._conn_lock:
            connections, self._connections = self._connections, []
            threads, self._conn_threads = self._conn_threads, []
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        # Handler threads see their socket die above and exit; joining
        # them keeps worker shutdown hygienic (no thread outlives close).
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def spawn_local_worker(
    host: str = "127.0.0.1", timeout: float = 30.0
) -> Tuple[subprocess.Popen, Address]:
    """Launch ``python -m repro worker`` as a subprocess on this host.

    Binds an ephemeral port and parses it back from the agent's startup
    line, so concurrent spawns never collide.  Returns the process handle
    (terminate it to simulate worker loss) and the listen address.  Used
    by the benchmarks, the CI kill-recovery smoke and the tests; real
    deployments start agents with the same command on each host.
    """
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", f"{host}:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        # Wait on the pipe with the remaining budget — a bare readline()
        # would block past the deadline if the agent wedges before its
        # startup print.
        readable, _, _ = select.select(
            [process.stdout], [], [], min(0.25, max(0.01, deadline - time.monotonic()))
        )
        if not readable:
            if process.poll() is not None:
                break
            continue
        line = process.stdout.readline()
        if "listening on" in line:
            address = line.rsplit(" ", 1)[-1].strip()
            return process, parse_worker_addresses(address)[0]
        if not line and process.poll() is not None:
            break
    process.terminate()
    raise RuntimeError(f"worker agent failed to start (last output: {line!r})")
