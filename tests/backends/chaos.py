"""Fault-injection TCP proxy for the remote-backend chaos tests.

:class:`ChaosProxy` sits between one replica link of a ``remote`` or
``fleet`` backend (:class:`~repro.backends.fleet.FleetSupervisor`) and a
real worker agent, forwarding bytes in both
directions while letting a test inject the failure modes distributed
systems actually see:

* ``refuse()`` / ``accept()`` — connection-level kill: new dials are
  rejected and (optionally) live pipes are cut, the shape of a crashed
  or restarting worker;
* ``partition()`` / ``heal()`` — a network partition: established
  connections stay open but no bytes flow, so only a timeout or a
  heartbeat can notice (TCP keeps the socket "connected");
* ``pause()`` / ``resume()`` — a *half-open* worker: new dials are
  SYN-accepted (the TCP connect succeeds immediately) but the
  connection is never bridged to the upstream, so the very first
  protocol byte — the HELLO reply — stalls.  This is the third
  distinct liveness shape next to refused (dial fails fast) and
  partitioned (an *established* pipe stalls): a dialler only finds out
  via its io timeout, after a successful connect.  ``resume()``
  bridges every stalled connection to the upstream, late but intact;
* ``delay(seconds)`` — a slow worker / congested path: every forwarded
  chunk is held for ``seconds`` first, distinguishing *slow* from
  *dead*;
* ``close_after(n)`` — cut the client→worker pipe after exactly ``n``
  forwarded bytes, which lands mid-frame for any interesting ``n`` and
  pins the backend's handling of torn writes.

The proxy binds an ephemeral port (never a hard-coded one — the suite's
port-collision rule) and is intentionally dependency-free: plain
sockets and threads, no asyncio, so it runs identically under pytest
and in CI smoke scripts.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Tuple


class ChaosProxy:
    """A controllable TCP forwarder between one client and one upstream.

    Parameters
    ----------
    upstream:
        ``(host, port)`` of the real worker agent.
    host:
        Listen interface for the proxied address (ephemeral port).
    """

    def __init__(self, upstream: Tuple[str, int], host: str = "127.0.0.1") -> None:
        self.upstream = upstream
        self._listener = socket.create_server((host, 0), backlog=8)
        self._lock = threading.Lock()
        self._refusing = False
        self._paused = False
        self._stalled: List[socket.socket] = []
        self._partitioned = threading.Event()
        self._partitioned.set()  # set = flowing, cleared = partitioned
        self._delay = 0.0
        self._cut_after: Optional[int] = None
        self._forwarded_to_upstream = 0
        self._pairs: List[Tuple[socket.socket, socket.socket]] = []
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        """The proxied ``(host, port)`` a backend should dial."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def bytes_to_upstream(self) -> int:
        """Bytes forwarded client→worker so far (for close_after maths)."""
        with self._lock:
            return self._forwarded_to_upstream

    # ------------------------------------------------------------------ #
    # Fault controls
    # ------------------------------------------------------------------ #
    def refuse(self, kill_existing: bool = True) -> None:
        """Reject new connections (and cut live ones): a dead worker."""
        with self._lock:
            self._refusing = True
        if kill_existing:
            self._drop_pairs()

    def accept(self) -> None:
        """Stop refusing: the worker is back."""
        with self._lock:
            self._refusing = False

    def pause(self) -> None:
        """Accept new dials but never bridge them: a half-open worker.

        The client's ``connect()`` succeeds (SYN-ACKed by the listener)
        yet no handshake byte ever arrives — the shape of a wedged or
        SYN-flooded host, distinct from ``refuse()`` (dial fails fast)
        and ``partition()`` (an already-established pipe stalls).
        """
        with self._lock:
            self._paused = True

    def resume(self) -> None:
        """Bridge every stalled connection and accept normally again."""
        with self._lock:
            self._paused = False
            stalled, self._stalled = self._stalled, []
        for client in stalled:
            self._bridge(client)

    def partition(self) -> None:
        """Stop forwarding in both directions while keeping sockets open."""
        self._partitioned.clear()

    def heal(self) -> None:
        """End the partition; buffered bytes resume flowing."""
        self._partitioned.set()

    def delay(self, seconds: float) -> None:
        """Hold every forwarded chunk for ``seconds`` (0 restores normal)."""
        with self._lock:
            self._delay = seconds

    def close_after(self, total_bytes: int) -> None:
        """Cut both pipes once ``total_bytes`` have gone client→worker.

        Counted from now (the running total is rebased), so tests can
        aim the cut at the middle of the *next* frame regardless of any
        handshake traffic already forwarded.
        """
        with self._lock:
            self._forwarded_to_upstream = 0
            self._cut_after = total_bytes

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                refusing = self._refusing or self._closed
                paused = self._paused
                if not refusing and paused:
                    # Half-open: the dial already succeeded (we accepted),
                    # but the connection is never bridged to the upstream
                    # until resume() — the peer's next read just stalls.
                    self._stalled.append(client)
                    continue
            if refusing:
                client.close()
                continue
            self._bridge(client)

    def _bridge(self, client: socket.socket) -> None:
        """Dial the upstream and start pumping both directions."""
        try:
            upstream = socket.create_connection(self.upstream, timeout=5.0)
        except OSError:
            client.close()
            return
        with self._lock:
            self._pairs.append((client, upstream))
        for source, sink, to_upstream in (
            (client, upstream, True),
            (upstream, client, False),
        ):
            threading.Thread(
                target=self._pump,
                args=(source, sink, to_upstream),
                name="chaos-proxy-pump",
                daemon=True,
            ).start()

    def _pump(self, source: socket.socket, sink: socket.socket, to_upstream: bool) -> None:
        try:
            while True:
                try:
                    chunk = source.recv(65536)
                except OSError:
                    break
                if not chunk:
                    break
                # Hold during a partition; the chunk is delivered (or the
                # socket torn down) when the test decides.
                while not self._partitioned.wait(timeout=0.05):
                    if self._closed:
                        return
                with self._lock:
                    delay = self._delay
                    cut = None
                    if to_upstream:
                        self._forwarded_to_upstream += len(chunk)
                        if (
                            self._cut_after is not None
                            and self._forwarded_to_upstream >= self._cut_after
                        ):
                            keep = len(chunk) - (
                                self._forwarded_to_upstream - self._cut_after
                            )
                            cut = max(0, keep)
                            self._cut_after = None
                if delay:
                    time.sleep(delay)
                if cut is not None:
                    try:
                        sink.sendall(chunk[:cut])
                    except OSError:
                        pass
                    self._drop_pair(source, sink)
                    return
                try:
                    sink.sendall(chunk)
                except OSError:
                    break
        finally:
            self._drop_pair(source, sink)

    def _drop_pair(self, a: socket.socket, b: socket.socket) -> None:
        for sock in (a, b):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        with self._lock:
            self._pairs = [
                pair for pair in self._pairs if a not in pair and b not in pair
            ]

    def _drop_pairs(self) -> None:
        with self._lock:
            pairs, self._pairs = self._pairs, []
        for a, b in pairs:
            for sock in (a, b):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._drop_pairs()
        with self._lock:
            stalled, self._stalled = self._stalled, []
        for client in stalled:
            client.close()
        self._partitioned.set()

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
