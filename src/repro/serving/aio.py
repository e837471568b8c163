"""Asyncio front end: the network face of the recognition service.

A thread per connection would spend, at hundreds of keep-alive
connections, the throughput the batched engine worked for on scheduler
churn and per-connection stacks.  This module serves every connection
from a single event loop, plus a **native binary endpoint** on a second
port that reuses the :mod:`repro.backends.wire` framing so bulk clients
never pay JSON per row:

* **HTTP** — ``POST /recognise`` (buffered and ``"stream": true``
  chunked NDJSON), ``GET /healthz``, ``GET /stats``; HTTP/1.1 keep-alive
  with body-size (400), absent/transfer-encoded length (411) and
  slow-body (408) enforcement.  Optional body fields: ``"seed"`` /
  ``"seeds"``, ``"timeout_ms"`` (dispatch deadline — a request still
  queued when it expires is dropped and answered ``504``),
  ``"priority"`` (0–9, higher dispatches first and survives shedding),
  ``"client_id"`` (also the ``X-Client-Id`` header; names the caller
  for quotas) and ``"stream"``.  Rejections answer ``429`` (``"reason"``
  ``quota`` or ``backpressure``) or ``503`` with ``Retry-After``; all
  protocol decisions live in :mod:`repro.serving.protocol`.
* **Binary** — a :data:`~repro.backends.wire.HELLO` handshake (version
  mismatch answered with a typed ``ERROR`` frame, never a hang), then
  any number of :data:`~repro.backends.wire.RECOGNISE` request frames
  per connection.  A request carries raw little-endian ``codes`` /
  ``seeds`` arrays plus a JSON header (``timeout_ms`` / ``priority`` /
  ``client_id``); the server answers :data:`~repro.backends.wire.ROWS`
  frames (resolved rows in row order, results as raw arrays, per-row
  errors in the header) terminated by one
  :data:`~repro.backends.wire.DONE` summary.  Admission failures become
  an ``ERROR`` frame carrying the HTTP-taxonomy ``status``/``reason``
  and leave the connection usable.

Thread-bridge rule
------------------

The service resolves futures on its worker threads.  Every result
crosses into the loop via ``loop.call_soon_threadsafe`` from a future
done-callback (:class:`_OutcomeDrain`, which coalesces a whole batch of
resolutions into one loop wakeup) — **no thread-per-request, no
blocking ``.result()`` anywhere on the async path**.  A *cancelled*
service future (an abandoned row) is surfaced as an ordinary
``concurrent.futures.CancelledError`` *outcome*, never by cancelling
anything on the loop: asyncio cancellation means "this handler task is
being torn down" and must stay distinguishable from "this row was
cancelled", which is an ordinary per-row outcome (503 ``cancelled``).

:func:`start_async_server` runs the loop on a dedicated daemon thread
(the rest of the process stays synchronous); :func:`stop_async_server`
tears it down cleanly; ``python -m repro serve`` and ``loadtest`` run
on it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
from http.client import responses as _HTTP_REASONS
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends import wire
from repro.serving import protocol
from repro.serving.errors import (
    BackpressureError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.serving.protocol import (
    BODY_READ_TIMEOUT,
    DEFAULT_REQUEST_TIMEOUT,
    IDLE_CONNECTION_TIMEOUT,
    MAX_REQUEST_TIMEOUT,
    ParsedRecognise,
    SlowBodyError,
    StreamLineEncoder,
    classify_error,
    error_payload,
    result_to_json,
)
from repro.serving.quotas import validate_client_id
from repro.serving.service import RecognitionService

__all__ = [
    "AsyncRecognitionServer",
    "start_async_server",
    "stop_async_server",
]


# ---------------------------------------------------------------------- #
# Thread-world -> loop-world future bridge
# ---------------------------------------------------------------------- #
class _OutcomeDrain:
    """Coalesced bridge for many service futures at once.

    A per-row awaitable bridge costs one loop wakeup plus a
    ``shield``/``wait_for`` allocation per row — ~60 us/row of pure
    event-loop machinery, which at engine rates is the difference
    between the front end tracking the crossbar and trailing it.  Here
    every service future gets one cheap done-callback that appends ``(key, outcome)`` to a plain list under
    a lock and schedules **at most one** pending loop wakeup for the
    whole batch; the awaiting coroutine takes everything resolved so far
    in a single drain.  Exceptions are retrieved inside the callback, so
    abandoned rows never log "exception was never retrieved".

    ``drained`` may return an empty batch (a stale wakeup after a
    racing drain); callers keep their own deadline clock and simply loop.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self._loop = loop
        self._lock = threading.Lock()
        self._resolved: List[tuple] = []
        self._event = asyncio.Event()
        self._wake_scheduled = False

    def watch(self, key, cfut: concurrent.futures.Future) -> None:
        def copy(cf: concurrent.futures.Future, key=key) -> None:
            if cf.cancelled():
                outcome: object = concurrent.futures.CancelledError(
                    "request cancelled"
                )
            else:
                error = cf.exception()
                outcome = error if error is not None else cf.result()
            with self._lock:
                self._resolved.append((key, outcome))
                wake = not self._wake_scheduled
                self._wake_scheduled = True
            if wake:
                try:
                    self._loop.call_soon_threadsafe(self._event.set)
                except RuntimeError:  # pragma: no cover - shutdown race
                    pass

        cfut.add_done_callback(copy)

    async def drained(self, timeout: float) -> List[tuple]:
        """Outcomes resolved since the last drain; waits up to ``timeout``
        for at least one (empty list = timed out or stale wakeup)."""
        with self._lock:
            waiting = not self._resolved
        if waiting:
            try:
                await asyncio.wait_for(self._event.wait(), max(timeout, 0.0))
            except (asyncio.TimeoutError, TimeoutError):
                pass  # a racing callback may still have landed one
        with self._lock:
            batch = self._resolved
            self._resolved = []
            self._wake_scheduled = False
        self._event.clear()
        return batch


# ---------------------------------------------------------------------- #
# HTTP plumbing
# ---------------------------------------------------------------------- #
def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
    """Parse one request head; returns ``(method, path, headers)``.

    Header names are lower-cased; a malformed request line raises
    ``ValueError`` (answered 400 and the connection dropped — the byte
    stream is not trustworthy once framing is in doubt).
    """
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, path, headers


def _chunk(data: bytes) -> bytes:
    return f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n"


_CHUNKED_END = b"0\r\n\r\n"


class AsyncRecognitionServer:
    """Single-event-loop HTTP + binary front end for one service.

    Construct via :func:`start_async_server`.  The loop runs on its own
    daemon thread; every public attribute is safe to read from other
    threads once :meth:`start` returned (ports are bound and fixed).
    """

    def __init__(
        self,
        service: RecognitionService,
        host: str = "127.0.0.1",
        port: int = 0,
        binary_port: Optional[int] = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        #: ``None`` disables the binary endpoint entirely.
        self.binary_port = binary_port
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.serve_thread: Optional[threading.Thread] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._binary_server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        # Mutated only on the loop thread; /stats is served by that same
        # thread, so the counters need no lock.
        self._http_live = 0
        self._http_total = 0
        self._binary_live = 0
        self._binary_total = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "AsyncRecognitionServer":
        self.loop = asyncio.new_event_loop()
        self.serve_thread = threading.Thread(
            target=self._run_loop, name="recognition-aio", daemon=True
        )
        self.serve_thread.start()
        asyncio.run_coroutine_threadsafe(self._bind(), self.loop).result(30.0)
        return self

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()

    async def _bind(self) -> None:
        # Deep listen backlog (the kernel clamps it to somaxconn): a
        # burst of simultaneous connects must never hit SYN drops, which
        # retry on exponential backoff and read as multi-second stalls.
        self._http_server = await asyncio.start_server(
            self._accept(self._handle_http), self.host, self.port, backlog=1024
        )
        self.port = self._http_server.sockets[0].getsockname()[1]
        if self.binary_port is not None:
            self._binary_server = await asyncio.start_server(
                self._accept(self._handle_binary),
                self.host,
                self.binary_port,
                backlog=1024,
            )
            self.binary_port = self._binary_server.sockets[0].getsockname()[1]

    def _accept(self, handler):
        """The connection callback: runs ``handler`` in a task this server owns.

        Handing ``asyncio.start_server`` the coroutine function itself
        would let its stream protocol wrap each connection in a task
        whose done-callback, on Python 3.11, calls ``task.exception()``
        on the tasks :meth:`_shutdown` cancels — one logged traceback
        per open connection at every stop.
        """

        def accept(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            task = self.loop.create_task(handler(reader, writer))
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)

        return accept

    def stop(self, close_service: bool = True) -> None:
        if self.loop is not None and self.loop.is_running():
            asyncio.run_coroutine_threadsafe(self._shutdown(), self.loop).result(30.0)
            self.loop.call_soon_threadsafe(self.loop.stop)
        if self.serve_thread is not None:
            self.serve_thread.join(10.0)
        if close_service:
            self.service.close()

    async def _shutdown(self) -> None:
        for server in (self._http_server, self._binary_server):
            if server is not None:
                server.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for server in (self._http_server, self._binary_server):
            if server is not None:
                await server.wait_closed()

    def frontend_stats(self) -> dict:
        return {
            "kind": "async",
            "connections": self._http_live,
            "connections_total": self._http_total,
            "binary_connections": self._binary_live,
            "binary_connections_total": self._binary_total,
        }

    # ------------------------------------------------------------------ #
    # HTTP front end
    # ------------------------------------------------------------------ #
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._http_live += 1
        self._http_total += 1
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                try:
                    head = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), IDLE_CONNECTION_TIMEOUT
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    TimeoutError,
                    ConnectionResetError,
                ):
                    return  # clean close, silent client, or reset
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer,
                        431,
                        {"error": "request head too large", "reason": "invalid"},
                        close=True,
                    )
                    return
                try:
                    method, path, headers = _parse_head(head)
                except ValueError as error:
                    await self._respond(
                        writer,
                        400,
                        {"error": str(error), "reason": "invalid"},
                        close=True,
                    )
                    return
                close_after = headers.get("connection", "").lower() == "close"
                if await self._dispatch(
                    method, path, headers, reader, writer, close_after
                ):
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            return  # peer went away mid-exchange
        finally:
            self._http_live -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        headers: Tuple = (),
        close: bool = False,
    ) -> None:
        body = protocol.encode_json(payload)
        head = [
            f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, '')}".encode("latin-1"),
            b"Content-Type: application/json",
            f"Content-Length: {len(body)}".encode("ascii"),
        ]
        for name, value in headers:
            head.append(f"{name}: {value}".encode("latin-1"))
        if close:
            head.append(b"Connection: close")
        writer.write(b"\r\n".join(head) + b"\r\n\r\n" + body)
        await writer.drain()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, error: BaseException, close: bool = False
    ) -> None:
        status, payload, headers = error_payload(error)
        await self._respond(writer, status, payload, headers=headers, close=close)

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        """Serve one request; returns True when the connection must close."""
        if method == "GET":
            if path == "/healthz":
                await self._respond(
                    writer, 200, self.service.health(), close=close_after
                )
            elif path == "/stats":
                stats = self.service.stats()
                stats["frontend"] = self.frontend_stats()
                await self._respond(writer, 200, stats, close=close_after)
            else:
                await self._respond(
                    writer,
                    404,
                    {"error": f"unknown path {path}"},
                    close=close_after,
                )
            return close_after
        if method != "POST":
            await self._respond(
                writer,
                501,
                {"error": f"unsupported method {method}"},
                close=True,
            )
            return True
        if path != "/recognise":
            # The declared body (if any) is unread; keep-alive would
            # desynchronise, so close — same rule as body rejections.
            await self._respond(
                writer, 404, {"error": f"unknown path {path}"}, close=True
            )
            return True
        return await self._post_recognise(headers, reader, writer, close_after)

    async def _post_recognise(
        self,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        try:
            length = protocol.validate_body_length(
                headers.get("content-length"), headers.get("transfer-encoding")
            )
        except ValueError as error:
            # Body bytes may be in flight that will never be read.
            await self._respond_error(writer, error, close=True)
            return True
        try:
            raw = await asyncio.wait_for(
                reader.readexactly(length), BODY_READ_TIMEOUT
            )
        except (asyncio.TimeoutError, TimeoutError):
            error = SlowBodyError(
                f"request body ({length} bytes) not received within "
                f"{BODY_READ_TIMEOUT} s"
            )
            await self._respond_error(writer, error, close=True)
            return True
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return True  # client gave up mid-upload
        try:
            parsed = protocol.parse_recognise(
                protocol.decode_json_body(raw), headers.get("x-client-id")
            )
        except Exception as error:  # noqa: BLE001 — taxonomy in one place
            await self._respond_error(writer, error, close=close_after)
            return close_after
        if parsed.stream:
            return await self._stream_recognise(parsed, writer, close_after)
        return await self._buffered_recognise(parsed, writer, close_after)

    async def _buffered_recognise(
        self,
        parsed: ParsedRecognise,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        loop = self.loop
        wait = protocol.wait_budget(
            parsed.timeout_ms, default=DEFAULT_REQUEST_TIMEOUT
        )
        try:
            futures = self.service.submit_many(
                parsed.codes,
                seeds=parsed.seeds,
                timeout_ms=parsed.timeout_ms,
                priority=parsed.priority,
                client_id=parsed.client_id,
            )
        except Exception as error:  # noqa: BLE001 — admission/validation
            await self._respond_error(writer, error, close=close_after)
            return close_after
        total = len(futures)
        drain = _OutcomeDrain(loop)
        for index, cfut in enumerate(futures):
            drain.watch(index, cfut)
        deadline = loop.time() + wait
        outcomes: Dict[int, object] = {}
        results: List[object] = []
        # Scanned in row order (not arrival order) so a multi-row failure
        # reports the lowest failed row, exactly like the service's
        # sequential ``recognise_many`` gather; the moment that row fails,
        # the unresolved tail is abandoned without waiting for it.
        next_scan = 0
        try:
            while next_scan < total:
                remaining = deadline - loop.time()
                batch = await drain.drained(remaining)
                for key, outcome in batch:
                    outcomes[key] = outcome
                while next_scan < total and next_scan in outcomes:
                    outcome = outcomes.pop(next_scan)
                    if isinstance(outcome, BaseException):
                        RecognitionService._abandon(futures)
                        await self._respond_error(
                            writer, outcome, close=close_after
                        )
                        return close_after
                    results.append(outcome)
                    next_scan += 1
                if next_scan < total and not batch and remaining <= 0:
                    RecognitionService._abandon(futures)
                    await self._respond(
                        writer,
                        504,
                        {
                            "error": f"request not served within {wait} s",
                            "reason": "deadline",
                        },
                        close=close_after,
                    )
                    return close_after
        except asyncio.CancelledError:
            RecognitionService._abandon(futures)
            raise
        body = {
            "count": len(results),
            "results": [result_to_json(result) for result in results],
        }
        if parsed.single:
            body["result"] = body["results"][0]
        await self._respond(writer, 200, body, close=close_after)
        return close_after

    async def _stream_recognise(
        self,
        parsed: ParsedRecognise,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        """Chunked-NDJSON streaming on the loop.

        Re-implements the windowed submission policy of
        :meth:`RecognitionService.recognise_stream` (which is a blocking
        generator) with awaits in place of blocking waits; the window
        size, retry policy, mass-fail tail and abandonment semantics are
        kept identical, so the stream carries the outcomes the in-process
        generator yields.
        """
        service = self.service
        loop = self.loop
        total = parsed.codes.shape[0]
        window = service.stream_window()
        deadline = loop.time() + MAX_REQUEST_TIMEOUT
        drain = _OutcomeDrain(loop)
        watched: Dict[int, concurrent.futures.Future] = {}  # unresolved rows
        outcomes: Dict[int, object] = {}  # resolved, not yet emitted
        next_row = 0  # rows submitted so far
        next_emit = 0  # in-order NDJSON emission pointer
        admission_error: Optional[BaseException] = None
        encoder = StreamLineEncoder(total)
        committed = False

        def abandon_inflight() -> None:
            RecognitionService._abandon(watched.values())
            watched.clear()

        async def write_lines(lines: List[bytes]) -> None:
            writer.write(b"".join(_chunk(line) for line in lines))
            await writer.drain()

        def take(batch: List[tuple]) -> List[bytes]:
            """Fold a drained batch in, return the emittable prefix."""
            nonlocal next_emit
            for key, outcome in batch:
                outcomes[key] = outcome
                watched.pop(key, None)
            lines: List[bytes] = []
            while next_emit in outcomes:
                lines.append(encoder.line(next_emit, outcomes.pop(next_emit)))
                next_emit += 1
            return lines

        try:
            while next_emit < total:
                # Window accounting: a row occupies its slot from
                # submission until its line is on the wire (emission is
                # in-order, so resolved-but-blocked rows still count).
                while (
                    admission_error is None
                    and next_row < total
                    and next_row - next_emit < window
                ):
                    end = min(next_row + (window - (next_row - next_emit)), total)
                    try:
                        futures = service.submit_many(
                            parsed.codes[next_row:end],
                            seeds=list(parsed.seeds[next_row:end]),
                            timeout_ms=parsed.timeout_ms,
                            priority=parsed.priority,
                            client_id=parsed.client_id,
                        )
                    except ServiceClosedError as error:
                        if next_row == 0:
                            raise  # nothing streamed yet: clean 503
                        admission_error = error  # permanent: no retry
                        break
                    except (BackpressureError, QuotaExceededError) as error:
                        if next_row == 0:
                            raise  # nothing streamed yet: clean rejection
                        if next_row > next_emit:
                            break  # drain our own rows, then retry
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            admission_error = error
                            break
                        delay = getattr(error, "retry_after", None) or 0.02
                        delay = min(delay, 0.25, remaining)
                        await asyncio.sleep(max(delay, 1e-4))
                        continue
                    for offset, cfut in enumerate(futures):
                        watched[next_row + offset] = cfut
                        drain.watch(next_row + offset, cfut)
                    next_row = end
                if not committed:
                    committed = True
                    head = (
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/x-ndjson\r\n"
                        b"Transfer-Encoding: chunked\r\n"
                    )
                    if close_after:
                        head += b"Connection: close\r\n"
                    writer.write(head + b"\r\n")
                    await writer.drain()
                if next_emit >= next_row:
                    break  # done, or admission gave out with nothing queued
                remaining = deadline - loop.time()
                batch = await drain.drained(remaining)
                lines = take(batch)
                if lines:
                    await write_lines(lines)
                elif not batch and remaining <= 0:
                    # The whole-stream budget is spent: everything left
                    # fails with the same timeout, queued rows cancelled.
                    timeout_error = concurrent.futures.TimeoutError(
                        f"stream not served within {MAX_REQUEST_TIMEOUT} s"
                    )
                    abandon_inflight()
                    await write_lines(
                        [
                            encoder.line(index, timeout_error)
                            for index in range(next_emit, total)
                        ]
                    )
                    next_emit = next_row = total
                    break
            if not committed:
                # Zero-row stream: still a well-formed 200 + summary.
                committed = True
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/x-ndjson\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n"
                )
            if admission_error is not None and next_row < total:
                await write_lines(
                    [
                        encoder.line(unsubmitted, admission_error)
                        for unsubmitted in range(next_row, total)
                    ]
                )
            writer.write(_chunk(encoder.summary()) + _CHUNKED_END)
            await writer.drain()
            return close_after
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Client went away mid-stream: nothing keeps computing for an
            # audience that left (queued rows cancelled, quota released).
            abandon_inflight()
            return True
        except asyncio.CancelledError:
            abandon_inflight()
            raise
        except Exception as error:  # noqa: BLE001
            abandon_inflight()
            if not committed:
                # Admission/validation failed before the 200 was on the
                # wire: the caller still gets its clean status.
                await self._respond_error(writer, error, close=close_after)
                return close_after
            try:
                writer.write(_chunk(encoder.abnormal_summary(error)) + _CHUNKED_END)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            return True

    # ------------------------------------------------------------------ #
    # Binary front end
    # ------------------------------------------------------------------ #
    async def _handle_binary(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._binary_live += 1
        self._binary_total += 1
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            hello_client = await self._binary_handshake(reader, writer)
            if hello_client is _REJECTED:
                return
            while True:
                try:
                    kind, version, header, arrays = await asyncio.wait_for(
                        _read_frame(reader), IDLE_CONNECTION_TIMEOUT
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    TimeoutError,
                    ConnectionResetError,
                ):
                    return
                except wire.WireProtocolError as error:
                    await _write_error(writer, error)
                    return
                if kind == wire.BYE:
                    return
                if kind == wire.PING:
                    await _write_frame(writer, wire.PONG, header={})
                    continue
                if kind != wire.RECOGNISE:
                    await _write_error(
                        writer,
                        wire.WireProtocolError(
                            f"unexpected frame kind {kind} after handshake"
                        ),
                    )
                    return
                if not await self._binary_recognise(
                    header, arrays, hello_client, writer
                ):
                    return
        except (ConnectionResetError, BrokenPipeError, OSError):
            return
        finally:
            self._binary_live -= 1
            writer.close()
            try:
                await writer.wait_closed()
            except (Exception, asyncio.CancelledError):
                pass

    async def _binary_handshake(self, reader, writer):
        """HELLO/HELLO exchange; returns the client id or ``_REJECTED``.

        Every rejection is a *typed* ``ERROR`` frame before close — a
        mismatched or confused peer must get a diagnosable answer, never
        a hang or a bare reset.
        """
        try:
            kind, version, header, _arrays = await asyncio.wait_for(
                _read_frame(reader), IDLE_CONNECTION_TIMEOUT
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionResetError,
        ):
            return _REJECTED
        except wire.WireProtocolError as error:
            await _write_error(writer, error)
            return _REJECTED
        if kind != wire.HELLO:
            await _write_error(
                writer,
                wire.WireProtocolError(
                    f"expected HELLO as the first frame, got kind {kind}"
                ),
            )
            return _REJECTED
        if version != wire.PROTOCOL_VERSION or (
            header.get("protocol") != wire.PROTOCOL_VERSION
        ):
            await _write_error(
                writer,
                wire.ProtocolVersionError(
                    f"peer speaks protocol {header.get('protocol', version)!r}, "
                    f"server speaks {wire.PROTOCOL_VERSION}"
                ),
            )
            return _REJECTED
        await _write_frame(
            writer,
            wire.HELLO,
            header={"protocol": wire.PROTOCOL_VERSION, "role": "serving"},
        )
        return header.get("client_id")

    async def _binary_recognise(
        self,
        header: dict,
        arrays: Dict[str, np.ndarray],
        hello_client: Optional[str],
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one RECOGNISE frame; returns False when the connection
        is no longer usable (transport failure mid-answer)."""
        service = self.service
        loop = self.loop
        request_id = header.get("id")
        try:
            parsed = _parse_binary_recognise(header, arrays, hello_client)
        except Exception as error:  # noqa: BLE001 — malformed request
            await _write_error(writer, error, request_id=request_id)
            return True  # frame fully consumed; connection stays usable
        total = parsed.codes.shape[0]
        window = service.stream_window()
        # ``timeout_ms`` is a per-row dispatch deadline, exactly as on
        # the HTTP stream path; the whole answer gets the hard ceiling.
        deadline = loop.time() + MAX_REQUEST_TIMEOUT
        drain = _OutcomeDrain(loop)
        watched: Dict[int, concurrent.futures.Future] = {}  # unresolved rows
        next_row = 0  # rows submitted so far
        resolved = 0  # rows whose outcome has landed in a chunk
        admission_error: Optional[BaseException] = None
        ok = failed = 0
        committed = False
        chunk = _RowChunk(request_id)

        def abandon_inflight() -> None:
            RecognitionService._abandon(watched.values())
            watched.clear()

        try:
            while resolved < total:
                # ROWS frames carry explicit row indices, so (unlike the
                # NDJSON stream) rows ship in arrival order and a window
                # slot frees the moment its row resolves.
                while (
                    admission_error is None
                    and next_row < total
                    and next_row - resolved < window
                ):
                    end = min(next_row + (window - (next_row - resolved)), total)
                    try:
                        futures = service.submit_many(
                            parsed.codes[next_row:end],
                            seeds=list(parsed.seeds[next_row:end]),
                            timeout_ms=parsed.timeout_ms,
                            priority=parsed.priority,
                            client_id=parsed.client_id,
                        )
                    except ServiceClosedError as error:
                        if next_row == 0 and not committed:
                            await _write_error(
                                writer, error, request_id=request_id
                            )
                            return True
                        admission_error = error
                        break
                    except (BackpressureError, QuotaExceededError) as error:
                        if next_row == 0 and not committed:
                            await _write_error(
                                writer, error, request_id=request_id
                            )
                            return True
                        if next_row > resolved:
                            break
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            admission_error = error
                            break
                        delay = getattr(error, "retry_after", None) or 0.02
                        delay = min(delay, 0.25, remaining)
                        await asyncio.sleep(max(delay, 1e-4))
                        continue
                    except Exception as error:  # noqa: BLE001 — validation
                        if next_row == 0 and not committed:
                            await _write_error(
                                writer, error, request_id=request_id
                            )
                            return True
                        admission_error = error
                        break
                    for offset, cfut in enumerate(futures):
                        watched[next_row + offset] = cfut
                        drain.watch(next_row + offset, cfut)
                    next_row = end
                if resolved >= next_row:
                    break  # done, or admission gave out with nothing queued
                committed = True
                remaining = deadline - loop.time()
                batch = await drain.drained(remaining)
                if not batch and remaining <= 0:
                    timeout_error = concurrent.futures.TimeoutError(
                        "request not served within its wait budget"
                    )
                    stale = sorted(watched)
                    abandon_inflight()
                    for stale_index in stale:
                        chunk.add_error(stale_index, timeout_error)
                        failed += 1
                    for unsubmitted in range(next_row, total):
                        chunk.add_error(unsubmitted, timeout_error)
                        failed += 1
                    resolved = next_row = total
                    break
                for index, outcome in batch:
                    watched.pop(index, None)
                    resolved += 1
                    if isinstance(outcome, BaseException):
                        chunk.add_error(index, outcome)
                        failed += 1
                    else:
                        chunk.add_result(index, outcome)
                        ok += 1
                    # Flush greedily: resolved rows go out in amortised
                    # ROWS frames — live progress without per-row frames.
                    if chunk.rows >= _ROWS_FLUSH:
                        await _write_frame(writer, wire.ROWS, *chunk.flush())
                if chunk.rows and resolved >= next_row:
                    await _write_frame(writer, wire.ROWS, *chunk.flush())
            if admission_error is not None:
                for unsubmitted in range(next_row, total):
                    chunk.add_error(unsubmitted, admission_error)
                    failed += 1
            if chunk.rows:
                await _write_frame(writer, wire.ROWS, *chunk.flush())
            await _write_frame(
                writer,
                wire.DONE,
                header={
                    "id": request_id,
                    "count": total,
                    "ok": ok,
                    "failed": failed,
                },
            )
            return True
        except (ConnectionResetError, BrokenPipeError, OSError):
            abandon_inflight()
            return False
        except asyncio.CancelledError:
            abandon_inflight()
            raise


#: Sentinel for a failed binary handshake (``None`` is a valid client id).
_REJECTED = object()

#: Resolved rows buffered per ROWS frame before a flush.
_ROWS_FLUSH = 256


class _RowChunk:
    """Accumulates resolved rows into one ROWS frame's header + arrays."""

    def __init__(self, request_id) -> None:
        self.request_id = request_id
        self.reset()

    def reset(self) -> None:
        self.indices: List[int] = []
        self.winner: List[int] = []
        self.winner_column: List[int] = []
        self.dom_code: List[int] = []
        self.accepted: List[int] = []
        self.tie: List[int] = []
        self.static_power: List[float] = []
        self.errors: List[dict] = []
        self.rows = 0

    def add_result(self, index: int, result) -> None:
        self.indices.append(index)
        self.winner.append(result.winner)
        self.winner_column.append(result.winner_column)
        self.dom_code.append(result.dom_code)
        self.accepted.append(int(result.accepted))
        self.tie.append(int(result.tie))
        self.static_power.append(result.static_power)
        self.rows += 1

    def add_error(self, index: int, error: BaseException) -> None:
        self.errors.append(protocol.row_error_to_json(index, error))
        self.rows += 1

    def flush(self) -> Tuple[dict, Dict[str, np.ndarray]]:
        # int32 on the wire: row indices, class winners, crossbar columns
        # and 5-bit dominant codes all fit with room to spare, and the
        # wire exists to be smaller than JSON — int64 would double the
        # result payload for no information.
        header = {"id": self.request_id, "errors": self.errors}
        arrays = {
            "index": np.asarray(self.indices, dtype=np.int32),
            "winner": np.asarray(self.winner, dtype=np.int32),
            "winner_column": np.asarray(self.winner_column, dtype=np.int32),
            "dom_code": np.asarray(self.dom_code, dtype=np.int32),
            "accepted": np.asarray(self.accepted, dtype=np.uint8),
            "tie": np.asarray(self.tie, dtype=np.uint8),
            "static_power_w": np.asarray(self.static_power, dtype=np.float64),
        }
        self.reset()
        return header, arrays


def _parse_binary_recognise(
    header: dict, arrays: Dict[str, np.ndarray], hello_client: Optional[str]
) -> ParsedRecognise:
    """Validate one RECOGNISE frame into the shared request shape.

    The JSON path's field semantics apply verbatim: the frame header's
    ``client_id`` is authoritative with the HELLO's as fallback,
    ``seeds`` (an int64 array) must match the batch, and a scalar
    ``seed`` broadcasts.
    """
    codes = arrays.get("codes")
    if codes is None:
        raise ValueError("RECOGNISE frame requires a codes array")
    if codes.ndim != 2:
        raise ValueError(f"codes must be a 2-D batch, got shape {codes.shape}")
    codes = protocol.integral_array("codes", codes)
    seeds_array = arrays.get("seeds")
    if seeds_array is not None:
        seeds = [int(seed) for seed in protocol.integral_array("seeds", seeds_array)]
        if len(seeds) != codes.shape[0]:
            raise ValueError(
                f"seeds must have length {codes.shape[0]}, got {len(seeds)}"
            )
    else:
        seed = protocol.integral_scalar("seed", header.get("seed", 0))
        seeds = [seed] * codes.shape[0]
    timeout_ms = header.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = float(timeout_ms)
    priority = header.get("priority")
    priority = 0 if priority is None else protocol.integral_scalar(
        "priority", priority
    )
    client_id = header.get("client_id")
    if client_id is None:
        client_id = hello_client
    client_id = validate_client_id(client_id)
    return ParsedRecognise(
        codes=codes,
        seeds=seeds,
        single=False,
        stream=True,
        timeout_ms=timeout_ms,
        priority=priority,
        client_id=client_id,
    )


# ---------------------------------------------------------------------- #
# Async wire-frame I/O (same codec as the socket path)
# ---------------------------------------------------------------------- #
async def _read_frame(reader: asyncio.StreamReader):
    prefix = await reader.readexactly(wire.PREFIX_SIZE)
    kind, version, header_len, arrays_len = wire.unpack_prefix(prefix)
    header = wire.decode_header(await reader.readexactly(header_len))
    arrays = wire.decode_arrays(header, await reader.readexactly(arrays_len))
    return kind, version, header, arrays


async def _write_frame(
    writer: asyncio.StreamWriter,
    kind: int,
    header: Optional[dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    for part in wire.encode_frame(kind, header, arrays):
        writer.write(part if isinstance(part, bytes) else memoryview(part).cast("B"))
    await writer.drain()


async def _write_error(
    writer: asyncio.StreamWriter, error: BaseException, request_id=None
) -> None:
    """Transport an exception as a typed ERROR frame (HTTP taxonomy added)."""
    status, reason = classify_error(error)
    header = {
        "type": type(error).__name__,
        "message": str(error),
        "status": status,
        "reason": reason,
    }
    if request_id is not None:
        header["id"] = request_id
    await _write_frame(writer, wire.ERROR, header=header)


# ---------------------------------------------------------------------- #
# Lifecycle helpers
# ---------------------------------------------------------------------- #
def start_async_server(
    service: RecognitionService,
    host: str = "127.0.0.1",
    port: int = 0,
    binary_port: Optional[int] = 0,
) -> AsyncRecognitionServer:
    """Boot the asyncio front end on a background thread; returns it.

    ``port=0`` / ``binary_port=0`` bind ephemeral free ports (read them
    back from ``server.port`` / ``server.binary_port``);
    ``binary_port=None`` disables the binary endpoint.  The loop thread
    is a daemon; call :func:`stop_async_server` for a clean shutdown.
    """
    return AsyncRecognitionServer(
        service, host=host, port=port, binary_port=binary_port
    ).start()


def stop_async_server(
    server: AsyncRecognitionServer, close_service: bool = True
) -> None:
    """Stop both listeners, cancel live connections, join the loop thread."""
    server.stop(close_service=close_service)
