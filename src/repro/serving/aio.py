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
  frames (results as raw arrays, per-row errors in the header)
  terminated by one :data:`~repro.backends.wire.DONE` summary.  A
  request rejected whole becomes an ``ERROR`` frame carrying the
  HTTP-taxonomy ``status``/``reason`` and leaves the connection usable.

One row-serving policy
----------------------

Buffered JSON, NDJSON streaming and binary RECOGNISE run the same loop,
:func:`_row_outcomes`, and differ only in how they encode its output:

* the whole request is validated before any row is admitted, so a
  malformed row anywhere is a 400 (an ``ERROR`` frame on binary) before
  anything streams;
* rows go to the service in windows (:meth:`RecognitionService.stream_window`
  rows for a stream, every row at once for a buffered request, which
  keeps buffered admission all-or-nothing), and a row keeps its window
  slot until its outcome is emitted;
* outcomes are emitted in row order — NDJSON lines and ``ROWS`` frames
  alike — and a buffered answer takes its status from the first failed
  row;
* a denial before anything was admitted is a whole-request 429/503; a
  later one is retried while none of the request's rows is in flight,
  and a mid-request shutdown fails every unsubmitted row with its error;
* a spent wait budget fails every row not yet emitted with one timeout
  (504 ``deadline``), and any exit — normal end, error, disconnect,
  cancellation — cancels the request's queued rows.

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
import contextlib
import socket
import threading
from http.client import responses as _HTTP_REASONS
from typing import AsyncIterator, Dict, List, Optional, Tuple

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


async def _row_outcomes(
    service: RecognitionService,
    parsed: ParsedRecognise,
    wait: float,
    window: int,
) -> AsyncIterator[List[Tuple[int, object]]]:
    """The one windowed submission loop behind every ``/recognise`` answer.

    Validates the whole request before admitting any row, then keeps at
    most ``window`` rows in flight and yields ``[(index, outcome), ...]``
    batches in row order, an outcome being a
    :class:`~repro.core.amm.RecognitionResult` or the exception that
    resolved the row.  A row holds its window slot until it is yielded.
    A backpressure or quota denial is raised as a plain error when
    nothing has been admitted yet; later it is retried while none of
    this request's rows is in flight (until ``wait`` runs out).  After a
    mid-request shutdown, or a denial that outlived ``wait``, every
    unsubmitted row fails with that admission error; once ``wait`` is
    spent, every row not yet yielded fails with one timeout error.
    Closing the generator, on any exit path, abandons the rows still in
    flight: queued rows are cancelled, dispatched ones drained.
    """
    loop = asyncio.get_running_loop()
    codes, seeds = service.validate_request(
        parsed.codes, parsed.seeds, parsed.timeout_ms, parsed.priority, parsed.client_id
    )
    total = codes.shape[0]
    deadline = loop.time() + wait
    drain = _OutcomeDrain(loop)
    inflight: Dict[int, concurrent.futures.Future] = {}  # submitted, unresolved
    resolved: Dict[int, object] = {}  # resolved, waiting for earlier rows
    submitted = emitted = 0
    admission_error: Optional[BaseException] = None
    try:
        while emitted < total:
            while admission_error is None and submitted < min(emitted + window, total):
                try:
                    futures = service.submit_many(
                        codes[submitted : emitted + window],
                        seeds=seeds[submitted : emitted + window],
                        timeout_ms=parsed.timeout_ms,
                        priority=parsed.priority,
                        client_id=parsed.client_id,
                    )
                except (BackpressureError, QuotaExceededError, ServiceClosedError) as error:
                    if submitted == 0:
                        raise
                    if isinstance(error, ServiceClosedError):
                        admission_error = error  # permanent: no retry
                    elif submitted > emitted:
                        break  # our own rows free capacity as they resolve
                    elif loop.time() >= deadline:
                        admission_error = error
                    else:
                        delay = getattr(error, "retry_after", None) or 0.02
                        delay = min(delay, 0.25, deadline - loop.time())
                        await asyncio.sleep(max(delay, 1e-4))
                    continue
                for index, future in enumerate(futures, submitted):
                    inflight[index] = future
                    drain.watch(index, future)
                submitted += len(futures)
            if emitted == submitted:  # nothing in flight: admission gave out
                yield [(index, admission_error) for index in range(submitted, total)]
                return
            remaining = deadline - loop.time()
            batch = await drain.drained(remaining)
            if not batch and remaining <= 0:
                timeout = concurrent.futures.TimeoutError(
                    f"request not served within {wait} s"
                )
                yield [(index, timeout) for index in range(emitted, total)]
                return
            for index, outcome in batch:
                del inflight[index]
                resolved[index] = outcome
            ready = []
            while emitted in resolved:
                ready.append((emitted, resolved.pop(emitted)))
                emitted += 1
            if ready:
                yield ready
    finally:
        RecognitionService._abandon(inflight.values())


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
        """One JSON answer: the first failed row (in row order) or the
        spent wait budget becomes the whole request's status."""
        wait = protocol.wait_budget(
            parsed.timeout_ms, default=DEFAULT_REQUEST_TIMEOUT
        )
        results: List[dict] = []
        try:
            # One window of every row keeps buffered admission all-or-nothing.
            outcomes = _row_outcomes(
                self.service, parsed, wait, window=parsed.codes.shape[0]
            )
            async with contextlib.aclosing(outcomes):
                async for batch in outcomes:
                    for _index, outcome in batch:
                        if isinstance(outcome, BaseException):
                            raise outcome
                        results.append(result_to_json(outcome))
        except Exception as error:  # noqa: BLE001 — taxonomy in one place
            await self._respond_error(writer, error, close=close_after)
            return close_after
        body = {"count": len(results), "results": results}
        if parsed.single:
            body["result"] = results[0]
        await self._respond(writer, 200, body, close=close_after)
        return close_after

    async def _stream_recognise(
        self,
        parsed: ParsedRecognise,
        writer: asyncio.StreamWriter,
        close_after: bool,
    ) -> bool:
        """Chunked NDJSON: one line per row in row order, then a summary.

        The 200 head goes out with the first resolved rows, so a request
        rejected whole (malformed row, admission denied) still gets its
        clean status; an error after that ends the stream with an
        abnormal summary and closes the connection.
        """
        encoder = StreamLineEncoder(parsed.codes.shape[0])
        head = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            + (b"Connection: close\r\n" if close_after else b"")
            + b"\r\n"
        )
        try:
            outcomes = _row_outcomes(
                self.service,
                parsed,
                MAX_REQUEST_TIMEOUT,
                window=self.service.stream_window(),
            )
            async with contextlib.aclosing(outcomes):
                async for batch in outcomes:
                    lines = [encoder.line(index, outcome) for index, outcome in batch]
                    writer.write(head + b"".join(_chunk(line) for line in lines))
                    head = b""
                    await writer.drain()
            writer.write(head + _chunk(encoder.summary()) + _CHUNKED_END)
            await writer.drain()
            return close_after
        except OSError:
            return True  # client went away; its rows were abandoned
        except Exception as error:  # noqa: BLE001
            if head:
                await self._respond_error(writer, error, close=close_after)
                return close_after
            try:
                writer.write(_chunk(encoder.abnormal_summary(error)) + _CHUNKED_END)
                await writer.drain()
            except OSError:
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
        """Serve one RECOGNISE frame as ROWS frames (row order) and a DONE.

        Any error — malformed frame, admission denied, or a failure
        mid-answer — is one typed ERROR frame for the request, and the
        connection stays usable.  Returns False only when the transport
        failed mid-answer.
        """
        request_id = header.get("id")
        chunk = _RowChunk(request_id)
        try:
            parsed = _parse_binary_recognise(header, arrays, hello_client)
            outcomes = _row_outcomes(
                self.service,
                parsed,
                MAX_REQUEST_TIMEOUT,
                window=self.service.stream_window(),
            )
            async with contextlib.aclosing(outcomes):
                async for batch in outcomes:
                    for index, outcome in batch:
                        chunk.add(index, outcome)
                        # Amortised ROWS frames: live progress without
                        # per-row frames.
                        if chunk.rows >= _ROWS_FLUSH:
                            await _write_frame(writer, wire.ROWS, *chunk.flush())
                    if chunk.rows:
                        await _write_frame(writer, wire.ROWS, *chunk.flush())
            await _write_frame(
                writer,
                wire.DONE,
                header={
                    "id": request_id,
                    "count": parsed.codes.shape[0],
                    "ok": chunk.ok,
                    "failed": chunk.failed,
                },
            )
        except OSError:
            return False
        except Exception as error:  # noqa: BLE001 — taxonomy in one place
            await _write_error(writer, error, request_id=request_id)
        return True


#: Sentinel for a failed binary handshake (``None`` is a valid client id).
_REJECTED = object()

#: Resolved rows buffered per ROWS frame before a flush.
_ROWS_FLUSH = 256


class _RowChunk:
    """Accumulates resolved rows into one ROWS frame's header + arrays."""

    def __init__(self, request_id) -> None:
        self.request_id = request_id
        self.ok = self.failed = 0  # whole-answer tallies for the DONE frame
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

    def add(self, index: int, outcome) -> None:
        """Add one row: a result, or the error that resolved it."""
        self.rows += 1
        if isinstance(outcome, BaseException):
            self.errors.append(protocol.row_error_to_json(index, outcome))
            self.failed += 1
            return
        self.ok += 1
        self.indices.append(index)
        self.winner.append(outcome.winner)
        self.winner_column.append(outcome.winner_column)
        self.dom_code.append(outcome.dom_code)
        self.accepted.append(int(outcome.accepted))
        self.tie.append(int(outcome.tie))
        self.static_power.append(outcome.static_power)

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
    """Validate one RECOGNISE frame through the JSON request rules.

    Binary-only rules: ``codes`` must be a 2-D array and ``seeds``, when
    sent, is an int64 array rather than a header field; the header
    carries ``seed`` / ``timeout_ms`` / ``priority`` / ``client_id``, and
    the HELLO's ``client_id`` is the fallback.
    """
    codes = arrays.get("codes")
    if codes is None:
        raise ValueError("RECOGNISE frame requires a codes array")
    if codes.ndim != 2:
        raise ValueError(f"codes must be a 2-D batch, got shape {codes.shape}")
    payload = dict(header, codes=codes, seeds=arrays.get("seeds"), stream=True)
    return protocol.parse_recognise(payload, hello_client)


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
