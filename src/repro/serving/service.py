"""Micro-batching front end of the recognition service.

:class:`RecognitionService` accepts *single* recall requests from many
concurrent callers and turns them into efficient work for the batched
recall engine:

1. ``submit()`` validates the request in the caller's thread, checks the
   caller's per-client quota (when configured) and places the request on
   a bounded, priority-ordered queue — when the queue is full the caller
   gets an immediate :class:`BackpressureError` instead of unbounded
   buffering, unless enough *lower*-priority requests are queued, in
   which case those are shed (their futures fail with
   :class:`BackpressureError`) to admit the higher-priority arrival;
2. a micro-batcher thread coalesces queued requests into batches of up to
   ``max_batch_size``, draining strictly highest-priority-first (FIFO
   within a priority) and waiting at most ``max_wait`` seconds after the
   first request of a batch arrives (the classic latency/throughput
   window knob);
3. the batch goes to the :class:`~repro.serving.workers.ShardedWorkerPool`,
   whose workers solve it through their pre-factorised crossbar engines
   and resolve each caller's future with its own
   :class:`~repro.core.amm.RecognitionResult` slice.

Very large multi-image requests are streamed by the asyncio front end
(:mod:`repro.serving.aio`), which submits their rows through
:meth:`RecognitionService.submit_many` in windows of
:meth:`RecognitionService.stream_window` rows, so a 1000-image request
is served incrementally with flat server-side memory.

Every request carries a seed for its private random substream (see
:meth:`~repro.core.amm.AssociativeMemoryModule.recognise_batch_seeded`),
so a request's result is identical no matter when it arrives, what its
priority is, how the micro-batcher groups it, or how many workers the
pool runs — priorities and quotas reorder and shed *work*, never change
*answers*.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import threading
import time
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.amm import AssociativeMemoryModule, RecognitionResult
from repro.serving.errors import (
    BackpressureError,
    # Explicit re-export: callers historically import the deadline error
    # from the service module (see tests/serving/test_workers.py).
    DeadlineExceededError as DeadlineExceededError,
    QuotaExceededError,
    ServiceClosedError,
)
from repro.serving.metrics import ServiceMetrics
from repro.serving.quotas import (
    ANONYMOUS_CLIENT,
    ClientQuotas,
    QuotaConfig,
    validate_client_id,
)
from repro.serving.workers import PendingRequest, ShardedWorkerPool
from repro.utils.validation import check_integer

#: Admission-priority range: higher dispatches (and survives shedding)
#: first.  The default priority is the floor, so plain traffic is the
#: first to be shed under pressure.
MIN_PRIORITY = 0
MAX_PRIORITY = 9
DEFAULT_PRIORITY = MIN_PRIORITY


def _consume_outcome(future: concurrent.futures.Future) -> None:
    """Done-callback that retrieves (and discards) a future's outcome."""
    if not future.cancelled():
        future.exception()


class _PriorityPending:
    """The service's pending queue: FIFO per priority, drained high-first.

    Also supports shedding — evicting queued low-priority requests
    (newest first, lowest priority first) to admit a higher-priority
    arrival when the queue is full.
    """

    def __init__(self) -> None:
        self._levels: Dict[int, deque] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def extend(self, batch: Iterable[PendingRequest]) -> None:
        for pending in batch:
            level = self._levels.get(pending.priority)
            if level is None:
                level = self._levels[pending.priority] = deque()
            level.append(pending)
            self._count += 1

    def pop_batch(self, limit: int) -> List[PendingRequest]:
        """Drain up to ``limit`` requests, highest priority first."""
        batch: List[PendingRequest] = []
        for priority in sorted(self._levels, reverse=True):
            level = self._levels[priority]
            while level and len(batch) < limit:
                batch.append(level.popleft())
                self._count -= 1
            if not level:
                del self._levels[priority]
            if len(batch) >= limit:
                break
        return batch

    def count_below(self, priority: int) -> int:
        """Queued requests strictly below ``priority`` (shed candidates)."""
        return sum(
            len(level)
            for level_priority, level in self._levels.items()
            if level_priority < priority
        )

    def evict_below(self, priority: int, count: int) -> List[PendingRequest]:
        """Remove at least ``count`` requests below ``priority``: lowest
        priority first, newest first within a priority (they have waited
        least).  A victim's whole submission group is evicted with it —
        the caller's gather fails on the first shed row anyway, so
        leaving siblings queued would only spend engine time on results
        a retrying caller discards."""
        evicted: List[PendingRequest] = []
        for level_priority in sorted(self._levels):
            if level_priority >= priority or len(evicted) >= count:
                break
            level = self._levels[level_priority]
            while level and len(evicted) < count:
                victim = level.pop()
                evicted.append(victim)
                self._count -= 1
                if victim.group is not None:
                    siblings = [
                        pending for pending in level if pending.group == victim.group
                    ]
                    if siblings:
                        survivors = [
                            pending
                            for pending in level
                            if pending.group != victim.group
                        ]
                        level.clear()
                        level.extend(survivors)
                        evicted.extend(siblings)
                        self._count -= len(siblings)
            if not level:
                del self._levels[level_priority]
        return evicted

    def drain(self) -> List[PendingRequest]:
        """Remove and return everything (highest priority first)."""
        return self.pop_batch(self._count)


class RecognitionService:
    """Coalesces concurrent single recalls into batched engine dispatches.

    Parameters
    ----------
    amm:
        The programmed module to serve.  Must use deterministic neurons
        (``stochastic_dwn`` off): the per-request substreams that make
        results arrival-order invariant are undefined for stochastic
        switching, so construction fails fast.
    max_batch_size:
        Largest micro-batch handed to a worker.
    max_wait:
        Seconds the batcher waits after a batch's first request for more
        arrivals before dispatching a partial batch.
    max_queue_depth:
        Bound on requests waiting for dispatch; beyond it ``submit``
        raises :class:`BackpressureError` — unless the arrival outranks
        enough queued requests, which are then shed to make room.
    workers:
        Execution units in the pool (engine replicas — threads or
        processes, depending on the backend).
    metrics:
        Metric sink; a fresh :class:`ServiceMetrics` when omitted.
    backend:
        Execution backend for the recalls — a :mod:`repro.backends`
        registry name (``"serial"``, ``"threads"``, ``"processes"``,
        ``"remote"``) or a prepared
        :class:`~repro.backends.base.RecallBackend` instance.  Because
        every request carries its own seed, the served results are
        identical for every backend choice.
    backend_options:
        Extra keyword options for the named backend's factory (e.g.
        ``{"worker_addresses": "host:7070,host:7071"}`` for ``remote``).
    quota:
        Per-client admission budget — a
        :class:`~repro.serving.quotas.QuotaConfig` (the service builds
        the bucket table) or a prepared
        :class:`~repro.serving.quotas.ClientQuotas` (shared / test
        clock).  ``None`` (default) disables quotas; requests without a
        ``client_id`` then share no budget at all, and with quotas they
        share the anonymous bucket.
    """

    def __init__(
        self,
        amm: AssociativeMemoryModule,
        max_batch_size: int = 64,
        max_wait: float = 2e-3,
        max_queue_depth: int = 1024,
        workers: int = 1,
        metrics: Optional[ServiceMetrics] = None,
        backend: str = "threads",
        backend_options: Optional[dict] = None,
        quota: Union[QuotaConfig, ClientQuotas, None] = None,
    ) -> None:
        check_integer("max_batch_size", max_batch_size, minimum=1)
        check_integer("max_queue_depth", max_queue_depth, minimum=1)
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if amm.wta.dwn_config.stochastic or not amm.wta.reset_neurons:
            raise ValueError(
                "RecognitionService requires deterministic neurons "
                "(stochastic switching off, per-cycle preset on); their "
                "conversions cannot be made arrival-order invariant"
            )
        self.amm = amm
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.max_queue_depth = max_queue_depth
        self.metrics = metrics or ServiceMetrics()
        if isinstance(quota, QuotaConfig):
            quota = ClientQuotas(quota)
        self.quotas: Optional[ClientQuotas] = quota
        self.pool = ShardedWorkerPool(
            amm,
            workers=workers,
            metrics=self.metrics,
            backend=backend,
            backend_options=backend_options,
        )
        self._pending = _PriorityPending()
        self._group_ids = itertools.count(1)
        self._state_lock = threading.Lock()
        self._arrived = threading.Condition(self._state_lock)
        self._closed = False
        self._batcher = threading.Thread(
            target=self._batch_loop, name="micro-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------------ #
    # Request interface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        codes: np.ndarray,
        seed: int = 0,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> concurrent.futures.Future:
        """Queue one recall request; returns a future of its result.

        ``codes`` is a single ``(features,)`` integer vector; ``seed``
        names the request's private random substream (requests with equal
        codes and seed always produce equal results).  ``timeout_ms``
        optionally bounds the request's queue time: a request still
        undispatched when the budget expires is dropped and fails with
        :class:`DeadlineExceededError`.  ``priority`` (``MIN_PRIORITY`` …
        ``MAX_PRIORITY``, higher first) orders dispatch and shedding;
        ``client_id`` names the caller for quota admission and per-client
        metrics.  Raises :class:`BackpressureError` when the queue is
        full, :class:`QuotaExceededError` when the caller's budget is
        spent, and :class:`ServiceClosedError` after :meth:`close`.
        """
        return self.submit_many(
            np.asarray(codes)[None, :],
            seeds=[seed],
            timeout_ms=timeout_ms,
            priority=priority,
            client_id=client_id,
        )[0]

    def validate_request(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> Tuple[np.ndarray, Sequence[int]]:
        """Check a whole request without admitting any of it.

        Shape, code range, seed count and sign, priority, client id and
        ``timeout_ms`` — every rule :meth:`submit_many` enforces except
        the queue-depth bound, which only applies to one admitted
        window.  Returns the ``int64`` codes and the seeds (default 0
        per row); raises ``ValueError`` (HTTP 400) on the first bad field.
        """
        codes_batch = np.asarray(codes_batch, dtype=np.int64)
        if codes_batch.ndim != 2 or codes_batch.shape[1] != self.amm.crossbar.rows:
            raise ValueError(
                f"codes_batch must have shape (B, {self.amm.crossbar.rows}), "
                f"got {codes_batch.shape}"
            )
        if seeds is None:
            seeds = [0] * codes_batch.shape[0]
        if len(seeds) != codes_batch.shape[0]:
            raise ValueError(
                f"seeds must have length {codes_batch.shape[0]}, got {len(seeds)}"
            )
        max_code = self.amm.input_dacs.max_code
        if np.any(codes_batch < 0) or np.any(codes_batch > max_code):
            raise ValueError(f"codes must be in [0, {max_code}]")
        if any(seed < 0 for seed in seeds):
            raise ValueError("seeds must be non-negative")
        check_integer("priority", priority, minimum=MIN_PRIORITY)
        if priority > MAX_PRIORITY:
            raise ValueError(
                f"priority must be <= {MAX_PRIORITY}, got {priority}"
            )
        validate_client_id(client_id)
        if timeout_ms is not None and not timeout_ms > 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
        return codes_batch, seeds

    def submit_many(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> List[concurrent.futures.Future]:
        """Queue several requests atomically; returns one future per row.

        All-or-nothing: either every row fits in the queue (shedding
        queued lower-priority requests when necessary) or none is
        accepted and :class:`BackpressureError` is raised — a partially
        admitted multi-image request would occupy queue capacity for
        results its (retrying) caller will discard.  ``timeout_ms``
        applies the same dispatch deadline, and ``priority`` /
        ``client_id`` the same ordering and quota accounting, to every
        row.
        """
        codes_batch, seeds = self.validate_request(
            codes_batch, seeds, timeout_ms, priority, client_id
        )
        if codes_batch.shape[0] > self.max_queue_depth:
            # Never admittable, even on an idle service: a permanent-error
            # ValueError (HTTP 400), not a retry-later BackpressureError.
            raise ValueError(
                f"request holds {codes_batch.shape[0]} rows but the queue admits "
                f"at most {self.max_queue_depth}; split (or stream) the request"
            )
        deadline = (
            None if timeout_ms is None else time.monotonic() + timeout_ms * 1e-3
        )
        metric_client = client_id if client_id is not None else ANONYMOUS_CLIENT
        # Rows of one multi-row submission share a group id so shedding
        # evicts the submission whole, never a partial request.
        group = next(self._group_ids) if codes_batch.shape[0] > 1 else None
        batch = [
            PendingRequest(
                codes=codes,
                seed=int(seed),
                future=concurrent.futures.Future(),
                deadline=deadline,
                priority=priority,
                client_id=metric_client,
                group=group,
            )
            for codes, seed in zip(codes_batch, seeds)
        ]
        shed: List[PendingRequest] = []
        with self._arrived:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self.quotas is not None:
                try:
                    self.quotas.admit(client_id, len(batch))
                except QuotaExceededError:
                    self.metrics.record_quota_rejected(len(batch), metric_client)
                    raise
                # From here on the rows own their in-flight slots; each
                # row releases its slot as its future resolves.
                for pending in batch:
                    pending.future.add_done_callback(
                        lambda future, client=client_id: self.quotas.release(client, 1)
                    )
            overflow = len(self._pending) + len(batch) - self.max_queue_depth
            if overflow > 0:
                if self._pending.count_below(priority) >= overflow:
                    shed = self._pending.evict_below(priority, overflow)
                else:
                    if self.quotas is not None:
                        # The rows never entered the queue: return the
                        # tokens and the in-flight slots in one step (the
                        # done callbacks of these unresolved futures will
                        # never fire).
                        self.quotas.cancel_admission(client_id, len(batch))
                    self.metrics.record_rejected(len(batch))
                    raise BackpressureError(
                        f"request queue cannot admit {len(batch)} more requests "
                        f"({len(self._pending)}/{self.max_queue_depth} pending); "
                        "retry later"
                    )
            was_empty = not self._pending
            self._pending.extend(batch)
            self.metrics.record_submitted(
                len(batch), priority=priority, client_id=metric_client
            )
            self.metrics.record_queue_depth(len(self._pending))
            # Wake the batcher only when it can act on the wakeup: the
            # queue just became non-empty (it is parked in the idle
            # wait), or a full micro-batch is now ready (it can cut its
            # ``max_wait`` window short).  Arrivals inside a partial
            # window need no wakeup — the batcher drains whatever is
            # queued when the window expires — so a burst of N submits
            # costs O(1) batcher wakeups instead of N.
            if was_empty or len(self._pending) >= self.max_batch_size:
                self._arrived.notify()
        if shed:
            # Outside the lock: resolving futures runs caller callbacks.
            error = BackpressureError(
                "request shed from the queue to admit higher-priority traffic; "
                "retry later"
            )
            for pending in shed:
                if self.quotas is not None:
                    # Shed rows did no work: give their tokens back (the
                    # in-flight slot is released by the done callback).
                    self.quotas.refund_tokens(pending.client_id, 1)
                if pending.future.set_running_or_notify_cancel():
                    pending.future.set_exception(error)
            self.metrics.record_shed(len(shed))
        return [pending.future for pending in batch]

    def recognise(
        self,
        codes: np.ndarray,
        seed: int = 0,
        timeout: Optional[float] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> RecognitionResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(
            codes,
            seed=seed,
            timeout_ms=timeout_ms,
            priority=priority,
            client_id=client_id,
        ).result(timeout)

    def recognise_many(
        self,
        codes_batch: np.ndarray,
        seeds: Optional[Sequence[int]] = None,
        timeout: Optional[float] = None,
        timeout_ms: Optional[float] = None,
        priority: int = DEFAULT_PRIORITY,
        client_id: Optional[str] = None,
    ) -> List[RecognitionResult]:
        """Submit each row as its own request and gather the results.

        The rows enter the shared micro-batching queue individually
        (atomically, via :meth:`submit_many`), so they coalesce with
        whatever other traffic is in flight — this is the multi-image
        HTTP request path, not a private batch.  ``timeout`` bounds the
        *whole* gather (client-side wait); ``timeout_ms`` is the
        server-side dispatch deadline applied to every row.

        When the gather fails part-way (a row error, or the ``timeout``
        budget running out), the remaining rows are abandoned: still-
        queued rows are cancelled so the engine never solves them, and
        already-dispatched rows have their outcomes consumed on
        resolution — no in-flight work keeps running for a caller that
        already got its error.
        """
        futures = self.submit_many(
            codes_batch,
            seeds=seeds,
            timeout_ms=timeout_ms,
            priority=priority,
            client_id=client_id,
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        results = []
        try:
            for future in futures:
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                results.append(future.result(remaining))
        except BaseException:
            # On a gather timeout the current future is still pending; on
            # a row error its outcome is already consumed (abandoning a
            # resolved future is a no-op) — either way, everything from
            # the current row on is cancelled or drained.
            self._abandon(futures[len(results):])
            raise
        return results

    @staticmethod
    def _abandon(futures: Iterable[concurrent.futures.Future]) -> None:
        """Cancel still-queued futures; drain the rest as they resolve.

        Cancelled rows are skipped by the dispatcher (no engine time);
        rows already dispatched cannot be stopped, so their outcome is
        consumed by a done-callback instead — nothing blocks, and no
        future is left unresolved or unretrieved.
        """
        for future in futures:
            if not future.cancel():
                future.add_done_callback(_consume_outcome)

    def stream_window(self) -> int:
        """How many rows one streamed request may hold in flight.

        Twice ``max_batch_size`` (so the batcher always has a full batch
        ready while the previous one is in flight), at least 32, clamped
        to the queue depth and — when quotas are configured — the quota
        burst and per-client in-flight cap, or an all-or-nothing window
        submission could never be admitted even on an idle service.

        The asyncio front end's NDJSON and binary handlers both window by
        it: the whole request is validated before the first window, so a
        malformed row anywhere is a 400 before anything streams; rows go
        out in row order (NDJSON lines, ROWS frames); and a row keeps its
        slot from submission until its outcome is emitted.
        """
        window = min(max(2 * self.max_batch_size, 32), self.max_queue_depth)
        if self.quotas is not None:
            window = min(window, self.quotas.burst)
            if self.quotas.config.max_inflight is not None:
                window = min(window, self.quotas.config.max_inflight)
        return window

    # ------------------------------------------------------------------ #
    # Micro-batcher
    # ------------------------------------------------------------------ #
    def _batch_loop(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            try:
                # Blocks when every dispatch slot is busy: that is the
                # backpressure path that lets the bounded queue fill up.
                self.pool.dispatch(batch)
            except ServiceClosedError:
                # The pool was closed underneath us (direct pool.close());
                # dispatch() already failed the batch's futures.
                continue

    def _collect_batch(self) -> Optional[List[PendingRequest]]:
        """Wait for traffic, then drain one micro-batch from the queue.

        Returns ``None`` when the service is closed and the queue is
        drained (the batcher's exit signal).  After the first request of
        a batch arrives, keeps collecting until the batch is full or
        ``max_wait`` has elapsed; the drain is highest-priority-first,
        so a high-priority arrival inside the window jumps ahead of
        every queued lower-priority request.
        """
        with self._arrived:
            while not self._pending:
                if self._closed:
                    return None
                self._arrived.wait()
            deadline = time.monotonic() + self.max_wait
            while (
                len(self._pending) < self.max_batch_size
                and not self._closed
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._arrived.wait(remaining)
            batch = self._pending.pop_batch(self.max_batch_size)
            self.metrics.record_queue_depth(len(self._pending))
            return batch

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for dispatch."""
        with self._state_lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        return self._closed

    def health(self) -> dict:
        """Liveness summary consumed by the HTTP ``/healthz`` endpoint."""
        capabilities = self.pool.backend.capabilities()
        return {
            "status": "closed" if self._closed else "ok",
            "workers": len(self.pool),
            "backend": capabilities.name,
            "backend_escapes_gil": capabilities.escapes_gil,
            "queue_depth": self.queue_depth,
            "max_batch_size": self.max_batch_size,
            "max_wait_seconds": self.max_wait,
            "quotas_enabled": self.quotas is not None,
            "array": {
                "rows": self.amm.crossbar.rows,
                "columns": self.amm.crossbar.columns,
            },
        }

    def stats(self) -> dict:
        """Metrics snapshot consumed by the HTTP ``/stats`` endpoint.

        When the pool's backend is fleet-supervised (exposes
        ``fleet_stats``), its replica/health/control snapshot rides along
        as a ``fleet`` section — both front ends serve it for free since
        they delegate here (schema in ``src/repro/serving/README.md``).
        """
        stats = self.metrics.snapshot()
        fleet_stats = getattr(self.pool.backend, "fleet_stats", None)
        if callable(fleet_stats):
            stats["fleet"] = fleet_stats()
        return stats

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain queued requests, stop the batcher and join the workers.

        Queued requests are still served; new submissions fail with
        :class:`ServiceClosedError`.  When the graceful drain exceeds
        ``timeout``, the requests still waiting in the queue are failed
        with :class:`ServiceClosedError` (so no caller hangs on an
        unresolvable future) and only in-flight batches finish.
        Idempotent.
        """
        with self._arrived:
            if self._closed:
                return
            self._closed = True
            self._arrived.notify_all()
        self._batcher.join(timeout)
        if self._batcher.is_alive():
            with self._arrived:
                abandoned = self._pending.drain()
                self.metrics.record_queue_depth(0)
                self._arrived.notify_all()
            error = ServiceClosedError(
                "service closed before the request was dispatched"
            )
            failed = 0
            for pending in abandoned:
                # A cancelled future must not be resolved again.
                if pending.future.set_running_or_notify_cancel():
                    pending.future.set_exception(error)
                    failed += 1
            self.metrics.record_failed(failed)
            # With the queue empty the batcher exits after at most one
            # dispatch cycle; the pool is still consuming, so this join
            # is bounded by the in-flight work.
            self._batcher.join()
        self.pool.close()

    def __enter__(self) -> "RecognitionService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
