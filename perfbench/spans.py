"""In-memory spans, layer wrappers and the self-time / closure arithmetic.

A span is one timed call at a layer boundary: a name, a start and an
end (``time.perf_counter_ns``), the span that caused it, and the request
seeds it carries.  Spans are only kept in memory; the run writes them out
when it ends.

Layers are timed from outside: :func:`instrumented` temporarily replaces
each layer's public method on its class with a wrapper that records a
span around the original call, and restores the originals on exit.
Nothing inside ``src/`` knows it is being traced.

Self time is a span's duration minus the part of it that its children
cover (the union of the children's intervals, clipped to the parent).
Summed over a span tree it equals the root's duration exactly when the
children nest inside their parents without overlapping, so
``sum(self) / end_to_end`` (the closure) is 1 for a tree that covers the
end-to-end time, below 1 where spans leave gaps and above 1 where spans
double count.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call; times are ``perf_counter_ns`` readings."""

    span_id: int
    parent: Optional[int]
    name: str
    start: int
    end: int
    rows: int = 0
    seeds: Tuple[int, ...] = ()
    failed: bool = False

    @property
    def duration(self) -> int:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "rows": self.rows,
            "seeds": list(self.seeds),
            "failed": self.failed,
        }


class Tracer:
    """Collects spans from any thread while :attr:`enabled` is set.

    Parents are tracked per thread (the innermost open span of the calling
    thread); spans that cross threads are joined later by request seed.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        #: Row seed -> ``perf_counter_ns`` at which its future resolved.
        self.resolved: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: int,
        end: int,
        parent: Optional[int] = None,
        rows: int = 0,
        seeds: Sequence[int] = (),
        failed: bool = False,
    ) -> Span:
        """Record a span measured by the caller; returns it."""
        span = Span(
            self.new_id(), parent, name, start, end, rows, tuple(seeds), failed
        )
        with self._lock:
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0, seeds: Sequence[int] = ()) -> Iterator[None]:
        """Time the ``with`` body as a child of this thread's open span."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = self.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        failed = True
        start = time.perf_counter_ns()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            span = Span(span_id, parent, name, start, end, rows, tuple(seeds), failed)
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, func: Callable, rows: Callable[..., int]) -> Callable:
        """``func`` wrapped so each call records a ``name`` span."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            with tracer.span(name, rows=rows(*args, **kwargs)):
                return func(*args, **kwargs)

        return traced

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


def _batch_rows(array) -> int:
    shape = getattr(array, "shape", None)
    if shape is None:
        return len(array)
    return shape[0] if len(shape) == 2 else 1


def _stamp(resolved: Dict[int, int], seed: int, _future) -> None:
    resolved[seed] = time.perf_counter_ns()


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer's public method for the ``with`` body.

    The engine layers (DAC, crossbar solve, WTA, the module's seeded
    recall) and the service's admission call are patched on their classes,
    so every instance in this process records spans while
    ``tracer.enabled`` is set.  Each row admitted through ``submit_many``
    also records, in ``tracer.resolved``, when its future resolved.
    Originals are restored on exit.
    """
    from repro.core.amm import AssociativeMemoryModule, InputDacBank
    from repro.core.wta import SpinCmosWta
    from repro.crossbar.batched import BatchedCrossbarEngine
    from repro.serving.service import RecognitionService

    patches = [
        (InputDacBank, "conductances", "amm.dac", lambda bank, codes: _batch_rows(codes)),
        (
            BatchedCrossbarEngine,
            "solve_batch",
            "crossbar.solve",
            lambda engine, dac, *rest, **kw: _batch_rows(dac),
        ),
        (
            SpinCmosWta,
            "convert_batch_seeded",
            "wta.convert",
            lambda wta, currents, *rest, **kw: _batch_rows(currents),
        ),
        (
            AssociativeMemoryModule,
            "recognise_batch_seeded",
            "amm.recognise",
            lambda amm, codes, *rest, **kw: _batch_rows(codes),
        ),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
    original_submit = RecognitionService.submit_many

    def submit_many(service, codes_batch, seeds=None, *args, **kwargs):
        if not tracer.enabled or seeds is None:
            return original_submit(service, codes_batch, seeds, *args, **kwargs)
        row_seeds = [int(seed) for seed in seeds]
        with tracer.span("service.admit", rows=len(row_seeds), seeds=row_seeds):
            futures = original_submit(service, codes_batch, seeds, *args, **kwargs)
        for seed, future in zip(row_seeds, futures):
            future.add_done_callback(functools.partial(_stamp, tracer.resolved, seed))
        return futures

    try:
        for owner, attr, name, rows in patches:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], rows))
        RecognitionService.submit_many = submit_many
        yield tracer
    finally:
        RecognitionService.submit_many = original_submit
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Arithmetic
# ---------------------------------------------------------------------- #
def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0
    current_start: Optional[int] = None
    current_end = 0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> duration minus the part of it its children cover."""
    children = children_of(spans)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        result[span.span_id] = span.duration - covered
    return result


def layer_self_ns(spans: Sequence[Span]) -> Dict[str, int]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def closure(spans: Sequence[Span], end_to_end_ns: int) -> float:
    """Sum of every layer's self time over the end-to-end time."""
    if end_to_end_ns <= 0:
        raise ValueError("end-to-end time must be positive")
    return sum(self_times(spans).values()) / end_to_end_ns


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Parent id -> child spans."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def subtree(children: Dict[int, List[Span]], root: Span) -> List[Span]:
    """``root`` and all its descendants, parents before children."""
    found, frontier = [], [root]
    while frontier:
        span = frontier.pop()
        found.append(span)
        frontier.extend(children.get(span.span_id, ()))
    return found


def request_trees(tracer: Tracer, roots: Sequence[Span]) -> List[Span]:
    """Per-request span trees for the serving workloads.

    Spans recorded on different threads are joined by row seed.  Each
    root (a ``client.call`` recorded by the load generator) gets one
    ``service.span`` running from the first ``submit_many`` of its rows
    to the last of its rows resolving; under that, its ``service.admit``
    calls, a ``service.queue`` span from the end of admission to the
    first backend call that carries one of its rows, and a copy of every
    such backend call with its engine subtree.  A backend call shared by
    several requests is copied into each, since each request waits for
    all of it.
    """
    admit_by_seed: Dict[int, Span] = {}
    for span in tracer.named("service.admit"):
        for seed in span.seeds:
            admit_by_seed[seed] = span
    call_by_seed: Dict[int, Span] = {}
    for span in tracer.named("backends.call"):
        for seed in span.seeds:
            call_by_seed[seed] = span
    children = children_of(tracer.spans)
    out: List[Span] = []
    counter = itertools.count(-1, -1)  # ids of copies never clash with real ids
    for root in roots:
        out.append(root)
        admits = {admit_by_seed[seed].span_id: admit_by_seed[seed] for seed in root.seeds}
        calls = {call_by_seed[seed].span_id: call_by_seed[seed] for seed in root.seeds}
        service = Span(
            next(counter),
            root.span_id,
            "service.span",
            min(span.start for span in admits.values()),
            max(tracer.resolved[seed] for seed in root.seeds),
        )
        out.append(service)
        for admit in admits.values():
            out.append(replace(admit, span_id=next(counter), parent=service.span_id))
        queue_start = max(span.end for span in admits.values())
        queue_end = min(span.start for span in calls.values())
        out.append(Span(next(counter), service.span_id, "service.queue", queue_start, queue_end))
        for call in calls.values():
            copied = subtree(children, call)
            mapping = {span.span_id: next(counter) for span in copied}
            for span in copied:
                parent = service.span_id if span is call else mapping[span.parent]
                out.append(replace(span, span_id=mapping[span.span_id], parent=parent))
    return out


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the ``ceil(fraction * n)``-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]
