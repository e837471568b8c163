"""The benchmark's three workloads: set-up, load, correctness gate, metrics.

Every workload recalls the synthetic 40-class corpus
(``load_default_dataset(seed=2013)``) through the reference 128x40
pipeline.  The workload seed only chooses the inputs: row ``k`` of a run
recalls test image ``order[k % 400]`` (``order`` a seeded permutation)
under the request seed ``seed * SEED_STRIDE + k``.  Request seeds are
unique per row, so a seed also names the row in every span.

* ``offline_recall`` — closed-loop Monte-Carlo recall of the whole test
  set in batches of 400 through a prepared ``serial`` backend with 5%
  input variation.  No serving layer runs: this is the engine workload.
* ``serve_small`` — the asyncio front end's JSON API, one image per
  request, closed loop on two connections, over the ``serial`` backend
  with the service's default batching.  The engine is a small share of
  each request: this is the front-end and service workload.
* ``serve_bulk`` — the binary endpoint, 64 images per request, closed
  loop on two connections, over the ``remote`` backend talking to one
  local ``repro worker`` process.  Full micro-batches cross the wire
  framing: this is the dispatch workload.

See ``README.md`` for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import build_pipeline, load_default_dataset
from repro.backends.base import RecallBackend
from repro.backends.registry import create_backend
from repro.backends.remote import spawn_local_worker
from repro.core.power import SpinAmmPowerModel
from repro.serving import (
    BinaryRecognitionClient,
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)

from spans import Span, Tracer, closure, instrumented, layer_self_ns, request_trees

#: Seed of the synthetic corpus and of the programmed pipeline.
DATASET_SEED = 2013
#: Input variation of the offline workload (the value the repo's tests use).
OFFLINE_INPUT_VARIATION = 0.05
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rows at the head of the stream over which the modelled metrics are taken.
MODEL_ROWS = 1600
#: Row seeds of different workload seeds never overlap below this stride.
SEED_STRIDE = 10_000_000
#: Recorded backend calls replayed in process to time the engine layers
#: of a workload whose engine runs in another process.
REPLAY_CALLS = 32
#: Untimed traffic before the first measured phase (caches, lazy set-up).
WARMUP_SECONDS = 0.5
#: Bound on joins and waits during teardown.
JOIN_TIMEOUT = 30.0

ROW_FIELDS = ("winner", "dom_code", "tie", "accepted")


@dataclass(frozen=True)
class Workload:
    """One named traffic mix."""

    name: str
    rows_per_request: int = 400
    senders: int = 1
    input_variation: float = 0.0
    backend: str = "serial"
    serving: bool = False
    binary: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "offline_recall",
            input_variation=OFFLINE_INPUT_VARIATION,
        ),
        Workload(
            "serve_small",
            rows_per_request=1,
            senders=2,
            serving=True,
        ),
        Workload(
            "serve_bulk",
            rows_per_request=64,
            senders=2,
            backend="remote",
            serving=True,
            binary=True,
        ),
    )
}


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
class RowStream:
    """The run's rows in order; ``take`` hands out consecutive row indices."""

    def __init__(self, codes: np.ndarray, labels: np.ndarray, seed: int) -> None:
        self.codes = codes
        self.labels = labels
        self.order = np.random.default_rng(seed).permutation(codes.shape[0])
        self.base = seed * SEED_STRIDE
        self.position = 0
        self._lock = threading.Lock()

    def take(self, count: int) -> int:
        with self._lock:
            first = self.position
            self.position += count
            return first

    def rows(self, index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Codes and request seeds of the rows numbered ``index``."""
        images = self.order[index % self.codes.shape[0]]
        return self.codes[images], self.base + index

    def labels_of(self, rows: np.ndarray) -> np.ndarray:
        return self.labels[self.order[rows % self.codes.shape[0]]]


# ---------------------------------------------------------------------- #
# The system under test
# ---------------------------------------------------------------------- #
class TracedBackend(RecallBackend):
    """Benchmark-owned wrapper around the backend the workload recalls on.

    While :attr:`tracer` is enabled, every ``recall_batch_seeded`` call
    records a ``backends.call`` span carrying its rows' seeds, and the
    first :data:`REPLAY_CALLS` batches are kept for an in-process replay.
    """

    name = "traced"

    def __init__(self, inner: RecallBackend) -> None:
        self.inner = inner
        self.tracer = Tracer()
        self.recorded: List[Tuple[np.ndarray, np.ndarray]] = []

    def prepare(self) -> "TracedBackend":
        self.inner.prepare()
        return self

    def recall_batch_seeded(self, codes_batch, request_seeds):
        if not self.tracer.enabled:
            return self.inner.recall_batch_seeded(codes_batch, request_seeds)
        if len(self.recorded) < REPLAY_CALLS:
            self.recorded.append((np.array(codes_batch), np.array(request_seeds)))
        with self.tracer.span(
            "backends.call",
            rows=len(request_seeds),
            seeds=[int(seed) for seed in request_seeds],
        ):
            return self.inner.recall_batch_seeded(codes_batch, request_seeds)

    def solve_batch(self, dac_conductances, include_parasitics=True):
        return self.inner.solve_batch(dac_conductances, include_parasitics)

    def close(self) -> None:
        self.inner.close()

    def capabilities(self):
        return self.inner.capabilities()


@dataclass
class System:
    """Everything one set-up built; :meth:`close` tears it down."""

    amm: object
    codes: np.ndarray
    labels: np.ndarray
    backend: TracedBackend
    service: Optional[RecognitionService] = None
    server: object = None
    worker: object = None

    def close(self) -> None:
        try:
            if self.server is not None:
                stop_async_server(self.server)
            elif self.service is not None:
                self.service.close()
        finally:
            try:
                self.backend.close()
            finally:
                if self.worker is not None:
                    _stop_process(self.worker)


def _stop_process(process) -> None:
    process.terminate()
    try:
        process.wait(JOIN_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(JOIN_TIMEOUT)
    finally:
        if process.stdout is not None:
            process.stdout.close()


def build_system(workload: Workload) -> System:
    """One full set-up: corpus, pipeline, backend, service, server, worker."""
    dataset = load_default_dataset(seed=DATASET_SEED)
    pipeline = build_pipeline(
        dataset, seed=DATASET_SEED, input_variation=workload.input_variation
    )
    codes = pipeline.extractor.extract_many(dataset.test_images)
    worker = None
    options = {}
    if workload.backend == "remote":
        worker, address = spawn_local_worker()
        options["worker_addresses"] = [address]
    system = None
    try:
        inner = create_backend(workload.backend, pipeline.amm, **options)
        system = System(
            pipeline.amm, codes, dataset.test_labels, TracedBackend(inner), worker=worker
        )
        system.backend.prepare()
        if workload.serving:
            system.service = RecognitionService(pipeline.amm, backend=system.backend)
            system.server = start_async_server(
                system.service, binary_port=0 if workload.binary else None
            )
        return system
    except BaseException:
        if system is not None:
            system.close()
        elif worker is not None:
            _stop_process(worker)
        raise


def timed_setups(workload: Workload) -> Tuple[System, List[float]]:
    """Set the system up :data:`SETUP_REPEATS` times; keep the last one."""
    durations: List[float] = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            system.close()
        start = time.perf_counter()
        system = build_system(workload)
        durations.append(time.perf_counter() - start)
    return system, durations


# ---------------------------------------------------------------------- #
# Load
# ---------------------------------------------------------------------- #
@dataclass
class Phase:
    """What one measured stretch of load produced."""

    start: int
    end: int = 0
    latencies: List[int] = field(default_factory=list)
    rows_ok: int = 0
    rows_failed: int = 0
    #: ``(first row, answers)`` per request, ``answers`` holding one
    #: ``(winner, dom_code, tie, accepted)`` int64 row per image as the
    #: program answered it (-1 winner where the row failed).
    answers: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    #: Root spans of the requests that completed (traced phases only).
    roots: List[Span] = field(default_factory=list)
    #: The senders' summed busy time, phase start to each one's last
    #: answer: what the spans of a traced serving phase should add up to.
    busy_ns: int = 0

    @property
    def window_s(self) -> float:
        return (self.end - self.start) * 1e-9


def run_offline(system: System, stream: RowStream, seconds: float, tracer: Tracer) -> Phase:
    """Closed-loop batches of the whole test set until ``seconds`` pass."""
    phase = Phase(start=time.perf_counter_ns())
    stop = phase.start + int(seconds * 1e9)
    batch = system.codes.shape[0]
    while True:
        began = time.perf_counter_ns()
        if began >= stop and phase.latencies:
            break
        with tracer.span("offline.batch", rows=batch):
            first = stream.take(batch)
            codes, seeds = stream.rows(np.arange(first, first + batch))
            result = system.backend.recall_batch_seeded(codes, seeds)
            if first < MODEL_ROWS:
                phase.answers.append((first, answer_block(result)))
            phase.rows_ok += batch
        ended = time.perf_counter_ns()
        phase.latencies.append(ended - began)
    phase.end = time.perf_counter_ns()
    return phase


def answer_block(result) -> np.ndarray:
    """The compared fields of a batch result (engine or binary client)."""
    return np.stack(
        [np.asarray(getattr(result, name), dtype=np.int64) for name in ROW_FIELDS], axis=1
    )


def open_clients(system: System, workload: Workload) -> list:
    host = system.server.host
    clients = []
    try:
        for _ in range(workload.senders):
            if workload.binary:
                clients.append(BinaryRecognitionClient(host, system.server.binary_port))
            else:
                clients.append(RecognitionClient(host, system.server.port))
    except BaseException:
        close_clients(clients)
        raise
    return clients


def close_clients(clients: list) -> None:
    for client in clients:
        client.close()


def run_serving(
    clients: list,
    workload: Workload,
    stream: RowStream,
    seconds: float,
    tracer: Tracer,
) -> Phase:
    """Closed loop: each client's thread sends its next request when the
    previous answer arrives, until ``seconds`` pass."""
    rows = workload.rows_per_request
    phase = Phase(start=time.perf_counter_ns())
    stop = phase.start + int(seconds * 1e9)
    errors: List[BaseException] = []
    shards = [Phase(start=phase.start) for _ in clients]

    def send(index: int) -> None:
        client, mine = clients[index], shards[index]
        try:
            while time.perf_counter_ns() < stop:
                first = stream.take(rows)
                codes, seeds = stream.rows(np.arange(first, first + rows))
                sent = time.perf_counter_ns()
                try:
                    if workload.binary:
                        answers = answer_block(client.recognise_batch(codes, seeds))
                    else:
                        payload = client.recognise(codes[0], seed=int(seeds[0]))
                        answers = np.array([[payload[name] for name in ROW_FIELDS]], np.int64)
                except ServerError:
                    answers = np.full((rows, len(ROW_FIELDS)), -1, np.int64)
                received = time.perf_counter_ns()
                mine.latencies.append(received - sent)
                mine.end = received
                failed = int(np.count_nonzero(answers[:, 0] < 0))
                mine.rows_failed += failed
                mine.rows_ok += rows - failed
                mine.answers.append((first, answers))
                if tracer.enabled and not failed:
                    mine.roots.append(
                        tracer.add("client.call", sent, received, seeds=seeds.tolist())
                    )
        except BaseException as error:  # surfaced on the main thread below
            errors.append(error)

    threads = [
        threading.Thread(target=send, args=(index,), name=f"perfbench-sender-{index}")
        for index in range(len(clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT + seconds)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load sender did not finish")
    if errors:
        raise errors[0]
    for shard in shards:
        phase.latencies.extend(shard.latencies)
        phase.rows_ok += shard.rows_ok
        phase.rows_failed += shard.rows_failed
        phase.answers.extend(shard.answers)
        phase.roots.extend(shard.roots)
        phase.end = max(phase.end, shard.end)
        phase.busy_ns += max(shard.end, phase.start) - phase.start
    if not phase.latencies:
        raise RuntimeError("no request completed in the measured phase")
    return phase


# ---------------------------------------------------------------------- #
# Correctness gate and modelled metrics
# ---------------------------------------------------------------------- #
def mismatched_rows(
    rows: np.ndarray, answers: np.ndarray, checked: np.ndarray, expected: np.ndarray
) -> List[int]:
    """Answered rows among ``checked`` whose fields differ from ``expected``.

    ``rows`` (sorted, unique) and ``answers`` are what the program
    answered; ``checked`` (sorted) and ``expected`` are the reference's
    rows and fields.  Every answered row must lie in ``checked``.
    """
    low, high = np.searchsorted(rows, [checked[0], checked[-1] + 1])
    served_rows = rows[low:high]
    at = np.searchsorted(checked, served_rows)
    differ = np.any(answers[low:high] != expected[at], axis=1)
    return served_rows[differ].tolist()


def verify(
    oracle: RecallBackend, amm, stream: RowStream, phases: Sequence[Phase]
) -> Tuple[List[int], float, float]:
    """The correctness gate and the modelled metrics, after the load.

    Recomputes every answered row, and the first :data:`MODEL_ROWS` rows
    of the stream, with a fresh ``serial`` backend (the reference) in
    batches of the test-set size, comparing winner, DOM code, tie and
    accepted exactly.  Returns the wrong rows, the modelled accuracy
    (winner == label) and the modelled energy per recognition (pJ) over
    the first :data:`MODEL_ROWS` rows; only one batch of reference
    results is held at a time.
    """
    blocks = [block for phase in phases for block in phase.answers]
    rows = np.concatenate(
        [np.empty(0, np.int64)] + [first + np.arange(len(block)) for first, block in blocks]
    )
    answers = np.concatenate(
        [np.empty((0, len(ROW_FIELDS)), np.int64)] + [block for _, block in blocks]
    )
    answered = answers[:, 0] >= 0  # failed rows are already counted as failed
    rows, answers = rows[answered], answers[answered]
    order = np.argsort(rows)
    rows, answers = rows[order], answers[order]
    todo = np.union1d(rows, np.arange(MODEL_ROWS))
    power = SpinAmmPowerModel(amm.parameters)
    wrong: List[int] = []
    hits = 0
    energies: List[float] = []
    step = stream.codes.shape[0]
    for begin in range(0, len(todo), step):
        checked = todo[begin : begin + step]
        codes, seeds = stream.rows(checked)
        result = oracle.recall_batch_seeded(codes, seeds)
        wrong.extend(mismatched_rows(rows, answers, checked, answer_block(result)))
        for at in np.nonzero(checked < MODEL_ROWS)[0].tolist():
            energies.append(
                power.power_from_measurement(
                    float(result.static_power[at]), result.events[at]
                ).energy_per_recognition
            )
            hits += int(result.winner[at] == stream.labels_of(checked[at]))
    return wrong, hits / MODEL_ROWS, statistics.fmean(energies) * 1e12


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


#: Per-image engine metric -> the span whose self time it reports.
ENGINE_LAYERS = {
    "amm.dac_us_per_image": "amm.dac",
    "crossbar.solve_us_per_image": "crossbar.solve",
    "wta.convert_us_per_image": "wta.convert",
    "amm.self_us_per_image": "amm.recognise",
}


def engine_layers(tracer: Tracer) -> Dict[str, float]:
    """Engine self time per image (µs), from the spans of one tracer."""
    own = layer_self_ns(
        [span for span in tracer.spans if span.name in ENGINE_LAYERS.values()]
    )
    metrics = {}
    for metric, name in ENGINE_LAYERS.items():
        rows = sum(span.rows for span in tracer.named(name))
        metrics[metric] = own.get(name, 0) / rows * 1e-3 if rows else 0.0
    return metrics


def stats_delta(before: dict, after: dict) -> Dict[str, float]:
    """Service counters over one phase from two ``stats()`` snapshots."""

    def filled(snapshot: dict) -> int:
        histogram = snapshot["batches"]["fill_histogram"]
        return sum(int(size) * count for size, count in histogram.items())

    batches = after["batches"]["dispatched"] - before["batches"]["dispatched"]
    return {
        "service.batch_fill": (filled(after) - filled(before)) / batches if batches else 0.0,
        "service.rejected": after["requests"]["rejected"] - before["requests"]["rejected"],
        "service.shed": after["requests"]["shed"] - before["requests"]["shed"],
        "service.expired": after["requests"]["expired"] - before["requests"]["expired"],
    }


def layer_metrics(
    workload: Workload,
    untraced: Phase,
    traced: Phase,
    tracer: Tracer,
    engine: Tracer,
    service_delta: Optional[Dict[str, float]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer is idle).

    ``engine`` holds the in-process engine spans: ``tracer`` itself, or a
    replay of the backend's batches when the engine ran in a worker.
    """
    calls = tracer.named("backends.call")
    metrics = engine_layers(engine)
    call_ms = _mean([span.duration * 1e-6 for span in calls])
    engine_ms = _mean([span.duration * 1e-6 for span in engine.named("amm.recognise")])
    metrics.update(
        {
            "backends.call_ms": call_ms,
            "backends.rows_per_call": _mean([span.rows for span in calls]),
            "backends.failed_calls": sum(span.failed for span in calls),
            "backends.overhead_ms_per_call": call_ms - engine_ms,
        }
    )
    metrics.update(
        service_delta
        or {
            "service.batch_fill": 0.0,
            "service.rejected": 0,
            "service.shed": 0,
            "service.expired": 0,
        }
    )
    if workload.serving:
        trees = request_trees(tracer, traced.roots)
        admits = tracer.named("service.admit")
        admit_by_seed = {seed: span for span in admits for seed in span.seeds}
        waits = [
            (call.start - admit_by_seed[seed].start) * 1e-6
            for call in calls
            for seed in call.seeds
            if seed in admit_by_seed
        ]
        own = layer_self_ns(trees)
        metrics.update(
            {
                "service.admit_us": _mean([span.duration * 1e-3 for span in admits]),
                "service.queue_wait_ms": _mean(waits),
                "frontend.us_per_request": own.get("client.call", 0) / len(traced.roots) * 1e-3,
                "trace.closure": closure(trees, traced.busy_ns),
            }
        )
    else:
        metrics.update(
            {
                "service.admit_us": 0.0,
                "service.queue_wait_ms": 0.0,
                "frontend.us_per_request": 0.0,
                "trace.closure": closure(tracer.spans, traced.end - traced.start),
            }
        )
    metrics["trace.overhead_share"] = (
        statistics.median(traced.latencies) / statistics.median(untraced.latencies) - 1.0
    )
    return metrics


def replay_engine(oracle: RecallBackend, recorded) -> Tracer:
    """Time recorded backend batches through an in-process engine."""
    replay = Tracer()
    with instrumented(replay):
        replay.enabled = True
        for codes, seeds in recorded:
            oracle.recall_batch_seeded(codes, seeds)
        replay.enabled = False
    return replay
