"""End-to-end serving benchmark: offered load through the HTTP path.

Boots the micro-batching recognition service (``repro.serving``) behind
its asyncio front end on the reference 128x40 pipeline and measures what
a client actually sees through ``POST /recognise``:

* an **offered-load sweep**: end-to-end images/second and latency
  percentiles versus client concurrency, with the micro-batcher
  coalescing concurrent requests into engine batches;
* a **batch-window sweep**: the same load under different ``max_wait``
  windows (0 = dispatch immediately), the knob trading tail latency for
  batch fill;
* the **batch_size=1 dispatch reference**: the same codes recalled
  in-process one ``amm.recognise`` sparse solve at a time (the
  repository-wide ``batch_size=1`` convention, with no HTTP overhead)
  — the baseline the micro-batching speedup is asserted against;
* a **streaming-vs-buffered comparison** on one 1000-image request: the
  chunked NDJSON stream must return row-identical results with a far
  earlier first row (incremental delivery instead of one buffered body);
* a **mixed-priority saturation run**: under saturated load striped
  across priority 0 and priority 9 client threads, high-priority p50
  latency must measurably beat low-priority;
* a **connection sweep** at 16/256/1024 keep-alive connections: the
  event loop must hold its C=16 throughput and thread count.

The measured trajectory is written to ``BENCH_serving.json`` at the
repository root (uploaded as a CI artifact next to
``BENCH_throughput.json``) so the serving headline can be tracked across
commits.  The later tests merge their sections into the same file, so
the whole serving story lives in one artifact.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.serving import (
    RecognitionClient,
    RecognitionService,
    latency_summary,
    run_load,
    start_async_server,
    stop_async_server,
)

#: Where the serving trajectory is persisted.
OUTPUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Micro-batching configuration under test.
MAX_BATCH_SIZE = 64
MAX_WAIT_SECONDS = 2e-3
WORKERS = 2

#: Offered-load sweep: concurrent client threads.
CONCURRENCY_SWEEP = (1, 4, 16)
#: Batch-window sweep (seconds) at fixed concurrency.
WINDOW_SWEEP = (0.0, 2e-3, 8e-3)
WINDOW_CONCURRENCY = 8
#: Code vectors per HTTP request (an edge node aggregating its users);
#: each vector is queued as an independent recall request.
IMAGES_PER_REQUEST = 16
REQUESTS_PER_POINT = 96

#: The slow reference: images recalled one sparse MNA solve at a time.
BATCH1_IMAGES = 24

#: The PR's headline requirements.
REQUIRED_SPEEDUP = 10.0
REQUIRED_IMAGES_PER_SECOND = 1000.0


@pytest.fixture(scope="module")
def recall_codes(full_pipeline, full_dataset):
    """Pre-extracted feature codes of the whole test corpus."""
    return full_pipeline.extractor.extract_many(full_dataset.test_images)


def _measure(service, codes, requests, concurrency, images_per_request):
    server = start_async_server(service, port=0, binary_port=None)
    try:
        report = run_load(
            "127.0.0.1",
            server.port,
            codes,
            requests=requests,
            concurrency=concurrency,
            images_per_request=images_per_request,
        )
        with RecognitionClient("127.0.0.1", server.port) as client:
            stats = client.stats()
    finally:
        stop_async_server(server)
    assert report.errors == 0 and report.rejected == 0
    point = report.as_dict()
    point["server"] = {
        "mean_batch_fill": stats["batches"]["mean_fill"],
        "batches_dispatched": stats["batches"]["dispatched"],
        "queue_depth_max": stats["queue_depth"]["max"],
        "p99_ms": stats["latency"]["p99_ms"],
    }
    return point


def test_http_serving_throughput(full_pipeline, full_dataset, recall_codes, write_result):
    amm = full_pipeline.amm

    # batch_size=1 dispatch: the per-sample reference, measured on a
    # small image budget because each image is a full sparse MNA solve.
    batch1_codes = recall_codes[[i % len(recall_codes) for i in range(BATCH1_IMAGES)]]
    latencies = []
    begin = time.perf_counter()
    for sample in batch1_codes:
        start = time.perf_counter()
        amm.recognise(sample)
        latencies.append(time.perf_counter() - start)
    elapsed = time.perf_counter() - begin
    batch1 = {
        "mode": "in-process amm.recognise loop",
        "images": BATCH1_IMAGES,
        "elapsed_seconds": elapsed,
        "images_per_second": BATCH1_IMAGES / elapsed,
        "latency": latency_summary(latencies),
    }

    def micro_batched_service(max_wait=MAX_WAIT_SECONDS):
        return RecognitionService(
            amm,
            max_batch_size=MAX_BATCH_SIZE,
            max_wait=max_wait,
            workers=WORKERS,
        )

    concurrency_sweep = []
    for concurrency in CONCURRENCY_SWEEP:
        point = _measure(
            micro_batched_service(),
            recall_codes,
            requests=REQUESTS_PER_POINT,
            concurrency=concurrency,
            images_per_request=IMAGES_PER_REQUEST,
        )
        concurrency_sweep.append(point)

    window_sweep = []
    for max_wait in WINDOW_SWEEP:
        point = _measure(
            micro_batched_service(max_wait=max_wait),
            recall_codes,
            requests=REQUESTS_PER_POINT,
            concurrency=WINDOW_CONCURRENCY,
            images_per_request=IMAGES_PER_REQUEST,
        )
        point["max_wait_seconds"] = max_wait
        window_sweep.append(point)

    best = max(concurrency_sweep + window_sweep, key=lambda p: p["images_per_second"])
    speedup = best["images_per_second"] / batch1["images_per_second"]
    payload = {
        "array": {"rows": amm.crossbar.rows, "columns": amm.crossbar.columns},
        "service": {
            "max_batch_size": MAX_BATCH_SIZE,
            "max_wait_seconds": MAX_WAIT_SECONDS,
            "workers": WORKERS,
        },
        "batch1_dispatch": batch1,
        "concurrency_sweep": concurrency_sweep,
        "window_sweep": window_sweep,
        "best": best,
        "speedup_vs_batch1_dispatch": speedup,
    }
    merged = {}
    if OUTPUT_PATH.exists():
        merged = json.loads(OUTPUT_PATH.read_text())
    merged.update(payload)
    OUTPUT_PATH.write_text(json.dumps(merged, indent=2) + "\n")

    lines = [
        f"batch1 dispatch: {batch1['images_per_second']:8.1f} images/s "
        f"(p99 {batch1['latency']['p99_ms']:7.1f} ms)",
    ]
    for point in concurrency_sweep:
        lines.append(
            f"concurrency={point['concurrency']:<3d}  "
            f"{point['images_per_second']:8.1f} images/s "
            f"(p99 {point['latency']['p99_ms']:6.1f} ms, "
            f"fill {point['server']['mean_batch_fill']:.1f})"
        )
    for point in window_sweep:
        lines.append(
            f"window={point['max_wait_seconds'] * 1e3:4.1f} ms     "
            f"{point['images_per_second']:8.1f} images/s "
            f"(p99 {point['latency']['p99_ms']:6.1f} ms, "
            f"fill {point['server']['mean_batch_fill']:.1f})"
        )
    lines.append(f"micro-batching speedup vs batch1 dispatch: {speedup:.1f}x")
    write_result("serving", "\n".join(lines))

    assert best["images_per_second"] >= REQUIRED_IMAGES_PER_SECOND, (
        f"HTTP serving reached only {best['images_per_second']:.0f} images/s "
        f"(required {REQUIRED_IMAGES_PER_SECOND:.0f})"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"micro-batching reached only {speedup:.1f}x over batch_size=1 dispatch "
        f"(required {REQUIRED_SPEEDUP}x)"
    )


def _merge_bench_section(key, value):
    """Read-modify-write one section of BENCH_serving.json."""
    payload = {}
    if OUTPUT_PATH.exists():
        payload = json.loads(OUTPUT_PATH.read_text())
    payload[key] = value
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


#: The large-request comparison: one request carrying this many images.
LARGE_REQUEST_IMAGES = 1000


def test_streaming_vs_buffered_large_request(
    full_pipeline, recall_codes, write_result
):
    """A 1000-image request: buffered vs chunked streaming.

    The stream must return exactly the buffered rows (the seeded-recall
    invariant) while delivering its *first* row long before the buffered
    response's single body arrives — the latency win that motivates the
    streaming mode — with server-side buffering bounded by the
    submission window instead of the request size.
    """
    import numpy as np

    amm = full_pipeline.amm
    pool = np.asarray(recall_codes)
    codes = np.tile(pool, (LARGE_REQUEST_IMAGES // pool.shape[0] + 1, 1))[
        :LARGE_REQUEST_IMAGES
    ]
    seeds = list(range(LARGE_REQUEST_IMAGES))
    service = RecognitionService(
        amm, max_batch_size=MAX_BATCH_SIZE, max_wait=MAX_WAIT_SECONDS, workers=WORKERS
    )
    server = start_async_server(service, port=0, binary_port=None)
    try:
        with RecognitionClient("127.0.0.1", server.port, timeout=120.0) as client:
            begin = time.perf_counter()
            buffered = client.recognise_many(codes, seeds=seeds)
            buffered_total = time.perf_counter() - begin
        with RecognitionClient("127.0.0.1", server.port, timeout=120.0) as client:
            begin = time.perf_counter()
            first_row_at = None
            streamed = {}
            summary = None
            for event in client.recognise_stream(codes, seeds=seeds):
                if "result" in event:
                    if first_row_at is None:
                        first_row_at = time.perf_counter() - begin
                    streamed[event["index"]] = event["result"]
                elif event.get("done"):
                    summary = event
            stream_total = time.perf_counter() - begin
    finally:
        stop_async_server(server)

    assert summary == {
        "done": True,
        "count": LARGE_REQUEST_IMAGES,
        "ok": LARGE_REQUEST_IMAGES,
        "failed": 0,
    }
    assert len(buffered) == LARGE_REQUEST_IMAGES
    # Row-identical to the buffered path: same seeded substreams, same
    # engine — streaming changes delivery, never answers.  Discrete
    # fields must match exactly; the analog power to solver precision
    # (the two runs shard batches at different boundaries, so the BLAS
    # reduction order can differ in the last ulp).
    for index in range(LARGE_REQUEST_IMAGES):
        streamed_row = dict(streamed[index])
        buffered_row = dict(buffered[index])
        streamed_power = streamed_row.pop("static_power_w")
        buffered_power = buffered_row.pop("static_power_w")
        assert streamed_row == buffered_row
        assert streamed_power == pytest.approx(buffered_power, rel=1e-9)

    section = {
        "images": LARGE_REQUEST_IMAGES,
        "buffered_total_seconds": buffered_total,
        "stream_total_seconds": stream_total,
        "stream_first_row_seconds": first_row_at,
        "first_row_speedup_vs_buffered_total": buffered_total / first_row_at,
    }
    _merge_bench_section("streaming_large_request", section)
    write_result(
        "serving_streaming",
        "\n".join(
            [
                f"buffered 1000-image request: {buffered_total * 1e3:8.1f} ms to last byte",
                f"streamed 1000-image request: {stream_total * 1e3:8.1f} ms total, "
                f"first row after {first_row_at * 1e3:6.1f} ms",
                "first-row speedup vs buffered body: "
                f"{buffered_total / first_row_at:.1f}x",
            ]
        ),
    )
    # The headline claim: results identical, first row far earlier than
    # the buffered body (conservative 2x bound; typically >10x).
    assert first_row_at * 2 < buffered_total, (
        f"streaming delivered its first row after {first_row_at * 1e3:.1f} ms, "
        f"not measurably before the {buffered_total * 1e3:.1f} ms buffered body"
    )


#: Mixed-priority saturation shape: one worker, many client threads
#: posting large requests, so the pending queue stays deep and queued
#: low-priority rows are continually overtaken.
PRIORITY_MIX = (0, 9)
PRIORITY_CONCURRENCY = 12
PRIORITY_REQUESTS = 120
PRIORITY_IMAGES_PER_REQUEST = 48


def test_mixed_priority_latency_under_saturation(full_pipeline, recall_codes, write_result):
    """Under saturated mixed load, high-priority p50 beats low-priority.

    One worker and a small queue keep the service saturated; half the
    client threads post priority 0, half priority 9.  The priority-
    ordered pending queue must dispatch the high-priority requests ahead
    of the queued lows, which shows up as a measurably lower p50.
    """
    amm = full_pipeline.amm
    service = RecognitionService(
        amm,
        max_batch_size=MAX_BATCH_SIZE,
        max_wait=MAX_WAIT_SECONDS,
        max_queue_depth=256,
        workers=1,
    )
    server = start_async_server(service, port=0, binary_port=None)
    try:
        report = run_load(
            "127.0.0.1",
            server.port,
            recall_codes,
            requests=PRIORITY_REQUESTS,
            concurrency=PRIORITY_CONCURRENCY,
            images_per_request=PRIORITY_IMAGES_PER_REQUEST,
            priorities=PRIORITY_MIX,
        )
        with RecognitionClient("127.0.0.1", server.port) as client:
            stats = client.stats()
    finally:
        stop_async_server(server)

    assert report.errors == 0
    by_priority = report.priority_latency_percentiles()
    # Rejected requests record no latency; the comparison needs both
    # levels to have actually completed work (a clean assert beats a
    # KeyError when a slow host rejects a whole level).
    assert 0 in by_priority and 9 in by_priority, (
        f"saturation rejected a whole priority level: {sorted(by_priority)} "
        f"(rejected={report.rejected}, errors={report.errors})"
    )
    low_p50 = by_priority[0]["p50_ms"]
    high_p50 = by_priority[9]["p50_ms"]
    section = {
        "priorities": list(PRIORITY_MIX),
        "concurrency": PRIORITY_CONCURRENCY,
        "requests": PRIORITY_REQUESTS,
        "images_per_request": PRIORITY_IMAGES_PER_REQUEST,
        "low_priority_p50_ms": low_p50,
        "high_priority_p50_ms": high_p50,
        "p50_ratio_low_over_high": low_p50 / max(high_p50, 1e-9),
        "report": report.as_dict(),
        "server_priorities": stats["priorities"],
    }
    _merge_bench_section("priority_mix", section)
    write_result(
        "serving_priorities",
        "\n".join(
            [
                f"saturated mixed load ({PRIORITY_CONCURRENCY} threads, "
                f"priorities {PRIORITY_MIX}):",
                f"  low  (p=0) p50: {low_p50:8.2f} ms",
                f"  high (p=9) p50: {high_p50:8.2f} ms",
                f"  advantage: {low_p50 / max(high_p50, 1e-9):.2f}x",
            ]
        ),
    )
    assert high_p50 < low_p50, (
        f"high-priority p50 {high_p50:.2f} ms did not beat "
        f"low-priority p50 {low_p50:.2f} ms under saturation"
    )


def test_served_results_match_offline_recall(full_pipeline, recall_codes):
    """The HTTP path returns exactly what the seeded engine returns offline."""
    amm = full_pipeline.amm
    subset = recall_codes[:24]
    seeds = list(range(24))
    service = RecognitionService(amm, max_batch_size=16, max_wait=1e-3, workers=WORKERS)
    server = start_async_server(service, port=0, binary_port=None)
    try:
        with RecognitionClient("127.0.0.1", server.port) as client:
            served = client.recognise_many(subset, seeds=seeds)
    finally:
        stop_async_server(server)
    reference = amm.recognise_batch_seeded(subset, seeds)
    for index, result in enumerate(served):
        assert result["winner"] == reference[index].winner
        assert result["dom_code"] == reference[index].dom_code
        assert result["accepted"] == reference[index].accepted
        assert result["tie"] == reference[index].tie


# --------------------------------------------------------------------- #
# Connection sweep: the event loop at high connection counts
# --------------------------------------------------------------------- #

#: Keep-alive connection counts for the sweep.
CONNECTION_SWEEP = (16, 256, 1024)
SWEEP_IMAGES_PER_REQUEST = 16


def test_connection_sweep(full_pipeline, recall_codes, write_result):
    """Throughput and server threads vs keep-alive connection count.

    The asyncio front end pays one heap object per open connection, not
    one OS thread.  The same steady-state offered load (several
    keep-alive requests per connection from ``run_connection_load``'s
    single event loop, bodies pre-encoded) is driven at each connection
    count, best-of-2.  At C >= 256 throughput must stay above 0.9x the
    C=16 point (the thread-per-connection server this front end replaced
    recorded 0.90x of that point at C=1024) and the server's extra
    thread count must not move from its C=16 value.
    """
    import threading as threading_module

    from repro.serving import run_connection_load

    amm = full_pipeline.amm

    def fresh_service():
        # The sweep opens every connection before the first request, so
        # the instantaneous offered load is connections x images — the
        # queue must absorb the burst (this measures the front end, not
        # the admission policy; backpressure is exercised elsewhere).
        return RecognitionService(
            amm,
            max_batch_size=MAX_BATCH_SIZE,
            max_wait=MAX_WAIT_SECONDS,
            workers=WORKERS,
            max_queue_depth=max(CONNECTION_SWEEP) * SWEEP_IMAGES_PER_REQUEST * 2,
        )

    def measure(connections):
        server = start_async_server(fresh_service(), port=0, binary_port=None)
        baseline_threads = threading_module.active_count()
        peak_threads = [baseline_threads]

        def sample_threads(stop_event):
            while not stop_event.wait(0.05):
                peak_threads.append(threading_module.active_count())

        stop_sampling = threading_module.Event()
        sampler = threading_module.Thread(
            target=sample_threads, args=(stop_sampling,), daemon=True
        )
        sampler.start()
        try:
            report = run_connection_load(
                "127.0.0.1",
                server.port,
                recall_codes,
                requests=max(192, 3 * connections),
                connections=connections,
                images_per_request=SWEEP_IMAGES_PER_REQUEST,
                timeout=180.0,
            )
        finally:
            stop_sampling.set()
            sampler.join(2.0)
            stop_async_server(server)
        assert report.errors == 0 and report.rejected == 0, (
            f"C={connections}: {report.errors} errors, {report.rejected} rejected"
        )
        point = report.as_dict()
        point["connections"] = connections
        point["server_threads_peak"] = max(peak_threads) - baseline_threads
        return point

    # Two trials per connection count, best kept: best-of-2 shakes
    # single-run scheduler noise out of a throughput comparison.
    sweep = []
    for connections in CONNECTION_SWEEP:
        trials = [measure(connections) for _ in range(2)]
        sweep.append(max(trials, key=lambda point: point["images_per_second"]))

    _merge_bench_section("connection_sweep", {"async": sweep})
    lines = [
        f"async    C={point['connections']:<5d} "
        f"{point['images_per_second']:8.1f} images/s "
        f"(p99 {point['latency']['p99_ms']:7.1f} ms, "
        f"{point['server_threads_peak']:4d} extra threads)"
        for point in sweep
    ]
    write_result("serving_connections", "\n".join(lines))

    reference = sweep[0]
    for point in sweep[1:]:
        assert point["images_per_second"] > reference["images_per_second"] * 0.90, (
            f"async JSON frontend fell to {point['images_per_second']:.0f} images/s "
            f"at C={point['connections']} from "
            f"{reference['images_per_second']:.0f} images/s at C=16"
        )
        assert point["server_threads_peak"] == reference["server_threads_peak"], (
            f"async frontend used {point['server_threads_peak']} extra threads "
            f"at C={point['connections']} vs {reference['server_threads_peak']} at C=16"
        )


# --------------------------------------------------------------------- #
# Encode cost: JSON vs native binary on the same batch
# --------------------------------------------------------------------- #

#: Batch sizes for the JSON/binary comparison (rows per request).
ENCODE_BATCH_SIZES = (64, 256, 1024)
#: Images per protocol per batch size: the number of timing rounds is
#: this over the batch size, but never fewer than ``ENCODE_MIN_ROUNDS``.
ENCODE_TARGET_IMAGES = 4096
#: Each round times one JSON then one binary request on warm keep-alive
#: connections and the best round of each protocol is kept, so a noisy
#: stretch on a small shared host hits both protocols alike instead of
#: whichever one happened to run during it.
ENCODE_MIN_ROUNDS = 16
#: The satellite requirement: binary beats JSON by this factor at the
#: largest batch, where per-row text cost dominates the JSON path.
REQUIRED_BINARY_SPEEDUP = 1.5
#: Geometry of the encode-cost module: production feature width (so the
#: JSON text cost per row is the real one) on an *ideal* crossbar.  With
#: parasitics on, the per-row MNA solve is ~200 us — it swamps both
#: encodings equally and the comparison measures the engine, not the
#: wire.  The ideal solve leaves serialization as the dominant cost,
#: which is exactly what this section exists to compare.
ENCODE_FEATURES = 128
ENCODE_TEMPLATES = 6
ENCODE_SEED = 11
#: Service shape for the encode runs: one 512-row micro-batch window
#: keeps the batcher out of the way of the serialization measurement.
ENCODE_MAX_BATCH = 512


class _CountingProxy:
    """Minimal byte-counting TCP forwarder for the bytes-on-wire numbers."""

    def __init__(self, upstream_port: int) -> None:
        import socket as socket_module
        import threading

        self._socket = socket_module
        self._upstream_port = upstream_port
        self._listener = socket_module.create_server(("127.0.0.1", 0), backlog=4)
        self.port = self._listener.getsockname()[1]
        self.to_server = 0
        self.to_client = 0
        self._lock = threading.Lock()
        self._threading = threading
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            upstream = self._socket.create_connection(
                ("127.0.0.1", self._upstream_port), timeout=10.0
            )
            for source, sink, attribute in (
                (client, upstream, "to_server"),
                (upstream, client, "to_client"),
            ):
                self._threading.Thread(
                    target=self._pump, args=(source, sink, attribute), daemon=True
                ).start()

    def _pump(self, source, sink, attribute) -> None:
        while True:
            try:
                chunk = source.recv(65536)
            except OSError:
                break
            if not chunk:
                break
            with self._lock:
                setattr(self, attribute, getattr(self, attribute) + len(chunk))
            try:
                sink.sendall(chunk)
            except OSError:
                break
        for sock in (source, sink):
            try:
                sock.close()
            except OSError:
                pass

    def close(self) -> None:
        self._listener.close()


def test_encode_cost_json_vs_binary(full_pipeline, recall_codes, write_result):
    """Same batches, two encodings: JSON text vs raw little-endian arrays.

    Measures end-to-end images/s and exact bytes-on-wire (through a
    counting proxy) for identical recall batches over the JSON API and
    the native binary endpoint of the async front end.  Timing is
    interleaved best-of-N: JSON, binary, JSON, binary, … with the
    fastest request of each protocol kept.  The comparison
    runs on the production 128-code row shape over an ideal crossbar
    (see ``ENCODE_FEATURES``): serialization is then the dominant
    per-row cost, and the binary path must clear
    ``REQUIRED_BINARY_SPEEDUP`` over JSON at the largest batch, where
    the per-row ``json.dumps``/``json.loads``/base-10 cost is the whole
    story.  A second subsection runs one bulk binary request through the
    *full* parasitic pipeline and records what fraction of the offline
    engine ceiling (``BENCH_throughput.json``) survives the entire
    serving stack.
    """
    import numpy as np

    from repro.core.amm import AssociativeMemoryModule
    from repro.serving import BinaryRecognitionClient

    rng = np.random.default_rng(ENCODE_SEED)
    templates = rng.integers(0, 32, size=(ENCODE_FEATURES, ENCODE_TEMPLATES))
    amm = AssociativeMemoryModule.from_templates(
        templates, seed=ENCODE_SEED, include_parasitics=False
    )
    pool = rng.integers(0, 32, size=(max(ENCODE_BATCH_SIZES), ENCODE_FEATURES))
    service = RecognitionService(
        amm,
        max_batch_size=ENCODE_MAX_BATCH,
        max_wait=MAX_WAIT_SECONDS,
        max_queue_depth=4096,
        workers=WORKERS,
    )
    server = start_async_server(service, port=0, binary_port=0)
    points = []
    try:
        for batch_size in ENCODE_BATCH_SIZES:
            codes = pool[:batch_size]
            seeds = list(range(batch_size))
            rounds = max(ENCODE_MIN_ROUNDS, ENCODE_TARGET_IMAGES // batch_size)

            json_seconds = binary_seconds = float("inf")
            with RecognitionClient(
                "127.0.0.1", server.port, timeout=120.0
            ) as json_client, BinaryRecognitionClient(
                "127.0.0.1", server.binary_port, timeout=120.0
            ) as binary_client:
                for _ in range(rounds):
                    begin = time.perf_counter()
                    json_rows = json_client.recognise_many(codes, seeds=seeds)
                    json_seconds = min(json_seconds, time.perf_counter() - begin)
                    begin = time.perf_counter()
                    binary_result = binary_client.recognise_batch(codes, seeds=seeds)
                    binary_seconds = min(binary_seconds, time.perf_counter() - begin)
            assert binary_result.failed == 0
            # The two encodings answer identically, row for row.
            assert [row["winner"] for row in json_rows] == binary_result.winner.tolist()

            # Exact bytes-on-wire for one batch of each encoding.
            json_proxy = _CountingProxy(server.port)
            with RecognitionClient("127.0.0.1", json_proxy.port, timeout=120.0) as client:
                client.recognise_many(codes, seeds=seeds)
            json_proxy.close()
            binary_proxy = _CountingProxy(server.binary_port)
            with BinaryRecognitionClient(
                "127.0.0.1", binary_proxy.port, timeout=120.0
            ) as client:
                client.recognise_batch(codes, seeds=seeds)
            binary_proxy.close()

            points.append(
                {
                    "batch_size": batch_size,
                    "rounds": rounds,
                    "json_images_per_second": batch_size / json_seconds,
                    "binary_images_per_second": batch_size / binary_seconds,
                    "binary_speedup": json_seconds / binary_seconds,
                    "json_bytes_to_server": json_proxy.to_server,
                    "json_bytes_to_client": json_proxy.to_client,
                    "binary_bytes_to_server": binary_proxy.to_server,
                    "binary_bytes_to_client": binary_proxy.to_client,
                    "wire_bytes_ratio_json_over_binary": (
                        (json_proxy.to_server + json_proxy.to_client)
                        / max(1, binary_proxy.to_server + binary_proxy.to_client)
                    ),
                }
            )
    finally:
        stop_async_server(server)

    # Full-pipeline ceiling: the same bulk binary request, but through
    # the real parasitic 128x40 engine — how much of the offline
    # throughput headline survives quotas, micro-batching, the event
    # loop and the wire.
    full_service = RecognitionService(
        full_pipeline.amm,
        max_batch_size=256,
        max_wait=MAX_WAIT_SECONDS,
        max_queue_depth=4096,
        workers=WORKERS,
    )
    full_server = start_async_server(full_service, port=0, binary_port=0)
    try:
        full_codes = np.tile(np.asarray(recall_codes), (8, 1))[:1024]
        full_seeds = list(range(full_codes.shape[0]))
        with BinaryRecognitionClient(
            "127.0.0.1", full_server.binary_port, timeout=120.0
        ) as client:
            client.recognise_batch(full_codes, seeds=full_seeds)  # warm
            begin = time.perf_counter()
            for _ in range(3):
                client.recognise_batch(full_codes, seeds=full_seeds)
            full_seconds = time.perf_counter() - begin
    finally:
        stop_async_server(full_server)
    full_binary_ips = 3 * full_codes.shape[0] / full_seconds

    section = {
        "points": points,
        "module": {
            "features": ENCODE_FEATURES,
            "templates": ENCODE_TEMPLATES,
            "include_parasitics": False,
        },
        "full_pipeline_binary_images_per_second": full_binary_ips,
    }
    engine_ceiling = None
    throughput_path = OUTPUT_PATH.parent / "BENCH_throughput.json"
    if throughput_path.exists():
        engine_ceiling = json.loads(throughput_path.read_text())["best"][
            "images_per_second"
        ]
        section["engine_ceiling_images_per_second"] = engine_ceiling
        section["binary_fraction_of_engine_ceiling"] = (
            full_binary_ips / engine_ceiling
        )
    _merge_bench_section("encode_cost", section)

    lines = []
    for point in points:
        lines.append(
            f"batch={point['batch_size']:<5d} "
            f"json {point['json_images_per_second']:8.1f} images/s "
            f"({point['json_bytes_to_server'] + point['json_bytes_to_client']:>9d} B)  "
            f"binary {point['binary_images_per_second']:8.1f} images/s "
            f"({point['binary_bytes_to_server'] + point['binary_bytes_to_client']:>9d} B)  "
            f"speedup {point['binary_speedup']:.2f}x, "
            f"wire ratio {point['wire_bytes_ratio_json_over_binary']:.2f}x"
        )
    lines.append(
        f"full parasitic pipeline, bulk binary: {full_binary_ips:8.1f} images/s"
    )
    if engine_ceiling is not None:
        lines.append(
            f"binary vs engine ceiling ({engine_ceiling:.0f} images/s): "
            f"{section['binary_fraction_of_engine_ceiling'] * 100:.1f}%"
        )
    write_result("serving_encode_cost", "\n".join(lines))

    largest = points[-1]
    assert largest["binary_speedup"] >= REQUIRED_BINARY_SPEEDUP, (
        f"binary endpoint reached only {largest['binary_speedup']:.2f}x over JSON "
        f"at batch={largest['batch_size']} (required {REQUIRED_BINARY_SPEEDUP}x)"
    )
