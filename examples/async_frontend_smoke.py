"""Async-frontend smoke test: HTTP costs the service little throughput.

Builds the reduced pipeline from ``quickstart.py``, serves it from the
``processes`` execution backend, and offers the same load two ways:
over JSON HTTP through the asyncio front end, and in-process — the
same :class:`RecognitionService` driven by ``--concurrency`` threads,
each calling ``service.recognise_many`` on ``--images-per-request``
rows, with no HTTP at all.  A second async phase then serves buffered
JSON, NDJSON streams and the native binary endpoint *concurrently* from
the one event loop — mixed traffic through the one shared row loop —
and checks the stream and binary answers bit-for-bit against the
engine.  The script prints both throughputs and fails (exit code 1) if
the async JSON throughput lands below ``--floor`` times the in-process
throughput: the front end must not give away what the batched engine
and the micro-batcher earn.

The default floor is 0.9x the ratio the retired thread-per-connection
front end reached against the same in-process reference (median 0.61
over seven runs of this protocol on a 2-core host), so the single
event loop must hold at least what the threaded server held.

CI runs this after the unit suite as a throughput smoke check::

    python examples/async_frontend_smoke.py

Options: ``--requests N`` (default 48), ``--concurrency C`` (default 8),
``--images-per-request I`` (default 16), ``--floor F``, ``--rounds R``
(default 3, best-of-R interleaved).
"""

from __future__ import annotations

import argparse
import threading
import time

from repro import load_default_dataset
from repro.core.config import DesignParameters
from repro.core.pipeline import build_pipeline
from repro.serving import (
    BinaryRecognitionClient,
    RecognitionClient,
    RecognitionService,
    run_load,
    start_async_server,
    stop_async_server,
)


#: Async JSON images/s over in-process images/s below which the smoke
#: fails (see the module docstring for where it comes from).
FLOOR = 0.55


def _make_service(amm):
    return RecognitionService(
        amm,
        max_batch_size=32,
        max_wait=1e-3,
        max_queue_depth=4096,
        workers=2,
        backend="processes",
    )


def _drive_json(host, port, codes, arguments):
    report = run_load(
        host,
        port,
        codes,
        requests=arguments.requests,
        concurrency=arguments.concurrency,
        images_per_request=arguments.images_per_request,
        timeout=60.0,
    )
    if report.errors or report.rejected:
        raise RuntimeError(
            f"load run saw {report.errors} errors, {report.rejected} rejected"
        )
    return report.images / report.elapsed_seconds


def _drive_inprocess(service, codes, arguments):
    """The JSON load's offered work, without HTTP: ``--concurrency``
    threads each gather ``--images-per-request`` rows per call, drawn
    and seeded exactly as :func:`run_load` draws them."""
    counter = iter(range(arguments.requests))
    lock = threading.Lock()
    per_request = arguments.images_per_request
    failure: list = []

    def drive():
        try:
            while True:
                with lock:
                    request = next(counter, None)
                if request is None:
                    return
                first = request * per_request
                rows = [(first + offset) % codes.shape[0] for offset in range(per_request)]
                seeds = [first + offset for offset in range(per_request)]
                service.recognise_many(codes[rows], seeds=seeds, timeout=60.0)
        except Exception as error:  # surfaced to the main thread below
            failure.append(error)

    threads = [threading.Thread(target=drive) for _ in range(arguments.concurrency)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    if failure:
        raise failure[0]
    return arguments.requests * per_request / elapsed


def _measure_inprocess(amm, codes, arguments):
    with _make_service(amm) as service:
        _drive_inprocess(service, codes, arguments)  # warm up
        return _drive_inprocess(service, codes, arguments)


def _measure_async(amm, codes, arguments):
    server = start_async_server(_make_service(amm), port=0, binary_port=None)
    try:
        _drive_json("127.0.0.1", server.port, codes, arguments)  # warm up
        return _drive_json("127.0.0.1", server.port, codes, arguments)
    finally:
        stop_async_server(server)


def _mixed_smoke(amm, codes, arguments):
    """Serve all three request shapes concurrently from one event loop:
    while the buffered JSON load runs, one thread pushes binary batches
    and another NDJSON streams, each answer checked bit-for-bit against
    the engine.  Correctness smoke only — the three share the engine,
    so throughput is not compared here."""
    server = start_async_server(_make_service(amm), port=0, binary_port=0)
    stop = threading.Event()
    completed = {"binary": 0, "stream": 0}
    failure: list = []
    seeds = [int(seed) for seed in range(codes.shape[0])]
    reference = [row.winner for row in amm.recognise_batch_seeded(codes, seeds)]

    def binary_winners():
        with BinaryRecognitionClient(
            "127.0.0.1", server.binary_port, client_id="smoke-binary"
        ) as client:
            while not stop.is_set():
                result = client.recognise_batch(codes, seeds=seeds)
                if result.ok != codes.shape[0]:
                    raise RuntimeError(f"binary batch failed {result.failed} rows")
                yield result.winner.tolist()

    def stream_winners():
        with RecognitionClient(
            "127.0.0.1", server.port, timeout=60.0, client_id="smoke-stream"
        ) as client:
            while not stop.is_set():
                events = list(client.recognise_stream(codes, seeds=seeds))
                if events[-1] != {
                    "done": True, "count": codes.shape[0], "ok": codes.shape[0], "failed": 0
                }:
                    raise RuntimeError(f"NDJSON stream ended with {events[-1]}")
                yield [event["result"]["winner"] for event in events[:-1]]

    def mixer(name, answers):
        try:
            for winners in answers():
                if winners != reference:
                    raise RuntimeError(f"{name} winners diverge from the engine")
                completed[name] += 1
        except Exception as error:  # surfaced to the main thread below
            failure.append(error)

    mixers = [
        threading.Thread(target=mixer, args=("binary", binary_winners), daemon=True),
        threading.Thread(target=mixer, args=("stream", stream_winners), daemon=True),
    ]
    try:
        for thread in mixers:
            thread.start()
        _drive_json("127.0.0.1", server.port, codes, arguments)
        stop.set()
        for thread in mixers:
            thread.join(timeout=60.0)
        if failure:
            raise failure[0]
        if any(thread.is_alive() for thread in mixers):
            raise RuntimeError("a mixer thread did not finish")
        for name, count in completed.items():
            if count == 0:
                raise RuntimeError(f"{name} mixer completed no requests")
        return completed
    finally:
        stop.set()
        stop_async_server(server)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--images-per-request", type=int, default=16)
    parser.add_argument("--floor", type=float, default=FLOOR)
    parser.add_argument("--rounds", type=int, default=3)
    arguments = parser.parse_args(argv)

    parameters = DesignParameters(template_shape=(8, 4), num_templates=10)
    dataset = load_default_dataset(
        subjects=10, images_per_subject=6, image_shape=(64, 48), seed=7
    )
    pipeline = build_pipeline(dataset, parameters=parameters, seed=7)
    codes = pipeline.extractor.extract_many(dataset.test_images)
    print(
        f"Serving a {pipeline.amm.crossbar.rows}x"
        f"{pipeline.amm.crossbar.columns} crossbar on the processes "
        f"backend: {arguments.requests} requests x "
        f"{arguments.images_per_request} images, "
        f"concurrency={arguments.concurrency}"
    )

    # Interleave best-of-N rounds: the in-process and async passes see
    # the same host load drift, so the ratio measures HTTP, not weather.
    inprocess_ips = async_ips = 0.0
    for _ in range(max(1, arguments.rounds)):
        inprocess_ips = max(
            inprocess_ips, _measure_inprocess(pipeline.amm, codes, arguments)
        )
        async_ips = max(
            async_ips, _measure_async(pipeline.amm, codes, arguments)
        )
    mixed = _mixed_smoke(pipeline.amm, codes, arguments)

    ratio = async_ips / inprocess_ips
    print(f"  in-process:    {inprocess_ips:8.1f} images/s")
    print(f"  async JSON:    {async_ips:8.1f} images/s ({ratio:.2f}x in-process)")
    print(
        f"  mixed phase: JSON load served with {mixed['binary']} concurrent "
        f"binary batches and {mixed['stream']} NDJSON streams, all "
        "bit-identical to the engine"
    )

    if ratio < arguments.floor:
        print(
            f"FAIL: async front end is {ratio:.2f}x in-process, below the "
            f"{arguments.floor:.2f}x floor — the event loop is dropping "
            "throughput it should be holding"
        )
        return 1
    print("async frontend smoke check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
