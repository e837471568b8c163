"""Serve associative recall over HTTP and fire concurrent client traffic.

Boots the micro-batching recognition service (``repro.serving``) on an
ephemeral port, classifies a handful of corpus images through plain
single-image ``POST /recognise`` calls from several concurrent client
threads — exactly the traffic shape the micro-batcher coalesces — and
prints the server's ``/stats`` summary: throughput, batch-fill histogram
and latency percentiles.

Run with ``PYTHONPATH=src python examples/serving_demo.py``; the defaults
use a reduced 12-class pipeline so the demo finishes in a few seconds.
The same flow doubles as the CI serving smoke test (boot, round-trip,
clean shutdown).
"""

from __future__ import annotations

import argparse
import threading
from typing import List, Optional, Sequence

from repro.core.pipeline import build_pipeline
from repro.datasets.attlike import load_default_dataset
from repro.serving import (
    RecognitionClient,
    RecognitionService,
    start_async_server,
    stop_async_server,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=12, help="stored classes")
    parser.add_argument("--requests", type=int, default=48, help="images to classify")
    parser.add_argument("--concurrency", type=int, default=4, help="client threads")
    parser.add_argument("--seed", type=int, default=2013)
    from repro.backends import backend_names

    parser.add_argument(
        "--backend",
        default="threads",
        choices=backend_names(),
        help="execution backend for the recall engine pool",
    )
    arguments = parser.parse_args(argv)

    print(f"building a {arguments.subjects}-class pipeline ...")
    dataset = load_default_dataset(subjects=arguments.subjects, seed=arguments.seed)
    pipeline = build_pipeline(dataset, seed=arguments.seed)
    codes = pipeline.extractor.extract_many(dataset.test_images)

    service = RecognitionService(
        pipeline.amm,
        max_batch_size=16,
        max_wait=2e-3,
        workers=2,
        backend=arguments.backend,
    )
    server = start_async_server(service, port=0, binary_port=None)
    print(f"serving on http://127.0.0.1:{server.port} (backend={arguments.backend})")

    correct: List[int] = []
    failures: List[str] = []
    lock = threading.Lock()

    def drive(thread_index: int) -> None:
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                for index in range(
                    thread_index, arguments.requests, arguments.concurrency
                ):
                    image = index % codes.shape[0]
                    result = client.recognise(codes[image], seed=index)
                    with lock:
                        correct.append(
                            int(result["winner"] == int(dataset.test_labels[image]))
                        )
        except Exception as error:  # surface in main(): the smoke must fail
            with lock:
                failures.append(f"client thread {thread_index}: {error}")

    threads = [
        threading.Thread(target=drive, args=(index,))
        for index in range(arguments.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    with RecognitionClient("127.0.0.1", server.port) as client:
        health = client.healthz()
        stats = client.stats()
    stop_async_server(server)

    if failures or len(correct) != arguments.requests:
        for failure in failures:
            print(f"FAILED: {failure}")
        print(f"only {len(correct)}/{arguments.requests} requests completed")
        return 1

    accuracy = sum(correct) / max(len(correct), 1)
    latency = stats["latency"]
    print(f"health: {health['status']} ({health['workers']} workers)")
    print(f"classified {len(correct)} images, accuracy {accuracy:.2f}")
    print(
        f"server: {stats['batches']['dispatched']} micro-batches, "
        f"mean fill {stats['batches']['mean_fill']:.1f}, "
        f"fill histogram {stats['batches']['fill_histogram']}"
    )
    print(
        f"latency p50/p90/p99: {latency['p50_ms']:.1f}/"
        f"{latency['p90_ms']:.1f}/{latency['p99_ms']:.1f} ms"
    )
    print(f"completed {stats['requests']['completed']} requests, clean shutdown")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
