"""Kill a remote worker mid-load and prove the serving path recovers.

The CI smoke for the ``remote`` execution backend:

1. spawn two ``python -m repro worker`` agents on localhost (ephemeral
   ports, addresses parsed back from their startup lines);
2. boot the HTTP recognition service on ``backend="remote"`` over both
   agents and pin a reference answer batch against the serial backend;
3. drive concurrent load, and **kill one agent** part-way through —
   in-flight shards must retry onto the survivor, so every request
   either succeeds or fails with a *retryable* 503, never a wrong
   answer;
4. after the load drains, re-ask the reference batch and require it
   bit-equal in every discrete field to the serial answer (invariant
   results), then restart the dead agent and require the supervisor to
   reconnect to it.

Exits non-zero on any violation.  Run with
``PYTHONPATH=src python examples/remote_failover_demo.py``.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Optional, Sequence

import numpy as np

from repro.backends import spawn_local_worker
from repro.core.pipeline import build_pipeline
from repro.datasets.attlike import load_default_dataset
from repro.serving import (
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--subjects", type=int, default=8, help="stored classes")
    parser.add_argument("--requests", type=int, default=32, help="HTTP requests")
    parser.add_argument("--concurrency", type=int, default=4, help="client threads")
    parser.add_argument("--seed", type=int, default=2013)
    arguments = parser.parse_args(argv)

    print("spawning two localhost worker agents ...", flush=True)
    victim, victim_address = spawn_local_worker()
    survivor, survivor_address = spawn_local_worker()
    print(f"  workers: {victim_address} (victim), {survivor_address}", flush=True)

    print(f"building a {arguments.subjects}-class pipeline ...", flush=True)
    dataset = load_default_dataset(subjects=arguments.subjects, seed=arguments.seed)
    pipeline = build_pipeline(dataset, seed=arguments.seed)
    codes = pipeline.extractor.extract_many(dataset.test_images)
    reference_codes = codes[:8]
    reference_seeds = list(range(900, 908))
    reference = pipeline.amm.recognise_batch_seeded(
        reference_codes, np.asarray(reference_seeds)
    )

    service = RecognitionService(
        pipeline.amm,
        max_batch_size=16,
        max_wait=2e-3,
        workers=2,
        backend="remote",
        backend_options={
            "worker_addresses": [victim_address, survivor_address],
            "min_shard_size": 2,
            "heartbeat_interval": 0.2,
            "backoff_base": 0.05,
        },
    )
    server = start_async_server(service, port=0, binary_port=None)
    backend = service.pool.backend
    print(f"serving on http://127.0.0.1:{server.port} (backend=remote)", flush=True)

    outcomes = {"ok": 0, "retryable": 0, "fatal": 0}
    lock = threading.Lock()

    def check(expected_rows, results) -> bool:
        return len(results) == expected_rows

    def drive(thread_index: int) -> None:
        with RecognitionClient("127.0.0.1", server.port, timeout=60.0) as client:
            for request in range(arguments.requests // arguments.concurrency):
                base = (thread_index * 1000) + request * 8
                rows = codes[(base // 8) % max(1, codes.shape[0] - 8):][:8]
                seeds = [base + offset for offset in range(rows.shape[0])]
                try:
                    results = client.recognise_many(rows, seeds=seeds)
                    with lock:
                        outcomes["ok" if check(rows.shape[0], results) else "fatal"] += 1
                except ServerError as error:
                    with lock:
                        if error.status == 503:
                            outcomes["retryable"] += 1  # worker loss window
                        else:
                            outcomes["fatal"] += 1
                except OSError:
                    with lock:
                        outcomes["fatal"] += 1

    threads = [
        threading.Thread(target=drive, args=(index,), name=f"load-{index}")
        for index in range(arguments.concurrency)
    ]
    killer = threading.Timer(0.5, lambda: (print("  killing victim worker ...",
                                                flush=True), victim.terminate()))
    for thread in threads:
        thread.start()
    killer.start()
    for thread in threads:
        thread.join()
    killer.join()
    victim.wait(timeout=10.0)

    failures = []
    if outcomes["fatal"]:
        failures.append(f"{outcomes['fatal']} non-retryable request failures")
    if outcomes["ok"] == 0:
        failures.append("no request succeeded at all")
    print(
        f"load done: {outcomes['ok']} ok, {outcomes['retryable']} retryable 503s, "
        f"{outcomes['fatal']} fatal",
        flush=True,
    )

    # Invariant results after the loss: the surviving replica must give
    # the exact serial answer.
    with RecognitionClient("127.0.0.1", server.port, timeout=60.0) as client:
        results = client.recognise_many(reference_codes, seeds=reference_seeds)
    diverged = False
    for index, row in enumerate(results):
        if (
            row["winner_column"] != int(reference.winner_column[index])
            or row["dom_code"] != int(reference.dom_code[index])
            or row["accepted"] != bool(reference.accepted[index])
        ):
            failures.append(f"post-kill result {index} diverged: {row}")
            diverged = True
    if not diverged:
        print("post-kill reference batch matches the serial answer", flush=True)

    # Recovery: restart an agent on any port, repoint is not needed —
    # the supervisor keeps re-dialling the victim's address, so bring
    # the worker back *there* and wait for the reconnect.
    print("restarting the victim worker ...", flush=True)
    from repro.backends import WorkerServer

    replacement = WorkerServer(host=victim_address[0], port=victim_address[1])
    replacement.start()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if all(replica.alive for replica in backend._replicas):
            break
        time.sleep(0.05)
    else:
        failures.append("supervisor never reconnected to the restarted worker")
    if not failures:
        print(
            f"reconnected (reconnects={backend.reconnects}, "
            f"retried_shards={backend.retried_shards}); final check ...",
            flush=True,
        )
        with RecognitionClient("127.0.0.1", server.port, timeout=60.0) as client:
            results = client.recognise_many(reference_codes, seeds=reference_seeds)
        for index, row in enumerate(results):
            if row["winner_column"] != int(reference.winner_column[index]):
                failures.append(f"post-recovery result {index} diverged: {row}")

    stop_async_server(server)
    replacement.close()
    survivor.terminate()
    survivor.wait(timeout=10.0)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", flush=True)
        return 1
    print("remote failover smoke passed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
