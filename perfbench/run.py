"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline_recall --seed 1 --seconds 15 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` measures half the time untraced and half traced
and prints the per-layer metrics.  The metric names, units and bounds
are those of ``BENCHMARK.json``; ``README.md`` explains them.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run also appends a record (metrics, host fingerprint, commit) to
``.perfbench/records.jsonl`` and, when traced, writes its spans to
``.perfbench/spans-<workload>-<seed>.json``.  Exit status: 0 when every
served row matched the reference, 1 when one did not (the result line
says ``"correct": false``) or the run failed, 2 for bad usage or a
checkout without the program's sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"

#: BLAS runs single-threaded unless the caller's environment says
#: otherwise.  The engine's per-image systems are 128x128, too small for
#: threaded BLAS (one thread is faster at every batch size on 2 cores),
#: and threaded BLAS spinning against the serving threads stalls single
#: solves for up to ~190 ms, which made serve_small's tail bimodal.  The
#: setting is part of the host fingerprint.
BLAS_THREADS = "1"


def parse_args(argv: Optional[List[str]], workloads: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def metric_specs() -> Dict[str, Dict[str, dict]]:
    """``BENCHMARK.json``'s metrics by section and name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        section: {metric["name"]: metric for metric in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def end_to_end(workload, phase, setups, accuracy, energy_pj, rss_mb) -> Dict[str, float]:
    if workload.serving:
        images_per_s = phase.rows_ok / phase.window_s
    else:
        images_per_s = workload.rows_per_request / (statistics.median(phase.latencies) * 1e-9)
    return {
        "setup_s": statistics.median(setups),
        "images_per_s": images_per_s,
        "latency_p50_ms": statistics.median(phase.latencies) * 1e-6,
        "peak_rss_mb": rss_mb,
        "accuracy": accuracy,
        "energy_pj_per_recognition": energy_pj,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, load, check and tear down one workload; returns the record."""
    import host
    import workloads as wl
    from repro.backends.registry import create_backend
    from spans import Tracer, instrumented, percentile

    workload = wl.WORKLOADS[workload_name]
    thread_baseline = threading.active_count()
    system, setups = wl.timed_setups(workload)
    oracle = None
    clients: list = []
    tracer = Tracer()
    engine = tracer
    service_delta = None
    try:
        stream = wl.RowStream(system.codes, system.labels, seed)
        oracle = create_backend("serial", system.amm).prepare()
        system.backend.tracer = tracer
        if workload.serving:
            clients = wl.open_clients(system, workload)

        def drive(length: float):
            if workload.serving:
                return wl.run_serving(clients, workload, stream, length, tracer)
            return wl.run_offline(system, stream, length, tracer)

        phases = [drive(wl.WARMUP_SECONDS)]
        if trace:
            phases.append(drive(seconds / 2))
            before = system.service.stats() if workload.serving else None
            with instrumented(tracer):
                tracer.enabled = True
                try:
                    phases.append(drive(seconds / 2))
                finally:
                    tracer.enabled = False
            if workload.serving:
                service_delta = wl.stats_delta(before, system.service.stats())
            # The engine ran in another process when no engine span was seen.
            engine = (
                tracer
                if tracer.named("amm.recognise")
                else wl.replay_engine(oracle, system.backend.recorded)
            )
        else:
            phases.append(drive(seconds))
        wrong, accuracy, energy_pj = wl.verify(oracle, system.amm, stream, phases)
        layers = (
            wl.layer_metrics(workload, phases[1], phases[2], tracer, engine, service_delta)
            if trace
            else None
        )
    finally:
        try:
            wl.close_clients(clients)
            system.close()
        finally:
            if oracle is not None:
                oracle.close()
    host.check_hygiene(thread_baseline)

    attempted = sum(phase.rows_ok + phase.rows_failed for phase in phases)
    failed = sum(phase.rows_failed for phase in phases) + len(wrong)
    measured = phases[1]
    metrics = end_to_end(workload, measured, setups, accuracy, energy_pj, host.peak_rss_mb())
    fingerprint = host.fingerprint()
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": host.git_commit(ROOT),
        "source_digest": host.source_digest(SRC),
        "fingerprint_id": host.fingerprint_id(fingerprint),
        "fingerprint": fingerprint,
        "correct": not wrong,
        "wrong_rows": wrong[:20],
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "end_to_end": metrics,
        "samples": len(measured.latencies),
        "latency_percentiles_ms": {
            f"p{fraction * 100:g}": percentile(measured.latencies, fraction) * 1e-6
            for fraction in (0.5, 0.75, 0.9, 0.95, 0.99)
        },
        "setup_runs_s": setups,
        "per_layer": layers,
        "spans": tracer.spans,
        "resolved": tracer.resolved,
        "replay_spans": engine.spans if engine is not tracer else [],
    }


def report(record: dict, specs: Dict[str, Dict[str, dict]]) -> None:
    """Human-readable summary, printed before the result line."""
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']:g} trace={record['trace']}"
    )
    fingerprint = record["fingerprint"]
    print(
        f"host {record['fingerprint_id']}: nproc={fingerprint['nproc']} "
        f"python={fingerprint['python']} numpy={fingerprint['numpy']} "
        f"scipy={fingerprint['scipy']} blas={fingerprint['blas']} "
        f"{fingerprint['blas_version']} blas_threads={fingerprint['blas_threads']} "
        f"commit={record['commit']} source={record['source_digest']}"
    )
    notes = {
        "setup_s": f"median of {len(record['setup_runs_s'])} set-ups",
        "latency_p50_ms": f"{record['samples']} samples",
        "accuracy": "modelled",
        "energy_pj_per_recognition": "modelled",
    }
    title = "end-to-end (untraced phase)" if record["trace"] else "end-to-end"
    print(title)
    for name, value in record["end_to_end"].items():
        unit = specs["end_to_end"][name]["unit"]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {unit}{note}")
    print(
        f"  {'failed_share':<28} {record['failed_share']:>14.6g} fraction"
        f"  ({record['failed']} of {record['attempted']} rows failed or wrong)"
    )
    samples = record["samples"]
    tails = ", ".join(
        f"{name} {value:.4g} ({samples - math.ceil(samples * float(name[1:]) / 100)} beyond)"
        for name, value in record["latency_percentiles_ms"].items()
    )
    print(f"  latency percentiles, ms, of {samples} samples: {tails}")
    if record["per_layer"] is not None:
        print("per layer (traced phase)")
        for name, value in record["per_layer"].items():
            print(f"  {name:<28} {value:>14.6g} {specs['per_layer'][name]['unit']}")


def save(record: dict) -> None:
    """Append the record to the history and write the run's spans."""
    OUTPUT.mkdir(exist_ok=True)
    spans = {
        "spans": [span.as_dict() for span in record.pop("spans")],
        "resolved": {str(seed): ns for seed, ns in record.pop("resolved").items()},
        "replay_spans": [span.as_dict() for span in record.pop("replay_spans")],
    }
    if record["trace"]:
        path = OUTPUT / f"spans-{record['workload']}-{record['seed']}.json"
        path.write_text(json.dumps(spans))
    with (OUTPUT / "records.jsonl").open("a") as history:
        history.write(json.dumps(record) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import host

    for name in host.BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, BLAS_THREADS)
    # Spawned worker agents import the program from the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    # A terminated run still tears down its server, backend and worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    specs = metric_specs()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    values = record[section]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in specs[section].items()
        },
    }
    report(record, specs)
    save(record)
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
