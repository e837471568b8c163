"""Command-line interface for regenerating the paper's headline results.

``python -m repro <command>`` exposes the most commonly wanted outputs
without writing any code:

* ``table1`` — the power/frequency/energy comparison of Table 1;
* ``table2`` — the design-parameter listing of Table 2;
* ``fig13a`` — the static/dynamic power split versus DWN threshold;
* ``accuracy`` — the Fig. 3 accuracy sweeps on the synthetic corpus;
* ``recognise`` — build the reference 128x40 pipeline and classify a few
  images end to end (``--batch-size`` selects the recall granularity;
  1 = legacy per-sample loop);
* ``throughput`` — evaluate the corpus through the batched recall engine
  and report images/second (``--backend
  auto|serial|threads|processes|remote|fleet`` recalls through a named
  execution backend with ``--workers`` units — ``auto``, the default,
  routes each batch by a calibrated cost model);
* ``worker`` — run a remote recall worker agent
  (``python -m repro worker --listen HOST:PORT``) that backends created
  with ``--backend remote --workers host:port,...`` dispatch shards to
  over the pickle-free wire protocol; ``--announce CONTROL`` makes the
  agent JOIN a running fleet (scale-out under load) as soon as it is
  listening;
* ``admin`` — fleet control verbs (``status`` / ``join`` / ``drain`` /
  ``respec``) against the control socket of a serving process booted
  with ``--backend fleet --control HOST:PORT``;
* ``serve`` — boot the micro-batching recognition service
  (:mod:`repro.serving`) behind its asyncio front end: the JSON HTTP API
  (``POST /recognise`` with request priorities and streaming mode,
  ``GET /healthz``, ``GET /stats``) plus the binary endpoint on
  ``--binary-port`` (``--no-binary`` turns it off), on the execution
  backend named by ``--backend``,
  optionally with per-client token-bucket quotas (``--quota-rate`` /
  ``--quota-burst`` / ``--quota-max-inflight``), and serve until
  interrupted;
* ``loadtest`` — drive an offered-load experiment (concurrent clients,
  multi-image requests, optionally ``--stream`` chunked responses and a
  ``--priorities`` mix striped across client threads) against ``--url``
  or against a server booted in-process, and report end-to-end
  images/second with latency percentiles (per priority level for mixed
  loads) plus the server-side ``/stats`` summary;
* ``lint`` — run the repo-invariant static-analysis suite
  (:mod:`repro.devtools.lint`): AST checkers for seeded-recall RNG
  purity, wire pickle-freedom, event-loop blocking discipline, lock
  hygiene and test port allocation, with ``--format text|json``,
  inline suppressions, a committed baseline and ``--fail-on-findings``
  for CI.

Every command prints a plain-text table (the same formatters the
benchmarks use) and returns a process exit code of 0 on success
(``lint --fail-on-findings`` exits 1 when findings remain).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro.analysis.accuracy import downsizing_sweep, resolution_sweep
from repro.analysis.power import build_table1, threshold_power_sweep
from repro.analysis.report import (
    format_accuracy_points,
    format_power_breakdown,
    format_si,
    format_table,
    format_table1,
    format_table2,
)
from repro.core.config import default_parameters
from repro.core.pipeline import build_pipeline
from repro.datasets.attlike import load_default_dataset


def _command_table1(arguments: argparse.Namespace) -> str:
    rows = build_table1(resolutions=tuple(arguments.bits))
    return format_table1(rows)


def _command_table2(arguments: argparse.Namespace) -> str:
    return format_table2(default_parameters().table2())


def _command_fig13a(arguments: argparse.Namespace) -> str:
    thresholds = [value * 1e-6 for value in arguments.thresholds]
    breakdowns = threshold_power_sweep(thresholds)
    labelled = {
        f"threshold {format_si(threshold, 'A')}": breakdown
        for threshold, breakdown in zip(thresholds, breakdowns)
    }
    return format_power_breakdown(labelled)


def _command_accuracy(arguments: argparse.Namespace) -> str:
    dataset = load_default_dataset(
        subjects=arguments.subjects, images_per_subject=10, seed=arguments.seed
    )
    sections = []
    sections.append("Fig. 3a - accuracy vs down-sizing")
    sections.append(format_accuracy_points(downsizing_sweep(dataset)))
    sections.append("")
    sections.append("Fig. 3b - accuracy vs detection resolution")
    sections.append(format_accuracy_points(resolution_sweep(dataset)))
    return "\n".join(sections)


def _command_recognise(arguments: argparse.Namespace) -> str:
    dataset = load_default_dataset(seed=arguments.seed)
    pipeline = build_pipeline(dataset, seed=arguments.seed)
    step = max(1, dataset.size // arguments.images)
    indices = list(range(0, dataset.size, step))[: arguments.images]
    if arguments.batch_size == 1:
        results = [pipeline.classify_image(dataset.images[index]) for index in indices]
    else:
        results = list(
            pipeline.classify_images(
                dataset.images[indices], batch_size=arguments.batch_size
            )
        )
    rows = []
    for index, result in zip(indices, results):
        rows.append(
            [
                str(index),
                str(int(dataset.labels[index])),
                str(result.winner),
                f"{result.dom_code}/{pipeline.amm.wta.levels - 1}",
                "yes" if result.accepted else "no",
                format_si(result.static_power, "W"),
            ]
        )
    return format_table(
        ["Image", "True", "Predicted", "DOM", "Accepted", "Static power"], rows
    )


def _command_throughput(arguments: argparse.Namespace) -> str:
    dataset = load_default_dataset(seed=arguments.seed)
    pipeline = build_pipeline(dataset, seed=arguments.seed)
    images = dataset.test_images[: arguments.images]
    labels = dataset.test_labels[: arguments.images]
    codes = pipeline.extractor.extract_many(images)
    # Seeded recall through a named execution backend; the engine pool
    # (and, for processes, the workers) is built before timing.
    from repro.backends import create_backend

    workers, backend_options = _resolve_workers(arguments)
    backend = create_backend(
        arguments.backend, pipeline.amm, workers=workers, **backend_options
    ).prepare()
    try:
        start = time.perf_counter()
        winners = pipeline.amm.recall_arrays(
            codes, arguments.batch_size, backend=backend
        )[0]
        elapsed = time.perf_counter() - start
    finally:
        backend.close()
    label = f"Backend recall ({arguments.backend} x{arguments.workers})"
    accuracy = float(np.mean(np.asarray(winners) == labels))
    rows = [
        ["Images", str(len(codes))],
        ["Batch size", str(arguments.batch_size)],
        ["Accuracy", f"{accuracy:.3f}"],
        [label, f"{len(codes) / elapsed:.1f} images/s"],
    ]
    return format_table(["Quantity", "Value"], rows)


def _resolve_workers(arguments: argparse.Namespace) -> tuple:
    """Interpret ``--workers`` as a count or a remote address list.

    ``--workers 4`` means four execution units; ``--workers
    host:7070,host:7071`` (only meaningful with ``--backend remote`` or
    ``fleet``) names the worker agents and implies their count.  Returns
    ``(worker_count, backend_options)``.
    """
    value = arguments.workers
    if isinstance(value, int):
        return value, {}
    text = str(value).strip()
    if ":" not in text:
        try:
            return int(text), {}
        except ValueError:
            raise SystemExit(
                f"--workers must be an integer or a host:port list, got {text!r}"
            ) from None
    if getattr(arguments, "backend", None) not in ("remote", "fleet", "auto"):
        raise SystemExit(
            "--workers with host:port addresses requires --backend remote "
            "or fleet (or auto, which then includes a remote candidate)"
        )
    from repro.backends import parse_worker_addresses

    try:
        addresses = parse_worker_addresses(text)
    except ValueError as error:
        raise SystemExit(f"--workers: {error}") from None
    return len(addresses), {"worker_addresses": addresses}


def _command_worker(arguments: argparse.Namespace) -> str:
    from repro.backends import WorkerServer, parse_worker_addresses

    try:
        host, port = parse_worker_addresses(arguments.listen)[0]
    except (ValueError, IndexError):
        # ``--listen host:0`` must stay expressible: port 0 = ephemeral.
        host, _, port_text = arguments.listen.rpartition(":")
        if not host or not port_text.isdigit():
            raise SystemExit(
                f"worker: cannot parse --listen {arguments.listen!r} "
                "(expected host:port; port 0 binds an ephemeral port)"
            ) from None
        port = int(port_text)
    server = WorkerServer(host=host, port=port)
    bound_host, bound_port = server.address
    print(f"repro worker listening on {bound_host}:{bound_port}", flush=True)
    try:
        server.start()
        if arguments.announce:
            # Scale-out under load: tell a running fleet supervisor this
            # agent exists; the supervisor dials back, pushes the current
            # spec and starts routing shards here.
            from repro.backends.fleet import FleetAdminClient

            with FleetAdminClient(arguments.announce) as admin:
                admin.join(f"{bound_host}:{bound_port}")
            print(
                f"repro worker joined fleet via {arguments.announce}", flush=True
            )
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return "worker stopped"


def _command_admin(arguments: argparse.Namespace) -> str:
    from repro.backends.fleet import FleetAdminClient

    def replica_rows(entries: list) -> str:
        rows = [
            [
                entry["address"],
                entry["state"],
                entry["origin"],
                "-" if entry.get("ewma_row_ms") is None else f"{entry['ewma_row_ms']:.3f}",
                "-" if entry.get("weight") is None else f"{entry['weight']:.3f}",
                str(entry["shards_served"]),
                str(entry["rows_served"]),
            ]
            for entry in entries
        ]
        return format_table(
            ["Replica", "State", "Origin", "ms/row", "Weight", "Shards", "Rows"],
            rows,
        )

    with FleetAdminClient(arguments.control) as admin:
        if arguments.verb == "status":
            fleet = admin.status()
            counters = fleet["counters"]
            lines = [replica_rows(fleet["replicas"])]
            lines.append(
                f"routable {fleet['routable']}, "
                f"spec version {fleet['spec_version']}, "
                + ", ".join(f"{key} {value}" for key, value in counters.items())
            )
            return "\n".join(lines)
        if arguments.verb in ("join", "drain"):
            if not arguments.address:
                raise SystemExit(f"admin {arguments.verb} needs a worker host:port")
            if arguments.verb == "join":
                replica = admin.join(arguments.address)
            else:
                replica = admin.drain(arguments.address, timeout=arguments.timeout)
            return replica_rows([dict(replica, weight=None)])
        report = admin.respec(timeout=arguments.timeout)
        rows = [[entry["address"], entry["outcome"]] for entry in report]
        return format_table(["Replica", "Outcome"], rows)


def _build_quota(arguments: argparse.Namespace):
    """The per-client QuotaConfig named by the CLI flags (None = disabled)."""
    if (
        arguments.quota_rate is None
        and arguments.quota_burst is None
        and arguments.quota_max_inflight is None
    ):
        return None
    import math

    from repro.serving import QuotaConfig

    rate = math.inf if arguments.quota_rate is None else arguments.quota_rate
    burst = arguments.quota_burst
    if burst is None:
        burst = max(1, int(rate)) if math.isfinite(rate) else 256
    return QuotaConfig(
        rate=rate, burst=burst, max_inflight=arguments.quota_max_inflight
    )


def _build_service(arguments: argparse.Namespace):
    """Build the pipeline named by the CLI flags and wrap it in a service."""
    from repro.serving import RecognitionService

    workers, backend_options = _resolve_workers(arguments)
    control = getattr(arguments, "control", None)
    if control is not None:
        if arguments.backend != "fleet":
            raise SystemExit("--control requires --backend fleet")
        backend_options["control"] = control
    dataset = load_default_dataset(subjects=arguments.subjects, seed=arguments.seed)
    pipeline = build_pipeline(dataset, seed=arguments.seed)
    service = RecognitionService(
        pipeline.amm,
        max_batch_size=arguments.max_batch_size,
        max_wait=arguments.max_wait_ms * 1e-3,
        max_queue_depth=arguments.queue_depth,
        workers=workers,
        backend=arguments.backend,
        backend_options=backend_options,
        quota=_build_quota(arguments),
    )
    return dataset, pipeline, service


def _command_serve(arguments: argparse.Namespace) -> str:
    from repro.serving import start_async_server, stop_async_server

    _, _, service = _build_service(arguments)
    server = start_async_server(
        service,
        host=arguments.host,
        port=arguments.port,
        binary_port=None if arguments.no_binary else arguments.binary_port,
    )
    binary = (
        "disabled"
        if server.binary_port is None
        else f"{arguments.host}:{server.binary_port}"
    )
    control_address = getattr(service.pool.backend, "control_address", None)
    if control_address is not None:
        # Parsed by admin tooling the way workers' startup line is.
        print(
            f"repro fleet control on {control_address[0]}:{control_address[1]}",
            flush=True,
        )
    print(
        f"serving {service.amm.crossbar.rows}x{service.amm.crossbar.columns} "
        f"recognition on http://{arguments.host}:{server.port} "
        f"(binary endpoint {binary}, "
        f"backend={arguments.backend}, workers={arguments.workers}, "
        f"max_batch_size={arguments.max_batch_size}, "
        f"max_wait={arguments.max_wait_ms} ms); Ctrl-C to stop",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        stop_async_server(server)
    return "server stopped"


def _command_loadtest(arguments: argparse.Namespace) -> str:
    from urllib.parse import urlparse

    from repro.serving import (
        RecognitionClient,
        run_connection_load,
        run_load,
        start_async_server,
        stop_async_server,
    )

    if arguments.binary and arguments.stream:
        raise SystemExit("loadtest: binary mode already streams; pick one")
    if arguments.connections is not None and (arguments.binary or arguments.stream):
        raise SystemExit(
            "loadtest: --connections sweeps buffered JSON requests; "
            "it does not compose with --binary/--stream"
        )
    server = None
    binary_port = arguments.binary_port
    if arguments.url:
        url = arguments.url if "//" in arguments.url else f"http://{arguments.url}"
        parsed = urlparse(url)
        if not parsed.hostname:
            raise SystemExit(f"loadtest: cannot parse host from --url {arguments.url!r}")
        host, port = parsed.hostname, parsed.port or 80
        if arguments.binary and binary_port is None:
            raise SystemExit(
                "loadtest: --binary against --url needs --binary-port "
                "(the server prints it on startup)"
            )
        # Only the feature extractor is needed to generate request codes
        # for a remote server — skip the (dominant) AMM construction cost.
        from repro.core.pipeline import default_extractor

        dataset = load_default_dataset(subjects=arguments.subjects, seed=arguments.seed)
        extractor = default_extractor()
    else:
        dataset, pipeline, service = _build_service(arguments)
        extractor = pipeline.extractor
        server = start_async_server(service, host="127.0.0.1", port=0, binary_port=0)
        binary_port = server.binary_port
        host, port = "127.0.0.1", server.port
    codes = extractor.extract_many(dataset.test_images)
    priorities = None
    if arguments.priorities:
        priorities = [int(token) for token in arguments.priorities.split(",")]
    try:
        if arguments.connections is not None:
            report = run_connection_load(
                host,
                port,
                codes,
                requests=arguments.requests,
                connections=arguments.connections,
                images_per_request=arguments.images_per_request,
                base_seed=arguments.seed,
            )
        else:
            report = run_load(
                host,
                binary_port if arguments.binary else port,
                codes,
                requests=arguments.requests,
                concurrency=arguments.concurrency,
                images_per_request=arguments.images_per_request,
                base_seed=arguments.seed,
                priorities=priorities,
                stream=arguments.stream,
                binary=arguments.binary,
            )
        with RecognitionClient(host, port) as client:
            stats = client.stats()
    finally:
        if server is not None:
            stop_async_server(server)
    latency = report.latency_percentiles()
    if arguments.binary:
        mode = "binary"
    elif arguments.connections is not None:
        mode = "connection sweep"
    elif report.stream:
        mode = "streaming"
    else:
        mode = "buffered"
    rows = [
        ["Requests", str(report.requests)],
        ["Concurrency", str(report.concurrency)],
        ["Images/request", str(report.images_per_request)],
        ["Mode", mode],
        ["Images recalled", str(report.images)],
        ["Elapsed", f"{report.elapsed_seconds:.3f} s"],
        ["Throughput", f"{report.images_per_second:.1f} images/s"],
        ["Latency p50", f"{latency['p50_ms']:.2f} ms"],
        ["Latency p90", f"{latency['p90_ms']:.2f} ms"],
        ["Latency p99", f"{latency['p99_ms']:.2f} ms"],
        [
            "Errors / rejected / quota / row errors",
            f"{report.errors} / {report.rejected} / {report.quota_rejected} "
            f"/ {report.row_errors}",
        ],
        ["Server batches", str(stats["batches"]["dispatched"])],
        ["Server mean batch fill", f"{stats['batches']['mean_fill']:.1f}"],
        ["Server queue depth max", str(stats["queue_depth"]["max"])],
        ["Server p99 latency", f"{stats['latency']['p99_ms']:.2f} ms"],
    ]
    for priority, summary in report.priority_latency_percentiles().items():
        rows.append(
            [f"Latency p50 (priority {priority})", f"{summary['p50_ms']:.2f} ms"]
        )
    return format_table(["Quantity", "Value"], rows)


def _command_lint(arguments: argparse.Namespace) -> tuple:
    # Imported lazily: the lint framework is developer tooling and must
    # not load (or fail) for the paper-reproduction commands.
    from repro.devtools.lint import runner as lint_runner

    return lint_runner.execute(arguments)


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    from repro.backends import backend_names

    parser.add_argument(
        "--backend",
        default="auto",
        choices=list(backend_names()),
        help="execution backend for the recall engine "
        "(auto = cost-model routing over the others [default], "
        "serial = one engine, threads = sharded thread pool, "
        "processes = multi-process engine pool, remote = worker agents "
        "named by --workers host:port,..., fleet = supervised replica "
        "set with health-weighted routing and a --control admin socket)",
    )


def _add_serving_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--subjects", type=int, default=40, help="stored classes")
    parser.add_argument("--seed", type=int, default=2013)
    _add_backend_option(parser)
    parser.add_argument(
        "--max-batch-size", type=int, default=64, help="largest micro-batch dispatched"
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="micro-batch window after the first request arrives (ms)",
    )
    parser.add_argument(
        "--workers",
        default=1,
        help="worker pool shards (an integer), or with --backend remote a "
        "comma-separated worker agent list (host:port,host:port)",
    )
    parser.add_argument(
        "--queue-depth",
        type=int,
        default=1024,
        help="queued requests beyond which submissions are rejected (HTTP 429)",
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=None,
        help="per-client admitted rows/second (token-bucket refill); "
        "unset = no rate limit",
    )
    parser.add_argument(
        "--quota-burst",
        type=int,
        default=None,
        help="per-client token-bucket capacity in rows "
        "(default: one second of --quota-rate)",
    )
    parser.add_argument(
        "--quota-max-inflight",
        type=int,
        default=None,
        help="per-client cap on rows queued or being solved (HTTP 429 beyond)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate headline results of the spin-neuron RCM paper.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="Table 1 power/energy comparison")
    table1.add_argument(
        "--bits", type=int, nargs="+", default=[5, 4, 3], help="WTA resolutions to tabulate"
    )
    table1.set_defaults(handler=_command_table1)

    table2 = subparsers.add_parser("table2", help="Table 2 design parameters")
    table2.set_defaults(handler=_command_table2)

    fig13a = subparsers.add_parser("fig13a", help="power vs DWN threshold")
    fig13a.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=[2.0, 1.0, 0.5, 0.25],
        help="DWN thresholds in microamperes",
    )
    fig13a.set_defaults(handler=_command_fig13a)

    accuracy = subparsers.add_parser("accuracy", help="Fig. 3 accuracy sweeps")
    accuracy.add_argument("--subjects", type=int, default=40)
    accuracy.add_argument("--seed", type=int, default=2013)
    accuracy.set_defaults(handler=_command_accuracy)

    recognise = subparsers.add_parser(
        "recognise", help="classify images with the full 128x40 pipeline"
    )
    recognise.add_argument("--images", type=int, default=10)
    recognise.add_argument("--seed", type=int, default=2013)
    recognise.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="recall granularity; 1 = legacy per-sample loop",
    )
    recognise.set_defaults(handler=_command_recognise)

    throughput = subparsers.add_parser(
        "throughput", help="batched-recall throughput of the 128x40 pipeline"
    )
    throughput.add_argument("--images", type=int, default=200)
    throughput.add_argument("--seed", type=int, default=2013)
    throughput.add_argument(
        "--batch-size",
        type=int,
        default=64,
        help="rows per backend recall call",
    )
    throughput.add_argument(
        "--workers",
        default=1,
        help="execution units for --backend (an integer), or with "
        "--backend remote a comma-separated agent list (host:port,...)",
    )
    _add_backend_option(throughput)
    throughput.set_defaults(handler=_command_throughput)

    worker = subparsers.add_parser(
        "worker", help="run a remote recall worker agent (TCP wire protocol)"
    )
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        help="host:port to listen on (port 0 = ephemeral; the bound "
        "address is printed on startup)",
    )
    worker.add_argument(
        "--announce",
        default=None,
        help="host:port of a fleet control socket to JOIN once listening "
        "(scale-out: the supervisor dials back and starts routing here)",
    )
    worker.set_defaults(handler=_command_worker)

    admin = subparsers.add_parser(
        "admin", help="fleet control verbs against a serving process"
    )
    admin.add_argument(
        "verb",
        choices=("status", "join", "drain", "respec"),
        help="status = replica/health snapshot, join = admit (or readmit) "
        "a worker, drain = take one out of routing, respec = rolling "
        "spec re-push with canary verification",
    )
    admin.add_argument(
        "address",
        nargs="?",
        default=None,
        help="worker host:port (required for join/drain)",
    )
    admin.add_argument(
        "--control",
        required=True,
        help="host:port of the fleet control socket "
        "(printed by `repro serve --backend fleet --control HOST:PORT`)",
    )
    admin.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="drain budget in seconds (drain/respec verbs)",
    )
    admin.set_defaults(handler=_command_admin)

    serve = subparsers.add_parser(
        "serve", help="serve recognition over HTTP with micro-batched recall"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 = ephemeral port")
    serve.add_argument(
        "--binary-port",
        type=int,
        default=0,
        help="binary endpoint port (0 = ephemeral; the bound port is "
        "printed on startup)",
    )
    serve.add_argument(
        "--no-binary",
        action="store_true",
        help="serve JSON only (no binary endpoint)",
    )
    serve.add_argument(
        "--control",
        default=None,
        help="host:port for the fleet control socket (requires --backend "
        "fleet; port 0 = ephemeral, printed on startup)",
    )
    _add_serving_options(serve)
    serve.set_defaults(handler=_command_serve)

    loadtest = subparsers.add_parser(
        "loadtest", help="offered-load sweep against the recognition server"
    )
    loadtest.add_argument(
        "--url",
        default=None,
        help="target server (default: boot one in-process on an ephemeral port)",
    )
    loadtest.add_argument("--requests", type=int, default=200, help="HTTP requests to send")
    loadtest.add_argument("--concurrency", type=int, default=8, help="client threads")
    loadtest.add_argument(
        "--connections",
        type=int,
        default=None,
        help="connection-scaling sweep: drive the run from this many "
        "keep-alive connections on one event loop instead of "
        "--concurrency client threads",
    )
    loadtest.add_argument(
        "--binary",
        action="store_true",
        help="drive the server's binary endpoint instead of JSON",
    )
    loadtest.add_argument(
        "--binary-port",
        type=int,
        default=None,
        help="binary endpoint port of a --url target (in-process servers "
        "bind and discover it automatically)",
    )
    loadtest.add_argument(
        "--images-per-request",
        type=int,
        default=16,
        help="code vectors per request; each is queued as its own recall",
    )
    loadtest.add_argument(
        "--stream",
        action="store_true",
        help="post requests in streaming mode (chunked NDJSON responses)",
    )
    loadtest.add_argument(
        "--priorities",
        default=None,
        help="comma-separated priority levels striped across client threads "
        "(e.g. '0,5' = half the threads low, half high); the report then "
        "segments latency per priority",
    )
    _add_serving_options(loadtest)
    loadtest.set_defaults(handler=_command_loadtest)

    from repro.devtools.lint import runner as lint_runner

    lint = subparsers.add_parser(
        "lint",
        help="repo-invariant static analysis (RNG/wire/async/lock/port rules)",
    )
    lint_runner.build_arg_parser(lint)
    lint.set_defaults(handler=_command_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if getattr(arguments, "batch_size", 1) < 1:
        parser.error("--batch-size must be a positive integer")
    try:
        result = arguments.handler(arguments)
    except (KeyError, FileNotFoundError, ValueError) as error:
        if getattr(arguments, "command", None) != "lint":
            raise
        message = error.args[0] if error.args else str(error)
        print(f"repro-lint: error: {message}")
        return 2
    if isinstance(result, tuple):
        output, code = result
    else:
        output, code = result, 0
    print(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
