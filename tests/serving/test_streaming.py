"""Streaming-mode tests: chunked NDJSON rows, windowing, partial failure.

``POST /recognise`` with ``"stream": true`` answers with a chunked
``application/x-ndjson`` body: one line per row in row order
(``{"index": ..., "result": ...}`` or a per-row error object), then a
``{"done": true, ...}`` summary.  Rows are submitted in bounded windows,
so a request *larger than the whole queue* — a hard 400 on the buffered
path — streams through with flat server-side buffering, and every
streamed result is bit-identical to the buffered/serial path.  The
binary endpoint runs the same windowed loop, so the windowing, per-row
failure, timeout, shutdown and abandonment cases are driven through
both.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.serving.aio as aio_module
from repro.backends import wire
from repro.serving import (
    BinaryRecognitionClient,
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)
from repro.serving.protocol import StreamLineEncoder
from tests.serving.test_regressions import wait_for


def ndjson_rows(port, codes, seeds, **options):
    """One NDJSON stream's row events and its summary line."""
    with RecognitionClient("127.0.0.1", port) as client:
        events = list(client.recognise_stream(codes, seeds=seeds, **options))
    return events[:-1], events[-1]


def binary_rows(port, codes, seeds, **options):
    """One binary answer's row events, shaped like the NDJSON lines."""
    with BinaryRecognitionClient("127.0.0.1", port) as client:
        result = client.recognise_batch(codes, seeds=seeds, **options)
    events = [
        {"index": index, "error": result.errors[index]}
        if index in result.errors
        else {"index": index, "result": result.row(index)}
        for index in range(result.count)
    ]
    return events, {"count": result.count, "ok": result.ok, "failed": result.failed}


def both_transports(server, codes, seeds, **options):
    """The same request over NDJSON and binary, concurrently."""
    answers: dict = {}

    def run(name, fetch, port):
        answers[name] = fetch(port, codes, seeds, **options)

    threads = [
        threading.Thread(target=run, args=("ndjson", ndjson_rows, server.port)),
        threading.Thread(target=run, args=("binary", binary_rows, server.binary_port)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert set(answers) == {"ndjson", "binary"}, "a transport did not answer"
    return answers


@pytest.fixture()
def running_server(serving_amm):
    service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3, workers=2)
    server = start_async_server(service, port=0, binary_port=None)
    yield server
    if not service.closed:
        stop_async_server(server)


class TestStreamRoundTrip:
    def test_stream_matches_buffered_bit_identical(
        self, running_server, request_codes, request_seeds
    ):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            buffered = client.recognise_many(request_codes, seeds=request_seeds)
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            events = list(
                client.recognise_stream(request_codes, seeds=request_seeds)
            )
        summary = events[-1]
        assert summary["done"] is True
        assert summary["count"] == len(request_seeds)
        assert summary["ok"] == len(request_seeds)
        assert summary["failed"] == 0
        rows = [event for event in events if "result" in event]
        assert [row["index"] for row in rows] == list(range(len(request_seeds)))
        for index, row in enumerate(rows):
            assert row["result"] == buffered[index]

    def test_stream_content_type_is_ndjson(self, running_server, request_codes):
        import http.client
        import json as json_module

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.port, timeout=10.0
        )
        try:
            body = json_module.dumps(
                {"codes": request_codes[:3].tolist(), "stream": True}
            ).encode()
            connection.request(
                "POST",
                "/recognise",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            # http.client strips the hop-by-hop Transfer-Encoding framing;
            # chunked delivery shows as no Content-Length on the response.
            assert response.getheader("Content-Length") is None
            lines = [line for line in response.read().splitlines() if line]
            assert len(lines) == 4  # 3 rows + summary
        finally:
            connection.close()

    def test_single_vector_stream_rejected(self, running_server, request_codes):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                list(client.recognise_stream(request_codes[0]))
            assert excinfo.value.status == 400

    def test_stream_with_priority_and_client_id(self, running_server, request_codes):
        with RecognitionClient(
            "127.0.0.1", running_server.port, client_id="edge-7"
        ) as client:
            events = list(
                client.recognise_stream(
                    request_codes[:4], seeds=[1, 2, 3, 4], priority=4
                )
            )
            assert events[-1]["ok"] == 4
            stats = client.stats()
        assert stats["clients"]["edge-7"]["submitted"] == 4
        assert stats["priorities"]["4"]["completed"] == 4


class TestWindowedSubmission:
    def test_request_larger_than_queue_streams_through(self, serving_amm, request_codes):
        """64 rows through a queue that admits 8: impossible buffered,
        routine streamed — the windows are bounded server-side buffering."""
        service = RecognitionService(
            serving_amm, max_batch_size=4, max_wait=0.0, max_queue_depth=8, workers=2
        )
        server = start_async_server(service, port=0, binary_port=None)
        codes = np.tile(request_codes, (3, 1))[:64]
        seeds = list(range(64))
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.recognise_many(codes, seeds=seeds)
                assert excinfo.value.status == 400  # never admittable buffered
                events = list(client.recognise_stream(codes, seeds=seeds))
            assert events[-1] == {"done": True, "count": 64, "ok": 64, "failed": 0}
            reference = serving_amm.recognise_batch_seeded(codes, seeds)
            rows = [event for event in events if "result" in event]
            for index, row in enumerate(rows):
                assert row["index"] == index
                assert row["result"]["winner"] == reference[index].winner
                assert row["result"]["dom_code"] == reference[index].dom_code
                # Discrete fields exactly; the analog power to solver
                # precision (replica engines may take another BLAS path).
                assert row["result"]["static_power_w"] == pytest.approx(
                    reference[index].static_power, rel=1e-9
                )
        finally:
            stop_async_server(server)

    def test_window_clamped_to_quota_inflight_cap(self, serving_amm, request_codes):
        """A client whose max_inflight is below the default window must
        still be able to stream: the window shrinks to the cap instead
        of every window submission being denied outright."""
        from repro.serving import QuotaConfig

        service = RecognitionService(
            serving_amm,
            max_batch_size=32,  # default window 64 > the cap of 4
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=4),
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="small-tenant"
            ) as client:
                events = list(
                    client.recognise_stream(
                        request_codes[:12], seeds=list(range(12))
                    )
                )
            assert events[-1] == {"done": True, "count": 12, "ok": 12, "failed": 0}
        finally:
            stop_async_server(server)

    def test_stream_honours_per_row_timeout_ms_on_healthy_server(
        self, running_server, request_codes
    ):
        """timeout_ms is a per-row dispatch deadline, not a whole-stream
        budget: a healthy server streams every row within it."""
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            events = list(
                client.recognise_stream(
                    request_codes[:6], seeds=list(range(6)), timeout_ms=30_000
                )
            )
        assert events[-1]["ok"] == 6

    def test_service_level_window_generator(
        self, serving_amm, request_codes, request_seeds
    ):
        """A 4-row window (from ``max_queue_depth``) serves 24 rows in
        row order on both endpoints; binary ROWS frames arrive in row
        order too."""
        service = RecognitionService(
            serving_amm, max_batch_size=4, max_wait=0.0, max_queue_depth=4, workers=1
        )
        assert service.stream_window() == 4
        server = start_async_server(service, port=0, binary_port=0)
        seeds = [int(seed) for seed in request_seeds]
        try:
            # One request at a time: two 4-row windows would overrun the
            # 4-row queue.
            answers = {
                "ndjson": ndjson_rows(server.port, request_codes, seeds),
                "binary": binary_rows(server.binary_port, request_codes, seeds),
            }
            with BinaryRecognitionClient("127.0.0.1", server.binary_port) as client:
                wire.send_frame(
                    client._sock,
                    wire.RECOGNISE,
                    header={},
                    arrays={"codes": request_codes, "seeds": np.asarray(seeds)},
                )
                frame_indices: list = []
                while True:
                    kind, _version, _header, arrays = wire.recv_frame(client._sock)
                    if kind == wire.DONE:
                        break
                    assert kind == wire.ROWS
                    frame_indices.extend(arrays["index"].tolist())
        finally:
            stop_async_server(server)
        assert frame_indices == list(range(len(seeds)))
        reference = serving_amm.recognise_batch_seeded(request_codes, seeds)
        for events, summary in answers.values():
            assert summary["ok"] == len(seeds)
            assert [event["index"] for event in events] == list(range(len(seeds)))
            for event, row in zip(events, reference):
                assert event["result"]["winner_column"] == row.winner_column


class TestPartialFailure:
    def test_expired_rows_become_error_objects(
        self, serving_amm, request_codes, recall_gate
    ):
        """Rows that miss their deadline resolve as per-row 504 error
        objects inside an HTTP-200 stream — not a dropped response."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            # Fill the gated dispatch pipeline from a side thread so the
            # streamed rows sit in the queue past their 1 ms deadline.
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            release = threading.Timer(0.3, gate.set)
            release.start()
            try:
                with RecognitionClient("127.0.0.1", server.port) as client:
                    events = list(
                        client.recognise_stream(
                            request_codes[:4], seeds=[1, 2, 3, 4], timeout_ms=1.0
                        )
                    )
            finally:
                release.join()
            summary = events[-1]
            assert summary["done"] is True
            assert summary["failed"] == 4 and summary["ok"] == 0
            for event in events[:-1]:
                assert event["error"]["status"] == 504
                assert event["error"]["reason"] == "deadline"
                assert event["error"]["type"] == "DeadlineExceededError"
            for blocker in blockers:
                blocker.result(timeout=20.0)
            assert service.metrics.expired == 4
        finally:
            gate.set()
            stop_async_server(server)

    def test_service_stream_yields_exceptions_per_row(
        self, serving_amm, request_codes, recall_gate
    ):
        """Rows that expire in the queue are per-row 504 errors on both
        endpoints, and the answer carries on to its summary."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0, binary_port=0)
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            release = threading.Timer(0.3, gate.set)
            release.start()
            try:
                answers = both_transports(
                    server, request_codes[:3], [1, 2, 3], timeout_ms=1.0
                )
            finally:
                release.join()
            for events, summary in answers.values():
                assert summary["count"] == 3 and summary["failed"] == 3
                assert [event["index"] for event in events] == [0, 1, 2]
                for event in events:
                    assert event["error"]["type"] == "DeadlineExceededError"
                    assert event["error"]["status"] == 504
            assert answers["ndjson"][0] == answers["binary"][0]
            for blocker in blockers:
                blocker.result(timeout=20.0)
        finally:
            gate.set()
            stop_async_server(server)

    def test_whole_stream_timeout_fails_remaining_rows(
        self, serving_amm, request_codes, recall_gate, monkeypatch
    ):
        """Once the answer's wait budget is spent, every row not yet
        emitted fails with one timeout and the queued rows are
        cancelled, not solved."""
        gate, recalled = recall_gate
        monkeypatch.setattr(aio_module, "MAX_REQUEST_TIMEOUT", 0.3)
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0, binary_port=0)
        try:
            blockers = [
                service.submit(request_codes[index], seed=100 + index)
                for index in range(3)
            ]
            answers = both_transports(server, request_codes[:4], [1, 2, 3, 4])
            for events, summary in answers.values():
                assert summary["count"] == 4 and summary["failed"] == 4
                assert [event["index"] for event in events] == [0, 1, 2, 3]
                for event in events:
                    assert event["error"]["reason"] == "deadline"
                    assert event["error"]["message"] == (
                        "request not served within 0.3 s"
                    )
            gate.set()
            for blocker in blockers:
                blocker.result(timeout=20.0)
            assert wait_for(lambda: service.queue_depth == 0)
            # The timed-out rows were cancelled, not solved.
            assert not (set(recalled) & {1, 2, 3, 4})
        finally:
            gate.set()
            stop_async_server(server)


class TestMidStreamClose:
    def test_close_fails_remaining_rows_per_row(
        self, serving_amm, request_codes, recall_gate
    ):
        """A service closed mid-answer resolves every remaining row with a
        503 ``unavailable`` row error on both endpoints — the answer ends
        with its summary, it does not hang or break the connection."""
        gate, _ = recall_gate
        for transport in (ndjson_rows, binary_rows):
            gate.clear()
            # A 2-row window: most of the request is still unsubmitted
            # when the service closes.
            service = RecognitionService(
                serving_amm, max_batch_size=1, max_wait=0.0, max_queue_depth=2, workers=1
            )
            server = start_async_server(service, port=0, binary_port=0)
            port = server.port if transport is ndjson_rows else server.binary_port
            closer = threading.Timer(0.3, lambda: service.close(timeout=0.1))
            release = threading.Timer(1.0, gate.set)
            closer.start()
            release.start()
            try:
                events, summary = transport(
                    port, request_codes[:6], [1, 2, 3, 4, 5, 6]
                )
            finally:
                closer.join()
                release.join()
                gate.set()
                stop_async_server(server)
            assert [event["index"] for event in events] == list(range(6))
            assert summary["ok"] + summary["failed"] == 6
            # Whatever was in flight may have been served; everything the
            # closed service abandoned or refused carries the 503.
            failures = [event["error"] for event in events if "error" in event]
            assert failures, "close() during the answer produced no row errors"
            assert all(
                failure["type"] == "ServiceClosedError"
                and failure["reason"] == "unavailable"
                for failure in failures
            )


class TestStreamAbandonment:
    @pytest.fixture()
    def slow_recalls(self, monkeypatch):
        """Slow every backend recall down and record the seeds actually
        solved — the instrument that shows cancelled rows never reached
        the engine."""
        import time as time_module

        from repro.backends.threaded import ThreadedBackend

        recalled: list = []
        original = ThreadedBackend.recall_batch_seeded

        def wrapped(self, codes_batch, request_seeds):
            time_module.sleep(0.15)
            recalled.extend(int(seed) for seed in request_seeds)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(ThreadedBackend, "recall_batch_seeded", wrapped)
        return recalled

    def test_disconnect_mid_ndjson_cancels_queued_rows(
        self, serving_amm, request_codes, slow_recalls
    ):
        """A client that walks away mid-stream must not keep the engine
        working: its still-queued rows are cancelled (counted under
        ``requests.cancelled``), their seeds never reach a recall, and
        the client's in-flight quota slots all come home — no leak."""
        from repro.serving import QuotaConfig

        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=256),
        )
        server = start_async_server(service, port=0, binary_port=None)
        codes = np.tile(request_codes, (2, 1))[:24]
        seeds = list(range(1000, 1024))
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="abandoner"
            ) as client:
                events = client.recognise_stream(codes, seeds=seeds)
                first = next(events)
                assert "result" in first
                # Walk away after one row: closing the generator drops
                # the connection with the stream unfinished.
                events.close()
            # The server notices the dead socket on a later write and
            # closes the service generator, cancelling queued rows.
            assert wait_for(
                lambda: service.metrics.cancelled > 0, timeout=20.0
            ), "no queued rows were cancelled after the disconnect"
            # Every in-flight row resolved (served, failed or cancelled):
            # the quota slots must all be released — nothing leaks.
            assert wait_for(
                lambda: service.quotas.inflight("abandoner") == 0, timeout=20.0
            ), "abandoned stream leaked in-flight quota slots"
            stats = service.stats()
            assert stats["requests"]["cancelled"] >= 1
            # The cancelled tail really was spared: at least one seed of
            # the request never reached the engine.
            assert set(seeds) - set(slow_recalls), (
                "every row was solved despite the client leaving"
            )
        finally:
            stop_async_server(server)

    def test_service_generator_close_cancels_and_releases_quota(
        self, serving_amm, request_codes, monkeypatch
    ):
        """Same contract on the cancellation exit path: stopping the
        server mid-stream cancels the handler task, whose row loop
        cancels the queued window rows and releases the client's quota
        slots."""
        from repro.backends.threaded import ThreadedBackend
        from repro.serving import QuotaConfig

        # The first recall passes so one row can stream; every later
        # recall blocks until released.
        gate = threading.Event()
        recalled: list = []
        passed_first = threading.Event()
        original = ThreadedBackend.recall_batch_seeded

        def wrapped(self, codes_batch, request_seeds):
            if passed_first.is_set():
                gate.wait(timeout=20.0)
            passed_first.set()
            recalled.extend(int(seed) for seed in request_seeds)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(ThreadedBackend, "recall_batch_seeded", wrapped)
        service = RecognitionService(
            serving_amm,
            max_batch_size=1,
            max_wait=0.0,
            workers=1,
            quota=QuotaConfig(rate=1e9, burst=256, max_inflight=256),
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            with RecognitionClient(
                "127.0.0.1", server.port, client_id="walker"
            ) as client:
                events = client.recognise_stream(
                    request_codes[:8], seeds=list(range(200, 208))
                )
                first = next(events)  # the whole request is now submitted
                assert first["index"] == 0 and "result" in first
                assert service.quotas.inflight("walker") > 0
                # Returns once the cancelled handler's row loop has
                # cancelled the queued rows, so the engine may resume.
                stop_async_server(server, close_service=False)
                events.close()
            gate.set()
            assert wait_for(
                lambda: service.metrics.cancelled > 0, timeout=20.0
            ), "cancelling the handler cancelled no rows"
            assert wait_for(
                lambda: service.quotas.inflight("walker") == 0, timeout=20.0
            ), "handler cancellation leaked in-flight quota slots"
            # The cancelled tail never reached the engine.
            assert set(range(200, 208)) - set(recalled)
        finally:
            gate.set()
            service.close()


class TestStreamAdmission:
    def test_saturated_queue_streams_cleanly_rejected(
        self, serving_amm, request_codes, recall_gate
    ):
        """When nothing of the stream can be admitted, the caller gets the
        same clean 429 as a buffered request — not a broken stream."""
        gate, _ = recall_gate
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, max_queue_depth=2, workers=1
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            from repro.serving import BackpressureError

            # Saturate the whole pipeline: keep submitting through
            # transient rejections (batcher wakeup lag) until the gated
            # pipeline is full AND the bounded queue stays at capacity.
            import time as time_module

            admitted = []
            deadline = time_module.monotonic() + 10.0
            while time_module.monotonic() < deadline:
                try:
                    admitted.append(
                        service.submit(
                            request_codes[len(admitted) % 8], seed=len(admitted)
                        )
                    )
                except BackpressureError:
                    if len(admitted) >= 5 and service.queue_depth >= 2:
                        break
                    time_module.sleep(0.005)
            assert service.queue_depth >= 2
            with RecognitionClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServerError) as excinfo:
                    list(
                        client.recognise_stream(
                            np.tile(request_codes[0], (4, 1)), seeds=[1, 2, 3, 4]
                        )
                    )
            assert excinfo.value.status == 429
            assert excinfo.value.reason == "backpressure"
            gate.set()
            for future in admitted:
                future.result(timeout=20.0)
        finally:
            gate.set()
            stop_async_server(server)


class TestWholeRequestValidation:
    """A malformed row anywhere rejects the whole request before any row
    is admitted — on the stream as on the buffered path."""

    @pytest.fixture()
    def bad_request(self, request_codes):
        codes = np.tile(request_codes, (9, 1))[:200].copy()
        codes[150, 3] = 99  # out of the 5-bit code range
        return codes, list(range(200))

    @pytest.fixture()
    def both_endpoints(self, serving_amm):
        service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3)
        server = start_async_server(service, port=0, binary_port=0)
        yield server
        stop_async_server(server)

    def test_bad_row_rejects_ndjson_stream_before_admission(
        self, both_endpoints, bad_request
    ):
        codes, seeds = bad_request
        with RecognitionClient("127.0.0.1", both_endpoints.port) as client:
            with pytest.raises(ServerError) as excinfo:
                list(client.recognise_stream(codes, seeds=seeds))
            assert excinfo.value.status == 400
            assert excinfo.value.reason == "invalid"
            with pytest.raises(ServerError) as excinfo:
                client.recognise_many(codes, seeds=seeds)
            assert excinfo.value.status == 400
        assert both_endpoints.service.metrics.submitted == 0

    def test_bad_row_rejects_binary_request_before_admission(
        self, both_endpoints, bad_request, request_codes
    ):
        codes, seeds = bad_request
        with BinaryRecognitionClient("127.0.0.1", both_endpoints.binary_port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.recognise_batch(codes, seeds=seeds)
            assert excinfo.value.status == 400
            assert excinfo.value.reason == "invalid"
            assert both_endpoints.service.metrics.submitted == 0
            # One typed ERROR frame answered the request: the connection
            # is still usable.
            assert client.recognise_batch(request_codes[:2], seeds=[1, 2]).ok == 2


class TestAbnormalSummary:
    def test_client_recovers_after_abnormal_summary(
        self, serving_amm, request_codes, monkeypatch
    ):
        """An internal error mid-stream ends the stream with an abnormal
        summary whose tallies still add up; the server closes the
        connection, so the client must not reuse it."""
        from repro.backends.threaded import ThreadedBackend

        original_recall = ThreadedBackend.recall_batch_seeded
        original_line = StreamLineEncoder.line

        def slowed(self, codes_batch, request_seeds):
            time.sleep(0.05)  # rows resolve one at a time
            return original_recall(self, codes_batch, request_seeds)

        def failing_line(self, index, outcome):
            if index == 3:
                raise RuntimeError("encoder failure at row 3")
            return original_line(self, index, outcome)

        monkeypatch.setattr(ThreadedBackend, "recall_batch_seeded", slowed)
        monkeypatch.setattr(StreamLineEncoder, "line", failing_line)
        service = RecognitionService(
            serving_amm, max_batch_size=1, max_wait=0.0, workers=1
        )
        server = start_async_server(service, port=0, binary_port=None)
        try:
            with RecognitionClient("127.0.0.1", server.port) as client:
                events = list(
                    client.recognise_stream(request_codes[:6], seeds=list(range(6)))
                )
                summary = events[-1]
                assert summary["error"]["status"] == 500
                assert "encoder failure" in summary["error"]["message"]
                assert summary["ok"] == 3
                assert summary["ok"] + summary["failed"] == summary["count"] == 6
                assert [event["index"] for event in events[:-1]] == [0, 1, 2]
                # The next call on the same client opens a fresh connection.
                assert len(client.recognise_many(request_codes[:2], seeds=[1, 2])) == 2
        finally:
            stop_async_server(server)
