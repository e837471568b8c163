"""HTTP front-end tests: endpoints, error mapping, explicit-port boot."""

import http.client
import json

import numpy as np
import pytest

from repro.serving import (
    RecognitionClient,
    RecognitionService,
    ServerError,
    start_async_server,
    stop_async_server,
)


@pytest.fixture()
def running_server(serving_amm):
    service = RecognitionService(serving_amm, max_batch_size=8, max_wait=1e-3, workers=2)
    server = start_async_server(service, port=0, binary_port=None)
    yield server
    if not service.closed:
        stop_async_server(server)


def raw_post(port, path, body: bytes, content_type="application/json"):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10.0)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": content_type}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestEndpoints:
    def test_single_recognise_round_trip(self, running_server, serving_amm, request_codes):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            result = client.recognise(request_codes[0], seed=7)
        reference = serving_amm.recognise_batch_seeded(request_codes[:1], [7])[0]
        assert result["winner"] == reference.winner
        assert result["winner_column"] == reference.winner_column
        assert result["dom_code"] == reference.dom_code
        assert result["accepted"] == reference.accepted
        assert result["tie"] == reference.tie
        assert result["static_power_w"] == pytest.approx(
            reference.static_power, rel=1e-9
        )

    def test_multi_image_request(self, running_server, serving_amm, request_codes, request_seeds):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            results = client.recognise_many(request_codes[:5], seeds=request_seeds[:5])
        reference = serving_amm.recognise_batch_seeded(
            request_codes[:5], request_seeds[:5]
        )
        assert len(results) == 5
        for index, result in enumerate(results):
            assert result["winner"] == reference[index].winner
            assert result["dom_code"] == reference[index].dom_code

    def test_healthz(self, running_server):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert health["array"] == {"rows": 32, "columns": 6}

    def test_stats_reflect_traffic(self, running_server, request_codes):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            client.recognise_many(request_codes[:6])
            stats = client.stats()
        assert stats["requests"]["submitted"] >= 6
        assert stats["requests"]["completed"] >= 6
        assert stats["batches"]["dispatched"] >= 1
        assert stats["latency"]["samples"] >= 6
        json.dumps(stats)  # snapshot must stay JSON-serialisable


class TestErrorMapping:
    def test_unknown_path_404(self, running_server):
        status, payload = raw_post(running_server.port, "/nope", b"{}")
        assert status == 404 and "error" in payload

    def test_malformed_json_400(self, running_server):
        status, payload = raw_post(running_server.port, "/recognise", b"{not json")
        assert status == 400 and "error" in payload

    def test_wrong_shape_400(self, running_server):
        body = json.dumps({"codes": [1, 2, 3]}).encode()
        status, payload = raw_post(running_server.port, "/recognise", body)
        assert status == 400 and "error" in payload

    def test_missing_body_411(self, running_server):
        status, payload = raw_post(running_server.port, "/recognise", b"")
        assert status == 411
        assert payload["reason"] == "length_required"

    def test_overflowing_seed_400(self, running_server, request_codes):
        body = json.dumps(
            {"codes": request_codes[0].tolist(), "seed": 2**63}
        ).encode()
        status, payload = raw_post(running_server.port, "/recognise", body)
        assert status == 400 and "error" in payload

    def test_never_admittable_batch_400_not_429(self, serving_amm, request_codes):
        service = RecognitionService(serving_amm, max_batch_size=4, max_queue_depth=4)
        server = start_async_server(service, port=0, binary_port=None)
        try:
            rows = np.tile(request_codes[0], (6, 1)).tolist()
            status, payload = raw_post(
                server.port, "/recognise", json.dumps({"codes": rows}).encode()
            )
            assert status == 400
            assert "split (or stream) the request" in payload["error"]
        finally:
            stop_async_server(server)

    def test_client_raises_server_error(self, running_server):
        with RecognitionClient("127.0.0.1", running_server.port) as client:
            with pytest.raises(ServerError) as excinfo:
                client.recognise(np.zeros(3, dtype=int))
        assert excinfo.value.status == 400

    def test_oversized_body_400_and_connection_close(self, running_server):
        from repro.serving.protocol import MAX_BODY_BYTES

        connection = http.client.HTTPConnection(
            "127.0.0.1", running_server.port, timeout=10.0
        )
        try:
            # Declare an oversized body without streaming it: the server
            # must reject on the declared length, before reading.
            connection.putrequest("POST", "/recognise")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            connection.send(b"{}")
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "exceeds" in payload["error"]
            # The unread body desynchronises keep-alive, so the server
            # must drop the connection instead of reusing it.
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()

    def test_unserved_request_maps_to_504(self, running_server, request_codes, monkeypatch):
        import threading

        import repro.serving.aio as aio_module
        from repro.backends.threaded import ThreadedBackend

        gate = threading.Event()
        original = ThreadedBackend.recall_batch_seeded

        def gated_recall(self, codes_batch, request_seeds):
            gate.wait(timeout=20.0)
            return original(self, codes_batch, request_seeds)

        monkeypatch.setattr(ThreadedBackend, "recall_batch_seeded", gated_recall)
        monkeypatch.setattr(aio_module, "DEFAULT_REQUEST_TIMEOUT", 0.05)
        try:
            body = json.dumps({"codes": request_codes[0].tolist()}).encode()
            status, payload = raw_post(running_server.port, "/recognise", body)
            assert status == 504
            assert "error" in payload
        finally:
            gate.set()

    def test_closed_service_maps_to_503(self, running_server, request_codes):
        running_server.service.close()
        body = json.dumps({"codes": request_codes[0].tolist()}).encode()
        status, payload = raw_post(running_server.port, "/recognise", body)
        assert status == 503
        stop_async_server(running_server, close_service=False)


def test_explicit_port_boot_uses_free_port_fixture(
    serving_amm, request_codes, free_port
):
    """The pattern for tests that must name a port up front: take it
    from the shared ``free_port`` fixture (never a hard-coded number or
    a bind-retry loop) and serve on it normally."""
    service = RecognitionService(serving_amm, max_batch_size=4, max_wait=0.0)
    server = start_async_server(service, port=free_port, binary_port=None)
    try:
        assert server.port == free_port
        with RecognitionClient("127.0.0.1", free_port) as client:
            assert client.healthz()["status"] == "ok"
            client.recognise(request_codes[0], seed=3)
    finally:
        stop_async_server(server)
