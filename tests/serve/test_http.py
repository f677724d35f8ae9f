"""Tests for the stdlib JSON API (repro.serve.http)."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.attack.config import CONFIGS_BY_NAME
from repro.obs import get_registry
from repro.serve.registry import ModelRegistry
from repro.serve.service import AttackService, train_model
from repro.serve.http import make_server
from repro.splitmfg.challenge import challenge_to_dict


@pytest.fixture(scope="module")
def registry(views6, tmp_path_factory):
    """A registry holding one small trained model."""
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.save(train_model(CONFIGS_BY_NAME["Imp-7"], views6[:1], seed=0), name="m")
    return registry


@pytest.fixture(scope="module")
def server(registry):
    """A live server on an ephemeral port, one model registered."""
    instance = make_server(AttackService(registry), port=0)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


@pytest.fixture()
def stall_server(registry):
    """A server with an aggressive stalled-client watchdog."""
    instance = make_server(AttackService(registry), port=0, request_timeout=0.5)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.shutdown()
    instance.server_close()
    thread.join(timeout=5)


def _get(server, path):
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(server, path, body):
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=body if isinstance(body, bytes) else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_health(self, server):
        status, document = _get(server, "/health")
        assert status == 200
        assert document == {"status": "ok", "models": 1}

    def test_models(self, server):
        status, document = _get(server, "/models")
        assert status == 200
        assert [m["model_id"] for m in document["models"]] == ["m-v0001"]

    def test_predict(self, server, views6):
        view = views6[0]
        status, document = _post(
            server, "/predict", {"challenge": challenge_to_dict(view)}
        )
        assert status == 200
        assert document["design"] == view.design_name
        assert document["n_vpins"] == len(view)
        assert document["model_id"] == "m-v0001"

    def test_predict_top_k(self, server, views6):
        status, document = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "model": "m", "top_k": 1},
        )
        assert status == 200
        assert document["top_k"] == 1
        assert all(len(d["candidates"]) == 1 for d in document["locs"])


class TestErrors:
    def test_unknown_paths(self, server):
        assert _get(server, "/nope")[0] == 404
        status, document = _post(server, "/frobnicate", {"x": 1})
        assert status == 404
        assert "unknown path" in document["error"]

    def test_body_validation(self, server):
        assert _post(server, "/predict", b"{broken json")[0] == 400
        status, document = _post(server, "/predict", {"no_challenge": True})
        assert status == 400
        assert "challenge" in document["error"]
        assert _post(server, "/predict", b"")[0] == 400

    def test_unknown_model_is_404(self, server, views6):
        status, document = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "model": "ghost"},
        )
        assert status == 404
        assert "ghost" in document["error"]

    def test_malformed_challenge_is_400(self, server):
        status, _ = _post(server, "/predict", {"challenge": {"bogus": 1}})
        assert status == 400


def _raw_post(server, body, chunk_size=None, pause=0.0, truncate_at=None):
    """POST over a raw socket, optionally dribbling or truncating the body.

    Returns the raw response bytes (empty if the server just closed).
    """
    host, port = server.server_address[:2]
    send = body if truncate_at is None else body[:truncate_at]
    header = (
        f"POST /predict HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(header)
        if chunk_size is None:
            sock.sendall(send)
        else:
            for start in range(0, len(send), chunk_size):
                sock.sendall(send[start : start + chunk_size])
                if pause:
                    time.sleep(pause)
        if truncate_at is not None:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
                if b"\r\n\r\n" in response:
                    head, _, rest = response.partition(b"\r\n\r\n")
                    for line in head.split(b"\r\n"):
                        if line.lower().startswith(b"content-length:"):
                            if len(rest) >= int(line.split(b":", 1)[1]):
                                return response
        except (TimeoutError, ConnectionResetError):
            pass
        return response


class TestRobustness:
    """Partial reads and hung-up clients must not break the server."""

    def test_dribbled_body_is_read_completely(self, server, views6):
        """A body arriving in many small chunks still parses as one JSON."""
        body = json.dumps({"challenge": challenge_to_dict(views6[0])}).encode()
        response = _raw_post(server, body, chunk_size=1024, pause=0.002)
        assert response.startswith(b"HTTP/1.0 200") or response.startswith(
            b"HTTP/1.1 200"
        )
        payload = json.loads(response.partition(b"\r\n\r\n")[2])
        assert payload["design"] == views6[0].design_name

    def test_truncated_body_is_400_not_hang(self, server, views6):
        """EOF before Content-Length bytes yields a clean 400."""
        body = json.dumps({"challenge": challenge_to_dict(views6[0])}).encode()
        response = _raw_post(server, body, truncate_at=len(body) // 2)
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        assert b"truncated" in response

    def test_client_disconnect_before_response(self, server, views6):
        """Hanging up mid-request must not kill the server."""
        host, port = server.server_address[:2]
        body = json.dumps({"challenge": challenge_to_dict(views6[0])}).encode()
        header = (
            f"POST /predict HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        sock = socket.create_connection((host, port), timeout=30)
        sock.sendall(header + body)
        sock.close()  # walk away without reading the response
        # The server must still answer the next request.
        status, document = _get(server, "/health")
        assert status == 200 and document["status"] == "ok"


class TestParameterValidation:
    """Garbage parameters must draw a 400, never a silent-empty 200."""

    def test_nan_threshold_is_400(self, server, views6):
        status, document = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "threshold": float("nan")},
        )
        assert status == 400
        assert "threshold" in document["error"]

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, 1e9, float("inf")])
    def test_out_of_range_threshold_is_400(self, server, views6, threshold):
        status, document = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "threshold": threshold},
        )
        assert status == 400
        assert "threshold" in document["error"]

    def test_non_numeric_threshold_is_400(self, server, views6):
        status, _ = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "threshold": [0.5]},
        )
        assert status == 400

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_boundary_thresholds_are_accepted(self, server, views6, threshold):
        status, document = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "threshold": threshold},
        )
        assert status == 200
        assert document["threshold"] == threshold

    @pytest.mark.parametrize("model", [123, 1.5, ["m"], {"id": "m"}, True])
    def test_non_string_model_is_400(self, server, views6, model):
        status, document = _post(
            server,
            "/predict",
            {"challenge": challenge_to_dict(views6[0]), "model": model},
        )
        assert status == 400
        assert "model must be a string" in document["error"]


class TestStalledClients:
    """A stalling client must be disconnected, counted, and harmless."""

    def _assert_closed(self, sock):
        """The server must hang up on us (EOF) despite our stall."""
        sock.settimeout(10)
        assert sock.recv(65536) == b""

    def test_body_stall_is_disconnected_and_counted(self, stall_server, views6):
        get_registry().reset()
        host, port = stall_server.server_address[:2]
        body = json.dumps({"challenge": challenge_to_dict(views6[0])}).encode()
        header = (
            f"POST /predict HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(header + body[: len(body) // 2])  # ... and stall
            self._assert_closed(sock)
        counters = get_registry().snapshot()["counters"]
        assert counters["http_disconnects{route=/predict}"] == 1
        # The handler thread is free again; the server keeps serving.
        status, document = _get(stall_server, "/health")
        assert status == 200 and document["status"] == "ok"

    def test_header_stall_is_disconnected_and_counted(self, stall_server):
        get_registry().reset()
        host, port = stall_server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b"POST /pre")  # partial request line, then silence
            self._assert_closed(sock)
        counters = get_registry().snapshot()["counters"]
        assert counters["http_disconnects{route=other}"] == 1
        assert _get(stall_server, "/health")[0] == 200

    def test_idle_connection_is_reaped(self, stall_server):
        get_registry().reset()
        host, port = stall_server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            self._assert_closed(sock)  # never send a byte
        assert _get(stall_server, "/health")[0] == 200


class TestObservability:
    """``GET /metrics`` and the structured access log."""

    def test_metrics_reports_request_counters(self, server):
        get_registry().reset()
        for _ in range(3):
            assert _get(server, "/health")[0] == 200
        _get(server, "/nope")
        status, document = _get(server, "/metrics")
        assert status == 200
        counters = document["counters"]
        assert (
            counters["http_requests{method=GET,route=/health,status=200}"]
            == 3
        )
        assert (
            counters["http_requests{method=GET,route=other,status=404}"] == 1
        )
        assert document["uptime_s"] >= 0

    def test_metrics_reports_latency_histograms(self, server):
        get_registry().reset()
        _get(server, "/health")
        _, document = _get(server, "/metrics")
        state = document["histograms"]["http_request_seconds{route=/health}"]
        assert state["count"] == 1
        assert state["sum"] >= 0
        assert "+inf" in state["buckets"]

    def test_metrics_reports_dropped_spans_gauge(self, server):
        get_registry().reset()
        _, document = _get(server, "/metrics")
        assert document["gauges"]["trace_dropped_spans"]["value"] == 0.0

    def test_metrics_reports_resource_gauges_when_sampling(self, server):
        from repro.obs.resources import resource_sampling

        get_registry().reset()
        with resource_sampling(interval=60.0):
            _, document = _get(server, "/metrics")
        gauges = document["gauges"]
        assert gauges["process_rss_bytes"]["value"] > 0
        assert gauges["process_peak_rss_bytes"]["value"] > 0
        assert gauges["process_cpu_seconds"]["value"] >= 0

    def test_metrics_includes_itself_on_next_scrape(self, server):
        get_registry().reset()
        _get(server, "/metrics")
        _, document = _get(server, "/metrics")
        assert (
            document["counters"][
                "http_requests{method=GET,route=/metrics,status=200}"
            ]
            >= 1
        )

    def test_predict_latency_recorded(self, server, views6):
        get_registry().reset()
        _post(server, "/predict", {"challenge": challenge_to_dict(views6[0])})
        _, document = _get(server, "/metrics")
        assert (
            document["counters"][
                "http_requests{method=POST,route=/predict,status=200}"
            ]
            == 1
        )
        state = document["histograms"]["http_request_seconds{route=/predict}"]
        assert state["count"] == 1 and state["sum"] > 0

    def test_access_log_records(self, server, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            _get(server, "/health")
            _post(server, "/predict", b"{broken json")
        records = [
            r for r in caplog.records if r.name == "repro.serve.access"
        ]
        by_path = {r.path: r for r in records}
        health = by_path["/health"]
        assert health.method == "GET" and health.status == 200
        assert health.duration_ms >= 0
        assert health.response_bytes > 0
        predict = by_path["/predict"]
        assert predict.method == "POST" and predict.status == 400
