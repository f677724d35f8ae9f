"""Stdlib JSON API over :class:`~repro.serve.service.AttackService`.

Endpoints:

* ``GET  /health``  -- liveness + registered model count;
* ``GET  /models``  -- registry listing (``RegistryEntry.describe``);
* ``GET  /metrics`` -- snapshot of the process metrics registry
  (request counts and latency histograms by route/status, cache and
  pipeline counters, resource and ``trace_dropped_spans`` gauges --
  see OBSERVABILITY.md for the contract);
* ``POST /predict`` -- body ``{"challenge": <public doc>,
  "model": <id|name, optional>, "threshold": <float, optional>,
  "top_k": <int, optional>}``; responds with the service's prediction
  document (per-v-pin LoCs / top-K candidates).

Built on ``ThreadingHTTPServer``: every connection gets its own
handler thread, which scores its request inline through
:meth:`AttackService.predict`, so slow scoring requests do not block
health checks; no third-party dependencies.  ``request_timeout`` arms a
socket read timeout per connection, so a client that opens a connection
(or sends headers) and then stalls (slowloris) is disconnected instead
of pinning a handler thread forever; every such stall increments
``http_disconnects{route}``.

Every response also feeds the observability stack: an
``http_requests{method,route,status}`` counter, an
``http_request_seconds{route}`` latency histogram, and a structured
access-log record on the ``repro.serve.access`` logger (method, path,
status, duration, response bytes).  Enable with ``repro --log-level
INFO serve ...``; logs go to stderr, never into response bodies.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..obs.logging import get_logger
from ..obs.metrics import counter, gauge, get_registry, histogram
from ..obs.resources import resource_config, update_resource_gauges
from ..obs.trace import dropped_spans
from .registry import ModelNotFoundError
from .service import AttackService

MAX_REQUEST_BYTES = 256 * 1024 * 1024

#: Per-connection socket read timeout (seconds); ``None`` disables the
#: stalled-client watchdog (not recommended outside tests).
DEFAULT_REQUEST_TIMEOUT = 30.0

#: Routes the metrics label set is allowed to contain; anything else is
#: folded into "other" so scanners cannot blow up the label cardinality.
KNOWN_ROUTES = ("/health", "/models", "/metrics", "/predict")

access_log = get_logger("serve.access")


class AttackHTTPServer(ThreadingHTTPServer):
    """A thread-per-connection ``ThreadingHTTPServer`` bound to one
    :class:`AttackService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: AttackService,
        request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        super().__init__(address, _Handler)
        self.service = service
        self.quiet = True
        self.started = time.time()
        self.request_timeout = request_timeout

    def handle_error(self, request, client_address) -> None:
        if not getattr(self, "quiet", True):
            super().handle_error(request, client_address)


class _StallCountingReader:
    """``rfile`` wrapper that counts read timeouts as disconnects.

    The socket timeout (``AttackHTTPServer.request_timeout``) fires as a
    ``TimeoutError`` out of any blocking read -- mid-headers or
    mid-body.  Counting here, at the single point every read goes
    through, means slowloris-style stalls always land in
    ``http_disconnects`` no matter which parsing stage they interrupt;
    the exception is re-raised for the caller to abort the connection.
    """

    __slots__ = ("_rfile", "_handler")

    def __init__(self, rfile: Any, handler: "_Handler") -> None:
        self._rfile = rfile
        self._handler = handler

    def _stalled(self) -> None:
        counter("http_disconnects", route=self._handler._route_label()).inc()

    def read(self, *args: Any) -> bytes:
        try:
            return self._rfile.read(*args)
        except TimeoutError:
            self._stalled()
            raise

    def readline(self, *args: Any) -> bytes:
        try:
            return self._rfile.readline(*args)
        except TimeoutError:
            self._stalled()
            raise

    def __getattr__(self, name: str) -> Any:
        return getattr(self._rfile, name)


class _Handler(BaseHTTPRequestHandler):
    """Request routing for :class:`AttackHTTPServer`."""

    server: AttackHTTPServer  # narrowed for type checkers

    # -- plumbing -------------------------------------------------------

    def setup(self) -> None:
        request_timeout = getattr(self.server, "request_timeout", None)
        if request_timeout is not None:
            # StreamRequestHandler.setup applies self.timeout to the
            # socket; reads past the deadline raise TimeoutError.
            self.timeout = request_timeout
        super().setup()
        self.rfile = _StallCountingReader(self.rfile, self)  # type: ignore[assignment]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not getattr(self.server, "quiet", True):
            super().log_message(format, *args)

    def _route_label(self) -> str:
        # ``path`` is unset while the request line itself is being read.
        path = getattr(self, "path", "").split("?", 1)[0]
        return path if path in KNOWN_ROUTES else "other"

    def _observe(self, status: int, response_bytes: int) -> None:
        """Record one finished request: metrics + structured access log."""
        duration = time.perf_counter() - getattr(
            self, "_started", time.perf_counter()
        )
        route = self._route_label()
        counter(
            "http_requests",
            method=self.command,
            route=route,
            status=status,
        ).inc()
        histogram("http_request_seconds", route=route).observe(duration)
        access_log.info(
            "%s %s -> %d",
            self.command,
            self.path,
            status,
            extra={
                "method": self.command,
                "path": self.path,
                "status": status,
                "duration_ms": round(duration * 1e3, 3),
                "response_bytes": response_bytes,
                "client": self.client_address[0],
            },
        )

    def _send_json(self, status: int, document: dict[str, Any]) -> None:
        body = json.dumps(document).encode()
        # Observe before writing: once a client has read the response,
        # the request is guaranteed to appear in the very next
        # ``/metrics`` scrape (the duration excludes only the final
        # socket write).
        self._observe(status, len(body))
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up before (or while) we answered; there is
            # nobody left to tell, and the handler thread must not die
            # with a traceback over it.
            self.close_connection = True
            counter("http_disconnects", route=self._route_label()).inc()

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_exact(self, length: int) -> bytes | None:
        """Read exactly ``length`` body bytes, or ``None`` on early EOF.

        ``rfile.read(n)`` on a socket may legally return fewer than ``n``
        bytes (slow or chunk-dribbling clients); a single call would
        truncate large challenge bodies into JSON parse errors.
        """
        chunks: list[bytes] = []
        remaining = length
        while remaining > 0:
            chunk = self.rfile.read(remaining)
            if not chunk:
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:
        """Route ``GET /health``, ``GET /models``, ``GET /metrics``."""
        self._started = time.perf_counter()
        if self.path == "/health":
            self._send_json(
                200,
                {"status": "ok", "models": len(self.server.service.models())},
            )
        elif self.path == "/models":
            self._send_json(200, {"models": self.server.service.models()})
        elif self.path == "/metrics":
            if resource_config() is not None:
                # Scrape-time refresh: the gauges are at most one
                # sampler interval stale, but a scrape deserves a
                # reading taken *now*.
                update_resource_gauges()
            gauge("trace_dropped_spans").set(dropped_spans())
            snapshot = get_registry().snapshot()
            snapshot["uptime_s"] = round(
                time.time() - getattr(self.server, "started", time.time()), 3
            )
            self._send_json(200, snapshot)
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    def do_POST(self) -> None:
        """Route ``POST /predict``."""
        self._started = time.perf_counter()
        if self.path != "/predict":
            self._send_error_json(404, f"unknown path {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._send_error_json(400, "bad Content-Length")
            return
        if length <= 0 or length > MAX_REQUEST_BYTES:
            self._send_error_json(400, "missing or oversized request body")
            return
        try:
            body = self._read_exact(length)
        except TimeoutError:
            # Stalled client: already counted by _StallCountingReader.
            self.close_connection = True
            return
        except (ConnectionResetError, OSError):
            self.close_connection = True
            counter("http_disconnects", route=self._route_label()).inc()
            return
        if body is None:
            self._send_error_json(400, "truncated request body")
            return
        try:
            request = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._send_error_json(400, "request body is not valid JSON")
            return
        if not isinstance(request, dict) or "challenge" not in request:
            self._send_error_json(400, "request must carry a 'challenge' document")
            return
        model = request.get("model")
        if model is not None and not isinstance(model, str):
            self._send_error_json(
                400,
                "model must be a string model id or name, got "
                f"{type(model).__name__}",
            )
            return
        top_k = request.get("top_k")
        threshold = request.get("threshold")
        try:
            response = self.server.service.predict(
                request["challenge"],
                model_id=model,
                threshold=None if threshold is None else float(threshold),
                top_k=None if top_k is None else int(top_k),
            )
        except ModelNotFoundError as error:
            self._send_error_json(404, str(error))
        except (KeyError, TypeError, ValueError) as error:
            self._send_error_json(400, f"bad request: {error}")
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, f"internal error: {error}")
        else:
            self._send_json(200, response)


def make_server(
    service: AttackService,
    host: str = "127.0.0.1",
    port: int = 8787,
    request_timeout: float | None = DEFAULT_REQUEST_TIMEOUT,
) -> AttackHTTPServer:
    """Bind (but do not start) the JSON API server; ``port=0`` picks a
    free port (see ``server.server_address``).

    ``request_timeout`` arms the per-connection stalled-client watchdog.
    """
    return AttackHTTPServer((host, port), service, request_timeout=request_timeout)
