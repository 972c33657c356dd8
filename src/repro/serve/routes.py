"""HTTP transport for :class:`repro.serve.app.ServeApp` (stdlib only).

A :class:`~http.server.ThreadingHTTPServer` (one daemon thread per
connection — SSE streams hold their connection open, so threading is
load-bearing, not an optimisation) dispatching to the app's
``(status, payload)`` methods:

====================  ==================================================
``POST /v1/solve``     submit a spec; 200 warm / 202 ticket / 400 / 429
``GET /v1/reports/K``  the stored report; 202 + run state while in flight
``GET /v1/runs/K/events``  SSE telemetry stream (``?timeout=SECONDS``)
``GET /v1/status``     admission/workers/runs/store backpressure snapshot
``GET /healthz``       liveness/readiness (503 draining or breaker open)
``GET /metrics``       Prometheus text exposition of the metrics registry
``GET /``              endpoint index
====================  ==================================================

Conventions: JSON bodies everywhere (errors are
``{"error": {"type", "message"}}``), the ``X-Client`` request header
names the tenant for admission accounting, and 429/503 shed responses
carry a standard ``Retry-After`` header.
"""

from __future__ import annotations

import json
import math
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.serve.app import ServeApp
from repro.serve.sse import SSE_CONTENT_TYPE

_REPORT_PATH = re.compile(r"^/v1/reports/([^/]+)$")
_EVENTS_PATH = re.compile(r"^/v1/runs/([^/]+)/events$")


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServeApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: Tuple[str, int], app: ServeApp, verbose: bool = False
    ) -> None:
        super().__init__(address, ServeRequestHandler)
        self.app = app
        self.verbose = verbose


def make_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 8080, verbose: bool = False
) -> ServeHTTPServer:
    """Bind the service (``port=0`` picks an ephemeral port)."""
    return ServeHTTPServer((host, port), app, verbose=verbose)


class ServeRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"
    # TCP_NODELAY on every accepted socket.  A reply leaves as a header
    # segment then a body segment; under Nagle the body waits for the
    # client's delayed ACK of the headers (~40 ms on Linux) on a reused
    # keep-alive connection.
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------
    # response helpers
    # ------------------------------------------------------------------
    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        headers = dict(headers or {})
        if code in (429, 503) and "Retry-After" not in headers:
            # Both shed responses (admission 429, breaker/draining 503)
            # carry the standard header so well-behaved clients pace
            # themselves without parsing the JSON body.
            retry = payload.get("retry_after_seconds", 1.0)
            try:
                headers["Retry-After"] = str(max(1, int(math.ceil(float(retry)))))
            except (TypeError, ValueError):
                headers["Retry-After"] = "1"
        body = json.dumps(payload, sort_keys=True, indent=2).encode("utf-8") + b"\n"
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, kind: str, message: str) -> None:
        self._send_json(code, {"error": {"type": kind, "message": message}})

    def _send_metrics(self) -> None:
        body = self.app.metrics_text().encode("utf-8")
        self.send_response(200)
        # The Prometheus text exposition content type (version 0.0.4).
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        parsed = urlsplit(self.path)
        path = parsed.path
        if path in ("/", ""):
            code, payload = self.app.endpoints()
            return self._send_json(code, payload)
        if path == "/v1/status":
            code, payload = self.app.status()
            return self._send_json(code, payload)
        if path == "/healthz":
            code, payload = self.app.health()
            return self._send_json(code, payload)
        if path == "/metrics":
            return self._send_metrics()
        match = _REPORT_PATH.match(path)
        if match:
            code, payload = self.app.report(match.group(1))
            return self._send_json(code, payload)
        match = _EVENTS_PATH.match(path)
        if match:
            return self._stream_events(match.group(1), parse_qs(parsed.query))
        self._send_error_json(404, "NotFound", f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        path = urlsplit(self.path).path
        if path != "/v1/solve":
            return self._send_error_json(404, "NotFound", f"no route for POST {path}")
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            return self._send_error_json(400, "InvalidRequest", "bad Content-Length")
        raw = self.rfile.read(length) if length > 0 else b""
        code, payload = self.app.submit(raw, client=self.headers.get("X-Client"))
        # Retry-After for 429/503 is attached centrally in _send_json.
        self._send_json(code, payload)

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------
    def _stream_events(self, key: str, query: Dict[str, list]) -> None:
        timeout: Optional[float] = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"][0])
            except (ValueError, IndexError):
                timeout = math.nan
            # NaN and inf would hold this thread for as long as the run
            # stays unfinished.
            if not 0 <= timeout < math.inf:
                return self._send_error_json(
                    400,
                    "InvalidRequest",
                    "timeout must be a finite, non-negative number of seconds",
                )
        frames = self.app.event_stream(key, timeout=timeout)
        if frames is None:
            return self._send_error_json(
                404, "NotFound", f"unknown canonical key {key!r}"
            )
        self.send_response(200)
        self.send_header("Content-Type", SSE_CONTENT_TYPE)
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        # No Content-Length: the stream ends by closing the connection.
        self.close_connection = True
        try:
            for frame in frames:
                self.wfile.write(frame)
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the tailer generator is GC-closed
