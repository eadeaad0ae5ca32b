"""A tiny local HTTP server for exercising network code against a real socket.

`serving(app)` starts a threaded HTTP/1.1 server on an ephemeral localhost
port and yields its base URL. Connections are kept alive until they sit idle
for `idle_timeout` seconds, when the server closes them. The app callable
receives (method, path, query, body) and returns (status, payload) or
(status, payload, headers), where payload is a dict (sent as JSON) or a raw
string (sent verbatim, still labeled application/json so malformed-body
handling can be provoked) and headers is a dict of extra response headers.
"""

from __future__ import annotations

import json
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse


class RequestLog:
    """Thread-safe count + transcript of requests the stub has served, and the
    number of connections it has closed."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests: list[dict] = []
        self.closed = 0

    def record(self, entry: dict) -> None:
        with self._lock:
            self.requests.append(entry)

    @property
    def count(self) -> int:
        with self._lock:
            return len(self.requests)

    def connection_closed(self) -> None:
        with self._lock:
            self.closed += 1


@contextmanager
def serving(app, idle_timeout: float = 5.0):
    """Serve `app` on 127.0.0.1:<ephemeral> for the duration of the block."""
    log = RequestLog()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = idle_timeout

        def setup(self):
            super().setup()
            # Headers and body go out in two writes; without this, Nagle's
            # algorithm holds the body until the client's delayed ACK.
            self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, *args):  # keep test output clean
            pass

        def _handle(self, method: str) -> None:
            parsed = urlparse(self.path)
            query = {k: v[0] for k, v in parse_qs(parsed.query).items()}
            length = int(self.headers.get("Content-Length") or 0)
            body = json.loads(self.rfile.read(length)) if length else None
            log.record(
                {
                    "method": method,
                    "path": parsed.path,
                    "query": query,
                    "body": body,
                    "headers": dict(self.headers),
                }
            )
            status, payload, *headers = app(method, parsed.path, query, body)
            data = (
                payload.encode("utf-8")
                if isinstance(payload, str)
                else json.dumps(payload).encode("utf-8")
            )
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._handle("GET")

        def do_POST(self):
            self._handle("POST")

    class Server(ThreadingHTTPServer):
        def shutdown_request(self, request):
            super().shutdown_request(request)  # closes the connection's socket
            log.connection_closed()

    server = Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}", log
    finally:
        server.shutdown()
        server.server_close()
