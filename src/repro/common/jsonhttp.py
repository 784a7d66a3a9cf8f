"""JSON over HTTP: the handler and server base of the serve front end and
the dist worker node, and the background serving both test helpers use."""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Answers in JSON; subclasses route and set :attr:`max_body_bytes`.

    Each response leaves in one write: ``wfile`` is buffered, so the
    headers and the body go out together when ``handle_one_request``
    flushes.  Sent as two writes, the body would wait on Nagle's
    algorithm for the client's delayed ACK of the headers (~40 ms).
    """

    protocol_version = "HTTP/1.1"
    wbufsize = -1
    disable_nagle_algorithm = True
    max_body_bytes = 1024 * 1024

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging; obs metrics cover it."""

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a 400 has answered a bad
        ``Content-Length`` (missing, malformed, or over the limit)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if 0 < length <= self.max_body_bytes:
            return self.rfile.read(length)
        self._send_json(
            400,
            {"error": f"Content-Length required and <= {self.max_body_bytes} bytes"},
        )
        return None

    def _send_json(
        self, code: int, payload: dict, *, headers: Optional[dict] = None
    ) -> None:
        self._send_raw(code, json.dumps(payload).encode("utf-8"), headers)

    def _send_raw(
        self, code: int, body: bytes, headers: Optional[dict] = None
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)


class JsonHTTPServer(ThreadingHTTPServer):
    """A daemon thread per connection, and a port that rebinds at once."""

    daemon_threads = True
    allow_reuse_address = True


@contextlib.contextmanager
def serving(server: ThreadingHTTPServer, name: str) -> Iterator[str]:
    """Serve on a background thread; yields the base URL, then shuts the
    server down, closes its socket and joins the thread."""
    thread = threading.Thread(target=server.serve_forever, name=name, daemon=True)
    thread.start()
    host, port = server.server_address[0], server.server_address[1]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
