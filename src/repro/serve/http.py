"""Thin JSON/HTTP facade over :class:`~repro.serve.service.AlignmentService`.

Endpoints:

``POST /align``
    Body: ``{"pattern": "...", "text": "..."}`` for one pair, or
    ``{"pairs": [["p1", "t1"], ["p2", "t2"], ...]}`` for several; an
    optional ``"traceback": false`` requests distance-only alignment.
    Response: ``{"pairs": n, "results": [{score, cigar, exact,
    text_start, text_end, cached}, ...]}`` in input order.  Saturation
    — and, when configured, per-client rate limiting keyed on the
    ``X-Client-Id`` header (peer address when absent) —
    returns ``429`` with a ``Retry-After`` header; malformed input
    (including empty sequences) returns ``400``; a request that outlives
    the service's ``request_timeout`` returns ``504``; any unexpected
    server-side failure returns ``500`` rather than a dropped connection.

``GET /health``
    Liveness: status, uptime, pool shape.

``GET /metrics``
    The full :meth:`AlignmentService.metrics_snapshot` — request, cache,
    queue, coalescing and pool counts, plus the obs registry while a
    caller records.

The server is a stdlib :class:`~http.server.ThreadingHTTPServer` (the
JSON base in :mod:`repro.common.jsonhttp`, shared with the dist node);
each connection gets a handler thread, and all of them funnel into the
one shared service (whose coalescer packs their concurrent requests into
shards).
"""

from __future__ import annotations

import contextlib
import json
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Iterator, List, Tuple

from ..common.jsonhttp import JsonHTTPServer, JsonRequestHandler, serving
from ..obs import runtime as obs
from .ratelimit import RateLimitedError
from .service import AlignmentService, ServeError, ServiceSaturatedError

#: Refuse request bodies larger than this (defense against misdirected uploads).
MAX_BODY_BYTES = 8 * 1024 * 1024


class RequestError(ServeError):
    """Client-side request problem (maps to HTTP 400)."""


def _parse_align_request(body: bytes) -> Tuple[List[Tuple[str, str]], bool]:
    """Decode and validate a ``POST /align`` body → (pairs, traceback)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    traceback = payload.get("traceback", True)
    if not isinstance(traceback, bool):
        raise RequestError("'traceback' must be a boolean")
    if "pairs" in payload:
        raw_pairs = payload["pairs"]
        if not isinstance(raw_pairs, list) or not raw_pairs:
            raise RequestError("'pairs' must be a non-empty list")
        pairs: List[Tuple[str, str]] = []
        for index, item in enumerate(raw_pairs):
            if (
                not isinstance(item, (list, tuple))
                or len(item) != 2
                or not all(isinstance(part, str) and part for part in item)
            ):
                raise RequestError(
                    f"pairs[{index}] must be a [pattern, text] pair of "
                    f"non-empty strings"
                )
            pairs.append((item[0], item[1]))
        return pairs, traceback
    pattern = payload.get("pattern")
    text = payload.get("text")
    if not isinstance(pattern, str) or not isinstance(text, str):
        raise RequestError(
            "request must provide 'pattern' and 'text' strings, "
            "or a 'pairs' list"
        )
    if not pattern or not text:
        raise RequestError("'pattern' and 'text' must be non-empty")
    return [(pattern, text)], traceback


class AlignmentRequestHandler(JsonRequestHandler):
    """Routes HTTP traffic into the shared :class:`AlignmentService`;
    each response leaves in one write."""

    server_version = "repro-serve/1.0"
    max_body_bytes = MAX_BODY_BYTES

    @property
    def service(self) -> AlignmentService:
        return self.server.service  # type: ignore[attr-defined]

    def _client_id(self) -> str:
        """Rate-limit key: ``X-Client-Id`` header, else the peer address."""
        header = self.headers.get("X-Client-Id", "").strip()
        if header:
            return header[:128]
        return self.client_address[0]

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._send_json(200, self.service.health())
        elif self.path == "/metrics":
            self._send_json(200, self.service.metrics_snapshot())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/align":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        with obs.span("serve.request"):
            self._handle_align()

    def _handle_align(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            pairs, traceback = _parse_align_request(body)
            limiter = self.service.rate_limiter
            if limiter is not None:
                limiter.check(self._client_id(), cost=len(pairs))
            results = self.service.align_pairs(pairs, traceback=traceback)
        except RequestError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except RateLimitedError as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
            return
        except ServiceSaturatedError as exc:
            self._send_json(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:.3f}"},
            )
            return
        except ServeError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except FuturesTimeoutError:
            self._send_json(
                504, {"error": "alignment timed out; retry later"}
            )
            return
        except Exception as exc:  # noqa: BLE001 - never drop the connection
            # A shard failure propagates the worker's exception through
            # align_pairs; the client must still get an HTTP response, not
            # a closed socket.
            self._send_json(
                500, {"error": f"internal error: {type(exc).__name__}: {exc}"}
            )
            return
        self._send_json(
            200,
            {
                "pairs": len(results),
                "results": [result.to_dict() for result in results],
            },
        )


class AlignmentHTTPServer(JsonHTTPServer):
    """Threaded HTTP server bound to one :class:`AlignmentService`."""

    def __init__(
        self,
        address: Tuple[str, int],
        service: AlignmentService,
    ) -> None:
        super().__init__(address, AlignmentRequestHandler)
        self.service = service


@contextlib.contextmanager
def running_server(
    service: AlignmentService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Iterator[Tuple[AlignmentHTTPServer, str]]:
    """Run a server for ``service`` on a background thread.

    Yields ``(server, base_url)``; ``port=0`` binds an ephemeral port
    (read the real one off the URL).  Shuts the server down on exit —
    the *service* lifecycle stays with the caller.
    """
    server = AlignmentHTTPServer((host, port), service)
    with serving(server, "repro-serve-http") as base_url:
        yield server, base_url
