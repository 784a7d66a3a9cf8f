"""Dist worker node: an HTTP shard executor around a warm WorkerPool.

One worker node = one process, one warm
:class:`~repro.align.parallel.WorkerPool`, one tiny HTTP server:

``GET /health``
    Liveness + identity: node name, **incarnation** (bumped every time a
    supervisor respawns the process — the coordinator uses it to tell a
    revived node from a flapping one), pool shape, shards completed.

``POST /shard``
    Body: a :class:`~repro.dist.protocol.ShardRequest`.  The node checks
    the aligner fingerprint (409 on mismatch — a coordinator for a
    different run), executes the shard through its pool, and replies
    with a :class:`~repro.dist.protocol.ShardCompletion` echoing the
    lease epoch.  Under chaos the request carries a planned
    :class:`~repro.dist.protocol.NodeFault` which the node acts out
    (crash, stall, drop the connection) — deterministic fault injection
    at the node boundary, same philosophy as the worker-layer faults in
    :mod:`repro.resilience.injectors`.

The pool is *reused* across shards (warm-pool economics from
:mod:`repro.serve`), and observability buffers captured inside pool
workers are forwarded in the completion so the coordinator can merge
per-node spans/metrics across process boundaries.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Tuple

from ..align.base import Aligner
from ..align.parallel import WorkerPool, _align_shard
from ..resilience.injectors import shard_checksum
from ..serve.cache import aligner_fingerprint
from .protocol import (
    DistError,
    ProtocolError,
    ShardCompletion,
    ShardRequest,
)

#: Refuse request bodies larger than this.
MAX_BODY_BYTES = 32 * 1024 * 1024


class DistWorker:
    """Shard executor state shared by all handler threads of one node."""

    def __init__(
        self,
        aligner: Aligner,
        *,
        node: str,
        incarnation: int = 1,
        workers: int = 1,
    ) -> None:
        self.aligner = aligner
        self.node = node
        self.incarnation = incarnation
        self.pool = WorkerPool(workers)
        self.fingerprint = aligner_fingerprint(aligner)
        self._lock = threading.Lock()
        self.shards_done = 0
        self.faults_honored = 0

    def close(self) -> None:
        self.pool.close()

    def health(self) -> dict:
        with self._lock:
            done = self.shards_done
        return {
            "status": "ok",
            "node": self.node,
            "incarnation": self.incarnation,
            "workers": self.pool.workers,
            "executor": self.pool.executor,
            "pool_generation": self.pool.generation,
            "shards_done": done,
        }

    def execute(self, request: ShardRequest) -> ShardCompletion:
        """Run one leased shard through the warm pool.

        The shard runs the local engines' shard body, so dist nodes
        inherit their exact kernel semantics.  A pool worker that dies
        mid-shard raises :class:`~repro.align.parallel.WorkerLost`, which
        the handler answers with a 500: the coordinator's lease fails
        and the shard is retried, instead of this thread blocking on a
        reply that can never come.
        """
        if request.fingerprint and request.fingerprint != self.fingerprint:
            raise DistError(
                f"aligner fingerprint mismatch: coordinator sent "
                f"{request.fingerprint!r}, node runs {self.fingerprint!r}"
            )
        want_obs = request.want_obs and self.pool.process_mode
        payload = (
            self.aligner,
            request.pairs,
            request.traceback,
            False,
            want_obs,
        )
        started = time.perf_counter()
        handle = self.pool.submit(_align_shard, payload)
        results, _stats, _elapsed, _worker, buffers = self.pool.wait(handle)
        spans, metrics = buffers
        with self._lock:
            self.shards_done += 1
        return ShardCompletion(
            shard_id=request.shard_id,
            epoch=request.epoch,
            node=self.node,
            incarnation=self.incarnation,
            checksum=shard_checksum(request.pairs),
            results=results,
            elapsed=time.perf_counter() - started,
            spans=spans,
            metrics=metrics,
        )


class DistWorkerHandler(BaseHTTPRequestHandler):
    """Routes node HTTP traffic into the shared :class:`DistWorker`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-dist-worker/1.0"

    @property
    def worker(self) -> DistWorker:
        return self.server.worker  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging."""

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/health":
            self._send_json(200, self.worker.health())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path != "/shard":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                400,
                {
                    "error": "Content-Length required and <= "
                    f"{MAX_BODY_BYTES} bytes"
                },
            )
            return
        body = self.rfile.read(length)
        try:
            request = ShardRequest.from_json(body)
        except ProtocolError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        fault = request.fault
        if fault is not None and fault.kind == "kill":
            # Crash mid-shard: the process dies before any reply — the
            # coordinator sees the connection reset and the supervisor
            # (if any) respawns the node under a new incarnation.
            self.worker.faults_honored += 1
            os._exit(3)
        if fault is not None and fault.kind == "slow":
            # Stall *below* the lease timeout, then answer normally: the
            # coordinator absorbs the latency without a retry.
            self.worker.faults_honored += 1
            time.sleep(max(0.0, fault.seconds))
        try:
            completion = self.worker.execute(request)
        except DistError as exc:
            self._send_json(409, {"error": str(exc)})
            return
        except Exception as exc:  # noqa: BLE001 - never drop the reply
            self._send_json(
                500,
                {"error": f"internal error: {type(exc).__name__}: {exc}"},
            )
            return
        if fault is not None and fault.kind == "hang":
            # Zombie path: the work is *done*, but the reply stalls past
            # the lease timeout.  By the time it lands, the coordinator
            # has re-leased the shard under a higher epoch, so this
            # completion echoes a stale epoch and must be discarded.
            self.worker.faults_honored += 1
            time.sleep(max(0.0, fault.seconds))
        elif fault is not None and fault.kind == "partition":
            # Network partition at the worst moment: the shard executed,
            # but the reply never crosses the wire — drop the connection.
            self.worker.faults_honored += 1
            self.close_connection = True
            with contextlib.suppress(OSError):
                self.connection.shutdown(socket.SHUT_RDWR)
            return
        self._send_raw(200, completion.to_json())

    def _send_json(self, code: int, payload: dict) -> None:
        self._send_raw(code, json.dumps(payload).encode("utf-8"))

    def _send_raw(self, code: int, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class DistWorkerServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`DistWorker`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], worker: DistWorker) -> None:
        super().__init__(address, DistWorkerHandler)
        self.worker = worker


@contextlib.contextmanager
def running_worker(
    aligner: Aligner,
    *,
    node: str = "node",
    incarnation: int = 1,
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Iterator[Tuple[DistWorker, str]]:
    """Run a worker node on a background thread (tests / embedding).

    Yields ``(worker, base_url)``; ``port=0`` binds an ephemeral port.
    """
    worker = DistWorker(
        aligner,
        node=node,
        incarnation=incarnation,
        workers=workers,
    )
    server = DistWorkerServer((host, port), worker)
    thread = threading.Thread(
        target=server.serve_forever,
        name=f"repro-dist-{node}",
        daemon=True,
    )
    thread.start()
    bound = server.server_address
    try:
        yield worker, f"http://{bound[0]}:{bound[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
        worker.close()


def run_worker(
    aligner: Aligner,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    node: str = "node",
    incarnation: int = 1,
    workers: int = 1,
    on_bound=None,
) -> None:
    """Run a worker node in the foreground (the ``repro dist worker`` CLI).

    ``on_bound`` (if given) receives the bound ``(host, port)`` once the
    socket is listening — the supervisor's port handshake.  Blocks in
    ``serve_forever`` until interrupted.
    """
    worker = DistWorker(
        aligner,
        node=node,
        incarnation=incarnation,
        workers=workers,
    )
    server = None
    # A respawned node rebinds the port its predecessor just died on;
    # give the kernel a beat to release it instead of failing the spawn.
    for remaining in range(39, -1, -1):
        try:
            server = DistWorkerServer((host, port), worker)
            break
        except OSError:
            if remaining == 0:
                raise
            time.sleep(0.05)
    assert server is not None
    if on_bound is not None:
        on_bound(server.server_address[0], server.server_address[1])
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        worker.close()


def _worker_entry(
    conn,
    aligner: Aligner,
    host: str,
    port: int,
    node: str,
    incarnation: int,
    workers: int,
) -> None:
    """``multiprocessing.Process`` target for a supervised worker node.

    Reports the bound port through ``conn`` (the supervisor's handshake
    pipe) and then serves until killed.
    """

    def _on_bound(_host: str, bound_port: int) -> None:
        conn.send(bound_port)
        conn.close()

    run_worker(
        aligner,
        host=host,
        port=port,
        node=node,
        incarnation=incarnation,
        workers=workers,
        on_bound=_on_bound,
    )
