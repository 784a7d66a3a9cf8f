"""Worker node HTTP surface: health, shard execution, rejections."""

import http.client
import json
import os
import signal
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.align import FullGmxAligner
from repro.dist import DistWorker, ShardCompletion, ShardRequest, running_worker
from repro.resilience.injectors import shard_checksum
from repro.serve.cache import aligner_fingerprint
from repro.workloads import generate_pair_set


def _pairs(count=3, seed=17):
    pair_set = generate_pair_set("worker", 56, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


class _Client:
    def __init__(self, base_url):
        parts = urlsplit(base_url)
        self.conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )

    def get(self, path):
        self.conn.request("GET", path)
        return self._read()

    def post(self, path, body):
        self.conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        return self._read()

    def _read(self):
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self):
        self.conn.close()


@pytest.fixture()
def node():
    aligner = FullGmxAligner()
    with running_worker(aligner, node="n0", incarnation=2) as (worker, url):
        client = _Client(url)
        yield client, worker, aligner
        client.close()


def _request(aligner, pairs, *, epoch=1, fingerprint=None):
    return ShardRequest(
        shard_id=0,
        epoch=epoch,
        lo=0,
        hi=len(pairs),
        pairs=pairs,
        fingerprint=(
            aligner_fingerprint(aligner) if fingerprint is None
            else fingerprint
        ),
    )


def test_health_reports_identity(node):
    client, worker, _aligner = node
    status, body = client.get("/health")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["node"] == "n0"
    assert payload["incarnation"] == 2
    assert payload["shards_done"] == worker.shards_done == 0


def test_shard_executes_byte_identical(node):
    client, worker, aligner = node
    pairs = _pairs()
    expected = [aligner.align(p, t) for p, t in pairs]
    status, body = client.post(
        "/shard", _request(aligner, pairs, epoch=5).to_json()
    )
    assert status == 200
    completion = ShardCompletion.from_json(body)
    assert completion.epoch == 5  # echoes the lease epoch verbatim
    assert completion.node == "n0"
    assert completion.incarnation == 2
    assert completion.checksum == shard_checksum(pairs)
    assert completion.results == expected
    assert worker.shards_done == 1


def test_fingerprint_mismatch_is_409(node):
    client, _worker, aligner = node
    status, body = client.post(
        "/shard",
        _request(aligner, _pairs(), fingerprint="other-run").to_json(),
    )
    assert status == 409
    assert "fingerprint mismatch" in json.loads(body)["error"]


def test_malformed_body_is_400(node):
    client, _worker, _aligner = node
    status, body = client.post("/shard", b"{not json")
    assert status == 400
    assert "malformed" in json.loads(body)["error"]


def test_empty_body_is_400(node):
    client, _worker, _aligner = node
    status, _body = client.post("/shard", b"")
    assert status == 400


def test_unknown_paths_are_404(node):
    client, _worker, _aligner = node
    assert client.get("/nope")[0] == 404
    assert client.post("/nope", b"{}")[0] == 404


def test_slow_fault_is_absorbed(node):
    from repro.dist import NodeFault

    client, _worker, aligner = node
    pairs = _pairs(2)
    request = _request(aligner, pairs)
    request.fault = NodeFault(kind="slow", shard=0, seconds=0.05)
    status, body = client.post("/shard", request.to_json())
    assert status == 200  # stalled below the lease, then answered normally
    completion = ShardCompletion.from_json(body)
    assert completion.results == [aligner.align(p, t) for p, t in pairs]


def test_worker_pool_is_reused_across_shards(node):
    client, worker, aligner = node
    generation = worker.pool.generation
    for seed in (1, 2, 3):
        status, _body = client.post(
            "/shard", _request(aligner, _pairs(seed=seed)).to_json()
        )
        assert status == 200
    assert worker.shards_done == 3
    assert worker.pool.generation == generation  # warm, not rebuilt


class _StallingAligner(FullGmxAligner):
    """Stalls on ``victim``, first leaving its pid as a file in ``pid_dir``."""

    def __init__(self, victim, pid_dir, **kwargs):
        super().__init__(**kwargs)
        self.victim = victim
        self.pid_dir = pid_dir

    def align(self, pattern, text, traceback=True):
        if pattern == self.victim:
            open(os.path.join(self.pid_dir, str(os.getpid())), "w").close()
            time.sleep(30)
        return super().align(pattern, text, traceback=traceback)


def test_pool_worker_killed_mid_shard_answers_500_then_recovers(tmp_path):
    stalled = _pairs(2, seed=5)
    aligner = _StallingAligner(stalled[0][0], str(tmp_path))
    # workers=2 is the `repro dist worker` default: a real process pool.
    with running_worker(aligner, node="n2", workers=2) as (worker, url):
        if not worker.pool.process_mode:
            pytest.skip("no usable multiprocessing start method")
        client = _Client(url)
        replies = []
        thread = threading.Thread(
            target=lambda: replies.append(
                client.post("/shard", _request(aligner, stalled).to_json())
            )
        )
        thread.start()
        deadline = time.monotonic() + 20
        while not list(tmp_path.iterdir()) and time.monotonic() < deadline:
            time.sleep(0.02)
        victim = int(next(tmp_path.iterdir()).name)
        os.kill(victim, signal.SIGKILL)
        killed_at = time.monotonic()
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert time.monotonic() - killed_at < 5
        status, body = replies[0]
        assert status == 500
        assert "WorkerLost" in json.loads(body)["error"]
        # ...then the node serves its next shard.
        healthy = _pairs(2, seed=6)
        status, body = client.post(
            "/shard", _request(aligner, healthy).to_json()
        )
        client.close()
    assert status == 200
    completion = ShardCompletion.from_json(body)
    assert completion.results == [
        FullGmxAligner().align(p, t) for p, t in healthy
    ]


def test_direct_execute_checks_fingerprint():
    from repro.dist import DistError

    aligner = FullGmxAligner()
    worker = DistWorker(aligner, node="n1")
    try:
        with pytest.raises(DistError, match="fingerprint mismatch"):
            worker.execute(
                _request(aligner, _pairs(), fingerprint="someone-else")
            )
    finally:
        worker.close()
