"""HTTP facade: endpoints, validation, saturation back-pressure."""

import http.client
import json
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.align import FullGmxAligner
from repro.serve import AlignmentService, ServeConfig, running_server
from repro.workloads import generate_pair_set


def _workload(count=6, seed=51):
    pair_set = generate_pair_set("http", 72, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


class _Client:
    """Minimal JSON client over one keep-alive connection."""

    def __init__(self, base_url):
        parts = urlsplit(base_url)
        self.conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )

    def get(self, path):
        self.conn.request("GET", path)
        return self._read()

    def post(self, path, payload, *, raw=None):
        body = raw if raw is not None else json.dumps(payload).encode("utf-8")
        self.conn.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json"},
        )
        return self._read()

    def _read(self):
        response = self.conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), (
            json.loads(body) if body else None
        )

    def close(self):
        self.conn.close()


@pytest.fixture()
def server():
    config = ServeConfig(workers=1)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        with running_server(service) as (_server, base_url):
            client = _Client(base_url)
            yield client, service, base_url
            client.close()


def test_align_single_pair(server):
    client, _service, _url = server
    pattern, text = _workload(count=1)[0]
    expected = FullGmxAligner().align(pattern, text)
    status, _headers, payload = client.post(
        "/align", {"pattern": pattern, "text": text}
    )
    assert status == 200
    assert payload["pairs"] == 1
    row = payload["results"][0]
    assert row["score"] == expected.score
    assert row["cigar"] == expected.cigar
    assert row["cached"] is False


def test_align_pairs_form_preserves_order(server):
    client, _service, _url = server
    workload = _workload(count=5)
    expected = [FullGmxAligner().align(p, t) for p, t in workload]
    status, _headers, payload = client.post(
        "/align", {"pairs": [list(pair) for pair in workload]}
    )
    assert status == 200
    assert payload["pairs"] == len(workload)
    assert [row["score"] for row in payload["results"]] == [
        r.score for r in expected
    ]
    assert [row["cigar"] for row in payload["results"]] == [
        r.cigar for r in expected
    ]


def test_align_distance_only(server):
    client, _service, _url = server
    pattern, text = _workload(count=1)[0]
    status, _headers, payload = client.post(
        "/align", {"pattern": pattern, "text": text, "traceback": False}
    )
    assert status == 200
    assert payload["results"][0]["cigar"] == ""


def test_repeat_request_served_from_cache(server):
    client, _service, _url = server
    pattern, text = _workload(count=1)[0]
    request = {"pattern": pattern, "text": text}
    _status, _headers, cold = client.post("/align", request)
    status, _headers, hot = client.post("/align", request)
    assert status == 200
    assert hot["results"][0]["cached"] is True
    assert (hot["results"][0]["score"], hot["results"][0]["cigar"]) == (
        cold["results"][0]["score"], cold["results"][0]["cigar"]
    )


def test_health_endpoint(server):
    client, service, _url = server
    status, _headers, payload = client.get("/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["workers"] == service.pool.workers
    assert payload["executor"] == service.pool.executor


def test_metrics_endpoint_exposes_cache_queue_and_obs(server):
    client, _service, _url = server
    pattern, text = _workload(count=1)[0]
    client.post("/align", {"pattern": pattern, "text": text})
    client.post("/align", {"pattern": pattern, "text": text})
    status, _headers, payload = client.get("/metrics")
    assert status == 200
    assert payload["cache"]["hits"] >= 1
    assert 0.0 < payload["cache"]["hit_rate"] <= 1.0
    assert payload["queue"]["max_inflight"] == 256
    assert "inflight_pairs" in payload["queue"]
    assert payload["requests"]["pairs"] >= 2
    # The obs metrics registry rides along (serve.* counters live there).
    counters = payload["metrics"].get("counters", {})
    assert any(name.startswith("serve.") for name in counters)


def test_unknown_path_404(server):
    client, _service, _url = server
    status, _headers, payload = client.get("/nope")
    assert status == 404
    status, _headers, payload = client.post("/nope", {})
    assert status == 404


def test_malformed_json_400(server):
    client, _service, _url = server
    status, _headers, payload = client.post("/align", None, raw=b"{nope")
    assert status == 400
    assert "error" in payload


def test_missing_fields_400(server):
    client, _service, _url = server
    for bad in ({}, {"pattern": "ACGT"}, {"pairs": []}, {"pairs": [["a"]]},
                {"pattern": "ACGT", "text": 7}):
        status, _headers, payload = client.post("/align", bad)
        assert status == 400, bad
        assert "error" in payload


def test_empty_sequences_400(server):
    """Empty pattern/text must be rejected at the door, not in a shard."""
    client, service, _url = server
    for bad in ({"pattern": "", "text": "ACGT"},
                {"pattern": "ACGT", "text": ""},
                {"pairs": [["", "ACGT"]]},
                {"pairs": [["ACGT", ""]]}):
        status, _headers, payload = client.post("/align", bad)
        assert status == 400, bad
        assert "error" in payload
    # The rejects never became shard work or recoveries.
    assert service.pairs_failed == 0
    assert service.shard_recoveries == 0


def test_request_timeout_returns_504(server):
    client, service, _url = server
    pattern, text = _workload(count=1)[0]
    original = service.align_pairs

    def timing_out(*args, **kwargs):
        import concurrent.futures

        raise concurrent.futures.TimeoutError()

    service.align_pairs = timing_out
    try:
        status, _headers, payload = client.post(
            "/align", {"pattern": pattern, "text": text}
        )
    finally:
        service.align_pairs = original
    assert status == 504
    assert "error" in payload


def test_unexpected_error_returns_500_not_dropped_connection(server):
    client, service, _url = server
    pattern, text = _workload(count=1)[0]
    original = service.align_pairs

    def exploding(*args, **kwargs):
        raise RuntimeError("boom")

    service.align_pairs = exploding
    try:
        status, _headers, payload = client.post(
            "/align", {"pattern": pattern, "text": text}
        )
    finally:
        service.align_pairs = original
    assert status == 500
    assert "boom" in payload["error"]


def test_saturation_returns_429_with_retry_after():
    gate = threading.Event()

    class Gated(FullGmxAligner):
        def align(self, pattern, text, traceback=True):
            gate.wait(timeout=30)
            return super().align(pattern, text, traceback=traceback)

    config = ServeConfig(
        workers=1, cache_size=0, max_inflight=1,
        retry_after=0.5,
    )
    workload = _workload(count=3, seed=53)
    with AlignmentService(Gated(), config=config) as service:
        with running_server(service) as (_server, base_url):
            blocker = _Client(base_url)
            prober = _Client(base_url)
            try:
                # Fill the single admission slot from a background thread
                # (the request blocks inside the gated aligner).
                background = threading.Thread(
                    target=blocker.post,
                    args=("/align",
                          {"pattern": workload[0][0], "text": workload[0][1]}),
                )
                background.start()
                deadline = threading.Event()
                # Wait until the pair is actually in flight.
                for _ in range(200):
                    if service.inflight_pairs >= 1:
                        break
                    deadline.wait(0.01)
                status, headers, payload = prober.post(
                    "/align",
                    {"pattern": workload[1][0], "text": workload[1][1]},
                )
                assert status == 429
                assert headers.get("Retry-After") == "0.500"
                assert payload["retry_after"] == 0.5
                gate.set()
                background.join(timeout=30)
            finally:
                gate.set()
                blocker.close()
                prober.close()


def test_keep_alive_requests_are_not_stalled(server):
    # Each response must leave in one write.  Headers and body sent as two
    # writes wait on Nagle's algorithm for the client's delayed ACK, which
    # costs ~40 ms a request on a keep-alive connection.
    client, _service, _url = server
    pattern, text = _workload(count=1)[0]
    request = {"pattern": pattern, "text": text}
    for _ in range(5):  # computes once, then leaves TCP quick-ACK mode
        client.post("/align", request)
    started = time.perf_counter()
    for _ in range(10):
        status, _headers, payload = client.post("/align", request)
        assert status == 200
        assert payload["results"][0]["cached"] is True
    elapsed = time.perf_counter() - started
    assert elapsed < 0.2, f"10 keep-alive requests took {elapsed:.3f} s"
