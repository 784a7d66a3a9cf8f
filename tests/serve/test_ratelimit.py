"""Per-client token-bucket rate limiting: bucket math + HTTP 429 surface."""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.align import FullGmxAligner
from repro.serve import AlignmentService, ServeConfig, running_server
from repro.serve.ratelimit import RateLimitedError, RateLimiter
from repro.workloads import generate_pair_set


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBucketMath:
    def test_burst_then_rejection(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=2.0, clock=clock)
        limiter.check("alice")
        limiter.check("alice")
        with pytest.raises(RateLimitedError) as excinfo:
            limiter.check("alice")
        assert excinfo.value.client == "alice"
        assert excinfo.value.retry_after == pytest.approx(1.0)

    def test_refill_restores_admission(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=2.0, clock=clock)
        limiter.check("alice", cost=2)
        with pytest.raises(RateLimitedError):
            limiter.check("alice")
        clock.advance(0.5)  # 0.5s * 2/s = 1 token back
        limiter.check("alice")

    def test_retry_after_is_exact(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=4.0, burst=1.0, clock=clock)
        limiter.check("alice")
        with pytest.raises(RateLimitedError) as excinfo:
            limiter.check("alice")
        # 1 token needed at 4 tokens/s -> 0.25s.
        assert excinfo.value.retry_after == pytest.approx(0.25)
        clock.advance(0.25)
        limiter.check("alice")

    def test_clients_are_independent(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        limiter.check("alice")
        limiter.check("bob")  # bob's bucket is untouched by alice's spend
        with pytest.raises(RateLimitedError):
            limiter.check("alice")

    def test_oversized_cost_admitted_when_full(self):
        # A batch costing more than burst must be servable: the price is
        # capped at burst and the bucket goes into debt.
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=4.0, clock=clock)
        limiter.check("alice", cost=10)
        with pytest.raises(RateLimitedError) as excinfo:
            limiter.check("alice")
        # Bucket is at -6; needs 7 tokens for a cost-1 request at 1/s.
        assert excinfo.value.retry_after == pytest.approx(7.0)

    def test_tokens_never_exceed_burst(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=10.0, burst=2.0, clock=clock)
        limiter.check("alice")
        clock.advance(60.0)  # idle for a minute: still capped at burst
        limiter.check("alice", cost=2)
        with pytest.raises(RateLimitedError):
            limiter.check("alice")

    def test_zero_or_negative_cost_counts_as_one(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        limiter.check("alice", cost=0)
        with pytest.raises(RateLimitedError):
            limiter.check("alice", cost=-3)

    def test_invalid_configuration_rejected(self):
        from repro.serve import ServeError

        with pytest.raises(ServeError, match="rate must be positive"):
            RateLimiter(rate=0.0, burst=1.0)
        with pytest.raises(ServeError, match="burst must be positive"):
            RateLimiter(rate=1.0, burst=0.0)

    def test_lru_eviction_caps_tracked_clients(self, monkeypatch):
        from repro.serve import ratelimit

        monkeypatch.setattr(ratelimit, "MAX_TRACKED_CLIENTS", 3)
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        for client in ("a", "b", "c", "d"):
            limiter.check(client)
        snapshot = limiter.snapshot()
        assert snapshot["clients"] == 3  # "a" was evicted
        # The evicted client returns with a fresh (full) bucket.
        limiter.check("a")

    def test_snapshot_counters(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        limiter.check("alice")
        with pytest.raises(RateLimitedError):
            limiter.check("alice")
        snapshot = limiter.snapshot()
        assert snapshot["allowed"] == 1
        assert snapshot["rejected"] == 1
        assert snapshot["rate_per_second"] == 1.0
        assert snapshot["burst"] == 1.0


class _Client:
    """JSON client that can set per-request headers (X-Client-Id)."""

    def __init__(self, base_url):
        parts = urlsplit(base_url)
        self.conn = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=30
        )

    def post(self, path, payload, *, headers=None):
        merged = {"Content-Type": "application/json"}
        merged.update(headers or {})
        self.conn.request(
            "POST", path, body=json.dumps(payload).encode("utf-8"),
            headers=merged,
        )
        response = self.conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), (
            json.loads(body) if body else None
        )

    def get(self, path):
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        body = response.read()
        return response.status, dict(response.getheaders()), (
            json.loads(body) if body else None
        )

    def close(self):
        self.conn.close()


@pytest.fixture()
def limited_server():
    config = ServeConfig(
        workers=1,
        cache_size=0,  # cache hits would mask admission decisions
        rate_limit_rps=0.5,
        rate_limit_burst=2.0,
    )
    with AlignmentService(FullGmxAligner(), config=config) as service:
        with running_server(service) as (_server, base_url):
            client = _Client(base_url)
            yield client, service
            client.close()


def _body(seed=61):
    pair = list(generate_pair_set("ratelimit", 48, 0.05, 1, seed=seed))[0]
    return {"pattern": pair.pattern, "text": pair.text}


class TestHttpRateLimiting:
    def test_burst_then_429_with_retry_after(self, limited_server):
        client, _service = limited_server
        headers = {"X-Client-Id": "hammer"}
        for seed in (1, 2):  # burst capacity
            status, _h, _p = client.post(
                "/align", _body(seed), headers=headers
            )
            assert status == 200
        status, resp_headers, payload = client.post(
            "/align", _body(3), headers=headers
        )
        assert status == 429
        assert "rate-limited" in payload["error"]
        retry_after = float(resp_headers["Retry-After"])
        assert retry_after > 0.0

    def test_clients_keyed_by_header(self, limited_server):
        client, _service = limited_server
        for index in range(2):
            status, _h, _p = client.post(
                "/align", _body(index), headers={"X-Client-Id": "a"}
            )
            assert status == 200
        # "a" is exhausted, but "b" has a full bucket of its own.
        status, _h, _p = client.post(
            "/align", _body(7), headers={"X-Client-Id": "b"}
        )
        assert status == 200

    def test_missing_header_falls_back_to_peer_address(self, limited_server):
        client, service = limited_server
        status, _h, _p = client.post("/align", _body(11))
        assert status == 200
        snapshot = service.metrics_snapshot()["rate_limit"]
        assert snapshot["clients"] >= 1

    def test_metrics_expose_rate_limit_counters(self, limited_server):
        client, _service = limited_server
        headers = {"X-Client-Id": "metered"}
        for seed in (1, 2):
            client.post("/align", _body(seed), headers=headers)
        client.post("/align", _body(3), headers=headers)  # rejected
        status, _h, metrics = client.get("/metrics")
        assert status == 200
        block = metrics["rate_limit"]
        assert block["rejected"] >= 1
        assert block["rate_per_second"] == 0.5


def test_rate_limiting_off_by_default():
    config = ServeConfig(workers=1)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        assert service.rate_limiter is None
        assert service.metrics_snapshot()["rate_limit"] == {
            "rate_per_second": 0.0
        }
