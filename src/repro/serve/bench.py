"""Load generator + latency benchmark for the alignment service.

``run_serve_bench`` boots a real service behind a real
:class:`~repro.serve.http.AlignmentHTTPServer` on an ephemeral port,
fires a seeded mixed hit/miss request schedule at it from concurrent
client threads over plain :mod:`http.client` connections, and reports:

* end-to-end request latency percentiles (p50/p99/mean/max) and
  sustained throughput (requests/s and pairs/s);
* the cache hit rate the schedule actually achieved (the schedule draws
  pairs from a bounded unique pool, so repeats are guaranteed);
* the **warm-vs-cold** pool comparison the serving story is built on:
  the p50 of a single 150 bp pair through the warm resident pool versus
  the p50 of spinning a fresh worker pool per request (create → dispatch
  → collect → tear down).  The cold pool uses ``spawn`` — a pool created
  per request lives inside a multi-threaded server where forking is
  unsafe, so the naive design pays interpreter+import start every
  request, which is precisely the cost a startup-time warm pool
  amortises (see :func:`_cold_start_method`).

The CLI (``repro bench serve``) and the gated benchmark
(``benchmarks/test_serve_latency.py``) both call this module; the
benchmark wraps the report in the repo's BENCH snapshot-identity
pattern and writes ``BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..align.parallel import WorkerPool, _align_shard, shared_pool_pids
from ..common.retry import RetryPolicy
from ..workloads.generator import generate_pair_set
from .http import running_server
from .service import AlignmentService, ServeConfig, ServeError


def percentile(samples: List[int], fraction: float) -> int:
    """Nearest-rank percentile of integer samples (ns)."""
    if not samples:
        return 0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class ServeBenchReport:
    """Everything one benchmark run measured (JSON-ready via to_dict)."""

    requests: int
    clients: int
    unique_pairs: int
    errors: int
    wall_seconds: float
    latencies_ns: List[int] = field(repr=False)
    cache: Dict[str, object] = field(default_factory=dict)
    pool: Dict[str, object] = field(default_factory=dict)
    requests_accounting: Dict[str, object] = field(default_factory=dict)
    warm_p50_ns: Optional[int] = None
    cold_p50_ns: Optional[int] = None
    leaked_workers: int = 0

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def warm_speedup(self) -> Optional[float]:
        """Cold per-request pool spin-up p50 / warm resident-pool p50."""
        if not self.warm_p50_ns or not self.cold_p50_ns:
            return None
        return self.cold_p50_ns / self.warm_p50_ns

    def to_dict(self) -> dict:
        latency = {
            "p50_ms": round(percentile(self.latencies_ns, 0.50) / 1e6, 3),
            "p99_ms": round(percentile(self.latencies_ns, 0.99) / 1e6, 3),
            "mean_ms": round(
                (sum(self.latencies_ns) / len(self.latencies_ns)) / 1e6, 3
            )
            if self.latencies_ns
            else 0.0,
            "max_ms": round(max(self.latencies_ns) / 1e6, 3)
            if self.latencies_ns
            else 0.0,
        }
        warm = {
            "warm_p50_ms": round(self.warm_p50_ns / 1e6, 3)
            if self.warm_p50_ns
            else None,
            "cold_p50_ms": round(self.cold_p50_ns / 1e6, 3)
            if self.cold_p50_ns
            else None,
            "speedup": round(self.warm_speedup, 2)
            if self.warm_speedup
            else None,
        }
        return {
            "requests": self.requests,
            "clients": self.clients,
            "unique_pairs": self.unique_pairs,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "latency": latency,
            "warm_vs_cold": warm,
            "cache": self.cache,
            "pool": self.pool,
            "requests_accounting": self.requests_accounting,
            "leaked_workers": self.leaked_workers,
        }

    def render(self) -> str:
        data = self.to_dict()
        lines = [
            "serve bench: "
            f"{self.requests} requests / {self.clients} clients / "
            f"{self.unique_pairs} unique pairs",
            f"  throughput   {data['throughput_rps']:.1f} req/s "
            f"({self.errors} errors)",
            f"  latency      p50 {data['latency']['p50_ms']} ms, "
            f"p99 {data['latency']['p99_ms']} ms, "
            f"max {data['latency']['max_ms']} ms",
            f"  cache        hit_rate {self.cache.get('hit_rate', 0.0)}",
        ]
        warm = data["warm_vs_cold"]
        if warm["speedup"] is not None:
            lines.append(
                f"  warm vs cold p50 {warm['warm_p50_ms']} ms vs "
                f"{warm['cold_p50_ms']} ms -> {warm['speedup']}x"
            )
        lines.append(f"  leaked workers {self.leaked_workers}")
        return "\n".join(lines)


def _client_worker(
    base_url: str,
    schedule: List[Tuple[str, str]],
    latencies: List[int],
    errors: List[int],
    retry: Optional[RetryPolicy] = None,
) -> None:
    """One load-generator client: its own connection, its own schedule.

    A ``429`` response is retried under the shared seeded
    :class:`~repro.common.retry.RetryPolicy` — sleeping at least the
    server's ``Retry-After`` hint — so a rate-limited bench degrades to
    back-pressure instead of error noise.  Retries exhausted, the 429
    counts as an error like any other non-200.
    """
    policy = retry if retry is not None else RetryPolicy(max_retries=0)
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=60
    )
    try:
        for index, (pattern, text) in enumerate(schedule):
            body = json.dumps({"pattern": pattern, "text": text})
            start = time.perf_counter_ns()
            attempt = 0
            while True:
                try:
                    conn.request(
                        "POST",
                        "/align",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    payload = response.read()
                except (OSError, http.client.HTTPException):
                    errors.append(-1)
                    conn.close()
                    conn = http.client.HTTPConnection(
                        parts.hostname, parts.port, timeout=60
                    )
                    break
                if response.status == 429 and attempt < policy.max_retries:
                    attempt += 1
                    hint = 0.0
                    header = response.getheader("Retry-After")
                    if header:
                        try:
                            hint = float(header)
                        except ValueError:
                            hint = 0.0
                    time.sleep(max(hint, policy.delay(index, attempt)))
                    continue
                if response.status != 200 or not payload:
                    errors.append(response.status)
                    break
                latencies.append(time.perf_counter_ns() - start)
                break
    finally:
        conn.close()


def _measure_warm(
    service: AlignmentService, probes: List[Tuple[str, str]]
) -> int:
    """p50 service latency for fresh pairs through the *warm* pool."""
    samples = []
    for pattern, text in probes:
        start = time.perf_counter_ns()
        service.align_pair(pattern, text)
        samples.append(time.perf_counter_ns() - start)
    return percentile(samples, 0.50)


def _cold_start_method(fallback: Optional[str]) -> Optional[str]:
    """Start method a per-request pool inside a threaded server must use.

    The warm pool can ``fork`` because it is created once at startup,
    before any HTTP handler thread exists.  A pool created *per request*
    runs inside a multi-threaded server, where forking is unsafe (the
    child inherits a snapshot of every lock; CPython deprecates
    fork-with-threads) — such a design must ``spawn`` fresh interpreters
    and pay the interpreter+import start every request.  That asymmetry
    is exactly the cost the warm pool amortises, so the cold baseline
    measures it.
    """
    available = multiprocessing.get_all_start_methods()
    if "spawn" in available:
        return "spawn"
    return fallback


def _measure_cold(
    probes: List[Tuple[str, str]],
    aligner,
    *,
    workers: int,
    method: Optional[str],
) -> int:
    """p50 of spinning a fresh pool per request — the cost serving avoids."""
    samples = []
    for pattern, text in probes:
        start = time.perf_counter_ns()
        pool = WorkerPool(workers, start_method=method)
        try:
            payload = (aligner, [(pattern, text)], True, False, False)
            pool.wait(pool.submit(_align_shard, payload), timeout=120)
        finally:
            pool.close()
        samples.append(time.perf_counter_ns() - start)
    return percentile(samples, 0.50)


def run_serve_bench(
    *,
    requests: int = 300,
    clients: int = 8,
    unique_pairs: int = 48,
    length: int = 150,
    error_rate: float = 0.05,
    seed: int = 23,
    workers: int = 2,
    cache_size: int = 4096,
    max_inflight: int = 512,
    warm_cold_probes: int = 5,
    aligner=None,
) -> ServeBenchReport:
    """Boot a server, run the seeded load schedule, measure, tear down.

    A client, unique-pair or worker count below one raises
    :class:`ServeError` before anything starts.
    """
    counts = {"clients": clients, "unique_pairs": unique_pairs, "workers": workers}
    for name, count in counts.items():
        if count < 1:
            raise ServeError(f"{name} must be >= 1, got {count}")
    pair_set = generate_pair_set(
        "serve-bench", length, error_rate, unique_pairs, seed=seed
    )
    pool_pairs = [(pair.pattern, pair.text) for pair in pair_set]
    # Seeded schedule with guaranteed repeats (cache hits) once every
    # unique pair has been seen; round-robin split across clients.
    rng = random.Random(seed * 7919 + 1)
    schedule = [
        pool_pairs[rng.randrange(unique_pairs)] for _ in range(requests)
    ]
    shards: List[List[Tuple[str, str]]] = [[] for _ in range(clients)]
    for index, item in enumerate(schedule):
        shards[index % clients].append(item)

    config = ServeConfig(
        workers=workers,
        cache_size=cache_size,
        max_inflight=max_inflight,
    )
    service = AlignmentService(aligner, config=config)
    latencies: List[int] = []
    errors: List[int] = []
    with service, running_server(service) as (_server, base_url):
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(
                    base_url,
                    shard,
                    latencies,
                    errors,
                    RetryPolicy(max_retries=2, seed=seed + index),
                ),
                name=f"bench-client-{index}",
            )
            for index, shard in enumerate(shards)
            if shard
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started

        snapshot = service.metrics_snapshot()

        # Warm-vs-cold: fresh (uncached, uncoalesced) pairs through the
        # already-resident pool, versus a pool built per request.
        warm_p50: Optional[int] = None
        cold_p50: Optional[int] = None
        if warm_cold_probes > 0 and service.pool.process_mode:
            probe_set = generate_pair_set(
                "serve-bench-probe", length, error_rate, warm_cold_probes,
                seed=seed + 101,
            )
            probes = [(pair.pattern, pair.text) for pair in probe_set]
            warm_p50 = _measure_warm(service, probes)
            cold_p50 = _measure_cold(
                probes,
                service.aligner,
                workers=workers,
                method=_cold_start_method(service.pool.method),
            )
    # Workers of this process's warm batch pool (left by an earlier
    # ``align_batch(workers=N)``) stay warm on purpose; they are not leaks.
    shared = shared_pool_pids()
    leaked = sum(
        child.pid not in shared for child in multiprocessing.active_children()
    )
    return ServeBenchReport(
        requests=requests,
        clients=clients,
        unique_pairs=unique_pairs,
        errors=len(errors),
        wall_seconds=wall,
        latencies_ns=latencies,
        cache=snapshot["cache"],
        pool=snapshot["pool"],
        requests_accounting=snapshot["requests"],
        warm_p50_ns=warm_p50,
        cold_p50_ns=cold_p50,
        leaked_workers=leaked,
    )
