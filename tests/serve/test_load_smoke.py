"""Load smoke: 200+ mixed hit/miss requests, clean shutdown, no leaks."""

import multiprocessing

import pytest

from repro.align import FullGmxAligner, align_batch
from repro.serve.bench import percentile, run_serve_bench


def test_percentile_nearest_rank():
    samples = [10, 20, 30, 40, 50]
    assert percentile(samples, 0.0) == 10
    assert percentile(samples, 0.5) == 30
    assert percentile(samples, 1.0) == 50
    assert percentile([], 0.5) == 0


@pytest.mark.slow
def test_load_smoke_mixed_hit_miss_clean_shutdown():
    report = run_serve_bench(
        requests=200,
        clients=8,
        unique_pairs=24,
        length=96,           # shorter pairs keep the smoke fast
        workers=2 if multiprocessing.get_all_start_methods() else 1,
        warm_cold_probes=0,  # latency percentiles only; no cold pools
    )
    assert report.errors == 0
    assert len(report.latencies_ns) == 200
    # The schedule guarantees repeats: both hits and misses must appear.
    # (Misses can exceed the unique-pair count: a lookup racing an
    # identical in-flight pair counts a miss, then deduplicates.)
    assert report.cache["hits"] > 0
    assert report.cache["misses"] >= 24
    assert report.cache["size"] == 24
    # Every request was accounted for, nothing rejected at this depth.
    accounting = report.requests_accounting
    assert accounting["rejected"] == 0
    assert accounting["failed"] == 0
    assert accounting["pairs"] == 200
    assert (
        accounting["computed"] + accounting["cached"] + accounting["deduped"]
        == 200
    )
    # Clean shutdown: the warm pool's workers are gone.
    assert report.leaked_workers == 0
    data = report.to_dict()
    assert data["latency"]["p50_ms"] > 0
    assert data["latency"]["p99_ms"] >= data["latency"]["p50_ms"]
    assert data["throughput_rps"] > 0


@pytest.mark.skipif(
    not multiprocessing.get_all_start_methods(),
    reason="no multiprocessing start method available",
)
def test_shared_batch_pool_workers_are_not_leaks():
    # A pooled batch leaves this process's shared 2-worker pool warm.
    pairs = [("ACGT" * 12, "ACGA" * 12)] * 4
    align_batch(FullGmxAligner(), pairs, workers=2, shard_size=2)
    report = run_serve_bench(
        requests=8, clients=2, unique_pairs=4, length=48, workers=2,
        warm_cold_probes=0,
    )
    assert report.errors == 0
    assert len(multiprocessing.active_children()) == 2
    assert report.leaked_workers == 0
