"""Per-layer probes: one fixed sample pushed through each layer in turn.

Every workload hands over a seeded sample — its own pairs, its own chunk
aligner and traceback mode — and the same ladder runs on it: the kernel
(fill, then fill plus traceback), the serial batch, the sharded pool, the
resilient engine, the service one request at a time, and HTTP.  Each step
times public calls from outside, so a layer's cost is the difference of
two measured walls over the same pairs, and each step's outputs must
equal the serial batch's.
"""

from __future__ import annotations

import http.client
import json
import math
import pickle
import statistics
import time
from typing import Dict, List, Tuple

from repro.align import align_batch
from repro.resilience import align_batch_resilient
from repro.serve import AlignmentService, ServeConfig, running_server

from workloads import WORKERS, LayerSample

#: Cache-hit requests sent over HTTP (each costs a full round trip).
HTTP_REQUESTS = 20

#: Shards the sample is cut into, so both workers always have work.
SHARDS = 8

#: Interleaved repetitions of every batch-level step.
REPEATS = 3


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def _answer(result) -> Tuple[int, str]:
    return result.score, result.cigar


def _per_pair(aligner, pairs, traceback: bool) -> List[Tuple[object, float]]:
    return [
        _timed(aligner.align, pattern, text, traceback=traceback)
        for pattern, text in pairs
    ]


def _pair_medians(runs) -> List[float]:
    """Per-pair median seconds over repeated :func:`_per_pair` runs."""
    return [
        statistics.median(seconds for _, seconds in column)
        for column in zip(*runs)
    ]


def probe_layers(sample: LayerSample) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of ``sample``, and any output that disagreed."""
    aligner, pairs, traceback = sample.aligner, sample.pairs, sample.traceback
    metrics: Dict[str, float] = {}
    problems: List[str] = []
    shard_size = math.ceil(len(pairs) / SHARDS)

    # Every step runs REPEATS times, interleaved, and keeps its median:
    # the sample is small, so drift between steps must not read as cost.
    walls: Dict[str, List[float]] = {
        "serial": [], "sharded": [], "utilization": [], "resilient": [],
    }
    fill_runs, full_runs = [], []
    for _ in range(REPEATS):
        fill_runs.append(_per_pair(aligner, pairs, False))
        full_runs.append(_per_pair(aligner, pairs[: sample.tb_pairs], True))
        serial, seconds = _timed(align_batch, aligner, pairs, traceback=traceback)
        walls["serial"].append(seconds)
        sharded, seconds = _timed(
            align_batch, aligner, pairs, traceback=traceback, workers=WORKERS,
            shard_size=shard_size,
        )
        walls["sharded"].append(seconds)
        walls["utilization"].append(sharded.telemetry.worker_utilization)
        resilient, seconds = _timed(
            align_batch_resilient, aligner, pairs, traceback=traceback,
            workers=WORKERS, shard_size=shard_size, max_retries=2,
        )
        walls["resilient"].append(seconds)
    median = {step: statistics.median(values) for step, values in walls.items()}
    fill = _pair_medians(fill_runs)
    full = _pair_medians(full_runs)
    extra = [both - alone for both, alone in zip(full, fill)]
    stats = [result.stats for result, _ in fill_runs[0]]
    metrics["kernel.gcups"] = sum(s.dp_cells for s in stats) / sum(fill) / 1e9
    metrics["align.fill_ms"] = statistics.median(fill) * 1e3
    metrics["align.tb_ms"] = statistics.median(extra) * 1e3
    metrics["align.tb_share"] = sum(extra) / sum(full)
    metrics["align.tiles"] = sum(s.tiles for s in stats)
    direct = full if traceback else fill
    metrics["batch.overhead_frac"] = median["serial"] / sum(direct) - 1
    metrics["pool.efficiency"] = median["serial"] / (WORKERS * median["sharded"])
    metrics["pool.utilization"] = median["utilization"]
    metrics["pool.result_kb_per_pair"] = (
        len(pickle.dumps(sharded.results)) / len(pairs) / 1024
    )
    metrics["resilient.vs_sharded"] = median["resilient"] / median["sharded"]
    metrics["resilient.retries"] = resilient.telemetry.resilience.retries

    expected = [_answer(result) for result in serial.results]
    for label, batch in (("sharded", sharded), ("resilient", resilient)):
        if [_answer(result) for result in batch.results] != expected:
            problems.append(f"layers: {label} batch differs from the serial one")

    with AlignmentService(aligner, config=ServeConfig(workers=WORKERS)) as service:
        pattern, text = pairs[0]
        service.align_pair(pattern[::-1], text[::-1], traceback=traceback)
        miss = []
        for (pattern, text), want in zip(pairs, expected):
            result, seconds = _timed(
                service.align_pair, pattern, text, traceback=traceback
            )
            miss.append(seconds)
            if _answer(result) != want:
                problems.append("layers: served answer differs from serial")
        hits = pairs[:HTTP_REQUESTS]
        in_process = [
            _timed(service.align_pair, pattern, text, traceback=traceback)[1]
            for pattern, text in hits
        ]
        with running_server(service) as (_server, url):
            over_http = _post_all(url, hits, traceback, expected, problems)
    metrics["serve.miss_overhead_ms"] = (
        statistics.median(miss) - statistics.median(direct)
    ) * 1e3
    metrics["http.overhead_ms"] = (
        statistics.median(over_http) - statistics.median(in_process)
    ) * 1e3
    return metrics, problems


def _post_all(url, pairs, traceback, expected, problems) -> List[float]:
    """POST each pair on one keep-alive connection; wall seconds each."""
    host, port = url.rsplit("/", 1)[-1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=60)
    seconds = []
    try:
        for (pattern, text), want in zip(pairs, expected):
            body = json.dumps(
                {"pattern": pattern, "text": text, "traceback": traceback}
            )
            start = time.perf_counter()
            connection.request(
                "POST", "/align", body, {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = response.read()
            seconds.append(time.perf_counter() - start)
            if response.status != 200:
                problems.append(f"layers: HTTP status {response.status}")
                continue
            row = json.loads(payload)["results"][0]
            if (row["score"], row["cigar"]) != want:
                problems.append("layers: HTTP answer differs from serial")
    finally:
        connection.close()
    return seconds
