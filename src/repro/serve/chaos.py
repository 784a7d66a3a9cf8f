"""Serving-path chaos drill: kill a pool worker mid-request.

The serving layer's availability claim is that a lost worker process
costs latency, never correctness: the pool finds the dead worker by a
liveness check and rebuilds itself, the service re-executes the shard
inline, and the client still receives the byte-identical result.  This
drill proves it end to end:

1. compute the expected results serially (:func:`align_batch`);
2. boot a process-mode service with caching off (every pair must be
   *computed*, not remembered);
3. submit the full workload, then SIGKILL a deterministically chosen
   pool worker while shards are in flight;
4. gather every future and compare (score, cigar) lists against serial.

Wired to ``repro chaos --serve`` and the chaos-marked test suite.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..align.batch import align_batch
from ..align.full_gmx import FullGmxAligner
from ..workloads.generator import generate_pair_set
from .service import AlignmentService, ServeConfig


@dataclass
class ServeChaosReport:
    """Outcome of one serving chaos drill."""

    ok: bool
    identical: bool
    completed: int
    pairs: int
    killed_pid: Optional[int]
    recoveries: int
    pool_generation: int
    executor: str
    degraded_reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "identical": self.identical,
            "completed": self.completed,
            "pairs": self.pairs,
            "killed_pid": self.killed_pid,
            "recoveries": self.recoveries,
            "pool_generation": self.pool_generation,
            "executor": self.executor,
            "degraded_reason": self.degraded_reason,
        }

    def render(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"serve chaos [{verdict}]: {self.completed}/{self.pairs} pairs "
            f"completed, identical={self.identical}",
            f"  executor {self.executor}, killed pid {self.killed_pid}, "
            f"recoveries {self.recoveries}, "
            f"pool generation {self.pool_generation}",
        ]
        if self.degraded_reason:
            lines.append(f"  degraded: {self.degraded_reason}")
        return "\n".join(lines)


def run_serve_chaos(
    *,
    seed: int = 7,
    pairs: int = 32,
    workers: int = 2,
    length: int = 96,
    error_rate: float = 0.08,
) -> ServeChaosReport:
    """Kill a worker under live serving load; verify nothing was lost."""
    pair_set = generate_pair_set(
        "serve-chaos", length, error_rate, pairs, seed=seed
    )
    workload = [(pair.pattern, pair.text) for pair in pair_set]

    aligner = FullGmxAligner()
    expected = align_batch(aligner, workload, traceback=True)
    expected_rows = [(r.score, r.cigar) for r in expected.results]

    config = ServeConfig(
        workers=workers,
        cache_size=0,  # every pair must be computed, not remembered
        coalesce_window=0.001,
        coalesce_max_pairs=4,  # many small shards -> a live backlog to hit
        max_inflight=max(pairs * 2, 64),
    )
    service = AlignmentService(FullGmxAligner(), config=config)
    with service:
        if not service.pool.process_mode:
            # No processes to kill: report the degrade honestly instead of
            # pretending the drill ran.
            rows = [
                (res.score, res.cigar)
                for res in service.align_pairs(workload)
            ]
            identical = rows == expected_rows
            return ServeChaosReport(
                ok=identical,
                identical=identical,
                completed=len(rows),
                pairs=pairs,
                killed_pid=None,
                recoveries=service.shard_recoveries,
                pool_generation=service.pool.generation,
                executor=service.pool.executor,
                degraded_reason=(
                    "no process pool available; ran inline without a kill"
                ),
            )

        futures = [
            service.submit(pattern, text) for pattern, text in workload
        ]

        # Choose the victim deterministically and strike while shards are
        # still in flight.
        pids = service.pool.worker_pids()
        victim = pids[seed % len(pids)] if pids else None
        if victim is not None:
            time.sleep(0.01)  # let the first shards reach the pool
            os.kill(victim, signal.SIGKILL)

        rows: List[Tuple[int, str]] = []
        completed = 0
        for future in futures:
            result = future.result(timeout=config.request_timeout)
            rows.append((result.score, result.cigar))
            completed += 1

    identical = rows == expected_rows
    return ServeChaosReport(
        ok=identical and completed == pairs,
        identical=identical,
        completed=completed,
        pairs=pairs,
        killed_pid=victim,
        recoveries=service.shard_recoveries,
        pool_generation=service.pool.generation,
        executor=service.pool.executor,
    )
