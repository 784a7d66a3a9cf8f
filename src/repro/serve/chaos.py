"""Serving-path chaos drill: kill a pool worker mid-request.

The serving layer's availability claim is that a lost worker process
costs latency, never correctness: the pool finds the dead worker by a
liveness check and rebuilds itself, the service re-executes the shard
inline, and the client still receives the byte-identical result.  This
drill proves it end to end:

1. compute the expected results serially (:func:`align_batch`);
2. boot a process-mode service with caching off (every pair must be
   *computed*, not remembered);
3. submit the full workload; the pool worker that picks up a
   deterministically chosen pair SIGKILLs itself before aligning it, so
   the kill always lands on a shard in flight, however fast the kernel;
4. gather every future and compare (score, cigar) lists against serial.

Wired to ``repro chaos --serve`` and the chaos-marked test suite.
"""

from __future__ import annotations

import os
import signal
import tempfile
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


class _WorkerKillingAligner(FullGmxAligner):
    """Full(GMX) whose pool worker dies on ``victim``, once.

    The first pool worker to align the victim pair writes its pid to
    ``marker`` and SIGKILLs itself.  Later calls find the marker and
    align normally, and so does the serving process itself, which runs
    the lost shard again inline.
    """

    def __init__(self, victim: Tuple[str, str], marker: str):
        super().__init__()
        self.victim = victim
        self.marker = marker
        self.server_pid = os.getpid()

    def align(self, pattern, text, *, traceback=True):
        if (
            (pattern, text) == self.victim
            and os.getpid() != self.server_pid
            and not os.path.exists(self.marker)
        ):
            with open(self.marker, "w") as handle:
                handle.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
        return super().align(pattern, text, traceback=traceback)


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
        coalesce_max_pairs=4,  # many small shards -> a live backlog to hit
        max_inflight=max(pairs * 2, 64),
    )
    workdir = tempfile.TemporaryDirectory(prefix="serve-chaos-")
    marker = os.path.join(workdir.name, "killed.pid")
    service = AlignmentService(
        _WorkerKillingAligner(workload[seed % pairs], marker), config=config
    )
    with workdir, service:
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
                executor=service.executor,
                degraded_reason=(
                    "no process pool available; ran inline without a kill"
                ),
            )

        futures = [
            service.submit(pattern, text) for pattern, text in workload
        ]
        rows: List[Tuple[int, str]] = []
        completed = 0
        for future in futures:
            result = future.result(timeout=config.request_timeout)
            rows.append((result.score, result.cigar))
            completed += 1
        victim = None
        if os.path.exists(marker):
            with open(marker) as handle:
                victim = int(handle.read())

    identical = rows == expected_rows
    return ServeChaosReport(
        ok=identical and completed == pairs,
        identical=identical,
        completed=completed,
        pairs=pairs,
        killed_pid=victim,
        recoveries=service.shard_recoveries,
        pool_generation=service.pool.generation,
        executor=service.executor,
    )
