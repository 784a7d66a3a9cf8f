"""Batch alignment: many pairs through one aligner, with aggregate stats.

Genome-analysis workloads align millions of pairs; this helper runs a
dataset through any :class:`~repro.align.base.Aligner`, aggregates the
kernel statistics, and projects the batch's throughput onto any modelled
system — the same pipeline the figure harness uses, exposed as library
API.

Example::

    from repro.align import FullGmxAligner, align_batch
    from repro.sim import RTL_INORDER
    from repro.workloads import short_dataset

    batch = align_batch(FullGmxAligner(), short_dataset(150, count=20))
    print(batch.mean_score, batch.modelled_throughput(RTL_INORDER))
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional

from ..analysis.sanitizer import runtime as dsan
from ..obs import runtime as obs
from .base import Aligner, AlignmentResult, KernelStats
from .parallel import (
    DEFAULT_SHARD_SIZE,
    BatchTelemetry,
    PairLike,
    ShardTelemetry,
    WorkerPool,
    _absorb_obs_buffers,
    _align_shard,
    batch_pool,
    executor_label,
    iter_shards,
)

#: Shards kept in flight per pool worker: one running and one queued, so
#: no worker idles while the parent merges, and a streamed input is cut
#: into shards only as this window drains.
SHARDS_IN_FLIGHT_PER_WORKER = 2


@dataclass
class BatchResult:
    """Aggregate outcome of aligning a batch of pairs.

    Attributes:
        results: per-pair alignment results, in input order.
        stats: merged kernel statistics of the whole batch.
        telemetry: measured execution profile of the run (wall time,
            shards, worker utilisation) — see
            :class:`~repro.align.parallel.BatchTelemetry`.  Host-side
            measurement only; never feeds the modelled figures.
    """

    results: List[AlignmentResult] = field(default_factory=list)
    stats: KernelStats = field(default_factory=KernelStats)
    telemetry: Optional["BatchTelemetry"] = None

    @property
    def pairs(self) -> int:
        """Number of pairs aligned."""
        return len(self.results)

    @property
    def scores(self) -> List[int]:
        """Per-pair scores."""
        return [result.score for result in self.results]

    @property
    def mean_score(self) -> float:
        """Average score across the batch."""
        return sum(self.scores) / self.pairs if self.pairs else 0.0

    @property
    def all_exact(self) -> bool:
        """True when every result is certified optimal."""
        return all(result.exact for result in self.results)

    def modelled_seconds(self, system) -> float:
        """Modelled batch runtime on a :class:`~repro.sim.soc.SystemConfig`.

        An empty batch models as 0.0 seconds — consistent with
        :attr:`mean_score` and :meth:`modelled_throughput`, which likewise
        report 0.0 rather than degenerate divisions.
        """
        if not self.pairs:
            return 0.0
        from ..sim.core_model import estimate_kernel

        return estimate_kernel(self.stats, system.core, system.memory).seconds

    def modelled_throughput(self, system) -> float:
        """Modelled alignments/second of this batch on one core of ``system``.

        0.0 for an empty batch (nothing was aligned), and 0.0 when the
        modelled runtime itself is zero — a batch of zero-work kernels has
        no meaningful rate, and returning 0.0 keeps every zero-pair edge
        consistent across ``mean_score`` / ``modelled_*``.
        """
        if not self.pairs:
            return 0.0
        seconds = self.modelled_seconds(system)
        if seconds <= 0.0:
            return 0.0
        return self.pairs / seconds

    def modelled_energy_nj(self) -> float:
        """Modelled energy (nJ) of the batch on the RTL SoC (0.0 if empty)."""
        if not self.pairs:
            return 0.0
        from ..hw.energy import estimate_energy
        from ..sim.core_model import estimate_kernel
        from ..sim.soc import RTL_INORDER

        timing = estimate_kernel(
            self.stats, RTL_INORDER.core, RTL_INORDER.memory
        )
        return estimate_energy(self.stats, timing.cycles).nj_per_alignment


def align_batch(
    aligner: Aligner,
    pairs: Iterable[PairLike],
    *,
    traceback: bool = True,
    validate: bool = False,
    workers: Optional[int] = 1,
    shard_size: Optional[int] = None,
) -> BatchResult:
    """Align every pair with ``aligner`` and aggregate the statistics.

    The batch is cut into shards, each shard is submitted to a
    :class:`~repro.align.parallel.WorkerPool` and the replies are merged
    in input order, so results, stats and ordering are byte-identical
    for every worker count.

    Args:
        pairs: (pattern, text) tuples, :class:`SequencePair` objects, a
            :class:`~repro.workloads.generator.PairSet`, or any generator
            of pair-likes (streamed, never materialised here).
        traceback: compute full alignments (vs distance only).
        validate: additionally replay every alignment against its sequences
            (raises on any inconsistency — a thorough self-check mode).
        workers: worker processes; ``1`` (default) aligns in process,
            ``None`` uses the host CPU count.  A non-picklable aligner or
            a platform without process support falls back to in-process
            execution, named in
            ``telemetry.fallback_reason``/``telemetry.executor``.
            Otherwise the batch checks this process's warm pool out
            (:func:`~repro.align.parallel.batch_pool`): the first such
            batch starts it and later ones with the same worker count
            reuse it, so only a process that runs pooled batches again
            and again gains.  An aligner whose pickle names ``__main__``
            runs on a pool of its own for the batch instead.
        shard_size: pairs per shard (default ``DEFAULT_SHARD_SIZE``).

    Raises:
        WorkerLost: a pool worker died before its shard replied; for
            retries use :func:`repro.resilience.align_batch_resilient`.
            A batch on the warm pool that raises (this, an aligner
            error, a broken input stream, ``KeyboardInterrupt``) closes
            that pool, so it leaves no worker behind; the next batch
            starts a fresh pool.

    The aligner and the pairs travel with every shard, pickled by
    reference to their classes, which the warm workers look up in their
    own copy of each module, made when the pool forked.  Hence the
    ``__main__`` exception above: a class (re)defined there after the
    fork would run as it was at the fork, or not be found.  Module state
    changed in an imported module after the fork (a monkeypatched method,
    a global switch, ``importlib.reload``) is not seen by the warm
    workers either; :func:`~repro.align.parallel.close_shared_pool` after
    such a change makes the next batch start a fresh pool.

    The returned :class:`BatchResult` always carries a
    :attr:`~BatchResult.telemetry` record with the measured wall time.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    shards = iter_shards(pairs, shard_size)
    start = time.perf_counter()

    scope, pickling_failure = batch_pool(aligner, workers)
    batch = BatchResult()
    in_flight: Deque = deque()
    token = dsan.batch_begin()
    try:
        with obs.span("batch.align", workers=workers), scope as runner:
            telemetry = BatchTelemetry(
                workers=workers,
                shard_size=shard_size,
                executor=executor_label(workers, runner),
                fallback_reason=pickling_failure,
                backend=getattr(
                    getattr(aligner, "backend", None), "name", None
                ),
            )
            want_obs = runner.process_mode and obs.enabled()
            window = SHARDS_IN_FLIGHT_PER_WORKER * runner.workers
            for shard in shards:
                payload = (aligner, shard, traceback, validate, want_obs)
                in_flight.append(runner.submit(_align_shard, payload))
                if len(in_flight) == window:
                    _merge_shard(batch, telemetry, runner, in_flight.popleft())
            while in_flight:
                _merge_shard(batch, telemetry, runner, in_flight.popleft())
    finally:
        dsan.batch_end(token, "align_batch")
    obs.inc("batch.runs")
    obs.inc("batch.pairs", batch.pairs)

    telemetry.wall_seconds = time.perf_counter() - start
    batch.telemetry = telemetry
    return batch


def _merge_shard(
    batch: BatchResult,
    telemetry: BatchTelemetry,
    pool: WorkerPool,
    handle,
) -> None:
    """Wait for the oldest shard in flight and append it in input order."""
    results, stats, seconds, worker, buffers = pool.wait(handle)
    _absorb_obs_buffers(buffers)
    batch.results.extend(results)
    batch.stats.merge(stats)
    telemetry.shards.append(
        ShardTelemetry(
            index=len(telemetry.shards),
            pairs=len(results),
            wall_seconds=seconds,
            worker=worker if pool.process_mode else "inline",
        )
    )
