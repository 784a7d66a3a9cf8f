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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

from .base import Aligner, AlignmentResult, KernelStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (parallel → batch)
    from .parallel import BatchTelemetry

#: Accepted pair forms: (pattern, text) tuples or SequencePair-like objects.
PairLike = Union[Tuple[str, str], "object"]


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


def _as_pair(item: PairLike) -> Tuple[str, str]:
    if isinstance(item, tuple):
        pattern, text = item
        return pattern, text
    pattern = getattr(item, "pattern", None)
    text = getattr(item, "text", None)
    if pattern is None or text is None:
        raise TypeError(
            f"batch items must be (pattern, text) tuples or carry "
            f".pattern/.text attributes, got {type(item).__name__}"
        )
    return pattern, text


def align_batch(
    aligner: Aligner,
    pairs: Iterable[PairLike],
    *,
    traceback: bool = True,
    validate: bool = False,
    workers: int = 1,
    shard_size: Optional[int] = None,
    backend: Optional[object] = None,
) -> BatchResult:
    """Align every pair with ``aligner`` and aggregate the statistics.

    Args:
        pairs: (pattern, text) tuples, :class:`SequencePair` objects, a
            :class:`~repro.workloads.generator.PairSet`, or any generator
            of pair-likes (streamed, never materialised here).
        traceback: compute full alignments (vs distance only).
        validate: additionally replay every alignment against its sequences
            (raises on any inconsistency — a thorough self-check mode).
        workers: worker processes.  Every batch runs through
            :func:`repro.align.parallel.align_batch_sharded`: ``1``
            (default) aligns the shards serially in process, ``>1`` fans
            them out over a pool, with byte-identical results, stats, and
            ordering.
        shard_size: pairs per shard.
        backend: kernel backend override (name or
            :class:`~repro.align.backends.KernelBackend`); rebinds the
            aligner via :meth:`~repro.align.base.Aligner.with_backend`
            before any work starts, so it also survives pickling into
            pool workers.  Raises
            :class:`~repro.align.base.AlignerError` for aligners without
            a pluggable kernel.

    The returned :class:`BatchResult` always carries a
    :attr:`~BatchResult.telemetry` record with the measured wall time.
    """
    if backend is not None:
        aligner = aligner.with_backend(backend)
    from .parallel import align_batch_sharded

    return align_batch_sharded(
        aligner, pairs,
        workers=workers, shard_size=shard_size,
        traceback=traceback, validate=validate,
    )
