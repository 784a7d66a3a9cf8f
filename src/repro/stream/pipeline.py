"""The chunked streaming pipeline: split → filter → align → stitch.

Chromosome-scale alignment without chromosome-scale memory.  The
reference arrives as a block stream and is cut into overlapping windows
(:mod:`.chunker`); each window is cheaply voted against an index of every
query k-mer, probed at every ``probe_stride``-th reference base
(:mod:`repro.mapper.windows`) — the seed-location filter that gates the
expensive DP; only candidate windows become
:class:`~repro.stream.stitch.ChunkJob`\\ s, which any of the existing
batch engines may execute with the paper's kernel (auto-widening
Banded(GMX) by default); per-chunk alignments are reconciled into one
global CIGAR by the :class:`~repro.stream.stitch.Stitcher`.

Peak memory on the serial engine is O(chunk) sequence + DP state plus
O(query) for the sketch and the committed alignment — independent of
reference length, which is the bound the tracemalloc regression test
enforces.  Batch engines additionally materialise the candidate job
list (O(covered reference) = O(query), still reference-independent).

Engine matrix (``engine=``):

========== ============================================= ==============
name       executes chunks via                            extras
========== ============================================= ==============
serial     in-process loop (the dsan-rooted chunk body)   strict O(chunk)
pool       ``align_batch`` on a ``WorkerPool``            ``workers``/``pool``
resilient  ``align_batch_resilient``                      ``checkpoint`` +
                                                          chunk provenance
dist       ``repro.dist`` coordinator                     ``dist_nodes``
========== ============================================= ==============
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Union

from ..align.auto import AutoAligner
from ..align.base import Aligner, KernelStats
from ..align.batch import align_batch
from ..align.parallel import WorkerPool
from ..mapper.windows import QuerySketch
from ..obs import runtime as obs
from ..sim.cost_model import plan_stream_shard_size
from .chunker import ReferenceChunk, iter_reference_chunks, validate_chunking
from .errors import StreamError
from .stitch import ChunkAlignment, ChunkJob, StitchedAlignment, Stitcher

#: Engines a stream run can execute its chunk jobs on.
ENGINES = ("serial", "pool", "resilient", "dist")


@dataclass(frozen=True)
class StreamConfig:
    """Geometry and filtering knobs of one streamed alignment.

    Attributes:
        chunk_size / overlap: reference window geometry (see
            :mod:`.chunker`).
        k / max_occurrences: query-sketch shape — every query k-mer is
            indexed, repeats above ``max_occurrences`` dropped (see
            :class:`~repro.mapper.windows.QuerySketch`).
        probe_stride: the filter probes reference positions whose
            absolute coordinate is a multiple of it; any exact shared run
            of ``probe_stride + k - 1`` bases is guaranteed a probe.
        bucket: diagonal vote granularity in bases.
        min_votes: sketch hits a window needs to become a candidate.
        span_pad: query-span slack added on both sides of the predicted
            span; ``None`` derives it from the geometry.
        min_anchor: exact-match run length the stitcher trusts.
        max_hole_chunks: voteless windows tolerated *between* candidate
            windows before the stream assumes the query mapped to a
            single earlier locus and stops scanning.
        diagonal_tolerance: maximum step-to-step drift of the winning
            diagonal; candidates drifting further are spurious repeat
            hits.  ``None`` derives it from the geometry.
    """

    chunk_size: int = 4096
    overlap: int = 512
    k: int = 16
    probe_stride: int = 8
    max_occurrences: int = 512
    bucket: int = 32
    min_votes: int = 4
    span_pad: Optional[int] = None
    min_anchor: int = 12
    max_hole_chunks: int = 4
    diagonal_tolerance: Optional[int] = None

    def validate(self) -> None:
        """Reject geometries the pipeline cannot stitch."""
        validate_chunking(self.chunk_size, self.overlap)
        if self.overlap < self.min_anchor:
            raise ValueError(
                f"overlap ({self.overlap}) must be at least min_anchor "
                f"({self.min_anchor}): seams are reconciled on exact-match "
                "runs inside the overlap"
            )
        if self.k > self.chunk_size:
            raise ValueError(
                f"k ({self.k}) cannot exceed chunk_size ({self.chunk_size})"
            )
        if self.max_hole_chunks < 0:
            raise ValueError(
                f"max_hole_chunks must be >= 0, got {self.max_hole_chunks}"
            )

    @property
    def resolved_span_pad(self) -> int:
        if self.span_pad is not None:
            return self.span_pad
        return self.bucket + self.k + max(32, self.chunk_size // 100)

    @property
    def resolved_diagonal_tolerance(self) -> int:
        # Diagonal drift up to half a window reads as structural
        # variation (indels the stitcher can bridge); drift beyond it
        # reads as a spurious hit on a repeat of an earlier locus.
        if self.diagonal_tolerance is not None:
            return self.diagonal_tolerance
        return max(4 * self.bucket, self.chunk_size // 2 + self.k)


@dataclass
class StreamCounters:
    """Filter-stage accounting of one streamed alignment."""

    chunks: int = 0
    candidates: int = 0
    holes_promoted: int = 0
    spurious_skipped: int = 0
    jobs: int = 0


@dataclass
class StageTimings:
    """Wall seconds per pipeline stage (split+filter / align / stitch)."""

    filter_seconds: float = 0.0
    align_seconds: float = 0.0
    stitch_seconds: float = 0.0


@dataclass
class StreamResult:
    """One streamed global alignment plus its provenance.

    ``stitched`` carries the CIGAR, score, and covered reference span;
    the remaining fields account for what the pipeline did to get there.
    """

    stitched: StitchedAlignment
    engine: str
    config: StreamConfig
    counters: StreamCounters
    timings: StageTimings
    stats: KernelStats
    reference_length: int
    query_length: int
    telemetry: object = None

    @property
    def score(self) -> int:
        return self.stitched.score

    @property
    def cigar(self) -> str:
        return self.stitched.cigar

    @property
    def text_start(self) -> int:
        return self.stitched.text_start

    @property
    def text_end(self) -> int:
        return self.stitched.text_end


def _chunk_align_body(aligner: Aligner, job: ChunkJob) -> ChunkAlignment:
    """Align one chunk job GLOBALly — the stream worker body (dsan root).

    Runs inside whatever execution context the engine chose: the serial
    loop, a pool worker, a resilient shard attempt, or a dist node.  It
    must therefore stay deterministic and side-effect free: pure
    function of ``(aligner, job)``.
    """
    outcome = aligner.align(job.pattern, job.text, traceback=True)
    if outcome.alignment is None:
        raise StreamError(
            f"chunk {job.chunk_index}: aligner returned no traceback"
        )
    return ChunkAlignment(
        job=job,
        ops=outcome.alignment.ops,
        score=outcome.score,
        stats=outcome.stats,
    )


class _JobPlanner:
    """Turns the streamed chunk sequence into candidate chunk jobs.

    Stateful single-pass planner: tracks the last accepted diagonal (for
    spurious-candidate rejection), buffers voteless windows between
    candidates (hole promotion keeps the job sequence contiguous for the
    stitcher), and withholds each job until the next one is known so the
    final job's query span can be extended to the query end.
    """

    def __init__(
        self,
        sketch: QuerySketch,
        config: StreamConfig,
        query_length: int,
        counters: StreamCounters,
    ) -> None:
        self.sketch = sketch
        self.config = config
        self.query_length = query_length
        self.counters = counters
        self._order = 0
        self._last_diagonal: Optional[int] = None
        self._hole: List[ReferenceChunk] = []
        self._withheld: Optional[ChunkJob] = None
        self._stopped = False
        self.reference_seen = 0
        self.scan_seconds = 0.0

    def plan(
        self, chunks: Iterable[ReferenceChunk]
    ) -> Iterator[ChunkJob]:
        """Yield chunk jobs as the reference streams past."""
        config = self.config
        for chunk in chunks:
            self.counters.chunks += 1
            self.reference_seen = chunk.end
            if self._stopped:
                # The query's locus ended; stop pulling the reference
                # stream instead of scanning windows that cannot map.
                break
            scan_start = time.perf_counter()
            with obs.span(
                "stream.filter", chunk=chunk.index, start=chunk.start
            ):
                vote = self.sketch.scan_window(
                    chunk.sequence, chunk.start, bucket=config.bucket
                )
            self.scan_seconds += time.perf_counter() - scan_start
            accepted = (
                vote is not None and vote.votes >= config.min_votes
            )
            if accepted and self._last_diagonal is not None:
                drift = abs(vote.diagonal - self._last_diagonal)
                if drift > config.resolved_diagonal_tolerance:
                    self.counters.spurious_skipped += 1
                    obs.inc("stream.spurious")
                    accepted = False
            if not accepted:
                if self._last_diagonal is not None:
                    self._hole.append(chunk)
                    if len(self._hole) > config.max_hole_chunks:
                        # The query stopped mapping; later votes would be
                        # repeats of an earlier locus.  Stop scanning.
                        self._hole.clear()
                        self._stopped = True
                        break
                continue
            assert vote is not None
            for parked in self._hole:
                job = self._make_job(parked, self._last_diagonal, 0)
                if job is not None:
                    self.counters.holes_promoted += 1
                    obs.inc("stream.holes_promoted")
                    yield from self._emit(job)
            self._hole.clear()
            self.counters.candidates += 1
            obs.inc("stream.candidates")
            job = self._make_job(chunk, vote.diagonal, vote.votes)
            self._last_diagonal = vote.diagonal
            if job is not None:
                yield from self._emit(job)

    def flush(self) -> Iterator[ChunkJob]:
        """Release the withheld final job, span-extended to the query end."""
        job = self._withheld
        self._withheld = None
        if job is None:
            return
        if job.query_end < self.query_length:
            job = ChunkJob(
                order=job.order,
                chunk_index=job.chunk_index,
                ref_start=job.ref_start,
                ref_end=job.ref_end,
                query_start=job.query_start,
                query_end=self.query_length,
                pattern="",  # filled by caller: pattern needs the query
                text=job.text,
                votes=job.votes,
                diagonal=job.diagonal,
            )
        yield self._trim_window(job)

    def _emit(self, job: ChunkJob) -> Iterator[ChunkJob]:
        previous = self._withheld
        self._withheld = job
        if previous is not None:
            yield self._trim_window(previous)

    def _trim_window(self, job: ChunkJob) -> ChunkJob:
        """Cut the window to the diagonal corridor of the query span.

        A window can dwarf the part of it the query span actually maps to
        (the first window holds everything before the locus; the last,
        everything after).  Aligning across that slack both blows up the
        band of the per-chunk aligner and lets its tie-breaking shred
        exact-match runs into anchor-free confetti.  The vote's diagonal
        predicts where the span lands, so the window is trimmed to that
        corridor (padded); interior windows — whose query spans were
        derived from the window itself — are left whole, keeping the
        job sequence contiguous for the stitcher.
        """
        pad = self.config.resolved_span_pad
        lo = max(job.ref_start, job.query_start + job.diagonal - pad)
        hi = min(job.ref_end, job.query_end + job.diagonal + pad)
        if hi <= lo or (lo == job.ref_start and hi == job.ref_end):
            return job
        return ChunkJob(
            order=job.order,
            chunk_index=job.chunk_index,
            ref_start=lo,
            ref_end=hi,
            query_start=job.query_start,
            query_end=job.query_end,
            pattern=job.pattern,
            text=job.text[lo - job.ref_start:hi - job.ref_start],
            votes=job.votes,
            diagonal=job.diagonal,
        )

    def _make_job(
        self,
        chunk: ReferenceChunk,
        diagonal: Optional[int],
        votes: int,
    ) -> Optional[ChunkJob]:
        assert diagonal is not None
        pad = self.config.resolved_span_pad
        query_start = max(0, chunk.start - diagonal - pad)
        query_end = min(self.query_length, chunk.end - diagonal + pad)
        if self._order == 0:
            # The first job anchors the head: everything before its
            # predicted span would otherwise never be consumed.
            query_start = 0
        if query_end <= query_start:
            return None
        job = ChunkJob(
            order=self._order,
            chunk_index=chunk.index,
            ref_start=chunk.start,
            ref_end=chunk.end,
            query_start=query_start,
            query_end=query_end,
            pattern="",  # filled by the pipeline (owns the query string)
            text=chunk.sequence,
            votes=votes,
            diagonal=diagonal,
        )
        self._order += 1
        self.counters.jobs += 1
        obs.inc("stream.jobs")
        return job


def stream_align(
    reference: Union[str, Iterable[str]],
    query: str,
    *,
    aligner: Optional[Aligner] = None,
    config: Optional[StreamConfig] = None,
    engine: str = "serial",
    workers: Optional[int] = None,
    shard_size: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
    checkpoint: Optional[str] = None,
    dist_nodes: Optional[Iterable] = None,
    dist_config=None,
    validate: bool = True,
) -> StreamResult:
    """Align a streamed reference against a query, chunked and stitched.

    Args:
        reference: the reference sequence — a string, or an iterable of
            blocks (e.g. :func:`repro.workloads.seqio.iter_fasta_blocks`)
            for chromosome-scale inputs that must never be materialised.
        query: the query sequence (held in memory; O(query) is the
            pipeline's working-set budget).
        aligner: per-chunk GLOBAL aligner; default is
            ``AutoAligner(require_exact=True)`` — auto-widening
            Banded(GMX) on the ``bitpar`` engine.  Baselines such as
            :class:`~repro.baselines.edlib_like.EdlibAligner` can be
            passed here.
        engine: one of :data:`ENGINES`.
        workers / shard_size / pool: batch-engine knobs (pool/resilient).
            ``shard_size=None`` is planned from the chunk cost model.
        checkpoint: journal path (resilient/dist engines); the journal
            header carries the chunk geometry and query fingerprint, so
            resuming under different stream parameters is rejected.
        dist_nodes: :class:`repro.dist.NodeHandle` iterable (dist engine).
        validate: replay-validate the stitched alignment before returning.

    Raises:
        StreamError: empty inputs, no candidate windows, or a stitch
            contract violation.
        ValueError: invalid geometry or engine selection.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if not query:
        raise StreamError("query must be non-empty")
    config = config if config is not None else StreamConfig()
    config.validate()
    aligner = (
        aligner if aligner is not None else AutoAligner(require_exact=True)
    )
    counters = StreamCounters()
    timings = StageTimings()
    stats = KernelStats()
    telemetry = None

    with obs.span("stream.align", engine=engine):
        sketch = QuerySketch(
            query,
            k=config.k,
            stride=config.probe_stride,
            max_occurrences=config.max_occurrences,
        )
        chunks = iter_reference_chunks(
            reference, config.chunk_size, config.overlap
        )
        planner = _JobPlanner(sketch, config, len(query), counters)

        def jobs() -> Iterator[ChunkJob]:
            for job in planner.plan(chunks):
                yield _fill_pattern(job, query)
            for job in planner.flush():
                yield _fill_pattern(job, query)

        stitcher = Stitcher(query, min_anchor=config.min_anchor)
        if engine == "serial":
            for job in jobs():
                align_start = time.perf_counter()
                with obs.span(
                    "stream.align_chunk",
                    chunk=job.chunk_index,
                    span=job.query_end - job.query_start,
                ):
                    result = _chunk_align_body(aligner, job)
                timings.align_seconds += time.perf_counter() - align_start
                if result.stats is not None:
                    stats.merge(result.stats)
                stitch_start = time.perf_counter()
                stitcher.submit(result)
                timings.stitch_seconds += time.perf_counter() - stitch_start
        else:
            job_list: List[ChunkJob] = []

            def pair_stream():
                for job in jobs():
                    job_list.append(job)
                    yield (job.pattern, job.text)

            planned_shard = shard_size
            if planned_shard is None:
                planned_shard = plan_stream_shard_size(
                    aligner,
                    config.chunk_size + 2 * config.resolved_span_pad,
                    config.chunk_size,
                )
            align_start = time.perf_counter()
            results, stats, telemetry = _run_batch_engine(
                engine,
                aligner,
                pair_stream(),
                workers=workers,
                shard_size=planned_shard,
                pool=pool,
                checkpoint=checkpoint,
                journal_meta=_stream_journal_meta(config, query),
                dist_nodes=dist_nodes,
                dist_config=dist_config,
            )
            timings.align_seconds = time.perf_counter() - align_start
            if len(results) != len(job_list):
                raise StreamError(
                    f"engine returned {len(results)} results for "
                    f"{len(job_list)} chunk jobs"
                )
            stitch_start = time.perf_counter()
            for job, outcome in zip(job_list, results):
                if outcome.alignment is None:
                    raise StreamError(
                        f"chunk {job.chunk_index}: engine returned no "
                        "traceback"
                    )
                stitcher.submit(
                    ChunkAlignment(
                        job=job,
                        ops=outcome.alignment.ops,
                        score=outcome.score,
                    )
                )
            timings.stitch_seconds += time.perf_counter() - stitch_start

        timings.filter_seconds = planner.scan_seconds
        if counters.chunks == 0:
            raise StreamError("reference must be non-empty")
        stitch_start = time.perf_counter()
        stitched = stitcher.finish(validate=validate)
        timings.stitch_seconds += time.perf_counter() - stitch_start
        obs.inc("stream.runs")

    return StreamResult(
        stitched=stitched,
        engine=engine,
        config=config,
        counters=counters,
        timings=timings,
        stats=stats,
        reference_length=planner.reference_seen,
        query_length=len(query),
        telemetry=telemetry,
    )


def stream_align_fasta(
    reference_path,
    query: str,
    *,
    record: Optional[str] = None,
    block_size: int = 1 << 16,
    **kwargs,
) -> StreamResult:
    """Stream a FASTA reference file through :func:`stream_align`.

    The named (or first) record is read as blocks — the reference never
    exists in memory as one string.
    """
    from ..workloads.seqio import iter_fasta_blocks

    blocks = iter_fasta_blocks(
        reference_path, record=record, block_size=block_size
    )
    return stream_align(blocks, query, **kwargs)


def _fill_pattern(job: ChunkJob, query: str) -> ChunkJob:
    """Materialise the job's query span (planner leaves patterns empty)."""
    return ChunkJob(
        order=job.order,
        chunk_index=job.chunk_index,
        ref_start=job.ref_start,
        ref_end=job.ref_end,
        query_start=job.query_start,
        query_end=job.query_end,
        pattern=query[job.query_start:job.query_end],
        text=job.text,
        votes=job.votes,
        diagonal=job.diagonal,
    )


def _stream_journal_meta(config: StreamConfig, query: str) -> dict:
    """Chunk provenance for the checkpoint journal header.

    A journal written under a different chunk geometry or query holds
    shard ranges that mean something else entirely; these keys make the
    journal's compatibility check reject such a resume.
    """
    digest = hashlib.sha256(query.encode("ascii")).hexdigest()[:16]
    return {
        "stream_chunk_size": config.chunk_size,
        "stream_overlap": config.overlap,
        "stream_k": config.k,
        "stream_span_pad": config.resolved_span_pad,
        "stream_query": digest,
    }


def _run_batch_engine(
    engine: str,
    aligner: Aligner,
    pairs,
    *,
    workers: Optional[int],
    shard_size: int,
    pool: Optional[WorkerPool],
    checkpoint: Optional[str],
    journal_meta: dict,
    dist_nodes,
    dist_config,
):
    """Execute the chunk-job pair stream on the selected batch engine."""
    if engine == "pool":
        batch = align_batch(
            aligner,
            pairs,
            workers=workers,
            shard_size=shard_size,
            traceback=True,
            pool=pool,
        )
        return batch.results, batch.stats, batch.telemetry
    if engine == "resilient":
        from ..resilience.engine import align_batch_resilient

        batch = align_batch_resilient(
            aligner,
            pairs,
            workers=workers if workers is not None else 1,
            shard_size=shard_size,
            traceback=True,
            checkpoint=checkpoint,
            journal_meta=journal_meta if checkpoint else None,
        )
        return batch.results, batch.stats, batch.telemetry
    if engine == "dist":
        if not dist_nodes:
            raise ValueError("engine='dist' requires dist_nodes")
        from ..dist.coordinator import DistConfig, DistCoordinator

        cfg = dist_config if dist_config is not None else DistConfig()
        if cfg.shard_size is None:
            from dataclasses import replace as _replace

            cfg = _replace(cfg, shard_size=shard_size)
        coordinator = DistCoordinator(
            aligner,
            dist_nodes,
            config=cfg,
            checkpoint=checkpoint,
            journal_meta=journal_meta if checkpoint else None,
        )
        outcome = coordinator.run(pairs, traceback=True)
        return outcome.results, outcome.stats, outcome.telemetry
    raise ValueError(f"unknown engine {engine!r}")
