"""The chunked streaming pipeline: split → filter → align → stitch.

Chromosome-scale alignment without chromosome-scale memory.  The
reference arrives as a block stream and is cut into overlapping windows
(:mod:`.chunker`); each window is cheaply voted against an index of every
query k-mer, probed at every 8th reference base
(:mod:`repro.mapper.windows`) — the seed-location filter that gates the
expensive DP; only candidate windows become
:class:`~repro.stream.stitch.ChunkJob`\\ s, which a batch engine executes
with the paper's kernel (auto-widening Banded(GMX) by default);
per-chunk alignments are reconciled into one global CIGAR by the
:class:`~repro.stream.stitch.Stitcher`.

Peak memory is O(chunk) sequence + DP state plus O(query) for the
sketch, the candidate jobs and the committed alignment — independent of
reference length, which is the bound the tracemalloc regression test
enforces.

Every engine is a batch engine fed the chunk jobs as a lazy pair stream;
each returns its results in job order, and one loop stitches them
(``engine=``):

========== ============================================= ==============
name       executes chunks via                            extras
========== ============================================= ==============
serial     ``align_batch(workers=1)``, in process         default
pool       ``align_batch`` on a ``WorkerPool``            ``workers``
resilient  ``align_batch_resilient``                      ``checkpoint`` +
                                                          chunk provenance
========== ============================================= ==============
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..align.auto import AutoAligner
from ..align.base import Aligner, KernelStats
from ..align.batch import align_batch
from ..align.parallel import BatchTelemetry
from ..mapper.windows import DEFAULT_K, QuerySketch
from ..obs import runtime as obs
from .chunker import ReferenceChunk, iter_reference_chunks, validate_chunking
from .errors import StreamError
from .stitch import ChunkAlignment, ChunkJob, StitchedAlignment, Stitcher

#: Engines a stream run can execute its chunk jobs on.
ENGINES = ("serial", "pool", "resilient")

#: Chunk jobs per shard on every engine: a stream has only a handful of
#: candidate jobs, and two per shard spread them over a pool's workers.
SHARD_JOBS = 2

# The seed-location filter and the stitcher run with fixed settings; the
# query sketch uses QuerySketch's defaults (k 16, probe stride 8, repeat
# cap 512).  See docs/streaming.md.

#: Diagonal vote granularity in bases.
BUCKET = 32
#: Sketch hits a window needs to become a candidate.
MIN_VOTES = 4
#: Exact-match run length the stitcher trusts as a seam anchor.
MIN_ANCHOR = 12
#: Voteless windows tolerated *between* candidate windows before the
#: stream assumes the query mapped to a single earlier locus and stops.
MAX_HOLE_CHUNKS = 4


@dataclass(frozen=True)
class StreamConfig:
    """Reference window geometry of one streamed alignment.

    ``chunk_size``/``overlap`` are the window length and the bases each
    window shares with its successor (see :mod:`.chunker`); the span pad
    and the diagonal tolerance derive from them.
    """

    chunk_size: int = 4096
    overlap: int = 512

    def validate(self) -> None:
        """Reject geometries the pipeline cannot stitch."""
        validate_chunking(self.chunk_size, self.overlap)
        if self.overlap < MIN_ANCHOR:
            raise ValueError(
                f"overlap ({self.overlap}) must be at least min_anchor "
                f"({MIN_ANCHOR}): seams are reconciled on exact-match "
                "runs inside the overlap"
            )
        if DEFAULT_K > self.chunk_size:
            raise ValueError(
                f"k ({DEFAULT_K}) cannot exceed chunk_size ({self.chunk_size})"
            )

    @property
    def span_pad(self) -> int:
        """Query-span slack added on both sides of a predicted span."""
        return BUCKET + DEFAULT_K + max(32, self.chunk_size // 100)

    @property
    def diagonal_tolerance(self) -> int:
        """Largest step-to-step drift of the winning diagonal.

        Drift up to half a window reads as structural variation (indels
        the stitcher can bridge); drift beyond it reads as a spurious hit
        on a repeat of an earlier locus.
        """
        return max(4 * BUCKET, self.chunk_size // 2 + DEFAULT_K)


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
    """Wall seconds per pipeline stage.

    ``filter_seconds`` is the sketch scan of every window;
    ``align_seconds`` is the engine call less the time it spent waiting
    for jobs (reading, chunking and filtering the reference);
    ``stitch_seconds`` is the stitch and its validation.
    """

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
    telemetry: BatchTelemetry

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
        query: str,
        counters: StreamCounters,
    ) -> None:
        self.sketch = sketch
        self.config = config
        self.query = query
        self.counters = counters
        self._order = 0
        self._last_diagonal: Optional[int] = None
        self._hole: List[ReferenceChunk] = []
        self._withheld: Optional[ChunkJob] = None
        self.reference_seen = 0
        self.scan_seconds = 0.0

    def plan(
        self, chunks: Iterable[ReferenceChunk]
    ) -> Iterator[ChunkJob]:
        """Yield chunk jobs as the reference streams past."""
        for chunk in chunks:
            self.counters.chunks += 1
            self.reference_seen = chunk.end
            scan_start = time.perf_counter()
            with obs.span(
                "stream.filter", chunk=chunk.index, start=chunk.start
            ):
                vote = self.sketch.scan_window(
                    chunk.sequence, chunk.start, bucket=BUCKET
                )
            self.scan_seconds += time.perf_counter() - scan_start
            accepted = vote is not None and vote.votes >= MIN_VOTES
            if accepted and self._last_diagonal is not None:
                drift = abs(vote.diagonal - self._last_diagonal)
                if drift > self.config.diagonal_tolerance:
                    self.counters.spurious_skipped += 1
                    obs.inc("stream.spurious")
                    accepted = False
            if not accepted:
                if self._last_diagonal is not None:
                    self._hole.append(chunk)
                    if len(self._hole) > MAX_HOLE_CHUNKS:
                        # The query stopped mapping; later votes would be
                        # repeats of an earlier locus.  Stop pulling the
                        # reference stream.
                        self._hole.clear()
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
        if self._withheld is not None:
            # The final job's span extends to the query end.
            final = replace(self._withheld, query_end=len(self.query))
            yield self._finish_job(final)

    def _emit(self, job: ChunkJob) -> Iterator[ChunkJob]:
        previous = self._withheld
        self._withheld = job
        if previous is not None:
            yield self._finish_job(previous)

    def _finish_job(self, job: ChunkJob) -> ChunkJob:
        """Cut the window to the span's diagonal corridor, fill the pattern.

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
        pad = self.config.span_pad
        lo = max(job.ref_start, job.query_start + job.diagonal - pad)
        hi = min(job.ref_end, job.query_end + job.diagonal + pad)
        if hi <= lo:
            lo, hi = job.ref_start, job.ref_end
        return replace(
            job,
            ref_start=lo,
            ref_end=hi,
            pattern=self.query[job.query_start:job.query_end],
            text=job.text[lo - job.ref_start:hi - job.ref_start],
        )

    def _make_job(
        self,
        chunk: ReferenceChunk,
        diagonal: Optional[int],
        votes: int,
    ) -> Optional[ChunkJob]:
        assert diagonal is not None
        pad = self.config.span_pad
        query_start = max(0, chunk.start - diagonal - pad)
        query_end = min(len(self.query), chunk.end - diagonal + pad)
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
            pattern="",  # filled by _finish_job, once the span is final
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
    checkpoint: Optional[str] = None,
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
        workers: worker processes of the pool/resilient engines.
        checkpoint: journal path (resilient engine); the journal header
            carries the chunk geometry and query fingerprint, so
            resuming under different stream parameters is rejected.

    The stitched alignment is replay-validated before it is returned.

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

    with obs.span("stream.align", engine=engine):
        chunks = iter_reference_chunks(
            reference, config.chunk_size, config.overlap
        )
        planner = _JobPlanner(QuerySketch(query), config, query, counters)
        jobs: List[ChunkJob] = []
        planning_seconds = 0.0

        def pairs() -> Iterator[Tuple[str, str]]:
            # The engine pulls the jobs, so the planner runs inside the
            # engine call; its time is not alignment.
            nonlocal planning_seconds
            planned = planner.plan(chunks)
            while True:
                step_start = time.perf_counter()
                job = next(planned, None)
                planning_seconds += time.perf_counter() - step_start
                if job is None:
                    return
                jobs.append(job)
                yield job.pattern, job.text

        align_start = time.perf_counter()
        with obs.span("stream.align_chunk", engine=engine):
            batch = _align_jobs(
                engine,
                aligner,
                pairs(),
                workers=workers,
                checkpoint=checkpoint,
                journal_meta=_stream_journal_meta(config, query),
            )
        timings.filter_seconds = planner.scan_seconds
        timings.align_seconds = (
            time.perf_counter() - align_start - planning_seconds
        )
        if counters.chunks == 0:
            raise StreamError("reference must be non-empty")
        if len(batch.results) != len(jobs):
            raise StreamError(
                f"engine returned {len(batch.results)} results for "
                f"{len(jobs)} chunk jobs"
            )
        stitch_start = time.perf_counter()
        stitcher = Stitcher(query, min_anchor=MIN_ANCHOR)
        for job, outcome in zip(jobs, batch.results):
            if outcome.alignment is None:
                raise StreamError(
                    f"chunk {job.chunk_index}: engine returned no traceback"
                )
            stitcher.submit(
                ChunkAlignment(
                    job=job, ops=outcome.alignment.ops, score=outcome.score
                )
            )
        stitched = stitcher.finish()
        timings.stitch_seconds = time.perf_counter() - stitch_start
        obs.inc("stream.runs")

    return StreamResult(
        stitched=stitched,
        engine=engine,
        config=config,
        counters=counters,
        timings=timings,
        stats=batch.stats,
        reference_length=planner.reference_seen,
        query_length=len(query),
        telemetry=batch.telemetry,
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
        "stream_k": DEFAULT_K,
        "stream_span_pad": config.span_pad,
        "stream_query": digest,
    }


def _align_jobs(
    engine: str,
    aligner: Aligner,
    pairs: Iterator[Tuple[str, str]],
    *,
    workers: Optional[int],
    checkpoint: Optional[str],
    journal_meta: dict,
):
    """Align the chunk jobs' pairs on ``engine``, results in job order."""
    if engine == "resilient":
        from ..resilience.engine import align_batch_resilient

        return align_batch_resilient(
            aligner,
            pairs,
            workers=workers if workers is not None else 1,
            shard_size=SHARD_JOBS,
            traceback=True,
            checkpoint=checkpoint,
            journal_meta=journal_meta,
        )
    return align_batch(
        aligner,
        pairs,
        workers=1 if engine == "serial" else workers,
        shard_size=SHARD_JOBS,
        traceback=True,
    )
