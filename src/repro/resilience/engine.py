"""Fault-tolerant batch alignment: retry, bisect, degrade, checkpoint.

:func:`align_batch_resilient` wraps the sharded batch engine
(:mod:`repro.align.parallel`) in a supervision loop that keeps a batch
correct — byte-identical to a fault-free serial run — while workers
crash, hang, return garbage, or the (modelled) hardware corrupts values:

* **deadlines** — each shard attempt runs under ``shard_timeout``.
  Every attempt runs on a :class:`~repro.align.parallel.WorkerPool`; on
  a process pool a missed deadline rebuilds the pool, and the other
  attempts in flight rerun uncharged.  Inline attempts are rejected
  retroactively (soft deadline).
* **retry with seeded backoff** — failed attempts are retried up to
  ``max_retries`` times with exponentially growing, deterministically
  jittered delays (:class:`RetryPolicy`), so campaigns replay exactly.
* **detection** — results are rejected when the shard's input checksum
  disagrees (data corruption in flight), when a reply cannot cross the
  transport, and — with ``cross_check=True`` — when the aligner's score
  disagrees with the bit-parallel BPM baseline, the traced instruction
  stream fails the static program verifier, or the alignment fails
  replay validation.
* **bisection → fallback → quarantine** — a shard that exhausts its
  retries is split in half to isolate the poison; a single pair that
  still fails is re-aligned with the bit-parallel BPM baseline; if even
  that fails the pair is quarantined and reported, never silently
  dropped and never allowed to abort the batch.
* **checkpoint/resume** — with ``checkpoint=<path>``, completed shards
  are journalled (:mod:`.checkpoint`); a rerun resumes from the journal
  and produces the same :class:`~repro.align.batch.BatchResult`.

Fault injection (``fault_plan=``) drives the same machinery with planned,
seeded faults — see :mod:`.faults` — and every planned fault is accounted
for in the returned ledger.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..align.base import (
    Aligner,
    AlignmentResult,
    ResilienceCounters,
)
from ..analysis.sanitizer import runtime as dsan
from ..align.batch import BatchResult, PairLike
from ..align.parallel import (
    DEFAULT_SHARD_SIZE,
    BatchTelemetry,
    ShardTelemetry,
    WorkerLost,
    WorkerPool,
    _absorb_obs_buffers,
    _pickling_failure,
    iter_shards,
)
from ..common.retry import RetryPolicy
from ..core.cigar import AlignmentError
from ..obs import runtime as obs
from .checkpoint import CheckpointJournal
from .faults import FaultError, FaultPlan, FaultSpec
from .injectors import (
    FaultHookChain,
    HardwareFaultInjector,
    apply_worker_fault,
    corrupt_pair,
    shard_checksum,
)

#: Deadline applied when a fault plan is present but none was chosen —
#: hang faults are only detectable under a deadline.
DEFAULT_CHAOS_TIMEOUT = 5.0


class CrossCheckError(RuntimeError):
    """A result failed independent verification (score/CIGAR/trace)."""


@dataclass
class FaultRecord:
    """Ledger entry: what happened to one planned fault.

    Outcomes: ``planned`` (never armed), ``armed`` (injected, verdict
    pending), ``retried`` (struck an attempt that failed and was
    retried), ``detected`` (observed without needing a retry — e.g. a
    slow shard), ``degraded`` (its pair recovered via the fallback
    aligner), ``quarantined`` (its pair was quarantined), ``masked``
    (armed but physically changed nothing), ``silent`` (corrupted a
    value yet the attempt passed every check — a detection gap),
    ``resumed`` (its shard was replayed from a checkpoint journal).
    """

    spec: FaultSpec
    outcome: str = "planned"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "fault": self.spec.to_dict(),
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class QuarantinedPair:
    """A pair excluded from the batch after the full degradation chain."""

    index: int
    pattern: str
    text: str
    reason: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "pattern": self.pattern,
            "text": self.text,
            "reason": self.reason,
        }


@dataclass
class ResilientBatchResult(BatchResult):
    """A :class:`BatchResult` plus the resilience run's accounting.

    Attributes:
        quarantined: pairs excluded after retry → bisection → fallback
            all failed (empty on healthy runs; ``results`` then covers
            every input pair in order).
        ledger: one :class:`FaultRecord` per planned fault.
    """

    quarantined: List[QuarantinedPair] = field(default_factory=list)
    ledger: List[FaultRecord] = field(default_factory=list)


@dataclass
class _ShardTask:
    """Picklable description of one shard attempt (worker payload)."""

    lo: int
    hi: int
    pairs: Tuple[Tuple[str, str], ...]
    traceback: bool
    validate: bool
    cross_check: bool
    armed: Tuple[FaultSpec, ...]
    hang_seconds: float
    slow_seconds: float
    obs: bool = False


@dataclass
class _ShardReply:
    """Successful shard attempt, as shipped back over the transport."""

    results: List[AlignmentResult]
    checksum: int
    elapsed: float
    poison: bool
    fired: Tuple[int, ...]
    unfired: Tuple[int, ...]
    #: Observability freight captured in the worker (drained span dicts +
    #: metrics snapshot payload); absorbed by the supervisor on success.
    spans: Tuple[dict, ...] = ()
    metrics: Optional[dict] = None
    #: Executing worker label (``pid:<n>``, or ``inline``).
    worker: str = "inline"


@dataclass
class _ShardFailure:
    """Failed shard attempt: a classification plus human-readable detail."""

    kind: str  # timeout | crash | exception | unpicklable | cross-check | data
    detail: str


class _PoisonedReply:
    """Deliberately unpicklable wrapper (injected ``unpicklable`` fault)."""

    def __init__(self, reply: _ShardReply):
        self.reply = reply
        self.trap = lambda: None  # closures never pickle


@dataclass
class _WorkItem:
    lo: int
    hi: int
    pairs: List[Tuple[str, str]]
    checksum: int
    attempt: int = 0
    ready_at: float = 0.0
    armed: Tuple[FaultSpec, ...] = ()


@dataclass
class _Done:
    lo: int
    hi: int
    results: List[AlignmentResult]
    quarantined: List[QuarantinedPair]
    elapsed: float
    worker: str
    resumed: bool = False


def _verify_result(
    aligner: Aligner,
    pattern: str,
    text: str,
    result: AlignmentResult,
    abs_index: int,
    traces: Optional[List],
) -> None:
    """Independent checks on one result; raises CrossCheckError on any."""
    if result.exact:
        from ..baselines.bpm import BpmAligner

        reference = BpmAligner().align(pattern, text, traceback=False)
        if reference.score != result.score:
            raise CrossCheckError(
                f"pair {abs_index}: score {result.score} disagrees with "
                f"BPM reference {reference.score}"
            )
    if result.alignment is not None and result.alignment.score != result.score:
        raise CrossCheckError(
            f"pair {abs_index}: alignment score {result.alignment.score} "
            f"!= result score {result.score}"
        )
    if traces:
        tile_size = getattr(aligner, "tile_size", None)
        if tile_size:
            from ..analysis import verify_trace
            from ..analysis.diagnostics import Severity

            for pass_index, events in enumerate(traces):
                diagnostics = verify_trace(
                    events,
                    tile_size=tile_size,
                    label=f"pair{abs_index}.{pass_index}",
                )
                errors = [
                    d for d in diagnostics if d.severity is Severity.ERROR
                ]
                if errors:
                    raise CrossCheckError(
                        f"pair {abs_index}: program verifier: "
                        f"{errors[0].code} {errors[0].message}"
                    )


def _execute_item(aligner: Aligner, task: _ShardTask) -> _ShardReply:
    """Align one shard attempt, injecting any armed faults.

    Runs in the worker (process mode) or in the parent (inline mode);
    raises on injected crashes and on any failed verification.  When the
    parent has observability on (``task.obs``) and this attempt runs in a
    worker process, the attempt's spans and metrics are captured locally
    and shipped back inside the reply for the supervisor to absorb.
    """
    if task.obs and not obs.owns_recorder():
        with obs.capture() as (recorder, registry):
            reply = _execute_item_body(aligner, task)
        reply.spans = tuple(recorder.drain())
        reply.metrics = registry.snapshot().to_dict()
        return reply
    return _execute_item_body(aligner, task)


@contextlib.contextmanager
def _trace_capture(
    aligner: Aligner, enabled: bool
) -> Iterator[Optional[List]]:
    """Redirect ``aligner.trace_sink`` into a fresh buffer for one block.

    Yields the buffer (``None`` when disabled or the aligner has no
    sink); the previous sink comes back in a ``finally``, so a raising
    alignment cannot leave the sink dangling for later pairs.
    """
    if not enabled or not hasattr(aligner, "trace_sink"):
        yield None
        return
    previous = aligner.trace_sink
    traces: List = []
    aligner.trace_sink = traces
    try:
        yield traces
    finally:
        aligner.trace_sink = previous


def _execute_item_body(aligner: Aligner, task: _ShardTask) -> _ShardReply:
    from ..core.isa import fault_injection

    start = time.perf_counter()
    fired: List[int] = []
    unfired: List[int] = []
    poison = False
    for spec in task.armed:
        if spec.layer != "worker":
            continue
        marker = apply_worker_fault(
            spec,
            hang_seconds=task.hang_seconds,
            slow_seconds=task.slow_seconds,
        )
        fired.append(spec.fault_id)
        if marker == "unpicklable":
            poison = True
    pairs = list(task.pairs)
    for spec in task.armed:
        if spec.layer != "data":
            continue
        offset = spec.pair_index - task.lo
        pattern, text = pairs[offset]
        mutated = corrupt_pair(spec, pattern, text)
        if mutated != (pattern, text):
            pairs[offset] = mutated
            fired.append(spec.fault_id)
        else:
            unfired.append(spec.fault_id)
    hardware: Dict[int, List[FaultSpec]] = {}
    for spec in task.armed:
        if spec.layer == "hardware":
            hardware.setdefault(spec.pair_index - task.lo, []).append(spec)
    results: List[AlignmentResult] = []
    with obs.span(
        "shard.attempt", lo=task.lo, hi=task.hi, armed=len(task.armed)
    ):
        for offset, (pattern, text) in enumerate(pairs):
            injectors = [
                HardwareFaultInjector(spec)
                for spec in hardware.get(offset, ())
            ]
            with _trace_capture(aligner, task.cross_check) as traces:
                if injectors:
                    with fault_injection(FaultHookChain(injectors)):
                        result = aligner.align(
                            pattern, text, traceback=task.traceback
                        )
                else:
                    result = aligner.align(
                        pattern, text, traceback=task.traceback
                    )
            for injector in injectors:
                target = fired if injector.fired else unfired
                target.append(injector.spec.fault_id)
            if (
                (task.validate or task.cross_check)
                and result.alignment is not None
            ):
                result.alignment.validate()
            if task.cross_check:
                _verify_result(
                    aligner, pattern, text, result, task.lo + offset, traces
                )
            results.append(result)
    return _ShardReply(
        results=results,
        checksum=shard_checksum(pairs),
        elapsed=time.perf_counter() - start,
        poison=poison,
        fired=tuple(fired),
        unfired=tuple(unfired),
    )


_PICKLE_FAILURES = (pickle.PicklingError, TypeError, AttributeError)


def _classify(exc: Exception) -> _ShardFailure:
    if isinstance(exc, (CrossCheckError, AlignmentError)):
        return _ShardFailure("cross-check", str(exc))
    if isinstance(exc, FaultError):
        return _ShardFailure("crash", str(exc))
    return _ShardFailure("exception", f"{type(exc).__name__}: {exc}")


def _run_attempt(payload: Tuple[Aligner, _ShardTask]) -> bytes:
    """Pool entry point of one shard attempt; returns the pickled outcome.

    Every failure is classified here, inside the worker, so no exception
    has to cross the pipe.  The outcome is pickled here too, so a reply
    that cannot cross the transport comes back as an ``unpicklable``
    failure.  An inline pool runs this in the parent, with the same
    failure surface.
    """
    aligner, task = payload
    try:
        reply = _execute_item(aligner, task)
    except Exception as exc:  # noqa: BLE001 - classified, never raised
        return pickle.dumps(_classify(exc))
    reply.worker = f"pid:{os.getpid()}"
    try:
        return pickle.dumps(_PoisonedReply(reply) if reply.poison else reply)
    except _PICKLE_FAILURES as exc:
        return pickle.dumps(
            _ShardFailure(
                "unpicklable",
                f"shard [{task.lo},{task.hi}) reply failed to pickle: "
                f"{type(exc).__name__}",
            )
        )


@dataclass
class _Attempt:
    """One shard attempt in flight on the pool."""

    item: _WorkItem
    task: _ShardTask
    handle: Any = None
    started: float = 0.0

    def submit(self, pool: WorkerPool, aligner: Aligner) -> "_Attempt":
        self.handle = pool.submit(_run_attempt, (aligner, self.task))
        self.started = time.monotonic()
        return self


_FAILURE_COUNTERS = {
    "timeout": "timeouts",
    "crash": "crashes",
    "exception": "crashes",
    "unpicklable": "crashes",
    "cross-check": "cross_check_mismatches",
    "data": "data_faults",
}


class _Supervisor:
    """State machine of the resilient engine: supply, arming, outcomes."""

    def __init__(
        self,
        aligner: Aligner,
        shards: Iterable[List[Tuple[str, str]]],
        *,
        traceback: bool,
        validate: bool,
        cross_check: bool,
        retry: RetryPolicy,
        shard_timeout: Optional[float],
        plan: Optional[FaultPlan],
        journal: Optional[CheckpointJournal],
        inline: bool,
    ):
        self.aligner = aligner
        self._shards = iter(shards)
        self.traceback = traceback
        self.validate = validate
        self.cross_check = cross_check
        self.retry = retry
        self.shard_timeout = shard_timeout
        #: A successful shard slower than this counts as *slow*.
        self.slow_threshold = (
            shard_timeout * 0.5 if shard_timeout is not None else None
        )
        self.plan = plan
        self.journal = journal
        self.counters = ResilienceCounters()
        self.ledger: Dict[int, FaultRecord] = {}
        if plan is not None:
            for spec in plan.faults:
                self.ledger[spec.fault_id] = FaultRecord(spec=spec)
        self._untriggered = {
            spec.fault_id for spec in (plan.faults if plan else ())
        }
        self._injected: set = set()
        self.completed: Dict[int, _Done] = {}
        self._retry_queue: List[_WorkItem] = []
        self._next_lo = 0
        self._stream_done = False
        if shard_timeout is not None:
            self.hang_seconds = shard_timeout * (1.2 if inline else 3.0)
            self.slow_seconds = shard_timeout * 0.6
        else:
            self.hang_seconds = 0.5
            self.slow_seconds = 0.05

    # -- work supply --------------------------------------------------------

    def _cut_next(self) -> Optional[_WorkItem]:
        if self._stream_done:
            return None
        shard = next(self._shards, None)
        if shard is None:
            self._stream_done = True
            return None
        lo = self._next_lo
        self._next_lo += len(shard)
        return _WorkItem(
            lo=lo,
            hi=lo + len(shard),
            pairs=shard,
            checksum=shard_checksum(shard),
        )

    def next_ready(self, now: float) -> Optional[_WorkItem]:
        """Next runnable item: due retries first, then the stream."""
        due = [item for item in self._retry_queue if item.ready_at <= now]
        if due:
            item = min(due, key=lambda entry: entry.ready_at)
            self._retry_queue.remove(item)
            return item
        return self._cut_next()

    def next_ready_in(self, now: float) -> float:
        """Seconds until the earliest queued retry becomes due."""
        if not self._retry_queue:
            return 0.0
        earliest = min(item.ready_at for item in self._retry_queue)
        return max(0.0, earliest - now)

    def drained(self) -> bool:
        return self._stream_done and not self._retry_queue

    # -- arming and resume --------------------------------------------------

    def arm(self, item: _WorkItem) -> None:
        """Select the faults that strike this attempt (transient: once)."""
        if self.plan is None:
            item.armed = ()
            return
        armed = []
        for spec in self.plan.for_pairs(item.lo, item.hi):
            if spec.persistent:
                armed.append(spec)
            elif spec.fault_id in self._untriggered:
                self._untriggered.discard(spec.fault_id)
                armed.append(spec)
        for spec in armed:
            if spec.fault_id not in self._injected:
                self._injected.add(spec.fault_id)
                self.counters.faults_injected += 1
            record = self.ledger[spec.fault_id]
            if record.outcome == "planned":
                record.outcome = "armed"
        item.armed = tuple(armed)

    def try_resume(self, item: _WorkItem) -> bool:
        """Replay the item from the journal when already completed."""
        if self.journal is None:
            return False
        stored = self.journal.lookup(item.lo, item.hi, item.checksum)
        if stored is None:
            return False
        results, quarantined = stored
        self.counters.shards_resumed += 1
        obs.inc("resilience.shards_resumed")
        if self.plan is not None:
            for spec in self.plan.for_pairs(item.lo, item.hi):
                record = self.ledger[spec.fault_id]
                if record.outcome == "planned":
                    record.outcome = "resumed"
                    record.detail = "shard replayed from checkpoint journal"
                self._untriggered.discard(spec.fault_id)
        self.complete(
            item,
            results,
            [QuarantinedPair(**entry) for entry in quarantined],
            elapsed=0.0,
            worker="journal",
            resumed=True,
        )
        return True

    # -- outcome handling ---------------------------------------------------

    def handle(self, item: _WorkItem, payload) -> None:
        if isinstance(payload, _ShardReply) and payload.checksum != item.checksum:
            payload = _ShardFailure(
                "data",
                f"shard [{item.lo},{item.hi}) input checksum mismatch "
                f"(corrupted in flight)",
            )
        if isinstance(payload, _ShardFailure):
            self._on_failure(item, payload)
            return
        self._on_success(item, payload)

    def _on_success(self, item: _WorkItem, reply: _ShardReply) -> None:
        _absorb_obs_buffers((list(reply.spans), reply.metrics))
        slow_hit = (
            self.slow_threshold is not None
            and reply.elapsed > self.slow_threshold
        )
        if slow_hit:
            self.counters.slow_shards += 1
        for spec in item.armed:
            record = self.ledger[spec.fault_id]
            if spec.fault_id in reply.unfired:
                record.outcome = "masked"
                record.detail = "armed but changed nothing"
            elif spec.layer == "worker" and spec.kind == "slow":
                if slow_hit:
                    record.outcome = "detected"
                    record.detail = f"slow shard ({reply.elapsed:.3f}s)"
                    self.counters.faults_detected += 1
                else:
                    record.outcome = "silent"
                    record.detail = "slept below the slow threshold"
            else:
                record.outcome = "silent"
                record.detail = "corrupted a value but every check passed"
        self.complete(item, reply.results, [], reply.elapsed, reply.worker)

    def _on_failure(self, item: _WorkItem, failure: _ShardFailure) -> None:
        counter = _FAILURE_COUNTERS.get(failure.kind, "crashes")
        setattr(
            self.counters, counter, getattr(self.counters, counter) + 1
        )
        obs.inc(f"resilience.{counter}")
        if item.armed:
            self.counters.faults_detected += len(item.armed)
        item.attempt += 1
        if item.attempt <= self.retry.max_retries:
            self.counters.retries += 1
            obs.inc("resilience.retries")
            for spec in item.armed:
                record = self.ledger[spec.fault_id]
                record.outcome = "retried"
                record.detail = f"{failure.kind}: {failure.detail}"
            item.ready_at = time.monotonic() + self.retry.delay(
                item.lo, item.attempt
            )
            self._retry_queue.append(item)
            return
        self._exhausted(item, failure)

    def _exhausted(self, item: _WorkItem, failure: _ShardFailure) -> None:
        if item.hi - item.lo > 1:
            self.counters.bisections += 1
            mid = (item.lo + item.hi) // 2
            split = mid - item.lo
            for lo, hi, pairs in (
                (item.lo, mid, item.pairs[:split]),
                (mid, item.hi, item.pairs[split:]),
            ):
                self._retry_queue.append(
                    _WorkItem(
                        lo=lo,
                        hi=hi,
                        pairs=pairs,
                        checksum=shard_checksum(pairs),
                        ready_at=time.monotonic(),
                    )
                )
            return
        self._degrade(item, failure)

    def _degrade(self, item: _WorkItem, failure: _ShardFailure) -> None:
        from ..baselines.bpm import BpmAligner

        pattern, text = item.pairs[0]
        targeting = (
            self.plan.for_pairs(item.lo, item.hi) if self.plan else ()
        )
        fallback = BpmAligner()
        try:
            result = fallback.align(
                pattern, text, traceback=self.traceback
            )
            if (
                (self.validate or self.cross_check)
                and result.alignment is not None
            ):
                result.alignment.validate()
        except Exception as exc:
            self.counters.quarantined_pairs += 1
            obs.inc("resilience.quarantined_pairs")
            reason = (
                f"primary: {failure.kind}: {failure.detail}; fallback "
                f"{type(fallback).__name__}: "
                f"{type(exc).__name__}: {exc}"
            )
            for spec in targeting:
                record = self.ledger[spec.fault_id]
                record.outcome = "quarantined"
                record.detail = reason
            self.complete(
                item,
                [],
                [
                    QuarantinedPair(
                        index=item.lo,
                        pattern=pattern,
                        text=text,
                        reason=reason,
                    )
                ],
                elapsed=0.0,
                worker="quarantine",
            )
            return
        self.counters.fallbacks += 1
        obs.inc("resilience.fallbacks")
        for spec in targeting:
            record = self.ledger[spec.fault_id]
            record.outcome = "degraded"
            record.detail = (
                f"pair recovered via {type(fallback).__name__} after "
                f"{failure.kind}"
            )
        self.complete(
            item, [result], [], elapsed=0.0, worker="fallback"
        )

    def complete(
        self,
        item: _WorkItem,
        results: List[AlignmentResult],
        quarantined: List[QuarantinedPair],
        elapsed: float,
        worker: str,
        resumed: bool = False,
    ) -> None:
        self.completed[item.lo] = _Done(
            lo=item.lo,
            hi=item.hi,
            results=results,
            quarantined=quarantined,
            elapsed=elapsed,
            worker=worker,
            resumed=resumed,
        )
        if self.journal is not None and not resumed:
            self.journal.record(
                item.lo,
                item.hi,
                item.checksum,
                results,
                [entry.to_dict() for entry in quarantined],
            )
            self.counters.checkpoints_written += 1

    # -- final assembly -----------------------------------------------------

    def assemble(self, telemetry: BatchTelemetry) -> ResilientBatchResult:
        batch = ResilientBatchResult()
        cursor = 0
        for index, lo in enumerate(sorted(self.completed)):
            done = self.completed[lo]
            if done.lo != cursor:
                raise RuntimeError(
                    f"resilient engine lost coverage: gap before pair "
                    f"{done.lo} (have up to {cursor})"
                )
            cursor = done.hi
            batch.results.extend(done.results)
            for result in done.results:
                batch.stats.merge(result.stats)
            batch.quarantined.extend(done.quarantined)
            telemetry.shards.append(
                ShardTelemetry(
                    index=index,
                    pairs=len(done.results),
                    wall_seconds=done.elapsed,
                    worker=done.worker,
                )
            )
        if cursor != self._next_lo:
            raise RuntimeError(
                f"resilient engine lost coverage: completed {cursor} of "
                f"{self._next_lo} pairs"
            )
        batch.ledger = [
            self.ledger[fault_id] for fault_id in sorted(self.ledger)
        ]
        telemetry.resilience = self.counters
        batch.telemetry = telemetry
        return batch


def align_batch_resilient(
    aligner: Aligner,
    pairs: Iterable[PairLike],
    *,
    workers: int = 1,
    shard_size: Optional[int] = None,
    traceback: bool = True,
    validate: bool = False,
    cross_check: bool = False,
    max_retries: Optional[int] = None,
    shard_timeout: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    journal_meta: Optional[dict] = None,
) -> ResilientBatchResult:
    """Align a batch under supervision: deadlines, retries, quarantine.

    A healthy run returns results, stats and ordering byte-identical to
    :func:`repro.align.batch.align_batch` run serially; so does a run
    whose faults are all transient (each planned fault fires at most
    once, the struck attempts are retried on healthy hardware).

    Args:
        workers: pool worker processes, and so the most attempts in
            flight (1 = supervised inline execution with the same
            retry/degradation semantics).
        shard_size: pairs per shard (default ``DEFAULT_SHARD_SIZE``).
        cross_check: independently verify every result — BPM score
            comparison, alignment replay validation, and (for tracing
            GMX aligners) the static program verifier.  This is the
            detection layer for silent compute corruption.
        max_retries: attempts after the first, per work item (default
            :class:`RetryPolicy`'s), with its seeded exponential backoff.
        shard_timeout: per-attempt deadline in seconds.  A process-mode
            attempt past it is terminated with its pool, which is rebuilt;
            inline attempts are rejected after the fact.  Defaults to
            :data:`DEFAULT_CHAOS_TIMEOUT` when a fault plan is present.  A
            successful shard slower than half of it counts as *slow*.
        fault_plan: planned faults to inject (chaos campaigns).
        checkpoint: journal path for checkpoint/resume
            (:mod:`.checkpoint`); an existing compatible journal is
            resumed from automatically.
        journal_meta: extra provenance merged into the journal header —
            callers whose work depends on more than the aligner and
            traceback flag (e.g. the stream pipeline's chunk geometry)
            add it here so a journal written under different parameters
            is rejected on resume instead of silently replayed.

    Returns:
        A :class:`ResilientBatchResult`; ``telemetry.resilience`` holds
        the :class:`~repro.align.base.ResilienceCounters`, ``ledger``
        accounts for every planned fault, and ``quarantined`` lists any
        pairs the degradation chain gave up on.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if shard_size is None:
        shard_size = DEFAULT_SHARD_SIZE
    policy = (
        RetryPolicy() if max_retries is None
        else RetryPolicy(max_retries=max_retries)
    )
    if policy.max_retries < 0:
        raise ValueError(
            f"max_retries must be >= 0, got {policy.max_retries}"
        )
    if shard_timeout is None and fault_plan is not None:
        shard_timeout = DEFAULT_CHAOS_TIMEOUT

    pickling_failure = _pickling_failure(aligner) if workers > 1 else None
    journal = None
    if checkpoint is not None:
        from ..serve.cache import aligner_fingerprint

        meta = {
            "aligner": aligner_fingerprint(aligner),
            "traceback": traceback,
            "plan": fault_plan.fingerprint if fault_plan else None,
        }
        if journal_meta:
            overlap = set(meta) & set(journal_meta)
            if overlap:
                raise ValueError(
                    f"journal_meta may not override reserved keys {sorted(overlap)}"
                )
            meta.update(journal_meta)
        journal = CheckpointJournal(checkpoint, meta)

    pool = WorkerPool(1 if pickling_failure else workers)
    inline = not pool.process_mode
    supervisor = _Supervisor(
        aligner,
        iter_shards(pairs, shard_size),
        traceback=traceback,
        validate=validate,
        cross_check=cross_check,
        retry=policy,
        shard_timeout=shard_timeout,
        plan=fault_plan,
        journal=journal,
        inline=inline,
    )

    telemetry = BatchTelemetry(
        workers=workers,
        shard_size=shard_size,
        backend=getattr(getattr(aligner, "backend", None), "name", None),
    )
    telemetry.executor = (
        "resilient-inline" if inline else f"resilient-{pool.method}"
    )
    telemetry.fallback_reason = pickling_failure
    start = time.perf_counter()
    token = dsan.batch_begin()
    try:
        with obs.span("batch.align_resilient", workers=workers):
            _drive(supervisor, pool, aligner)
    finally:
        pool.close()
        dsan.batch_end(token, "align_batch_resilient")
    obs.inc("batch.resilient_runs")
    batch = supervisor.assemble(telemetry)
    telemetry.wall_seconds = time.perf_counter() - start
    return batch


def _make_task(supervisor: _Supervisor, item: _WorkItem) -> _ShardTask:
    supervisor.arm(item)
    return _ShardTask(
        lo=item.lo,
        hi=item.hi,
        pairs=tuple(item.pairs),
        traceback=supervisor.traceback,
        validate=supervisor.validate,
        cross_check=supervisor.cross_check,
        armed=item.armed,
        hang_seconds=supervisor.hang_seconds,
        slow_seconds=supervisor.slow_seconds,
        obs=obs.enabled(),
    )


def _drive(supervisor: _Supervisor, pool: WorkerPool, aligner: Aligner) -> None:
    """Run every shard attempt on ``pool`` until the work is drained.

    At most ``pool.workers`` attempts are in flight — one on an inline
    pool, whose handles are complete when ``submit`` returns — so an
    attempt's deadline starts when the attempt does.
    """
    slots = pool.workers if pool.process_mode else 1
    if (
        not pool.process_mode
        and supervisor.plan is not None
        and _pickling_failure(aligner) is None
    ):
        # Emulate the worker-copy semantics of process mode so injected
        # state never leaks into the caller's aligner.
        aligner = pickle.loads(pickle.dumps(aligner))
    active: List[_Attempt] = []
    while True:
        now = time.monotonic()
        while len(active) < slots:
            item = supervisor.next_ready(now)
            if item is None:
                break
            if not supervisor.try_resume(item):
                task = _make_task(supervisor, item)
                active.append(_Attempt(item, task).submit(pool, aligner))
        if not active:
            if supervisor.drained():
                return
            time.sleep(min(0.05, supervisor.next_ready_in(now) or 0.001))
            continue
        progressed = False
        for attempt in list(active):
            outcome = _collect(pool, supervisor.shard_timeout, attempt)
            if outcome is None:
                continue
            active.remove(attempt)
            for other in active:
                # A rebuild took the pool down under this attempt before it
                # replied: rerun it with the same armed faults, uncharged.
                if (
                    other.handle.generation != pool.generation
                    and not other.handle.ready()
                ):
                    other.submit(pool, aligner)
            supervisor.handle(attempt.item, outcome)
            progressed = True
        if not progressed:
            time.sleep(0.002)


def _collect(pool: WorkerPool, timeout: Optional[float], attempt: _Attempt):
    """One look at an attempt in flight: its outcome, or None while it runs.

    A missed hard deadline rebuilds the pool, since terminating the late
    worker takes its siblings down.  An inline attempt has finished by
    the time it is looked at, so a late one fails its soft deadline.
    """
    shard = f"shard [{attempt.task.lo},{attempt.task.hi})"
    try:
        outcome = pickle.loads(pool.wait(attempt.handle, timeout=0))
    except TimeoutError:
        if timeout is None or time.monotonic() - attempt.started <= timeout:
            return None
        pool.rebuild()
        return _ShardFailure(
            "timeout", f"{shard} exceeded the {timeout}s deadline"
        )
    except WorkerLost:
        return _ShardFailure("crash", f"{shard} lost its worker")
    except Exception as exc:  # noqa: BLE001 - an error that crossed anyway
        return _classify(exc)
    if pool.process_mode or not isinstance(outcome, _ShardReply):
        return outcome
    outcome.worker = "inline"
    if timeout is not None and outcome.elapsed > timeout:
        return _ShardFailure(
            "timeout",
            f"{shard} took {outcome.elapsed:.3f}s (soft deadline {timeout}s)",
        )
    return outcome
