"""Sharded parallel batch execution (inter-sequence parallelism, §7.2).

The paper scales GMX across pairs, not within one alignment: 16 cores,
each with a private GMX unit, split a read set and meet only at the memory
controllers.  This module is the software analogue for the functional
harness: :func:`iter_shards` cuts any pair iterable into shards,
:class:`WorkerPool` runs each shard (:func:`_align_shard`) in a worker
process or inline, and :class:`BatchTelemetry` records how the run went.
:func:`repro.align.batch.align_batch` is the one plain entry point over
it: it submits every shard with :meth:`WorkerPool.submit` and merges the
replies from :meth:`WorkerPool.wait` in input order, so a parallel run is
observationally identical to a serial one (same results, same stats,
same ordering).

Three properties the engine guarantees:

* **Determinism** — results and merged stats are byte-identical for any
  worker count, including the in-process fallback.  Shards are merged in
  input order and every stat reduction is order-insensitive.
* **Streaming** — the input may be a generator (e.g.
  :func:`repro.workloads.seqio.iter_pairs`); shards are cut lazily with
  ``islice``, only as the window of shards in flight drains, and the
  dataset is never materialised in the parent.
* **Graceful degradation** — ``workers=1``, a non-picklable aligner, or a
  platform without ``fork``/``spawn`` all fall back to a deterministic
  in-process execution of the same sharded code path.

:meth:`WorkerPool.wait` is the one place that decides a worker was lost,
for plain batches and every other caller alike.  A plain batch fails fast
with :class:`WorkerLost`; the supervised engine
(:func:`repro.resilience.align_batch_resilient`) retries the shard.

One executor rule (:func:`_executor_rule`) picks every pool: inline for
one worker or an aligner that cannot be pickled, whose failure is the
``fallback_reason``, and :func:`executor_label` names the outcome the
same way for every owner.  The service and the dist node keep that pool
for their lifetime (:func:`owned_pool`).  A batch of either engine
(:func:`batch_pool`) otherwise runs on a pool of its own when the
aligner's pickle names ``__main__`` (see below), and on this process's
warm pool, checked out for the batch, in every other case
(:func:`shared_pool`).  A long-lived process that runs pooled batches
again and again therefore pays for forking, starting and closing workers
once, not per batch; a one-shot ``repro align --pairs --workers N`` runs
one batch and gains nothing.  The warm pool's lifecycle:

* **One pool per process** — the first pooled batch starts it.  The next
  batch with the same worker count reuses it; a batch with another count
  closes it and starts its own.
* **Check-out** — a batch takes the pool out of the table under one lock
  and puts it back when it ends cleanly, so concurrent batches never
  share workers.  A batch that finds the table empty starts a pool of its
  own; a pool that comes back to a filled table closes.
* **A batch that raises** (a lost worker, an aligner error, a broken
  input stream, ``KeyboardInterrupt``, a journal error) closes its pool,
  so it leaves no worker behind, and the next batch starts a fresh one.
  A resilient batch's missed deadline rebuilds the checked-out pool
  instead, and a clean end puts the rebuilt pool back.
* **Owner** — the table is keyed by the pid that started the pool: a
  forked child never uses or closes its parent's pool, it starts its own.
* **Exit** — the idle pool's workers are daemonic, and multiprocessing's
  own exit handler terminates them: none outlives the process.
* **``__main__``** — an aligner whose pickle names ``__main__`` (a class
  from a script, REPL or notebook) runs on a pool of its own for the
  batch.  Warm workers resolve that name in their copy of ``__main__``,
  made when they forked, so they would run a class redefined since as it
  was then, or not find one defined since.

Aligner and pairs travel with every shard, but module state the parent
changes in an imported module after the pool started (a monkeypatched
method, a global switch, ``importlib.reload``) is not seen by the warm
workers; :func:`close_shared_pool` after such a change makes the next
batch start a fresh pool.

Every run records a :class:`BatchTelemetry`: wall time, per-shard timings,
worker utilisation, and pairs/second.  These are *measured host* numbers —
they validate the shape of the paper's Figure-12 scaling claims (see
:func:`repro.sim.multicore.measured_scaling`) but never replace the
modelled cycle counts, which remain the source of all reported figures.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import pickle
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    ContextManager,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import runtime as obs
from .base import Aligner, AlignmentResult, KernelStats, ResilienceCounters

#: Accepted pair forms: (pattern, text) tuples or SequencePair-like objects.
PairLike = Union[Tuple[str, str], "object"]

#: Pairs per shard when the caller does not choose (big enough to amortise
#: pickling/IPC, small enough to load-balance across a 16-worker pool).
DEFAULT_SHARD_SIZE = 16


@dataclass(frozen=True)
class ShardTelemetry:
    """Measured execution of one shard.

    Attributes:
        index: shard position in input order.
        pairs: pairs aligned by the shard.
        wall_seconds: shard execution time inside its worker.
        worker: executing worker label (``pid:<n>``, or ``inline``).
    """

    index: int
    pairs: int
    wall_seconds: float
    worker: str


@dataclass
class BatchTelemetry:
    """Measured execution profile of one batch-alignment run.

    Wall-clock here is *host measurement* — it characterises the harness's
    own parallel execution (the paper's inter-sequence parallelism made
    real), not the modelled hardware.  Modelled numbers stay with
    :meth:`~repro.align.batch.BatchResult.modelled_throughput`.

    Attributes:
        workers: worker processes requested (1 = in-process).
        shard_size: maximum pairs per shard.
        wall_seconds: end-to-end batch wall time in the parent.
        executor: how shards ran (:func:`executor_label`: ``serial``,
            ``inline``, ``fork``, ``spawn``, ``forkserver``, or their
            ``resilient-*`` variants).
        shards: per-shard measurements, in input order.
        fallback_reason: why a multi-worker run degraded to the in-process
            executor (e.g. the concrete pickling failure of the aligner);
            ``None`` when no fallback happened.
        resilience: fault/recovery accounting when the batch ran through
            :mod:`repro.resilience`; ``None`` for plain runs.
        backend: kernel backend name of the aligner (see
            :mod:`repro.align.backends`); ``None`` for aligners without a
            tile kernel.
    """

    workers: int
    shard_size: int
    wall_seconds: float = 0.0
    executor: str = "serial"
    shards: List[ShardTelemetry] = field(default_factory=list)
    fallback_reason: Optional[str] = None
    resilience: Optional[ResilienceCounters] = None
    backend: Optional[str] = None

    @property
    def shard_count(self) -> int:
        """Number of shards executed."""
        return len(self.shards)

    @property
    def pairs(self) -> int:
        """Total pairs across all shards."""
        return sum(shard.pairs for shard in self.shards)

    @property
    def pairs_per_second(self) -> float:
        """Measured end-to-end pairs/second, total on every input.

        0.0 for an empty batch; ``inf`` for a non-empty batch whose wall
        time measured as zero (clock granularity on an instant batch) —
        never a ``ZeroDivisionError``.
        """
        if not self.pairs:
            return 0.0
        if self.wall_seconds <= 0:
            return float("inf")
        return self.pairs / self.wall_seconds

    @property
    def busy_seconds(self) -> float:
        """Total worker-occupied time summed over shards."""
        return sum(shard.wall_seconds for shard in self.shards)

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool kept busy (busy / workers·wall).

        1.0 means perfect overlap; serial execution reports ~1.0 by
        construction; parallel runs lose utilisation to IPC, imbalance and
        pool startup.  0.0 for an empty batch.
        """
        if self.wall_seconds <= 0 or self.workers < 1:
            return 0.0
        return min(1.0, self.busy_seconds / (self.workers * self.wall_seconds))

    def speedup_vs(self, other: "BatchTelemetry") -> float:
        """Wall-clock speedup of this run relative to ``other``.

        Total on zero-time telemetry: two instant runs compare as 1.0, an
        instant run beats any timed run by ``inf``, and a timed run against
        an instant one reports 0.0 — no division by zero on any input.
        """
        if self.wall_seconds <= 0:
            return float("inf") if other.wall_seconds > 0 else 1.0
        return other.wall_seconds / self.wall_seconds


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


def iter_shards(
    pairs: Iterable[PairLike], shard_size: int
) -> Iterator[List[Tuple[str, str]]]:
    """Lazily cut a pair iterable into shards of normalised tuples.

    Consumes the input incrementally (``islice``), so generators and
    streaming readers are never materialised; each yielded shard holds
    plain ``(pattern, text)`` tuples, the cheapest payload to pickle.  A
    bad ``shard_size`` raises at the call, before a batch starts a pool.
    """
    if shard_size < 1:
        raise ValueError(f"shard size must be positive, got {shard_size}")
    iterator = iter(pairs)
    return iter(
        lambda: [_as_pair(item) for item in itertools.islice(iterator, shard_size)],
        [],
    )


def pair_checksum(pattern: str, text: str) -> int:
    """Order-sensitive checksum of one pair (CRC32 over both sequences)."""
    return zlib.crc32(pattern.encode() + b"\x00" + text.encode())


def shard_checksum(pairs: Sequence[Tuple[str, str]]) -> int:
    """Order-sensitive checksum of a shard's pairs (folded pair CRCs)."""
    checksum = 0
    for pattern, text in pairs:
        checksum = (
            checksum * 1000003 + pair_checksum(pattern, text)
        ) & 0xFFFFFFFF
    return checksum


#: A worker's observability freight: drained span dicts + metrics payload.
ObsBuffers = Tuple[List[dict], Optional[dict]]


@dataclass
class _Capture:
    """A shard's obs buffers, filled when its :func:`_captured` block ends."""

    buffers: ObsBuffers = field(default_factory=lambda: ([], None))


@contextlib.contextmanager
def _captured(want_obs: bool) -> Iterator[_Capture]:
    """Capture what one shard body records, for its reply.

    A shard runs in a worker process or in the parent (inline executors).
    In a worker asked for observability (``want_obs``, sent by an enabled
    parent), the spans and metrics the block records are captured locally
    and come back as picklable buffers (see
    :meth:`repro.obs.SpanRecorder.drain`) for the parent to absorb with
    :func:`_absorb_obs_buffers`.  In the parent, recording already
    targets the parent's recorder, and the buffers stay empty.
    """
    capture = _Capture()
    if want_obs and not obs.owns_recorder():
        with obs.capture() as (recorder, registry):
            yield capture
        capture.buffers = (recorder.drain(), registry.snapshot().to_dict())
    else:
        yield capture


def _run_shard_pairs(
    aligner: Aligner,
    shard: List[Tuple[str, str]],
    traceback: bool,
    validate: bool,
) -> Tuple[List[AlignmentResult], KernelStats]:
    results: List[AlignmentResult] = []
    with obs.span("shard.align", pairs=len(shard)):
        for pattern, text in shard:
            result = aligner.align(pattern, text, traceback=traceback)
            if validate and result.alignment is not None:
                result.alignment.validate()
            results.append(result)
    obs.inc("batch.shards")
    return results, KernelStats.merged(result.stats for result in results)


def _align_shard(
    payload: Tuple[Aligner, List[Tuple[str, str]], bool, bool, bool],
) -> Tuple[List[AlignmentResult], KernelStats, float, str, ObsBuffers]:
    """Worker body: align one shard and pre-merge its stats.

    Module-level so it pickles under every multiprocessing start method.
    The last payload element asks the worker to capture observability for
    an enabled parent (see :func:`_captured`).
    """
    aligner, shard, traceback, validate, want_obs = payload
    start = time.perf_counter()
    with _captured(want_obs) as capture:
        results, stats = _run_shard_pairs(aligner, shard, traceback, validate)
    elapsed = time.perf_counter() - start
    return results, stats, elapsed, f"pid:{os.getpid()}", capture.buffers


def _pickling_failure(aligner: Aligner) -> Optional[str]:
    """Why ``aligner`` cannot ship to worker processes (None when it can).

    Only the concrete failures ``pickle.dumps`` raises on unpicklable
    objects are treated as "fall back inline": ``PicklingError`` (the
    documented failure), ``TypeError`` (lambdas, locks, open files), and
    ``AttributeError`` (local classes / lost module references).  Anything
    else — a crash inside ``__reduce__``, say — is a real bug and
    propagates to the caller instead of being silently swallowed.
    """
    try:
        pickle.dumps(aligner)
        return None
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        return f"{type(aligner).__name__} is not picklable: {exc}"


def _names_main(aligner: Aligner) -> bool:
    """Whether ``aligner``'s pickle names an object of ``__main__``."""
    return b"__main__" in pickle.dumps(aligner)


def _resolve_start_method(preferred: Optional[str]) -> Optional[str]:
    import multiprocessing

    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} unavailable (have {available})"
            )
        return preferred
    # fork is cheapest and inherits the aligner for free; spawn is the
    # portable fallback (macOS/Windows default).
    for method in ("fork", "spawn", "forkserver"):
        if method in available:
            return method
    return None


class PoolError(RuntimeError):
    """Raised on :class:`WorkerPool` lifecycle misuse (e.g. use after close)."""


class WorkerLost(PoolError):
    """A submitted task's reply can never come: its worker died, or its
    pool was rebuilt or closed, before the task replied."""


#: Seconds between liveness checks while :meth:`WorkerPool.wait` blocks.
_LOSS_POLL_SECONDS = 0.05


class _PoolHandle:
    """A process-mode task handle: the pool's ``AsyncResult`` plus the pool
    generation and worker pids at submit time — the evidence
    :meth:`WorkerPool.wait` checks to tell a lost task from a slow one."""

    __slots__ = ("_result", "generation", "pids")

    def __init__(self, result, generation: int, pids: List[int]) -> None:
        self._result = result
        self.generation = generation
        self.pids = frozenset(pids)

    def get(self, timeout: Optional[float] = None):
        return self._result.get(timeout)

    def ready(self) -> bool:
        return self._result.ready()

    def wait(self, timeout: Optional[float] = None) -> None:
        self._result.wait(timeout)


class _InlineHandle:
    """Completed-on-construction stand-in for a pool ``AsyncResult``.

    Inline pools execute the work in the submitting thread; the handle
    then answers ``get``/``ready`` with the stored outcome, so callers
    drive both executors through one interface.  Inline pools never
    rebuild, so every inline handle sits in generation 0.
    """

    __slots__ = ("_value", "_error")
    generation = 0

    def __init__(self, fn: Callable, payload) -> None:
        self._value = None
        self._error: Optional[BaseException] = None
        try:
            self._value = fn(payload)
        except Exception as exc:  # noqa: BLE001 - re-raised from get()
            self._error = exc

    def get(self, timeout: Optional[float] = None):
        if self._error is not None:
            raise self._error
        return self._value

    def ready(self) -> bool:
        return True


def _pool_worker_init() -> None:
    """Worker-process initializer: leave SIGINT to the parent.

    A foreground Ctrl-C is delivered to the whole process group; without
    this, every pool worker dies printing its own KeyboardInterrupt
    traceback while the parent is already running its orderly shutdown
    (which terminates the workers anyway).
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # A pool forked while the parent was recording outlives that recording:
    # spans kept in the inherited recorder copy would never reach the
    # parent, only grow.  Shards that should be traced capture their own.
    obs.disable()


@functools.lru_cache(maxsize=None)
def _pool_class():
    """``multiprocessing.Pool`` whose ``terminate()`` survives a worker
    killed while idle or while sending its reply (built lazily:
    ``import repro`` stays free of multiprocessing)."""
    from multiprocessing.pool import Pool

    class _Pool(Pool):
        @classmethod
        def _terminate_pool(cls, taskqueue, inqueue, outqueue, *rest):
            # A worker SIGKILLed while sending its reply never releases
            # the result queue's write lock, and the stock teardown puts
            # its sentinel under that lock.  A live sender holds it for
            # a moment, so one still held after a second is that orphan.
            lock = outqueue._wlock  # None where pipe writes are atomic
            if lock is not None:
                lock.acquire(timeout=1.0)
                with contextlib.suppress(ValueError):  # released meanwhile
                    lock.release()
            super()._terminate_pool(taskqueue, inqueue, outqueue, *rest)

        @staticmethod
        def _help_stuff_finish(inqueue, task_handler, size):
            # An idle worker waits for its next task holding the task
            # queue's read lock.  One SIGKILLed there never releases it:
            # the stock version then waits forever, while no worker can
            # read past the orphaned lock, so draining without it is safe.
            inqueue._rlock.acquire(timeout=1.0)
            while task_handler.is_alive() and inqueue._reader.poll():
                inqueue._reader.recv()
                time.sleep(0)

    return _Pool


class WorkerPool:
    """A reusable worker-pool handle: create once, submit many, close once.

    Every shard executor in the package runs on this class, chosen by
    one rule: both batch engines check this process's warm pool out
    (:func:`batch_pool`, :func:`shared_pool`), and the alignment service
    and the dist node each keep a pool of their own from startup
    (:func:`owned_pool`), reused across requests.  Workers
    start from the parent as it is when the pool starts (or rebuilds):
    what the parent changes later in its own module state is not seen by
    them, while the aligner and pairs of every task are pickled afresh
    (by reference to their classes, which the workers look up in their
    own copy of each module).  The handle wraps a
    ``multiprocessing.Pool`` when a start method is available and
    degrades to a deterministic in-process executor otherwise
    (``workers=1``, or a platform without ``fork``/``spawn``).

    Lifecycle: :meth:`start` (optional — first submit warms lazily) →
    :meth:`submit` → :meth:`wait` → :meth:`rebuild` after a missed
    deadline → :meth:`close`.  ``generation`` counts pool (re)creations,
    so callers can tell a warm reuse from a rebuild.  :meth:`submit` is
    the only way a task is dispatched and :meth:`wait` the one place that
    decides a worker was lost: a plain batch fails fast on the loss, a
    supervised batch retries the shard.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers
        self._method = (
            _resolve_start_method(start_method) if workers > 1 else None
        )
        self._pool = None
        self._lock = threading.Lock()
        self.generation = 0
        self.rebuilds = 0
        self._closed = False

    @property
    def method(self) -> Optional[str]:
        """Multiprocessing start method (``None`` for the inline executor)."""
        return self._method

    @property
    def process_mode(self) -> bool:
        """True when shards run in worker processes (not inline)."""
        return self._method is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_pool(self):
        if self._closed:
            raise PoolError("worker pool is closed")
        if self.process_mode and self._pool is None:
            import multiprocessing

            self._pool = _pool_class()(
                processes=self.workers,
                initializer=_pool_worker_init,
                context=multiprocessing.get_context(self._method),
            )
            self.generation += 1
        return self._pool

    def start(self) -> "WorkerPool":
        """Warm the pool now (idempotent); returns self for chaining."""
        with self._lock:
            self._ensure_pool()
        return self

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (empty for inline pools)."""
        with self._lock:
            return self._pids()

    def _pids(self) -> List[int]:
        if self._pool is None:
            return []
        procs = list(getattr(self._pool, "_pool", None) or [])
        return [proc.pid for proc in procs if proc.pid is not None]

    def submit(self, fn: Callable, payload):
        """Dispatch ``fn(payload)`` asynchronously; returns a result handle.

        The handle answers ``get(timeout)`` / ``ready()`` and remembers the
        pool generation and worker pids at submit time, so :meth:`wait`
        can tell whether its worker was lost.  Inline pools run ``fn``
        right here: their handle is complete when ``submit`` returns.
        ``fn`` must be a module-level callable (it crosses the pickle
        boundary).
        """
        with self._lock:
            pool = self._ensure_pool()
            if pool is not None:
                return _PoolHandle(
                    pool.apply_async(fn, (payload,)),
                    self.generation,
                    self._pids(),
                )
        return _InlineHandle(fn, payload)

    def wait(self, handle, timeout: Optional[float] = None):
        """Return a :meth:`submit` handle's reply; re-raise the task's error.

        Raises :class:`WorkerLost` when the reply can never come: the pool
        was rebuilt or closed since the submit, or a worker alive at
        submit time has died (the pool replaces the process, but its task
        is gone).  The first handle found lost rebuilds the pool, since
        a worker that died idle takes the task queue's lock with it.  A
        slow task whose workers all live is waited for however long it
        runs; ``timeout`` bounds the wait instead (``0`` polls) and raises
        ``TimeoutError`` when it passes.  Inline handles are complete, so
        they never time out and are never lost.
        """
        end = None if timeout is None else time.monotonic() + timeout
        while not handle.ready():
            alive = self.worker_pids()
            if (
                handle.generation != self.generation
                or not alive
                or not handle.pids <= set(alive)
            ):
                if handle.ready():
                    break  # the reply landed as the worker went
                with self._lock:
                    if handle.generation == self.generation:
                        self._rebuild()
                raise WorkerLost(
                    f"pool generation {handle.generation} lost a worker "
                    f"before the task replied"
                )
            left = _LOSS_POLL_SECONDS
            if end is not None:
                left = min(left, end - time.monotonic())
                if left <= 0:
                    raise TimeoutError(f"no reply within {timeout}s")
            handle.wait(left)
        return handle.get(0)

    def rebuild(self) -> None:
        """Tear the current pool down and start a fresh one.

        The recovery path for a late worker: terminating it takes its
        siblings down too.  In-flight handles of the old pool are
        abandoned; :meth:`wait` reports them lost unless they already
        replied.  (A lost worker needs no call here: :meth:`wait`
        rebuilds the pool itself.)
        """
        with self._lock:
            self._rebuild()

    def _rebuild(self) -> None:
        if self._pool is not None:
            self._teardown()
            self.rebuilds += 1
        if not self._closed:
            self._ensure_pool()

    def _teardown(self) -> None:
        pool, self._pool = self._pool, None
        pool.terminate()
        pool.join()

    def close(self) -> None:
        """Shut the pool down (idempotent); further submits raise."""
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._teardown()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: This process's warm pool for :func:`shared_pool`, keyed by the pid
#: that started it: a forked child inherits its parent's entry and leaves
#: it alone.
_WARM_POOLS: Dict[int, WorkerPool] = {}
_WARM_LOCK = threading.Lock()


def _reset_lock_after_fork() -> None:
    # A child forked while another thread held the lock would inherit it
    # held.  The child never touches its parent's entry (other pid).
    global _WARM_LOCK
    _WARM_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX; no fork, no inherited lock
    os.register_at_fork(after_in_child=_reset_lock_after_fork)


@contextlib.contextmanager
def shared_pool(workers: int) -> Iterator[WorkerPool]:
    """Check this process's warm pool out for one batch of ``workers``.

    The pool in the table is reused when its worker count matches and
    closed otherwise; an empty table starts a new pool.  A batch that
    ends cleanly puts its pool back (or closes it, when another batch put
    one back first); a batch that raises closes it.  The module docstring
    lists the whole lifecycle.
    """
    pid = os.getpid()
    with _WARM_LOCK:
        pool = _WARM_POOLS.pop(pid, None)
    if pool is not None and pool.workers != workers:
        pool.close()
        pool = None
    if pool is None:
        pool = WorkerPool(workers).start()
    try:
        yield pool
    except BaseException:
        pool.close()
        raise
    with _WARM_LOCK:
        kept = _WARM_POOLS.setdefault(pid, pool) is pool
    if not kept:
        pool.close()


def _executor_rule(aligner: Aligner, workers: int) -> Tuple[str, Optional[str]]:
    """The one executor rule: ``(placement, fallback_reason)``, where the
    placement is ``inline``, ``own`` (the pickle names ``__main__``) or
    ``warm`` (see the module docstring)."""
    if workers <= 1:
        return "inline", None
    reason = _pickling_failure(aligner)
    if reason is not None:
        return "inline", reason
    return ("own" if _names_main(aligner) else "warm"), None


def executor_label(workers: int, pool: WorkerPool) -> str:
    """How ``pool`` runs a request for ``workers`` workers: ``serial`` for
    one worker, ``inline`` for more that run in process (the executor
    rule's fallback), the start method otherwise."""
    if pool.method is not None:
        return pool.method
    return "serial" if workers == 1 else "inline"


def owned_pool(aligner: Aligner, workers: int) -> Tuple[WorkerPool, Optional[str]]:
    """A pool its caller starts, keeps and closes, and its fallback reason."""
    _placement, reason = _executor_rule(aligner, workers)
    return WorkerPool(1 if reason else workers), reason


def batch_pool(
    aligner: Aligner, workers: int
) -> Tuple[ContextManager[WorkerPool], Optional[str]]:
    """The pool one batch runs in (a context manager: an ``own`` pool
    closes with the batch), and its fallback reason."""
    placement, reason = _executor_rule(aligner, workers)
    if placement == "warm":
        return shared_pool(workers), None
    pool = WorkerPool(1 if reason else workers)
    return (pool if placement == "own" else contextlib.nullcontext(pool)), reason


def close_shared_pool() -> None:
    """Close this process's warm pool, if any: the next batch starts anew."""
    with _WARM_LOCK:
        pool = _WARM_POOLS.pop(os.getpid(), None)
    if pool is not None:
        pool.close()


def shared_pool_pids() -> FrozenSet[int]:
    """PIDs of the workers of this process's warm pool while it is idle."""
    with _WARM_LOCK:
        pool = _WARM_POOLS.get(os.getpid())
    return frozenset(pool.worker_pids() if pool is not None else ())


def _absorb_obs_buffers(buffers: ObsBuffers) -> None:
    """Merge a worker's drained spans/metrics into the parent's recorders."""
    span_buffer, metrics_payload = buffers
    if not obs.enabled():
        return
    if span_buffer:
        obs.recorder().absorb(span_buffer)
    if metrics_payload:
        from ..obs.metrics import snapshot_from_dict

        obs.metrics().absorb(snapshot_from_dict(metrics_payload))
