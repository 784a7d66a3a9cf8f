"""Alignment-as-a-service core: warm pool, coalescing, cache, admission.

:class:`AlignmentService` is the transport-independent heart of
``repro serve`` — the HTTP layer (:mod:`repro.serve.http`) is a thin JSON
facade over it, and tests/benchmarks drive it directly.  One service owns:

* a **warm** :class:`~repro.align.parallel.WorkerPool`, created once at
  startup and reused across every request — no per-request pool spin-up
  (the latency win ``repro bench serve`` measures);
* a :class:`~repro.serve.coalescer.Coalescer` that sends a miss to an
  idle worker at once and packs requests into shards while none is idle;
* a content-addressed :class:`~repro.serve.cache.AlignmentCache` answering
  repeated pairs without recomputation, plus **in-flight deduplication**:
  a request identical to one already being computed attaches to the same
  computation instead of dispatching again;
* **admission control** — at most ``max_inflight`` pairs queued or
  executing; past that, :meth:`submit` raises
  :class:`ServiceSaturatedError` carrying a ``retry_after`` hint (the
  HTTP layer turns it into ``429`` + ``Retry-After``), so load sheds
  instead of queueing unboundedly;
* **crash recovery** — a shard the pool reports lost (its worker died
  before replying: the pool replaces the process, but the reply never
  arrives, see :meth:`~repro.align.parallel.WorkerPool.wait`) is
  re-executed inline, so the request still completes with correct
  output.

Results are **byte-identical to serial** :func:`~repro.align.batch.align_batch`
— same scores, CIGARs, and per-pair :class:`~repro.align.base.KernelStats`
— whether they came from a cold compute, a coalesced shard, the cache, or
the crash-recovery path.  The service counts its own work (requests,
cache, queue, coalescing, pool) and never arms :mod:`repro.obs`: only a
caller that records (an outer ``obs.capture()``, ``repro profile``) makes
shards ship their worker span/metric buffers back, absorbed on every
shard completion, so a traced request keeps its worker spans and
``/metrics`` carries the caller's registry.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..align.base import Aligner, KernelStats, aligner_fingerprint
from ..align.full_gmx import FullGmxAligner
from ..align.parallel import (
    WorkerLost,
    _absorb_obs_buffers,
    _align_shard,
    _InlineHandle,
    executor_label,
    owned_pool,
)
from ..obs import runtime as obs
from .cache import AlignmentCache, CachedAlignment, pair_key
from .coalescer import Coalescer, PendingPair


class ServeError(RuntimeError):
    """Root of the serving layer's error hierarchy."""


class ServiceSaturatedError(ServeError):
    """Admission control rejected a request: too many pairs in flight.

    Attributes:
        retry_after: seconds after which the client should retry (the
            HTTP layer's ``Retry-After`` header).
    """

    def __init__(self, inflight: int, limit: int, retry_after: float) -> None:
        super().__init__(
            f"service saturated: {inflight} pairs in flight "
            f"(limit {limit}); retry after {retry_after:.2f}s"
        )
        self.retry_after = retry_after


class ServiceClosedError(ServeError):
    """The service is not accepting requests (not started, or closed)."""


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one served alignment request.

    Functionally identical to the matching
    :class:`~repro.align.base.AlignmentResult` fields, plus provenance:
    ``cached`` is True when the answer came from the result cache or from
    attaching to an identical in-flight computation (no new kernel work
    was done for this request).
    """

    score: int
    cigar: str
    exact: bool
    text_start: int
    text_end: Optional[int]
    stats: KernelStats
    cached: bool = False

    def to_dict(self) -> dict:
        """JSON-ready form (the ``/align`` response row)."""
        return {
            "score": self.score,
            "cigar": self.cigar,
            "exact": self.exact,
            "text_start": self.text_start,
            "text_end": self.text_end,
            "cached": self.cached,
        }


@dataclass
class ServeConfig:
    """Tuning knobs of one :class:`AlignmentService`.

    Attributes:
        workers: worker processes in the warm pool (1 = inline execution,
            the portable fallback).
        coalesce_max_pairs: the most pairs one coalesced batch holds.  A
            batch is cut as soon as a pool worker is free, so batches
            grow only while every worker is busy.
        cache_size: result-cache capacity in entries (0 disables caching).
        max_inflight: admission limit — pairs queued or executing; beyond
            it, submissions are rejected with 429/``Retry-After``.
        request_timeout: seconds a blocking helper waits for one request.
        retry_after: the ``Retry-After`` hint handed to rejected clients.
        rate_limit_rps: per-client token-bucket refill rate in pairs per
            second (0 disables rate limiting).
        rate_limit_burst: per-client bucket capacity in pairs (0 means
            ``max(coalesce_max_pairs, rate_limit_rps)``).
    """

    workers: int = 1
    coalesce_max_pairs: int = 16
    cache_size: int = 4096
    max_inflight: int = 256
    request_timeout: float = 60.0
    retry_after: float = 0.25
    rate_limit_rps: float = 0.0
    rate_limit_burst: float = 0.0


#: Collector-queue sentinel (shutdown).
_STOP = object()


@dataclass
class _InFlightShard:
    """One dispatched shard awaiting collection."""

    handle: object
    batch: List[PendingPair]
    payload: tuple


class AlignmentService:
    """Long-lived alignment service: submit pairs, receive futures.

    Use as a context manager, or call :meth:`start` / :meth:`close`
    explicitly::

        with AlignmentService(FullGmxAligner(), config=ServeConfig(workers=4)) as svc:
            result = svc.align_pair("ACGT", "ACGA")
    """

    def __init__(
        self,
        aligner: Optional[Aligner] = None,
        *,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.aligner = aligner if aligner is not None else FullGmxAligner()
        self.config = config if config is not None else ServeConfig()
        if self.config.max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {self.config.max_inflight}"
            )
        if self.config.coalesce_max_pairs < 1:
            raise ServeError(
                f"coalesce_max_pairs must be >= 1, got {self.config.coalesce_max_pairs}"
            )
        # An aligner that cannot cross the process boundary is served
        # inline rather than failing every request at dispatch.
        self.pool, self.fallback_reason = owned_pool(
            self.aligner, self.config.workers
        )
        self.executor = executor_label(self.config.workers, self.pool)
        self.cache = AlignmentCache(self.config.cache_size)
        # Imported here, not at module top: ratelimit derives its error
        # from ServeError, so the modules would import-cycle otherwise.
        from .ratelimit import RateLimiter

        self.rate_limiter: Optional[RateLimiter] = None
        if self.config.rate_limit_rps > 0:
            burst = self.config.rate_limit_burst or max(
                float(self.config.coalesce_max_pairs),
                self.config.rate_limit_rps,
            )
            self.rate_limiter = RateLimiter(
                self.config.rate_limit_rps, burst
            )
        self._fingerprint = aligner_fingerprint(self.aligner)
        self.coalescer = Coalescer(
            self._dispatch,
            slots=self.pool.workers,
            max_pairs=self.config.coalesce_max_pairs,
        )
        self._collect_queue: "queue.Queue" = queue.Queue()
        self._collector: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._inflight_pairs = 0
        self._pending: Dict[str, List[Future]] = {}
        self._started = False
        self._closed = False
        self._started_at = 0.0
        # Request accounting (all under self._lock).
        self.pairs_total = 0
        self.pairs_deduped = 0
        self.pairs_computed = 0
        self.pairs_rejected = 0
        self.pairs_failed = 0
        self.shard_recoveries = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "AlignmentService":
        """Warm the pool and start the worker threads."""
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._started:
            return self
        self.pool.start()  # pay pool spin-up once, here, not per request
        self.coalescer.start()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-serve-collector",
            daemon=True,
        )
        self._collector.start()
        self._started = True
        self._started_at = time.monotonic()
        obs.inc("serve.started")
        return self

    def close(self) -> None:
        """Drain in-flight work, stop threads, shut the pool down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._started:
            # Order matters: the coalescer flushes its queue into the
            # collector queue, then the collector drains every in-flight
            # shard before seeing the sentinel (FIFO), then the pool dies.
            self.coalescer.close()
            self._collect_queue.put(_STOP)
            if self._collector is not None:
                self._collector.join()
        self.pool.close()

    def __enter__(self) -> "AlignmentService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def uptime_seconds(self) -> float:
        if not self._started:
            return 0.0
        return time.monotonic() - self._started_at

    @property
    def inflight_pairs(self) -> int:
        with self._lock:
            return self._inflight_pairs

    # -- request path ----------------------------------------------------

    def submit(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> "Future[ServeResult]":
        """Submit one pair; returns a future resolving to a ServeResult.

        Raises:
            ServiceClosedError: the service is not running.
            ServiceSaturatedError: admission control rejected the pair.
            ServeError: the pair is malformed.
        """
        if not self._started or self._closed:
            raise ServiceClosedError("service is not accepting requests")
        if not isinstance(pattern, str) or not isinstance(text, str):
            raise ServeError(
                f"pattern/text must be strings, got "
                f"{type(pattern).__name__}/{type(text).__name__}"
            )
        if not pattern or not text:
            # Reject here (400 at the HTTP layer) instead of letting the
            # aligner raise inside a shard, which would fail the whole
            # coalesced batch — including other clients' pairs.
            raise ServeError("pattern and text must be non-empty")
        future: "Future[ServeResult]" = Future()
        key: Optional[str] = None
        if self.cache.capacity:
            key = pair_key(
                pattern, text,
                fingerprint=self._fingerprint, traceback=traceback,
            )
            entry = self.cache.lookup(key)
            if entry is not None:
                with self._lock:
                    self.pairs_total += 1
                future.set_result(self._from_cached(entry, cached=True))
                return future
        with self._lock:
            self.pairs_total += 1
            if key is not None and key in self._pending:
                # Identical pair already in flight: attach, don't recompute.
                self._pending[key].append(future)
                self.pairs_deduped += 1
                return future
            if self._inflight_pairs + 1 > self.config.max_inflight:
                self.pairs_rejected += 1
                raise ServiceSaturatedError(
                    self._inflight_pairs,
                    self.config.max_inflight,
                    self.config.retry_after,
                )
            self._inflight_pairs += 1
            if key is not None:
                self._pending[key] = []
        entry = PendingPair(
            pattern=pattern, text=text, group=traceback,
            future=future, key=key,
        )
        try:
            self.coalescer.submit(entry)
        except Exception as exc:  # noqa: BLE001 - close() race
            # Roll the admission slot back: leaving it incremented (and the
            # pending record registered) would leak the slot and hang later
            # identical submits on a list that never resolves.
            error = ServiceClosedError("service is shutting down")
            with self._lock:
                self._inflight_pairs -= 1
                waiters = (
                    self._pending.pop(key, []) if key is not None else []
                )
            for waiter in waiters:
                self._reject(waiter, error)
            raise error from exc
        return future

    def align_pair(
        self,
        pattern: str,
        text: str,
        *,
        traceback: bool = True,
        timeout: Optional[float] = None,
    ) -> ServeResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        future = self.submit(pattern, text, traceback=traceback)
        return future.result(
            timeout if timeout is not None else self.config.request_timeout
        )

    def align_pairs(
        self,
        pairs: Iterable[Tuple[str, str]],
        *,
        traceback: bool = True,
        timeout: Optional[float] = None,
    ) -> List[ServeResult]:
        """Submit many pairs, wait for all; results in input order.

        Raises :class:`ServiceSaturatedError` if any submission is
        rejected (already-submitted pairs still complete and warm the
        cache).
        """
        futures = [
            self.submit(pattern, text, traceback=traceback)
            for pattern, text in pairs
        ]
        deadline = (
            timeout if timeout is not None else self.config.request_timeout
        )
        return [future.result(deadline) for future in futures]

    # -- dispatch / collection ------------------------------------------

    def _dispatch(self, batch: List[PendingPair]) -> None:
        """Coalescer callback: ship one packed batch to the pool."""
        shard = [(entry.pattern, entry.text) for entry in batch]
        traceback = bool(batch[0].group)
        payload = (self.aligner, shard, traceback, False, obs.enabled())
        try:
            handle = self.pool.submit(_align_shard, payload)
        except Exception:  # noqa: BLE001 - degrade to inline execution
            handle = _InlineHandle(_align_shard, payload)
        self._collect_queue.put(
            _InFlightShard(handle=handle, batch=batch, payload=payload)
        )

    def _collect_loop(self) -> None:
        while True:
            item = self._collect_queue.get()
            if item is _STOP:
                return
            try:
                self._collect_one(item)
            except Exception as exc:  # noqa: BLE001 - collector must survive
                # A dead collector strands every in-flight and future
                # request (admission never drains, wedging the service at
                # permanent 429): fail this shard's batch and keep going.
                obs.inc("serve.collector.errors")
                try:
                    self._fail(item.batch, exc)
                except Exception:  # noqa: BLE001 - last-ditch guard
                    pass
            finally:
                # Only now, with the futures resolved: a waiting client's
                # next request is then queued before the next batch is cut.
                self.coalescer.release()

    def _collect_one(self, shard: _InFlightShard) -> None:
        start = time.perf_counter()
        try:
            outcome = self.pool.wait(shard.handle)
        except WorkerLost:
            outcome = self._recover(shard)
            if outcome is None:
                return
        except Exception as exc:  # noqa: BLE001 - application error
            # The reply arrived and was an exception: the shard *ran* and
            # raised — an application error, not a lost worker.  Fail only
            # this batch; the pool is healthy.
            self._fail(shard.batch, exc)
            return
        results, _stats, _seconds, _worker, buffers = outcome
        _absorb_obs_buffers(buffers)
        obs.observe_ns(
            "serve.shard.collect_ns",
            int((time.perf_counter() - start) * 1e9),
        )
        self._complete(shard.batch, results)

    def _recover(self, shard: _InFlightShard):
        """Crash path: re-run a lost shard inline.

        The pool has already rebuilt itself for subsequent traffic; the
        request must still complete, so the shard re-executes in this
        thread — same payload, same deterministic kernel.  Returns the
        shard outcome, or ``None`` after failing the batch's futures.
        """
        with self._lock:
            self.shard_recoveries += 1
        try:
            return _align_shard(shard.payload)
        except Exception as exc:  # noqa: BLE001 - routed to the futures
            self._fail(shard.batch, exc)
            return None

    def _complete(self, batch: List[PendingPair], results: Sequence) -> None:
        for entry, result in zip(batch, results):
            cached_entry = CachedAlignment.from_result(result)
            if entry.key is not None:
                # Store before releasing the pending record: a concurrent
                # identical submit then either hits the cache or attaches
                # to the still-pending entry — never recomputes.
                self.cache.store(entry.key, cached_entry)
            with self._lock:
                self._inflight_pairs -= 1
                self.pairs_computed += 1
                waiters = (
                    self._pending.pop(entry.key, [])
                    if entry.key is not None
                    else []
                )
            self._resolve(entry.future, self._from_cached(cached_entry))
            for waiter in waiters:
                # Attached duplicates did no kernel work of their own.
                self._resolve(
                    waiter, self._from_cached(cached_entry, cached=True)
                )

    def _fail(self, batch: List[PendingPair], exc: Exception) -> None:
        for entry in batch:
            with self._lock:
                self._inflight_pairs -= 1
                self.pairs_failed += 1
                waiters = (
                    self._pending.pop(entry.key, [])
                    if entry.key is not None
                    else []
                )
            self._reject(entry.future, exc)
            for waiter in waiters:
                self._reject(waiter, exc)

    @staticmethod
    def _resolve(future: "Future[ServeResult]", result: ServeResult) -> None:
        """``set_result`` tolerant of a concurrent client-side cancel.

        A client that cancels its future between the ``done()`` check and
        the set would otherwise raise :class:`InvalidStateError` out of
        the collector thread and kill it.
        """
        if future.done():
            return
        try:
            future.set_result(result)
        except InvalidStateError:
            pass

    @staticmethod
    def _reject(future: Future, exc: Exception) -> None:
        if future.done():
            return
        try:
            future.set_exception(exc)
        except InvalidStateError:
            pass

    @staticmethod
    def _from_cached(
        entry: CachedAlignment, *, cached: bool = False
    ) -> ServeResult:
        return ServeResult(
            score=entry.score,
            cigar=entry.cigar,
            exact=entry.exact,
            text_start=entry.text_start,
            text_end=entry.text_end,
            stats=entry.stats_copy(),
            cached=cached,
        )

    # -- introspection ---------------------------------------------------

    def health(self) -> dict:
        """Liveness/readiness payload for ``GET /health``."""
        status = "ok" if self._started and not self._closed else "stopped"
        return {
            "status": status,
            "uptime_seconds": round(self.uptime_seconds, 3),
            "workers": self.pool.workers,
            "executor": self.executor,
            "pool_generation": self.pool.generation,
            "inflight_pairs": self.inflight_pairs,
        }

    def metrics_snapshot(self) -> dict:
        """Full metrics payload for ``GET /metrics``.

        The serving layer's own counts (cache, queue/admission,
        coalescing, pool, request accounting, rate limit), plus under
        ``metrics`` the active :mod:`repro.obs` registry's snapshot while
        a caller records (``{}`` otherwise).
        """
        registry = obs.metrics()
        metrics = registry.snapshot().to_dict() if registry else {}
        with self._lock:
            requests = {
                "pairs": self.pairs_total,
                "computed": self.pairs_computed,
                "cached": self.cache.hits,
                "deduped": self.pairs_deduped,
                "rejected": self.pairs_rejected,
                "failed": self.pairs_failed,
            }
            inflight = self._inflight_pairs
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "metrics": metrics,
            "cache": self.cache.snapshot(),
            "queue": {
                "inflight_pairs": inflight,
                "max_inflight": self.config.max_inflight,
                "coalescer_backlog": self.coalescer.backlog,
            },
            "coalescing": {
                "batches": self.coalescer.batches,
                "pairs": self.coalescer.pairs_out,
                "mean_batch": round(self.coalescer.mean_batch, 3),
                "max_batch": self.coalescer.max_batch,
                "max_pairs": self.config.coalesce_max_pairs,
            },
            "pool": {
                "workers": self.pool.workers,
                "executor": self.executor,
                "generation": self.pool.generation,
                "rebuilds": self.pool.rebuilds,
                "recoveries": self.shard_recoveries,
                "fallback_reason": self.fallback_reason,
            },
            "requests": requests,
            "rate_limit": (
                self.rate_limiter.snapshot()
                if self.rate_limiter is not None
                else {"rate_per_second": 0.0}
            ),
        }
