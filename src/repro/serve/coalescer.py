"""Micro-batching coalescer: pack concurrent small requests into shards.

A serving workload arrives as a stream of tiny requests — often a single
pair each — while the pool's efficient unit of work is a shard of many
pairs (amortising pickling and IPC, exactly like
:data:`~repro.align.parallel.DEFAULT_SHARD_SIZE` does for batches).  The
coalescer bridges the two without ever holding a request back from an
idle worker.  It owns one *slot* per pool worker: a dispatched batch
holds a slot until its collector calls :meth:`Coalescer.release`.  While
a slot is free, the coalescer cuts a batch at once — the first queued
request plus the same-group requests already queued behind it, up to
``max_pairs`` — and dispatches it.  A lone request therefore goes
straight to an idle worker, and requests coalesce only while every
worker is busy: then they queue, and the next freed slot ships them as
one shard instead of N.

Requests carry a *group* key (the traceback flag): only requests of the
same group share a shard, because a shard runs under a single traceback
mode.  A request of another group ends the batch and starts the next.

The coalescer is executor-agnostic — it calls the ``dispatch`` callable
it was built with (the service's shard-dispatch path) and never touches
the pool itself, so its batching semantics are unit-testable with a plain
list-appending dispatcher.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional


class CoalescerError(RuntimeError):
    """Raised on coalescer misuse (bad configuration, submit after close)."""


@dataclass
class PendingPair:
    """One queued alignment request travelling through the coalescer.

    Attributes:
        pattern / text: the pair to align.
        group: shard-compatibility key — requests only coalesce with
            requests of the same group (the service uses the traceback
            flag).
        future: resolved by the service when the pair's result is ready.
        key: content-address of the request (``None`` when caching is
            disabled); the service uses it to fill the cache and release
            coalesced duplicate waiters.
    """

    pattern: str
    text: str
    group: object
    future: Future = field(default_factory=Future)
    key: Optional[str] = None


class Coalescer:
    """Dispatches a batch whenever a slot is free; queues while none is.

    Args:
        dispatch: called with each packed batch (a non-empty list of
            :class:`PendingPair` sharing one group), from the coalescer's
            own thread.  The batch holds a slot until :meth:`release`.
            An exception from ``dispatch`` fails that batch's futures,
            frees its slot, and the coalescer keeps running.
        slots: batches that may be in flight at once (the service passes
            its pool's worker count).
        max_pairs: the most pairs one batch may hold.
    """

    def __init__(
        self,
        dispatch: Callable[[List[PendingPair]], None],
        *,
        slots: int = 1,
        max_pairs: int = 16,
    ) -> None:
        if slots < 1:
            raise CoalescerError(f"slots must be >= 1, got {slots}")
        if max_pairs < 1:
            raise CoalescerError(f"max_pairs must be >= 1, got {max_pairs}")
        self.slots = slots
        self.max_pairs = max_pairs
        self._dispatch = dispatch
        self._queue: Deque[PendingPair] = deque()
        self._free = slots
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        # Guards the queue, the free-slot count and the closed flag; the
        # collection thread waits on it for work and a slot.
        self._cond = threading.Condition()
        # Telemetry (read by /metrics; written only by the collector thread
        # except pairs_in, which submit() bumps under the lock).
        self.batches = 0
        self.pairs_in = 0
        self.pairs_out = 0
        self.max_batch = 0

    def start(self) -> "Coalescer":
        """Start the collection thread (idempotent)."""
        with self._cond:
            if self._closed:
                raise CoalescerError("coalescer is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-coalescer", daemon=True
                )
                self._thread.start()
        return self

    def submit(self, entry: PendingPair) -> None:
        """Queue one request for coalescing (raises after close)."""
        with self._cond:
            if self._closed:
                raise CoalescerError("coalescer is closed")
            self.pairs_in += 1
            self._queue.append(entry)
            if self._free:  # with none free, release() does the waking
                self._cond.notify()

    def release(self) -> None:
        """Free the slot of one dispatched batch: its shard is done."""
        with self._cond:
            self._free += 1
            self._cond.notify()

    @property
    def backlog(self) -> int:
        """Requests queued but not yet packed into a batch."""
        return len(self._queue)

    @property
    def mean_batch(self) -> float:
        """Mean pairs per dispatched batch (0.0 before the first batch)."""
        return self.pairs_out / self.batches if self.batches else 0.0

    def close(self) -> None:
        """Flush queued requests, stop the thread, reject new submits."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._cond.notify()
        if thread is not None:
            thread.join()

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not (self._queue and self._free):
                    self._cond.wait()
                if self._closed:
                    break
                self._free -= 1
                batch = self._cut()
            self._flush(batch)
        # Closed: submit() takes no more, so flush what is left without
        # waiting for a slot.
        while self._queue:
            self._flush(self._cut())

    def _cut(self) -> List[PendingPair]:
        """The first queued request and its same-group followers."""
        batch = [self._queue.popleft()]
        while (
            self._queue
            and len(batch) < self.max_pairs
            and self._queue[0].group == batch[0].group
        ):
            batch.append(self._queue.popleft())
        return batch

    def _flush(self, batch: List[PendingPair]) -> None:
        self.batches += 1
        self.pairs_out += len(batch)
        self.max_batch = max(self.max_batch, len(batch))
        try:
            self._dispatch(batch)
        except Exception as exc:  # noqa: BLE001 - routed to the futures
            for entry in batch:
                if not entry.future.done():
                    entry.future.set_exception(exc)
            self.release()  # no collector will see this batch
