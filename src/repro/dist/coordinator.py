"""Dist coordinator: lease shards to nodes, account results exactly once.

The coordinator owns the batch.  It cuts contiguous shards with
:func:`~repro.align.parallel.iter_shards`, as both batch engines do, then
drives a lease state machine per shard::

    PENDING ──lease──▶ LEASED(node, epoch, deadline)
       ▲                   │
       │   expire/fail     │ completion echoing the *current* epoch
       └───────────────────┤
        (epoch += 1,       ▼
         seeded backoff) COMPLETED (journalled once, exactly)

* **Leases** — a ready shard is leased to the usable node with the
  fewest outstanding leases (ties broken by name), one node at a time;
  the lease carries an **epoch** that increments on every (re)lease.
  Only a completion echoing the current epoch is accounted; anything
  else is a zombie reply from an expired lease and is discarded
  byte-identically (``stale_discards``).  There is no retry cap: a shard
  is re-leased with seeded backoff until it completes, or until no node
  is usable and the local fallback runs it.
* **Heartbeats** — a background thread polls every node's ``/health``.
  A dead node's leases expire immediately (no need to wait out the
  deadline); a node answering with a *new* incarnation was respawned by
  its supervisor and gets a clean failure slate (un-quarantined).
* **Exactly-once accounting** — a shard is accounted by the first
  completion that echoes its current epoch, and any later completion
  for it is discarded.  Accepted completions are recorded in the
  resilience :class:`~repro.resilience.checkpoint.CheckpointJournal`
  (when a checkpoint path is given) keyed by pair range, with the lease
  epoch and node as provenance, and a resumed run replays journalled
  shards instead of re-leasing them.
* **Quarantine** — ``max_node_failures`` consecutive failures bench a
  node, exactly like pair quarantine in the resilience engine; a
  respawned incarnation is paroled.
* **Graceful degradation** — with zero usable nodes (none configured,
  or all dead or quarantined for one lease timeout) the remaining
  shards run inline through the local shard body and the batch still
  completes, byte-identical.
"""

from __future__ import annotations

import http.client
import queue
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlsplit

from ..align.base import Aligner, KernelStats, aligner_fingerprint
from ..align.batch import BatchResult, PairLike
from ..align.parallel import (
    DEFAULT_SHARD_SIZE,
    BatchTelemetry,
    ShardTelemetry,
    _absorb_obs_buffers,
    _align_shard,
    iter_shards,
    shard_checksum,
)
from ..common.retry import RetryPolicy
from ..obs import runtime as obs
from ..resilience.checkpoint import CheckpointJournal
from .protocol import (
    DistError,
    NodeFault,
    ProtocolError,
    ShardCompletion,
    ShardRequest,
)

#: Socket timeout of a heartbeat's ``GET /health``.
CONNECT_TIMEOUT = 2.0
#: Read-timeout seconds past the lease on a dispatch connection, so a
#: zombie reply is still *observed* and counted stale rather than lost.
DISPATCH_SLACK = 2.0
#: Concurrent shards leased to one node.
MAX_LEASES_PER_NODE = 2
#: Delay before a shard's first re-lease; it doubles per further attempt.
REQUEUE_BACKOFF = 0.05


@dataclass(frozen=True)
class NodeHandle:
    """One configured worker node: a name and its base URL."""

    name: str
    url: str

    @property
    def address(self) -> Tuple[str, int]:
        parts = urlsplit(self.url)
        if not parts.hostname or not parts.port:
            raise DistError(f"node {self.name}: URL {self.url!r} needs host:port")
        return parts.hostname, parts.port


@dataclass
class DistConfig:
    """Coordinator tuning knobs.

    Attributes:
        lease_timeout: seconds a node holds a shard before the lease
            expires and the shard is re-leased elsewhere; also how long
            the coordinator waits with zero usable nodes before it
            degrades to local execution.
        heartbeat_interval: seconds between ``/health`` polls per node.
        max_node_failures: consecutive failures before quarantine.
        shard_size: pairs per shard (``None`` → the batch engines'
            default).
        seed: seed of the re-lease backoff jitter (same seed → same
            delays).
    """

    lease_timeout: float = 5.0
    heartbeat_interval: float = 0.5
    max_node_failures: int = 3
    shard_size: Optional[int] = None
    seed: int = 0


@dataclass
class _NodeState:
    """Coordinator-side view of one node (mutated only by the run loop
    and — for liveness fields, under ``lock`` — the heartbeat thread)."""

    handle: NodeHandle
    alive: bool = True
    incarnation: Optional[int] = None
    consecutive_failures: int = 0
    quarantined: bool = False
    leases: int = 0
    completed: int = 0
    failures: int = 0
    stale: int = 0
    respawns_seen: int = 0

    def usable(self) -> bool:
        return self.alive and not self.quarantined

    def to_dict(self) -> dict:
        return {
            "url": self.handle.url,
            "alive": self.alive,
            "incarnation": self.incarnation,
            "quarantined": self.quarantined,
            "completed": self.completed,
            "failures": self.failures,
            "stale_replies": self.stale,
            "respawns_seen": self.respawns_seen,
        }


def _least_leased(states: Iterable[_NodeState]) -> Optional[_NodeState]:
    """The node with the fewest leases under the cap, ties by name."""
    return min(
        (state for state in states if state.leases < MAX_LEASES_PER_NODE),
        key=lambda state: (state.leases, state.handle.name),
        default=None,
    )


@dataclass
class _Lease:
    shard_id: int
    epoch: int
    node: str
    deadline: float


@dataclass
class NodeFaultRecord:
    """Ledger entry: what happened to one planned node fault."""

    fault: NodeFault
    outcome: str = "planned"
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "fault": self.fault.to_dict(),
            "outcome": self.outcome,
            "detail": self.detail,
        }


#: Ledger outcomes that count as fully accounted for.
ACCOUNTED_OUTCOMES = (
    "absorbed",        # slow node finished within its lease
    "retried",         # crash/partition detected, shard re-leased
    "expired",         # lease timed out; zombie reply never surfaced
    "stale-discarded", # zombie reply arrived and was rejected by epoch
    "degraded",        # its shard completed through the local fallback
)


@dataclass
class DistCounters:
    """Aggregate accounting of one distributed run."""

    shards: int = 0
    leases_granted: int = 0
    leases_expired: int = 0
    lease_failures: int = 0
    stale_discards: int = 0
    retries: int = 0
    nodes_quarantined: int = 0
    nodes_paroled: int = 0
    local_shards: int = 0
    resumed_shards: int = 0
    corrupt_completions: int = 0
    journal_writes: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DistBatchResult(BatchResult):
    """A :class:`BatchResult` plus the coordinated run's provenance.

    Attributes:
        counters: lease, retry and fallback accounting of the run.
        nodes: each node's final coordinator-side state, by name.
        ledger: one :class:`NodeFaultRecord` per planned node fault.
    """

    counters: DistCounters = field(default_factory=DistCounters)
    nodes: Dict[str, dict] = field(default_factory=dict)
    ledger: List[NodeFaultRecord] = field(default_factory=list)

    def accounted(self) -> bool:
        """True when every planned fault reached a terminal outcome."""
        return all(
            record.outcome in ACCOUNTED_OUTCOMES for record in self.ledger
        )


class _Run:
    """The state of one coordinated batch, owned by the run loop.

    Shard ``i`` holds pairs ``[i * shard_size, i * shard_size + len)``
    of the input (every shard but the last is full), which is the range
    the journal keys it by.
    """

    def __init__(
        self,
        coordinator: "DistCoordinator",
        pairs: Iterable[PairLike],
        traceback: bool,
    ) -> None:
        config = coordinator.config
        self.coordinator = coordinator
        self.traceback = traceback
        self.shard_size = (
            DEFAULT_SHARD_SIZE
            if config.shard_size is None
            else config.shard_size
        )
        self.shards = list(iter_shards(pairs, self.shard_size))
        self.checksums = [shard_checksum(shard) for shard in self.shards]
        self.epochs = [0] * len(self.shards)
        self.attempts = [0] * len(self.shards)
        self.leases: Dict[int, _Lease] = {}
        self.results: Dict[int, list] = {}
        self.counters = DistCounters(shards=len(self.shards))
        self.telemetry = BatchTelemetry(
            workers=max(1, len(coordinator.nodes)),
            shard_size=self.shard_size,
            executor="dist",
        )
        self.retry = RetryPolicy(backoff_base=REQUEUE_BACKOFF, seed=config.seed)
        self.journal: Optional[CheckpointJournal] = None
        if coordinator.checkpoint:
            self.journal = CheckpointJournal(
                coordinator.checkpoint,
                {
                    "aligner": coordinator.fingerprint,
                    "traceback": traceback,
                    "plan": None,
                },
            )
            # Resume journalled shards before leasing anything.
            for shard_id, checksum in enumerate(self.checksums):
                cached = self.journal.lookup(*self.span(shard_id), checksum)
                if cached is not None:
                    self.results[shard_id] = cached[0]
                    self.counters.resumed_shards += 1
        #: ``(ready_at, shard_id)`` of every shard waiting for a lease.
        self.pending: List[Tuple[float, int]] = [
            (0.0, shard_id)
            for shard_id in range(len(self.shards))
            if shard_id not in self.results
        ]

    def done(self) -> bool:
        return len(self.results) == len(self.shards)

    def span(self, shard_id: int) -> Tuple[int, int]:
        lo = shard_id * self.shard_size
        return lo, lo + len(self.shards[shard_id])

    def ready(self, now: float) -> List[int]:
        """Take the pending shards whose backoff has run out."""
        ready = [shard_id for at, shard_id in self.pending if at <= now]
        self.pending = [item for item in self.pending if item[0] > now]
        return ready

    def lease(
        self, shard_id: int, state: _NodeState, now: float
    ) -> Tuple[_Lease, ShardRequest]:
        """Lease a shard to a node; a planned fault arms on its first lease."""
        coordinator = self.coordinator
        self.epochs[shard_id] += 1
        self.attempts[shard_id] += 1
        lease = _Lease(
            shard_id=shard_id,
            epoch=self.epochs[shard_id],
            node=state.handle.name,
            deadline=now + coordinator.config.lease_timeout,
        )
        self.leases[shard_id] = lease
        state.leases += 1
        self.counters.leases_granted += 1
        fault = None
        record = coordinator.ledger.get(shard_id)
        if record is not None and record.outcome == "planned":
            fault = record.fault
            record.outcome = "armed"
            record.detail = f"armed on {lease.node}"
        request = ShardRequest(
            shard_id=shard_id,
            epoch=lease.epoch,
            pairs=self.shards[shard_id],
            traceback=self.traceback,
            fingerprint=coordinator.fingerprint,
            want_obs=obs.enabled(),
            fault=fault,
        )
        return lease, request

    def record(self, shard_id: int, results, epoch: int, node: str) -> None:
        self.results[shard_id] = results
        if self.journal is not None:
            lo, hi = self.span(shard_id)
            self.journal.record(
                lo,
                hi,
                self.checksums[shard_id],
                results,
                epoch=epoch,
                node=node,
            )
            self.counters.journal_writes = self.journal.writes

    def requeue(self, lease: _Lease, reason: str) -> None:
        """Invalidate a lease and schedule its shard for re-lease."""
        self.epochs[lease.shard_id] += 1  # the expired epoch can never land
        self.leases.pop(lease.shard_id, None)
        state = self.coordinator.nodes[lease.node]
        state.leases -= 1
        state.failures += 1
        state.consecutive_failures += 1
        if (
            not state.quarantined
            and state.consecutive_failures
            >= self.coordinator.config.max_node_failures
        ):
            state.quarantined = True
            self.counters.nodes_quarantined += 1
        attempt = self.attempts[lease.shard_id]
        delay = self.retry.delay(lease.shard_id, max(1, attempt))
        self.pending.append((time.monotonic() + delay, lease.shard_id))
        self.counters.retries += 1
        record = self.coordinator.ledger.get(lease.shard_id)
        if record is not None and record.outcome in ("planned", "armed"):
            record.outcome = (
                "expired" if reason == "lease expired" else "retried"
            )
            record.detail = f"{reason} on {lease.node}"

    def run_pending_locally(self) -> None:
        """Run every waiting shard inline through the local shard body."""
        for _, shard_id in sorted(self.pending):
            self.epochs[shard_id] += 1
            results, _stats, elapsed, worker, _buffers = _align_shard(
                (
                    self.coordinator.aligner,
                    self.shards[shard_id],
                    self.traceback,
                    False,
                    False,
                )
            )
            self.record(shard_id, results, self.epochs[shard_id], "local")
            self.counters.local_shards += 1
            self.telemetry.shards.append(
                ShardTelemetry(
                    index=shard_id,
                    pairs=len(self.shards[shard_id]),
                    wall_seconds=elapsed,
                    worker=f"local:{worker}",
                )
            )
            record = self.coordinator.ledger.get(shard_id)
            if record is not None and record.outcome in (
                "planned",
                "armed",
                "retried",
                "expired",
            ):
                record.outcome = "degraded"
                record.detail = "completed by local fallback"
        self.pending.clear()

    def handle(self, event, *, draining: bool = False) -> None:
        """Account one event a dispatch or heartbeat thread queued."""
        kind = event[0]
        if kind in ("node-down", "node-paroled"):
            if kind == "node-paroled":
                self.counters.nodes_paroled += 1
            return
        lease = event[1]
        shard_id = lease.shard_id
        current = self.epochs[shard_id]
        record = self.coordinator.ledger.get(shard_id)
        if kind == "completion":
            completion: ShardCompletion = event[2]
            stale = completion.epoch != current or shard_id in self.results
            if stale:
                self.counters.stale_discards += 1
                state = self.coordinator.nodes.get(completion.node)
                if state is not None:
                    state.stale += 1
                if record is not None and record.outcome in (
                    "armed",
                    "expired",
                ):
                    record.outcome = "stale-discarded"
                    record.detail = (
                        f"zombie completion from {completion.node} "
                        f"(epoch {completion.epoch} != {current})"
                    )
                return
            if completion.checksum != self.checksums[shard_id]:
                self.counters.corrupt_completions += 1
                self.counters.lease_failures += 1
                self.requeue(lease, "completion checksum mismatch")
                return
            state = self.coordinator.nodes[lease.node]
            self.record(
                shard_id, completion.results, completion.epoch, lease.node
            )
            self.leases.pop(shard_id, None)
            state.leases -= 1
            state.completed += 1
            state.consecutive_failures = 0
            self.telemetry.shards.append(
                ShardTelemetry(
                    index=shard_id,
                    pairs=len(self.shards[shard_id]),
                    wall_seconds=completion.elapsed,
                    worker=f"{lease.node}#{completion.incarnation}",
                )
            )
            _absorb_obs_buffers((completion.spans, completion.metrics))
            if record is not None and record.outcome == "armed":
                record.outcome = "absorbed"
                record.detail = f"completed within lease on {lease.node}"
        elif kind == "failure":
            reason: str = event[2]
            if lease.epoch != current or shard_id in self.results:
                # Failure report from an already-expired lease: the shard
                # has moved on; nothing to requeue.
                return
            if draining:
                return
            self.counters.lease_failures += 1
            self.requeue(lease, reason)


class DistCoordinator:
    """Drives one batch across a set of worker nodes (single-use)."""

    def __init__(
        self,
        aligner: Aligner,
        nodes: Iterable[NodeHandle],
        *,
        config: Optional[DistConfig] = None,
        checkpoint: Optional[str] = None,
        fault_plan=None,
    ) -> None:
        self.aligner = aligner
        self.config = config if config is not None else DistConfig()
        self.nodes: Dict[str, _NodeState] = {}
        for handle in nodes:
            if handle.name in self.nodes:
                raise DistError(f"duplicate node name {handle.name!r}")
            handle.address  # validate URL eagerly  # noqa: B018
            self.nodes[handle.name] = _NodeState(handle)
        self.checkpoint = checkpoint
        self.fingerprint = aligner_fingerprint(aligner)
        self._events: "queue.Queue" = queue.Queue()
        self._node_lock = threading.Lock()
        self._stop = threading.Event()
        self._dispatchers: List[threading.Thread] = []
        self.ledger: Dict[int, NodeFaultRecord] = {}
        if fault_plan is not None:
            for fault in fault_plan.faults:
                self.ledger[fault.shard] = NodeFaultRecord(fault)

    # -- heartbeats ------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval):
            for state in list(self.nodes.values()):
                self._heartbeat_one(state)

    def _heartbeat_one(self, state: _NodeState) -> None:
        host, port = state.handle.address
        try:
            conn = http.client.HTTPConnection(
                host, port, timeout=CONNECT_TIMEOUT
            )
            try:
                conn.request("GET", "/health")
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            if response.status != 200:
                raise DistError(f"health returned {response.status}")
            import json as _json

            incarnation = int(_json.loads(body).get("incarnation", 1))
        except (OSError, ValueError, http.client.HTTPException, DistError):
            with self._node_lock:
                if state.alive:
                    state.alive = False
                    # The run loop expires this node's leases on its
                    # next tick; wake it up.
                    self._events.put(("node-down", state.handle.name))
            return
        with self._node_lock:
            revived = not state.alive
            state.alive = True
            if (
                state.incarnation is not None
                and incarnation != state.incarnation
            ):
                # Supervisor respawned the node: clean slate.
                state.respawns_seen += 1
                state.consecutive_failures = 0
                if state.quarantined:
                    state.quarantined = False
                    self._events.put(("node-paroled", state.handle.name))
            elif revived:
                state.consecutive_failures = 0
            state.incarnation = incarnation

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, lease: _Lease, request: ShardRequest) -> None:
        """Dispatch-thread body: one POST /shard, one event, no locks.

        Every socket operation is bounded by ``read_timeout``, so the
        thread ends by itself; the run's end-of-batch drain relies on it.
        """
        read_timeout = self.config.lease_timeout + DISPATCH_SLACK
        if request.fault is not None and request.fault.kind == "hang":
            # Keep the socket open long enough to *observe* the zombie
            # reply — that is the point of the stale-discard ledger.
            read_timeout = max(
                read_timeout, request.fault.seconds + DISPATCH_SLACK
            )
        host, port = self.nodes[lease.node].handle.address
        try:
            conn = http.client.HTTPConnection(host, port, timeout=read_timeout)
            try:
                conn.request(
                    "POST",
                    "/shard",
                    body=request.to_json(),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            if response.status == 200:
                completion = ShardCompletion.from_json(body)
                self._events.put(("completion", lease, completion))
            else:
                self._events.put(
                    (
                        "failure",
                        lease,
                        f"HTTP {response.status}: {body[:160]!r}",
                    )
                )
        except (OSError, http.client.HTTPException, ProtocolError) as exc:
            self._events.put(
                ("failure", lease, f"{type(exc).__name__}: {exc}")
            )

    # -- the run loop ----------------------------------------------------

    def run(
        self,
        pairs: Iterable[PairLike],
        *,
        traceback: bool = True,
    ) -> DistBatchResult:
        config = self.config
        started_wall = time.perf_counter()
        run = _Run(self, pairs, traceback)

        heartbeat: Optional[threading.Thread] = None
        if self.nodes:
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-dist-heartbeat",
                daemon=True,
            )
            heartbeat.start()
        last_usable = time.monotonic()
        try:
            while not run.done():
                now = time.monotonic()
                # 1. Expire overdue leases (immediately for dead nodes).
                for lease in list(run.leases.values()):
                    with self._node_lock:
                        node_dead = not self.nodes[lease.node].alive
                    if node_dead or now >= lease.deadline:
                        run.counters.leases_expired += 1
                        run.requeue(
                            lease,
                            "node died" if node_dead else "lease expired",
                        )
                # 2. Lease ready shards onto usable nodes.
                with self._node_lock:
                    usable = [
                        state
                        for state in self.nodes.values()
                        if state.usable()
                    ]
                if usable:
                    last_usable = now
                for shard_id in run.ready(now):
                    state = _least_leased(usable)
                    if state is None:
                        run.pending.append((now, shard_id))
                        continue
                    lease, request = run.lease(shard_id, state, now)
                    thread = threading.Thread(
                        target=self._dispatch,
                        args=(lease, request),
                        name=f"repro-dist-dispatch-{shard_id}-e{lease.epoch}",
                        daemon=True,
                    )
                    self._dispatchers.append(thread)
                    thread.start()
                # 3. Degrade to local execution with zero usable nodes.
                if not run.leases and (
                    not self.nodes
                    or (
                        not usable
                        and now - last_usable >= config.lease_timeout
                    )
                ):
                    run.run_pending_locally()
                    continue
                # 4. Sleep until something can happen.
                wake = min(
                    [now + max(0.02, config.heartbeat_interval)]
                    + [lease.deadline for lease in run.leases.values()]
                    + [at for at, _ in run.pending if at > now]
                )
                try:
                    event = self._events.get(timeout=max(0.01, wake - now))
                except queue.Empty:
                    continue
                run.handle(event)
        finally:
            self._stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2.0)

        # Drain outstanding zombie dispatchers so their stale replies are
        # observed and accounted (not lost to interpreter teardown).  The
        # socket timeout of each one bounds its wait.
        for thread in self._dispatchers:
            thread.join()
        while True:
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                break
            run.handle(event, draining=True)

        results: List = []
        stats = KernelStats()
        for shard_id in range(len(run.shards)):
            shard_results = run.results[shard_id]
            results.extend(shard_results)
            for result in shard_results:
                stats.merge(result.stats)
        run.telemetry.wall_seconds = time.perf_counter() - started_wall
        with self._node_lock:
            nodes = {
                name: state.to_dict() for name, state in self.nodes.items()
            }
        return DistBatchResult(
            results=results,
            stats=stats,
            telemetry=run.telemetry,
            counters=run.counters,
            nodes=nodes,
            ledger=[self.ledger[key] for key in sorted(self.ledger)],
        )
