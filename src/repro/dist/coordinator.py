"""Dist coordinator: lease shards to nodes, account results exactly once.

The coordinator owns the batch.  It cuts predicted-cost-balanced shards
(:mod:`.packing`), then drives a lease state machine per shard::

    PENDING ──lease──▶ LEASED(node, epoch, deadline)
       ▲                   │
       │   expire/fail     │ completion echoing the *current* epoch
       └───────────────────┤
        (epoch += 1,       ▼
         seeded backoff) COMPLETED (journalled once, exactly)

* **Leases** — a shard is leased to one node at a time; the lease
  carries an **epoch** that increments on every (re)lease.  Only a
  completion echoing the current epoch is accounted; anything else is a
  zombie reply from an expired lease and is discarded byte-identically
  (``stale_discards``).
* **Heartbeats** — a background thread polls every node's ``/health``.
  A dead node's leases expire immediately (no need to wait out the
  deadline); a node answering with a *new* incarnation was respawned by
  its supervisor and gets a clean failure slate (un-quarantined).
* **Exactly-once accounting** — completions are recorded in the
  resilience :class:`~repro.resilience.checkpoint.CheckpointJournal`
  (when a checkpoint path is given) keyed by pair range, with the lease
  epoch and node as provenance; ``journal.has`` is the final guard that
  no shard is ever accounted twice, and a resumed run replays
  journalled shards instead of re-leasing them.
* **Quarantine** — ``max_node_failures`` consecutive failures bench a
  node, exactly like pair quarantine in the resilience engine; a
  respawned incarnation is paroled.
* **Graceful degradation** — with zero usable nodes (none configured,
  all dead, or all quarantined past a grace window) the remaining
  shards run inline through the local shard body and the batch still
  completes, byte-identical.
"""

from __future__ import annotations

import http.client
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlsplit

from ..align.base import Aligner, KernelStats
from ..align.batch import PairLike
from ..align.parallel import (
    DEFAULT_SHARD_SIZE,
    BatchTelemetry,
    ShardTelemetry,
    _absorb_obs_buffers,
    _align_shard,
)
from ..common.retry import RetryPolicy
from ..obs import runtime as obs
from ..resilience.checkpoint import CheckpointJournal
from ..resilience.injectors import shard_checksum
from ..serve.cache import aligner_fingerprint
from .packing import PackedShard, pack_shards, pick_node
from .protocol import (
    DistError,
    NodeFault,
    ProtocolError,
    ShardCompletion,
    ShardRequest,
)


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
            expires and the shard is re-leased elsewhere.
        heartbeat_interval: seconds between ``/health`` polls per node.
        connect_timeout: socket timeout for heartbeats.
        dispatch_slack: extra read-timeout seconds past the lease on the
            dispatch connection (so zombie replies are still *observed*
            and counted as stale rather than vanishing).
        max_node_failures: consecutive failures before quarantine.
        max_leases_per_node: concurrent shards leased to one node.
        retry: shared seeded backoff policy for lease reassignment.
        local_fallback_after: seconds with zero usable nodes before the
            coordinator degrades to local execution (immediately when no
            nodes are configured at all).  ``None`` → ``lease_timeout``.
        drain_timeout: seconds to wait at the end for outstanding zombie
            dispatch threads, so late stale replies are accounted.
        shard_size: pair cap per packed shard.
    """

    lease_timeout: float = 5.0
    heartbeat_interval: float = 0.5
    connect_timeout: float = 2.0
    dispatch_slack: float = 2.0
    max_node_failures: int = 3
    max_leases_per_node: int = 2
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_retries=8, backoff_base=0.05, jitter=0.25
        )
    )
    local_fallback_after: Optional[float] = None
    drain_timeout: float = 10.0
    shard_size: Optional[int] = None


@dataclass
class _NodeState:
    """Coordinator-side view of one node (mutated only by the run loop
    and — for liveness fields, under ``lock`` — the heartbeat thread)."""

    handle: NodeHandle
    alive: bool = True
    incarnation: Optional[int] = None
    consecutive_failures: int = 0
    quarantined: bool = False
    outstanding_cost: int = 0
    ewma_speed: float = 0.0
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
            "ewma_speed": round(self.ewma_speed, 1),
        }


@dataclass
class _Lease:
    shard_id: int
    epoch: int
    node: str
    deadline: float
    started: float
    attempt: int


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
        return dict(vars(self))


@dataclass
class DistBatchResult:
    """Outcome of one coordinated batch (mirrors ``BatchResult`` + provenance)."""

    results: List = field(default_factory=list)
    stats: KernelStats = field(default_factory=KernelStats)
    telemetry: Optional[BatchTelemetry] = None
    counters: DistCounters = field(default_factory=DistCounters)
    nodes: Dict[str, dict] = field(default_factory=dict)
    ledger: List[NodeFaultRecord] = field(default_factory=list)

    @property
    def pairs(self) -> int:
        return len(self.results)

    def accounted(self) -> bool:
        """True when every planned fault reached a terminal outcome."""
        return all(
            record.outcome in ACCOUNTED_OUTCOMES for record in self.ledger
        )


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
                host, port, timeout=self.config.connect_timeout
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

    def _dispatch(
        self, shard: PackedShard, lease: _Lease, request: ShardRequest
    ) -> None:
        """Dispatch-thread body: one POST /shard, one event, no locks."""
        read_timeout = self.config.lease_timeout + self.config.dispatch_slack
        if request.fault is not None and request.fault.kind == "hang":
            # Keep the socket open long enough to *observe* the zombie
            # reply — that is the point of the stale-discard ledger.
            read_timeout = max(
                read_timeout,
                request.fault.seconds + self.config.dispatch_slack,
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
        shards = pack_shards(
            self.aligner,
            pairs,
            shard_size=config.shard_size,
            traceback=traceback,
        )
        checksums = {s.shard_id: shard_checksum(s.pairs) for s in shards}
        journal: Optional[CheckpointJournal] = None
        if self.checkpoint:
            journal = CheckpointJournal(
                self.checkpoint,
                {
                    "aligner": self.fingerprint,
                    "traceback": traceback,
                    "plan": None,
                },
            )
        counters = DistCounters(shards=len(shards))
        results_by_shard: Dict[int, list] = {}
        telemetry = BatchTelemetry(
            workers=max(1, len(self.nodes)),
            shard_size=config.shard_size or DEFAULT_SHARD_SIZE,
            executor="dist",
        )
        epochs: Dict[int, int] = {s.shard_id: 0 for s in shards}
        attempts: Dict[int, int] = {s.shard_id: 0 for s in shards}
        leases: Dict[int, _Lease] = {}
        fault_armed: Dict[int, bool] = {}
        by_id = {s.shard_id: s for s in shards}

        # Resume journalled shards before leasing anything.
        if journal is not None:
            for shard in shards:
                cached = journal.lookup(
                    shard.lo, shard.hi, checksums[shard.shard_id]
                )
                if cached is not None:
                    results_by_shard[shard.shard_id] = cached[0]
                    counters.resumed_shards += 1

        pending: "deque[Tuple[float, int]]" = deque(
            (0.0, s.shard_id)
            for s in shards
            if s.shard_id not in results_by_shard
        )
        done = len(results_by_shard)
        total = len(shards)

        heartbeat: Optional[threading.Thread] = None
        if self.nodes:
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                name="repro-dist-heartbeat",
                daemon=True,
            )
            heartbeat.start()
        grace = (
            config.local_fallback_after
            if config.local_fallback_after is not None
            else config.lease_timeout
        )
        last_usable = time.monotonic()

        def _record(shard: PackedShard, results, epoch: int, node: str):
            nonlocal done
            results_by_shard[shard.shard_id] = results
            if journal is not None:
                journal.record(
                    shard.lo,
                    shard.hi,
                    checksums[shard.shard_id],
                    results,
                    epoch=epoch,
                    node=node,
                )
                counters.journal_writes = journal.writes
            done += 1

        def _requeue(lease: _Lease, reason: str) -> None:
            """Invalidate a lease and schedule its shard for re-lease."""
            epochs[lease.shard_id] += 1  # the expired epoch can never land
            leases.pop(lease.shard_id, None)
            state = self.nodes[lease.node]
            state.leases -= 1
            state.outstanding_cost -= by_id[lease.shard_id].cost
            state.failures += 1
            state.consecutive_failures += 1
            if (
                not state.quarantined
                and state.consecutive_failures >= config.max_node_failures
            ):
                state.quarantined = True
                counters.nodes_quarantined += 1
            attempt = attempts[lease.shard_id]
            delay = config.retry.delay(lease.shard_id, max(1, attempt))
            pending.append((time.monotonic() + delay, lease.shard_id))
            counters.retries += 1
            record = self.ledger.get(lease.shard_id)
            if record is not None and record.outcome in ("planned", "armed"):
                record.outcome = (
                    "expired" if reason == "lease expired" else "retried"
                )
                record.detail = f"{reason} on {lease.node}"

        def _run_local(shard: PackedShard) -> None:
            epochs[shard.shard_id] += 1
            results, _stats, elapsed, worker, _buffers = _align_shard(
                (self.aligner, shard.pairs, traceback, False, False)
            )
            _record(shard, results, epochs[shard.shard_id], "local")
            counters.local_shards += 1
            telemetry.shards.append(
                ShardTelemetry(
                    index=shard.shard_id,
                    pairs=shard.size,
                    wall_seconds=elapsed,
                    worker=f"local:{worker}",
                )
            )
            record = self.ledger.get(shard.shard_id)
            if record is not None and record.outcome in (
                "planned",
                "armed",
                "retried",
                "expired",
            ):
                record.outcome = "degraded"
                record.detail = "completed by local fallback"

        try:
            while done < total:
                now = time.monotonic()
                # 1. Expire overdue leases (immediately for dead nodes).
                for lease in list(leases.values()):
                    with self._node_lock:
                        node_dead = not self.nodes[lease.node].alive
                    if node_dead or now >= lease.deadline:
                        counters.leases_expired += 1
                        _requeue(
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
                ready: List[int] = []
                still_waiting: "deque[Tuple[float, int]]" = deque()
                while pending:
                    at, shard_id = pending.popleft()
                    if shard_id in results_by_shard:
                        continue
                    if at <= now:
                        ready.append(shard_id)
                    else:
                        still_waiting.append((at, shard_id))
                pending = still_waiting
                for shard_id in ready:
                    shard = by_id[shard_id]
                    candidates = [
                        (s.handle.name, s.outstanding_cost, s.ewma_speed)
                        for s in usable
                        if s.leases < config.max_leases_per_node
                    ]
                    chosen = pick_node(candidates, shard.cost)
                    if chosen is None:
                        pending.append((now, shard_id))
                        continue
                    state = self.nodes[chosen]
                    epochs[shard_id] += 1
                    attempts[shard_id] += 1
                    lease = _Lease(
                        shard_id=shard_id,
                        epoch=epochs[shard_id],
                        node=chosen,
                        deadline=now + config.lease_timeout,
                        started=now,
                        attempt=attempts[shard_id],
                    )
                    leases[shard_id] = lease
                    state.leases += 1
                    state.outstanding_cost += shard.cost
                    counters.leases_granted += 1
                    fault = None
                    record = self.ledger.get(shard_id)
                    if record is not None and not fault_armed.get(shard_id):
                        fault = record.fault
                        fault_armed[shard_id] = True
                        record.outcome = "armed"
                        record.detail = f"armed on {chosen}"
                    request = ShardRequest(
                        shard_id=shard_id,
                        epoch=lease.epoch,
                        lo=shard.lo,
                        hi=shard.hi,
                        pairs=shard.pairs,
                        traceback=traceback,
                        fingerprint=self.fingerprint,
                        want_obs=obs.enabled(),
                        fault=fault,
                    )
                    thread = threading.Thread(
                        target=self._dispatch,
                        args=(shard, lease, request),
                        name=f"repro-dist-dispatch-{shard_id}-e{lease.epoch}",
                        daemon=True,
                    )
                    self._dispatchers.append(thread)
                    thread.start()
                # 3. Degrade to local execution with zero usable nodes.
                if not leases and (
                    not self.nodes
                    or (not usable and now - last_usable >= grace)
                ):
                    for _, shard_id in sorted(pending):
                        if shard_id not in results_by_shard:
                            _run_local(by_id[shard_id])
                    pending.clear()
                    continue
                if done >= total:
                    break
                # 4. Sleep until something can happen.
                wake = now + max(0.02, config.heartbeat_interval)
                for lease in leases.values():
                    wake = min(wake, lease.deadline)
                for at, _ in pending:
                    wake = min(wake, at) if at > now else wake
                timeout = max(0.01, wake - now)
                try:
                    event = self._events.get(timeout=timeout)
                except queue.Empty:
                    continue
                self._handle_event(
                    event, by_id, checksums, epochs, leases, counters,
                    telemetry, results_by_shard, _record, _requeue,
                )
        finally:
            self._stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2.0)

        # Drain outstanding zombie dispatchers so their stale replies are
        # observed and accounted (not lost to interpreter teardown).
        drain_deadline = time.monotonic() + config.drain_timeout
        for thread in self._dispatchers:
            thread.join(timeout=max(0.0, drain_deadline - time.monotonic()))
        while True:
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                break
            self._handle_event(
                event, by_id, checksums, epochs, leases, counters,
                telemetry, results_by_shard, _record, _requeue,
                draining=True,
            )

        results: List = []
        stats = KernelStats()
        for shard in shards:
            shard_results = results_by_shard[shard.shard_id]
            results.extend(shard_results)
            for result in shard_results:
                stats.merge(result.stats)
        telemetry.wall_seconds = time.perf_counter() - started_wall
        with self._node_lock:
            nodes = {
                name: state.to_dict() for name, state in self.nodes.items()
            }
        return DistBatchResult(
            results=results,
            stats=stats,
            telemetry=telemetry,
            counters=counters,
            nodes=nodes,
            ledger=[self.ledger[key] for key in sorted(self.ledger)],
        )

    def _handle_event(
        self,
        event,
        by_id,
        checksums,
        epochs,
        leases,
        counters,
        telemetry,
        results_by_shard,
        record_fn,
        requeue_fn,
        *,
        draining: bool = False,
    ) -> None:
        kind = event[0]
        if kind in ("node-down", "node-paroled"):
            if kind == "node-paroled":
                counters.nodes_paroled += 1
            return
        lease = event[1]
        shard = by_id[lease.shard_id]
        current = epochs[lease.shard_id]
        record = self.ledger.get(lease.shard_id)
        if kind == "completion":
            completion: ShardCompletion = event[2]
            stale = (
                completion.epoch != current
                or lease.shard_id in results_by_shard
            )
            if stale:
                counters.stale_discards += 1
                state = self.nodes.get(completion.node)
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
            if completion.checksum != checksums[lease.shard_id]:
                counters.corrupt_completions += 1
                counters.lease_failures += 1
                requeue_fn(lease, "completion checksum mismatch")
                return
            state = self.nodes[lease.node]
            record_fn(shard, completion.results, completion.epoch, lease.node)
            leases.pop(lease.shard_id, None)
            state.leases -= 1
            state.outstanding_cost -= shard.cost
            state.completed += 1
            state.consecutive_failures = 0
            wall = max(1e-6, time.monotonic() - lease.started)
            sample = shard.cost / wall
            state.ewma_speed = (
                sample
                if state.ewma_speed == 0.0
                else 0.7 * state.ewma_speed + 0.3 * sample
            )
            telemetry.shards.append(
                ShardTelemetry(
                    index=shard.shard_id,
                    pairs=shard.size,
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
            if lease.epoch != current or lease.shard_id in results_by_shard:
                # Failure report from an already-expired lease: the shard
                # has moved on; nothing to requeue.
                return
            if draining:
                return
            counters.lease_failures += 1
            requeue_fn(lease, reason)
