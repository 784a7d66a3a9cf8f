"""Dist chaos: seeded node-fault campaigns with real worker processes.

The proof obligation mirrors :mod:`repro.resilience.campaign`, one layer
up the stack: boot **real localhost worker processes** under a
:class:`NodeSupervisor` (which respawns killed nodes under a fresh
incarnation, like an init system would), drive a batch through the
:class:`~repro.dist.coordinator.DistCoordinator` while a seeded
:class:`NodeFaultPlan` crashes / hangs / slows / partitions nodes
mid-shard, and then demand:

* **byte-identity** — results and merged kernel stats equal the serial
  engine's, exactly;
* **full accounting** — every planned fault reached a terminal ledger
  outcome (absorbed / retried / expired / stale-discarded / degraded);
* **exactly-once** — the checkpoint journal holds exactly one record
  per shard (no shard executed-and-accounted twice), with the lease
  epoch of each accepted completion as provenance.

Each planned fault targets a *distinct* shard and is armed on that
shard's first dispatch, so a campaign of N faults genuinely fires N
faults — no fault can shadow another.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..align.base import Aligner
from ..align.batch import align_batch
from ..align.parallel import _resolve_start_method
from ..common.retry import RetryPolicy
from ..resilience.checkpoint import CheckpointJournal
from ..workloads.generator import generate_pair_set
from .coordinator import (
    DistBatchResult,
    DistConfig,
    DistCoordinator,
    NodeHandle,
)
from .packing import pack_shards
from .protocol import NODE_FAULT_KINDS, DistError, NodeFault


@dataclass
class NodeFaultPlan:
    """A seeded, replayable set of node-level faults.

    Every fault targets a distinct shard (``rng.sample``), so each one is
    guaranteed to fire on that shard's first dispatch; ``hang`` faults
    stall past the lease timeout (producing zombie completions), ``slow``
    faults stall below it (absorbed latency).
    """

    seed: int
    faults: List[NodeFault] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        seed: int,
        faults: int,
        shards: int,
        *,
        hang_seconds: float,
        slow_seconds: float,
        kinds=NODE_FAULT_KINDS,
    ) -> "NodeFaultPlan":
        if faults > shards:
            raise DistError(
                f"cannot plan {faults} faults over {shards} shards "
                f"(each fault needs its own shard)"
            )
        rng = random.Random(seed)
        targets = sorted(rng.sample(range(shards), faults))
        specs = []
        for target in targets:
            kind = kinds[rng.randrange(len(kinds))]
            if kind == "hang":
                seconds = hang_seconds
            elif kind == "slow":
                seconds = slow_seconds
            else:
                seconds = 0.0
            specs.append(NodeFault(kind=kind, shard=target, seconds=seconds))
        return cls(seed=seed, faults=specs)

    def by_kind(self) -> Dict[str, int]:
        counts = {kind: 0 for kind in NODE_FAULT_KINDS}
        for fault in self.faults:
            counts[fault.kind] += 1
        return counts

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults],
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "NodeFaultPlan":
        data = json.loads(payload)
        return cls(
            seed=int(data["seed"]),
            faults=[NodeFault.from_dict(item) for item in data["faults"]],
        )


class NodeSupervisor:
    """Keeps one worker-node process alive on a stable port.

    The first :meth:`start` binds an ephemeral port (handshaked back
    over a pipe); every respawn rebinds the *same* port under an
    incremented incarnation, so the coordinator's node URL stays valid
    across crashes — exactly what an init system / container restart
    policy provides in production.
    """

    def __init__(
        self,
        aligner: Aligner,
        name: str,
        *,
        workers: int = 1,
        host: str = "127.0.0.1",
    ) -> None:
        self.aligner = aligner
        self.name = name
        self.workers = workers
        self.host = host
        self.port = 0
        self.incarnation = 0
        self.respawns = 0
        self.process: Optional[multiprocessing.Process] = None
        self._method = _resolve_start_method(None)
        self._lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        from .worker import _worker_entry

        with self._lock:
            self.incarnation += 1
            context = multiprocessing.get_context(self._method)
            parent_conn, child_conn = context.Pipe()
            self.process = context.Process(
                target=_worker_entry,
                args=(
                    child_conn,
                    self.aligner,
                    self.host,
                    self.port,
                    self.name,
                    self.incarnation,
                    self.workers,
                ),
                name=f"repro-dist-{self.name}",
                daemon=True,
            )
            self.process.start()
            child_conn.close()
            if not parent_conn.poll(15.0):
                self.stop()
                raise DistError(
                    f"{self.name}: worker process never reported its port"
                )
            self.port = parent_conn.recv()
            parent_conn.close()

    def ensure_alive(self) -> bool:
        """Respawn the node if its process died; True when it respawned."""
        with self._lock:
            process = self.process
        if process is None or process.is_alive():
            return False
        process.join(timeout=1.0)
        self.respawns += 1
        self.start()
        return True

    def stop(self) -> None:
        with self._lock:
            process = self.process
            self.process = None
        if process is not None and process.is_alive():
            process.terminate()
        if process is not None:
            process.join(timeout=5.0)


@dataclass
class DistCampaignReport:
    """Verdict + evidence of one distributed chaos campaign."""

    seed: int
    nodes: int
    node_workers: int
    pairs: int
    shards: int
    planned: Dict[str, int]
    outcomes: Dict[str, int]
    counters: Dict[str, int]
    node_stats: Dict[str, dict]
    respawns: int
    identical: bool
    accounted: bool
    exactly_once: bool
    journal_entries: int
    wall_seconds: float
    degraded_locally: bool = False

    @property
    def faults(self) -> int:
        return sum(self.planned.values())

    @property
    def ok(self) -> bool:
        return self.identical and self.accounted and self.exactly_once

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "nodes": self.nodes,
            "node_workers": self.node_workers,
            "pairs": self.pairs,
            "shards": self.shards,
            "faults": self.faults,
            "planned": self.planned,
            "outcomes": self.outcomes,
            "counters": self.counters,
            "node_stats": self.node_stats,
            "respawns": self.respawns,
            "identical": self.identical,
            "accounted": self.accounted,
            "exactly_once": self.exactly_once,
            "journal_entries": self.journal_entries,
            "degraded_locally": self.degraded_locally,
            "wall_seconds": round(self.wall_seconds, 2),
            "ok": self.ok,
        }

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        planned = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.planned.items())
        )
        outcomes = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(self.outcomes.items())
        )
        lines = [
            f"dist chaos campaign: {verdict}",
            f"  seed {self.seed} · {self.faults} faults · "
            f"{self.nodes} nodes x {self.node_workers} pool workers · "
            f"{self.pairs} pairs in {self.shards} shards",
            f"  planned      {planned}",
            f"  outcomes     {outcomes}",
            f"  byte-identical to serial: {self.identical}",
            f"  every fault accounted:    {self.accounted}",
            f"  exactly-once (journal):   {self.exactly_once} "
            f"({self.journal_entries} entries for {self.shards} shards)",
            f"  leases granted/expired:   "
            f"{self.counters.get('leases_granted', 0)}/"
            f"{self.counters.get('leases_expired', 0)}, "
            f"stale discards {self.counters.get('stale_discards', 0)}",
            f"  node respawns {self.respawns}, quarantined "
            f"{self.counters.get('nodes_quarantined', 0)}, "
            f"paroled {self.counters.get('nodes_paroled', 0)}, "
            f"local-fallback shards "
            f"{self.counters.get('local_shards', 0)}",
            f"  wall {self.wall_seconds:.1f}s",
        ]
        return "\n".join(lines)


def _outcome_histogram(dist: DistBatchResult) -> Dict[str, int]:
    outcomes: Dict[str, int] = {}
    for record in dist.ledger:
        outcomes[record.outcome] = outcomes.get(record.outcome, 0) + 1
    return outcomes


def run_dist_campaign(
    *,
    seed: int = 29,
    faults: int = 100,
    nodes: int = 3,
    node_workers: int = 1,
    length: int = 48,
    error_rate: float = 0.08,
    shard_size: int = 3,
    lease_timeout: float = 1.2,
    aligner: Optional[Aligner] = None,
    checkpoint: Optional[str] = None,
) -> DistCampaignReport:
    """Run one seeded distributed chaos campaign and report the verdict.

    Boots ``nodes`` real localhost worker processes, injects ``faults``
    planned node faults (kill / hang / slow / partition) while a batch
    runs through the coordinator, and compares the outcome byte-for-byte
    against the serial engine.  ~25% of shards are left fault-free so
    clean and faulted paths interleave.
    """
    if aligner is None:
        from ..align.full_gmx import FullGmxAligner

        aligner = FullGmxAligner()
    # Enough shards that every fault owns one, plus clean headroom.
    target_shards = max(faults + max(4, faults // 4), 8)
    pair_count = target_shards * shard_size
    workload = generate_pair_set(
        name=f"dist-chaos-{seed}",
        length=length,
        error_rate=error_rate,
        count=pair_count,
        seed=seed,
    )
    pairs = [(pair.pattern, pair.text) for pair in workload]
    shard_count = len(
        pack_shards(aligner, pairs, shard_size=shard_size)
    )

    reference = align_batch(aligner, pairs)

    plan = NodeFaultPlan.generate(
        seed,
        faults,
        shard_count,
        hang_seconds=lease_timeout * 2.2,
        slow_seconds=lease_timeout * 0.3,
    )

    cleanup_dir: Optional[tempfile.TemporaryDirectory] = None
    if checkpoint is None:
        cleanup_dir = tempfile.TemporaryDirectory(prefix="repro-dist-")
        checkpoint = str(Path(cleanup_dir.name) / "campaign.journal")

    supervisors = [
        NodeSupervisor(aligner, f"node-{index}", workers=node_workers)
        for index in range(nodes)
    ]
    started = time.perf_counter()
    watcher_stop = threading.Event()

    def _watch() -> None:
        while not watcher_stop.wait(0.15):
            for supervisor in supervisors:
                supervisor.ensure_alive()

    watcher = threading.Thread(
        target=_watch, name="repro-dist-watcher", daemon=True
    )
    try:
        for supervisor in supervisors:
            supervisor.start()
        handles = [
            NodeHandle(supervisor.name, supervisor.url)
            for supervisor in supervisors
        ]
        watcher.start()
        config = DistConfig(
            lease_timeout=lease_timeout,
            heartbeat_interval=min(0.25, lease_timeout / 4),
            shard_size=shard_size,
            retry=RetryPolicy(
                max_retries=10, backoff_base=0.05, jitter=0.25, seed=seed
            ),
            drain_timeout=lease_timeout * 2.2 + 4.0,
            max_node_failures=4,
        )
        coordinator = DistCoordinator(
            aligner,
            handles,
            config=config,
            checkpoint=checkpoint,
            fault_plan=plan,
        )
        dist = coordinator.run(pairs)
    finally:
        watcher_stop.set()
        if watcher.is_alive():
            watcher.join(timeout=5.0)
        for supervisor in supervisors:
            supervisor.stop()
    wall = time.perf_counter() - started

    identical = (
        dist.results == reference.results and dist.stats == reference.stats
    )
    # Exactly-once, proven from the journal itself: one record per shard.
    reopened = CheckpointJournal(
        checkpoint,
        {
            "aligner": coordinator.fingerprint,
            "traceback": True,
            "plan": None,
        },
    )
    journal_entries = len(reopened.entries)
    exactly_once = (
        journal_entries == dist.counters.shards
        and dist.counters.journal_writes == dist.counters.shards
    )
    if cleanup_dir is not None:
        cleanup_dir.cleanup()

    return DistCampaignReport(
        seed=seed,
        nodes=nodes,
        node_workers=node_workers,
        pairs=pair_count,
        shards=dist.counters.shards,
        planned=plan.by_kind(),
        outcomes=_outcome_histogram(dist),
        counters=dist.counters.to_dict(),
        node_stats=dist.nodes,
        respawns=sum(s.respawns for s in supervisors),
        identical=identical,
        accounted=dist.accounted(),
        exactly_once=exactly_once,
        journal_entries=journal_entries,
        wall_seconds=wall,
        degraded_locally=dist.counters.local_shards > 0,
    )
