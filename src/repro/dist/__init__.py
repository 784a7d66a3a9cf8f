"""Fault-tolerant multi-node shard execution (`repro.dist`).

A **coordinator** cuts a batch into the batch engines' plain contiguous
shards, **leases** each shard to the remote **worker node** with the
fewest leases (:mod:`.worker` — an HTTP wrapper around a warm
:class:`~repro.align.parallel.WorkerPool`), tracks node liveness with
heartbeats, and accounts every completion **exactly once** through the
resilience checkpoint journal (:mod:`.coordinator`).  Expired leases are
reassigned under the shared seeded retry policy, zombie completions are
discarded by lease epoch, repeatedly failing nodes are quarantined, and
with zero live nodes the whole batch degrades to local execution — the
batch always completes, byte-identical to a serial run.

The chaos proof lives in :mod:`.chaos`: a seeded ≥100-fault campaign
(node kill / hang / slow / partition mid-shard) across real localhost
worker processes, compared byte-for-byte against the serial engine.
"""

from .coordinator import (
    DistBatchResult,
    DistConfig,
    DistCoordinator,
    NodeHandle,
)
from .chaos import (
    DistCampaignReport,
    NodeFaultPlan,
    NodeSupervisor,
    run_dist_campaign,
)
from .protocol import (
    NODE_FAULT_KINDS,
    DistError,
    NodeFault,
    ProtocolError,
    ShardCompletion,
    ShardRequest,
)
from .worker import DistWorker, run_worker, running_worker

__all__ = [
    "DistBatchResult",
    "DistCampaignReport",
    "DistConfig",
    "DistCoordinator",
    "DistError",
    "DistWorker",
    "NODE_FAULT_KINDS",
    "NodeFault",
    "NodeFaultPlan",
    "NodeHandle",
    "NodeSupervisor",
    "ProtocolError",
    "ShardCompletion",
    "ShardRequest",
    "run_dist_campaign",
    "run_worker",
    "running_worker",
]
