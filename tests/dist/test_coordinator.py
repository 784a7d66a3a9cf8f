"""Coordinator: leasing, exactly-once epoch fencing, degradation."""

import time

import pytest

from repro.align import FullGmxAligner, align_batch
from repro.align.parallel import BatchTelemetry
from repro.dist import (
    DistConfig,
    DistCoordinator,
    DistError,
    NodeHandle,
    PackedShard,
    ShardCompletion,
    running_worker,
)
from repro.dist.coordinator import DistCounters, _Lease
from repro.resilience.injectors import shard_checksum
from repro.resilience import CheckpointJournal
from repro.workloads import generate_pair_set


def _pairs(count=9, seed=31):
    pair_set = generate_pair_set("coord", 52, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


class TestConstruction:
    def test_duplicate_node_names_rejected(self):
        nodes = [
            NodeHandle("n0", "http://127.0.0.1:1"),
            NodeHandle("n0", "http://127.0.0.1:2"),
        ]
        with pytest.raises(DistError, match="duplicate node name"):
            DistCoordinator(FullGmxAligner(), nodes)

    def test_bad_url_rejected_eagerly(self):
        with pytest.raises(DistError, match="needs host:port"):
            DistCoordinator(
                FullGmxAligner(), [NodeHandle("n0", "not-a-url")]
            )


class TestHappyPath:
    def test_byte_identical_to_serial(self):
        aligner = FullGmxAligner()
        pairs = _pairs()
        reference = align_batch(aligner, pairs)
        with running_worker(aligner, node="n0") as (_worker, url):
            coordinator = DistCoordinator(
                aligner,
                [NodeHandle("n0", url)],
                config=DistConfig(shard_size=3, heartbeat_interval=0.1),
            )
            outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.stats == reference.stats
        assert outcome.counters.shards == 3
        assert outcome.counters.leases_granted == 3
        assert outcome.counters.leases_expired == 0
        assert outcome.counters.local_shards == 0
        assert outcome.nodes["n0"]["completed"] == 3
        assert outcome.telemetry.executor == "dist"

    def test_two_nodes_split_the_batch(self):
        aligner = FullGmxAligner()
        pairs = _pairs(12)
        reference = align_batch(aligner, pairs)
        with running_worker(aligner, node="a") as (_wa, url_a):
            with running_worker(aligner, node="b") as (_wb, url_b):
                coordinator = DistCoordinator(
                    aligner,
                    [NodeHandle("a", url_a), NodeHandle("b", url_b)],
                    config=DistConfig(shard_size=2, heartbeat_interval=0.1),
                )
                outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        completed = [state["completed"] for state in outcome.nodes.values()]
        assert sum(completed) == 6
        assert all(count > 0 for count in completed)

    def test_checkpoint_resume_skips_done_shards(self, tmp_path):
        aligner = FullGmxAligner()
        pairs = _pairs(8)
        journal_path = tmp_path / "dist.ckpt"
        with running_worker(aligner, node="n0") as (_worker, url):
            nodes = [NodeHandle("n0", url)]
            config = DistConfig(shard_size=2, heartbeat_interval=0.1)
            first = DistCoordinator(
                aligner, nodes, config=config,
                checkpoint=str(journal_path),
            ).run(pairs)
            second = DistCoordinator(
                aligner, nodes, config=config,
                checkpoint=str(journal_path),
            ).run(pairs)
        assert first.results == second.results
        assert second.counters.resumed_shards == 4
        assert second.counters.leases_granted == 0
        journal = CheckpointJournal(str(journal_path), {})
        assert len(journal.entries) == 4  # exactly one record per shard


class TestGracefulDegradation:
    def test_zero_configured_nodes_runs_locally(self):
        aligner = FullGmxAligner()
        pairs = _pairs(6)
        reference = align_batch(aligner, pairs)
        coordinator = DistCoordinator(
            aligner, [], config=DistConfig(shard_size=2)
        )
        outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.counters.local_shards == 3
        assert outcome.counters.leases_granted == 0

    def test_all_nodes_dead_falls_back_locally(self):
        aligner = FullGmxAligner()
        pairs = _pairs(4)
        reference = align_batch(aligner, pairs)
        # Nothing listens on this port: heartbeats fail immediately.
        coordinator = DistCoordinator(
            aligner,
            [NodeHandle("ghost", "http://127.0.0.1:1")],
            config=DistConfig(
                shard_size=2,
                heartbeat_interval=0.05,
                connect_timeout=0.2,
                lease_timeout=0.5,
                local_fallback_after=0.3,
            ),
        )
        outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.counters.local_shards == 2
        assert outcome.nodes["ghost"]["alive"] is False


class _EventHarness:
    """Synthetic run-loop state for driving ``_handle_event`` directly."""

    def __init__(self, aligner, pairs):
        self.coordinator = DistCoordinator(
            aligner, [NodeHandle("n0", "http://127.0.0.1:1")]
        )
        self.shard = PackedShard(
            shard_id=0, lo=0, hi=len(pairs), pairs=pairs, cost=100
        )
        self.by_id = {0: self.shard}
        self.checksums = {0: shard_checksum(pairs)}
        self.epochs = {0: 1}
        self.counters = DistCounters(shards=1)
        self.telemetry = BatchTelemetry(
            workers=1, shard_size=4, executor="dist"
        )
        self.results_by_shard = {}
        self.recorded = []
        self.requeued = []
        state = self.coordinator.nodes["n0"]
        state.leases = 1
        state.outstanding_cost = self.shard.cost

    def lease(self, epoch):
        now = time.monotonic()
        lease = _Lease(
            shard_id=0, epoch=epoch, node="n0",
            deadline=now + 5.0, started=now, attempt=1,
        )
        self.leases = {0: lease}
        return lease

    def completion(self, epoch, *, results, checksum=None):
        return ShardCompletion(
            shard_id=0,
            epoch=epoch,
            node="n0",
            incarnation=1,
            checksum=(
                self.checksums[0] if checksum is None else checksum
            ),
            results=results,
        )

    def handle(self, event, *, draining=False):
        self.coordinator._handle_event(
            event,
            self.by_id,
            self.checksums,
            self.epochs,
            self.leases,
            self.counters,
            self.telemetry,
            self.results_by_shard,
            self._record,
            self._requeue,
            draining=draining,
        )

    def _record(self, shard, results, epoch, node):
        self.results_by_shard[shard.shard_id] = results
        self.recorded.append((epoch, node))

    def _requeue(self, lease, reason):
        self.requeued.append((lease.epoch, reason))
        self.leases.pop(lease.shard_id, None)
        self.epochs[lease.shard_id] += 1


class TestLeaseEpochFencing:
    """Satellite: duplicate/zombie completions must never be accounted."""

    def _harness(self):
        aligner = FullGmxAligner()
        pairs = _pairs(2)
        results = [aligner.align(p, t) for p, t in pairs]
        return _EventHarness(aligner, pairs), results

    def test_current_epoch_completion_accounted_once(self):
        harness, results = self._harness()
        lease = harness.lease(epoch=1)
        harness.handle(
            ("completion", lease, harness.completion(1, results=results))
        )
        assert harness.recorded == [(1, "n0")]
        assert harness.counters.stale_discards == 0
        assert 0 not in harness.leases

    def test_duplicate_completion_discarded(self):
        harness, results = self._harness()
        lease = harness.lease(epoch=1)
        completion = harness.completion(1, results=results)
        harness.handle(("completion", lease, completion))
        harness.handle(("completion", lease, completion))  # the duplicate
        assert harness.recorded == [(1, "n0")]  # accounted exactly once
        assert harness.counters.stale_discards == 1
        assert harness.coordinator.nodes["n0"].stale == 1

    def test_stale_epoch_completion_discarded(self):
        harness, results = self._harness()
        old_lease = harness.lease(epoch=1)
        harness.epochs[0] = 2  # the shard was re-leased meanwhile
        harness.handle(
            ("completion", old_lease, harness.completion(1, results=results))
        )
        assert harness.recorded == []
        assert harness.counters.stale_discards == 1
        assert harness.results_by_shard == {}

    def test_corrupt_completion_requeued_not_accounted(self):
        harness, results = self._harness()
        lease = harness.lease(epoch=1)
        harness.handle(
            (
                "completion",
                lease,
                harness.completion(1, results=results, checksum=0xBAD),
            )
        )
        assert harness.recorded == []
        assert harness.counters.corrupt_completions == 1
        assert harness.requeued == [(1, "completion checksum mismatch")]

    def test_failure_from_expired_lease_ignored(self):
        harness, _results = self._harness()
        old_lease = harness.lease(epoch=1)
        harness.epochs[0] = 2
        harness.handle(("failure", old_lease, "connection reset"))
        assert harness.requeued == []
        assert harness.counters.lease_failures == 0

    def test_failure_from_current_lease_requeues(self):
        harness, _results = self._harness()
        lease = harness.lease(epoch=1)
        harness.handle(("failure", lease, "connection reset"))
        assert harness.requeued == [(1, "connection reset")]
        assert harness.counters.lease_failures == 1

    def test_failure_while_draining_ignored(self):
        harness, _results = self._harness()
        lease = harness.lease(epoch=1)
        harness.handle(("failure", lease, "late reset"), draining=True)
        assert harness.requeued == []
