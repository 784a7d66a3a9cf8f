"""Coordinator: leasing, exactly-once epoch fencing, degradation."""

import socket
import threading
import time

import pytest

from repro.align import FullGmxAligner, align_batch
from repro.dist import (
    DistConfig,
    DistCoordinator,
    DistError,
    NodeFault,
    NodeFaultPlan,
    NodeHandle,
    ShardCompletion,
    running_worker,
)
from repro.dist.coordinator import (
    MAX_LEASES_PER_NODE,
    _Lease,
    _least_leased,
    _NodeState,
    _Run,
)
from repro.resilience import CheckpointJournal
from repro.workloads import generate_pair_set


def _pairs(count=9, seed=31):
    pair_set = generate_pair_set("coord", 52, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


def _node_states():
    return [
        _NodeState(NodeHandle(name, f"http://127.0.0.1:{port}"))
        for name, port in (("c", 3), ("a", 1), ("b", 2))
    ]


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
                lease_timeout=0.5,
            ),
        )
        outcome = coordinator.run(pairs)
        assert outcome.results == reference.results
        assert outcome.counters.local_shards == 2
        assert outcome.nodes["ghost"]["alive"] is False


class TestSharding:
    def test_shards_are_contiguous_complete_and_capped(self, tmp_path):
        pairs = _pairs(11)
        journal_path = tmp_path / "dist.ckpt"
        outcome = DistCoordinator(
            FullGmxAligner(),
            [],
            config=DistConfig(shard_size=3),
            checkpoint=str(journal_path),
        ).run(pairs)
        assert outcome.counters.shards == 4
        # The journal keys every shard by the pair range it covers.
        journal = CheckpointJournal(str(journal_path), {})
        assert sorted(journal.entries) == [(0, 3), (3, 6), (6, 9), (9, 11)]

    def test_uniform_batch_cuts_into_equal_shards(self, tmp_path):
        pairs = _pairs(12)
        journal_path = tmp_path / "dist.ckpt"
        outcome = DistCoordinator(
            FullGmxAligner(),
            [],
            config=DistConfig(shard_size=4),
            checkpoint=str(journal_path),
        ).run(pairs)
        assert outcome.counters.shards == 3
        journal = CheckpointJournal(str(journal_path), {})
        assert sorted(journal.entries) == [(0, 4), (4, 8), (8, 12)]

    def test_bad_shard_size_rejected_before_any_node_is_contacted(self):
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            listener.settimeout(0.3)
            url = "http://127.0.0.1:%d" % listener.getsockname()[1]
            coordinator = DistCoordinator(
                FullGmxAligner(),
                [NodeHandle("n0", url)],
                config=DistConfig(shard_size=0, heartbeat_interval=0.01),
            )
            with pytest.raises(ValueError, match="shard size must be positive"):
                coordinator.run(_pairs(2))
            with pytest.raises(socket.timeout):
                listener.accept()  # no heartbeat and no shard ever connected

    def test_empty_batch_returns_no_results(self):
        outcome = DistCoordinator(
            FullGmxAligner(), [NodeHandle("n0", "http://127.0.0.1:1")]
        ).run([])
        assert outcome.results == []
        assert outcome.counters.shards == 0
        assert outcome.counters.leases_granted == 0

    def test_ready_shard_goes_to_the_node_with_fewest_leases(self):
        states = _node_states()
        by_name = {state.handle.name: state for state in states}
        by_name["a"].leases = 1
        assert _least_leased(states) is by_name["b"]
        by_name["b"].leases = 1
        by_name["c"].leases = 2
        assert _least_leased(states) is by_name["a"]

    def test_fresh_nodes_tie_break_by_name(self):
        states = _node_states()
        by_name = {state.handle.name: state for state in states}
        assert _least_leased(states) is by_name["a"]

    def test_no_node_is_chosen_when_every_node_is_at_its_lease_cap(self):
        assert _least_leased([]) is None
        states = _node_states()
        for state in states:
            state.leases = MAX_LEASES_PER_NODE
        assert _least_leased(states) is None


class TestDrain:
    def test_no_dispatch_thread_outlives_run(self):
        aligner = FullGmxAligner()
        pairs = _pairs(4)
        # Shard 0's first lease hangs past its deadline, so its zombie
        # dispatcher is still waiting when the re-leased shard completes.
        plan = NodeFaultPlan(
            seed=0, faults=[NodeFault(kind="hang", shard=0, seconds=1.0)]
        )
        with running_worker(aligner, node="n0") as (_worker, url):
            outcome = DistCoordinator(
                aligner,
                [NodeHandle("n0", url)],
                config=DistConfig(
                    shard_size=2, heartbeat_interval=0.1, lease_timeout=0.4
                ),
                fault_plan=plan,
            ).run(pairs)
            assert not [
                thread
                for thread in threading.enumerate()
                if thread.name.startswith("repro-dist-dispatch-")
            ]
        assert outcome.results == align_batch(aligner, pairs).results
        assert outcome.counters.leases_expired == 1
        # The drain observed the zombie reply instead of dropping it.
        assert outcome.counters.stale_discards == 1
        assert [record.outcome for record in outcome.ledger] == [
            "stale-discarded"
        ]


class _RecordingRun(_Run):
    """A run that logs what it records and requeues."""

    def __init__(self, *args):
        super().__init__(*args)
        self.recorded = []
        self.requeued = []

    def record(self, shard_id, results, epoch, node):
        self.recorded.append((epoch, node))
        super().record(shard_id, results, epoch, node)

    def requeue(self, lease, reason):
        self.requeued.append((lease.epoch, reason))
        super().requeue(lease, reason)


class _EventHarness:
    """One-shard run state for driving ``_Run.handle`` directly."""

    def __init__(self, aligner, pairs):
        self.coordinator = DistCoordinator(
            aligner,
            [NodeHandle("n0", "http://127.0.0.1:1")],
            config=DistConfig(shard_size=len(pairs)),
        )
        self.run = _RecordingRun(self.coordinator, pairs, True)
        self.run.epochs[0] = 1
        self.coordinator.nodes["n0"].leases = 1
        self.checksums = self.run.checksums
        self.epochs = self.run.epochs
        self.leases = self.run.leases
        self.counters = self.run.counters
        self.results_by_shard = self.run.results
        self.recorded = self.run.recorded
        self.requeued = self.run.requeued

    def lease(self, epoch):
        lease = _Lease(
            shard_id=0, epoch=epoch, node="n0",
            deadline=time.monotonic() + 5.0,
        )
        self.leases[0] = lease
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
        self.run.handle(event, draining=draining)


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
