"""Wire protocol: message round-trips, fault validation, checksums."""

import pytest

from repro.align import FullGmxAligner
from repro.dist import (
    NODE_FAULT_KINDS,
    NodeFault,
    NodeFaultPlan,
    ProtocolError,
    ShardCompletion,
    ShardRequest,
)
from repro.resilience.injectors import shard_checksum

PAIRS = [("ACGTACGT", "ACGAACGT"), ("TTTT", "TTAT")]


class TestNodeFault:
    def test_valid_kinds(self):
        for kind in NODE_FAULT_KINDS:
            fault = NodeFault(kind=kind, shard=3, seconds=0.5)
            assert fault.kind == kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown node fault kind"):
            NodeFault(kind="meteor", shard=0)

    def test_dict_round_trip(self):
        fault = NodeFault(kind="hang", shard=7, seconds=1.5)
        assert NodeFault.from_dict(fault.to_dict()) == fault

    def test_malformed_dict_rejected(self):
        with pytest.raises(ProtocolError, match="malformed node fault"):
            NodeFault.from_dict({"kind": "hang"})


class TestShardRequest:
    def test_json_round_trip(self):
        request = ShardRequest(
            shard_id=4,
            epoch=2,
            pairs=PAIRS,
            traceback=False,
            fingerprint="abc123",
            want_obs=True,
            fault=NodeFault(kind="slow", shard=4, seconds=0.2),
        )
        parsed = ShardRequest.from_json(request.to_json())
        assert parsed == request
        assert parsed.pairs == PAIRS

    def test_fault_free_round_trip(self):
        request = ShardRequest(shard_id=0, epoch=1, pairs=PAIRS)
        parsed = ShardRequest.from_json(request.to_json())
        assert parsed.fault is None
        assert parsed.traceback is True

    def test_garbage_body_rejected(self):
        with pytest.raises(ProtocolError, match="malformed shard request"):
            ShardRequest.from_json(b"not json at all")

    def test_missing_field_rejected(self):
        with pytest.raises(ProtocolError, match="malformed shard request"):
            ShardRequest.from_json(b'{"shard_id": 1}')


class TestShardCompletion:
    def test_json_round_trip_preserves_results(self):
        aligner = FullGmxAligner()
        results = [aligner.align(p, t) for p, t in PAIRS]
        completion = ShardCompletion(
            shard_id=4,
            epoch=2,
            node="node0",
            incarnation=3,
            checksum=shard_checksum(PAIRS),
            results=results,
            elapsed=0.01,
            spans=[{"name": "kernel"}],
            metrics={"counter": 1},
        )
        parsed = ShardCompletion.from_json(completion.to_json())
        assert parsed.epoch == 2
        assert parsed.node == "node0"
        assert parsed.incarnation == 3
        assert parsed.checksum == completion.checksum
        assert parsed.results == results
        assert parsed.spans == [{"name": "kernel"}]
        assert parsed.metrics == {"counter": 1}

    def test_garbage_body_rejected(self):
        with pytest.raises(ProtocolError, match="malformed shard completion"):
            ShardCompletion.from_json(b"\xff\xfe")


class TestShardChecksum:
    def test_deterministic(self):
        assert shard_checksum(PAIRS) == shard_checksum(list(PAIRS))

    def test_order_sensitive(self):
        assert shard_checksum(PAIRS) != shard_checksum(PAIRS[::-1])

    def test_content_sensitive(self):
        mutated = [("ACGTACGT", "ACGAACGA"), PAIRS[1]]
        assert shard_checksum(PAIRS) != shard_checksum(mutated)


class TestNodeFaultPlan:
    def test_deterministic_for_seed(self):
        a = NodeFaultPlan.generate(
            5, 10, 40, hang_seconds=1.0, slow_seconds=0.1
        )
        b = NodeFaultPlan.generate(
            5, 10, 40, hang_seconds=1.0, slow_seconds=0.1
        )
        assert a.faults == b.faults

    def test_distinct_shards_per_fault(self):
        plan = NodeFaultPlan.generate(
            7, 20, 25, hang_seconds=1.0, slow_seconds=0.1
        )
        targets = [fault.shard for fault in plan.faults]
        assert len(set(targets)) == len(targets) == 20
        assert all(0 <= target < 25 for target in targets)

    def test_more_faults_than_shards_rejected(self):
        from repro.dist import DistError

        with pytest.raises(DistError, match="cannot plan"):
            NodeFaultPlan.generate(
                1, 10, 5, hang_seconds=1.0, slow_seconds=0.1
            )

    def test_json_round_trip(self):
        plan = NodeFaultPlan.generate(
            3, 6, 12, hang_seconds=2.0, slow_seconds=0.2
        )
        assert NodeFaultPlan.from_json(plan.to_json()) == plan

    def test_durations_by_kind(self):
        plan = NodeFaultPlan.generate(
            11, 30, 40, hang_seconds=2.5, slow_seconds=0.25
        )
        for fault in plan.faults:
            if fault.kind == "hang":
                assert fault.seconds == 2.5
            elif fault.kind == "slow":
                assert fault.seconds == 0.25
            else:
                assert fault.seconds == 0.0
