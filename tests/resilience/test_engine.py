"""Tests for the fault-tolerant batch engine (repro.resilience.engine)."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.align import FullGmxAligner, align_batch
from repro.align.batch import BatchResult
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilientBatchResult,
    RetryPolicy,
    align_batch_resilient,
)
from repro.workloads import generate_pair_set


@pytest.fixture(scope="module")
def pairs():
    return list(
        generate_pair_set("resilience", length=48, error_rate=0.1, count=6, seed=3)
    )


@pytest.fixture(scope="module")
def aligner():
    return FullGmxAligner(tile_size=8)


@pytest.fixture(scope="module")
def reference(aligner, pairs):
    return align_batch(aligner, pairs)


def _plan(pair_count, *specs):
    return FaultPlan(seed=0, pair_count=pair_count, faults=tuple(specs))


class _KillOnceAligner(FullGmxAligner):
    """SIGKILLs the pool worker that first aligns ``victim``.

    A marker file makes the kill happen once across all processes, and
    the test process itself is never the victim.
    """

    def __init__(self, victim, marker, **kwargs):
        super().__init__(**kwargs)
        self.victim = victim
        self.marker = marker
        self.parent = os.getpid()

    def align(self, pattern, text, traceback=True):
        if pattern == self.victim and os.getpid() != self.parent:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().align(pattern, text, traceback=traceback)


class _PausingAligner(FullGmxAligner):
    """Sleeps ``pause`` seconds before every alignment."""

    def __init__(self, pause, **kwargs):
        super().__init__(**kwargs)
        self.pause = pause

    def align(self, pattern, text, traceback=True):
        time.sleep(self.pause)
        return super().align(pattern, text, traceback=traceback)


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy(seed=5)
        assert policy.delay(3, 1) == policy.delay(3, 1)

    def test_delay_grows_with_attempt(self):
        policy = RetryPolicy(backoff_base=0.01, backoff_factor=2.0, jitter=0.0)
        assert policy.delay(0, 3) > policy.delay(0, 1)

    def test_distinct_keys_decorrelate(self):
        policy = RetryPolicy(seed=5, jitter=0.5)
        assert policy.delay(1, 1) != policy.delay(2, 1)


class TestHealthyRuns:
    def test_identical_to_serial_batch(self, aligner, pairs, reference):
        batch = align_batch_resilient(aligner, pairs, shard_size=2)
        assert isinstance(batch, ResilientBatchResult)
        assert isinstance(batch, BatchResult)
        assert batch.results == reference.results
        assert batch.stats == reference.stats
        assert batch.quarantined == []
        assert batch.ledger == []
        assert batch.telemetry.executor == "resilient-inline"

    def test_empty_batch(self, aligner):
        batch = align_batch_resilient(aligner, [])
        assert batch.results == []
        assert batch.telemetry.resilience.faults_detected == 0


class TestTransientFaults:
    """Each fault fires once; retries run clean, so output is byte-identical."""

    def test_crash_is_retried(self, aligner, pairs, reference):
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="crash",
                      pair_index=2, seed=5),
        )
        batch = align_batch_resilient(
            aligner, pairs, shard_size=2, fault_plan=plan, max_retries=2
        )
        assert batch.results == reference.results
        assert batch.stats == reference.stats
        counters = batch.telemetry.resilience
        assert counters.faults_injected == 1
        assert counters.crashes >= 1
        assert counters.retries >= 1
        assert [record.outcome for record in batch.ledger] == ["retried"]

    def test_hang_hits_the_deadline(self, aligner, pairs, reference):
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="hang",
                      pair_index=0, seed=5),
        )
        batch = align_batch_resilient(
            aligner, pairs, shard_size=2, fault_plan=plan,
            shard_timeout=0.2, max_retries=2,
        )
        assert batch.results == reference.results
        counters = batch.telemetry.resilience
        assert counters.timeouts >= 1
        assert batch.ledger[0].outcome == "retried"

    def test_data_garble_caught_by_checksum(self, aligner, pairs, reference):
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="data", kind="garble",
                      pair_index=3, seed=7),
        )
        batch = align_batch_resilient(
            aligner, pairs, shard_size=2, fault_plan=plan, max_retries=2
        )
        assert batch.results == reference.results
        assert batch.telemetry.resilience.data_faults >= 1
        assert batch.ledger[0].outcome == "retried"

    def test_hardware_bitflip_caught_by_cross_check(
        self, aligner, pairs, reference
    ):
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="hardware", kind="bitflip",
                      pair_index=1, seed=1),
        )
        batch = align_batch_resilient(
            aligner, pairs, shard_size=2, fault_plan=plan,
            cross_check=True, max_retries=2,
        )
        assert batch.results == reference.results
        counters = batch.telemetry.resilience
        assert counters.faults_detected >= 1
        assert batch.ledger[0].outcome == "retried"

    def test_unpicklable_reply_detected(self, aligner, pairs, reference):
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="unpicklable",
                      pair_index=4, seed=5),
        )
        batch = align_batch_resilient(
            aligner, pairs, shard_size=2, fault_plan=plan, max_retries=2
        )
        assert batch.results == reference.results
        assert batch.ledger[0].outcome == "retried"


class TestDegradationChain:
    def test_persistent_fault_bisects_then_falls_back(
        self, aligner, pairs, reference
    ):
        # A crash that re-fires on every attempt can never be retried away:
        # the shard must be bisected down to the poison pair, which is then
        # answered by the fallback aligner in the parent.
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="crash",
                      pair_index=1, seed=5, persistent=True),
        )
        batch = align_batch_resilient(
            aligner, pairs, shard_size=4, fault_plan=plan, max_retries=1
        )
        scores = [result.score for result in batch.results]
        assert scores == [result.score for result in reference.results]
        counters = batch.telemetry.resilience
        assert counters.bisections >= 1
        assert counters.fallbacks == 1
        assert batch.ledger[0].outcome == "degraded"
        assert batch.quarantined == []

    def test_organic_poison_pair_is_quarantined(self, aligner):
        # An empty pattern is rejected by the GMX aligner AND the BPM
        # fallback — the full chain fails, the pair is excluded and
        # reported, and the batch still completes.
        poison = [("ACGT", "ACGA"), ("", "ACGT"), ("GGGG", "GGGT")]
        batch = align_batch_resilient(
            aligner, poison, shard_size=3, max_retries=0
        )
        assert len(batch.results) == 2
        assert [result.score for result in batch.results] == [1, 1]
        assert len(batch.quarantined) == 1
        assert batch.quarantined[0].index == 1
        assert batch.quarantined[0].pattern == ""
        assert "fallback" in batch.quarantined[0].reason
        assert batch.telemetry.resilience.quarantined_pairs == 1


class TestCheckpointResume:
    def test_resume_replays_journalled_shards(
        self, aligner, pairs, reference, tmp_path
    ):
        journal = str(tmp_path / "run.journal")
        first = align_batch_resilient(
            aligner, pairs, shard_size=2, checkpoint=journal
        )
        assert first.results == reference.results
        counters = first.telemetry.resilience
        assert counters.checkpoints_written == 3
        assert counters.shards_resumed == 0

        second = align_batch_resilient(
            aligner, pairs, shard_size=2, checkpoint=journal
        )
        assert second.results == reference.results
        assert second.stats == reference.stats
        counters = second.telemetry.resilience
        assert counters.shards_resumed == 3
        assert counters.checkpoints_written == 0

    def test_resume_skips_completed_work_under_faults(
        self, aligner, pairs, reference, tmp_path
    ):
        # Same plan, same journal: the first run absorbs the crash and
        # journals every shard, so the resumed run replays from disk and
        # no fault ever gets to fire — the ledger says so explicitly.
        journal = str(tmp_path / "run.journal")
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="crash",
                      pair_index=2, seed=5),
        )
        first = align_batch_resilient(
            aligner, pairs, shard_size=2, checkpoint=journal, fault_plan=plan
        )
        assert first.results == reference.results
        assert first.telemetry.resilience.crashes >= 1

        resumed = align_batch_resilient(
            aligner, pairs, shard_size=2, checkpoint=journal, fault_plan=plan
        )
        assert resumed.results == reference.results
        assert resumed.ledger[0].outcome == "resumed"
        assert resumed.telemetry.resilience.crashes == 0
        assert resumed.telemetry.resilience.shards_resumed == 3

    def test_journal_with_different_plan_is_rejected(
        self, aligner, pairs, tmp_path
    ):
        # The plan fingerprint is part of the journal identity: resuming a
        # fault-free journal under a fault plan would mix two different
        # runs, and is refused rather than silently accepted.
        from repro.resilience import CheckpointError

        journal = str(tmp_path / "run.journal")
        align_batch_resilient(aligner, pairs, shard_size=2, checkpoint=journal)
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="crash",
                      pair_index=2, seed=5),
        )
        with pytest.raises(CheckpointError):
            align_batch_resilient(
                aligner, pairs, shard_size=2, checkpoint=journal,
                fault_plan=plan,
            )

    def test_journal_from_another_tile_size_is_rejected(self, pairs, tmp_path):
        # The journal names the aligner by its configuration, not just its
        # class: tile_size=32 results must not be replayed at tile_size=8.
        from repro.resilience import CheckpointError

        journal = str(tmp_path / "run.journal")
        align_batch_resilient(
            FullGmxAligner(tile_size=32), pairs, shard_size=2,
            checkpoint=journal,
        )
        with pytest.raises(CheckpointError):
            align_batch_resilient(
                FullGmxAligner(tile_size=8), pairs, shard_size=2,
                checkpoint=journal,
            )


@pytest.mark.slow
class TestProcessPool:
    """The supervised multiprocessing path (skipped where unavailable)."""

    def test_pool_matches_serial(self, aligner, pairs, reference):
        batch = align_batch_resilient(
            aligner, pairs, workers=2, shard_size=2, shard_timeout=30.0
        )
        if batch.telemetry.executor == "resilient-inline":
            pytest.skip("no usable multiprocessing start method")
        assert batch.results == reference.results
        assert batch.stats == reference.stats

    def test_pool_survives_a_crash(self, aligner, pairs, reference):
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="crash",
                      pair_index=2, seed=5),
        )
        batch = align_batch_resilient(
            aligner, pairs, workers=2, shard_size=2,
            fault_plan=plan, max_retries=2, shard_timeout=30.0,
        )
        if batch.telemetry.executor == "resilient-inline":
            pytest.skip("no usable multiprocessing start method")
        assert batch.results == reference.results
        assert batch.ledger[0].outcome == "retried"

    def test_killed_pool_worker_is_a_crash(self, pairs, reference, tmp_path):
        # No deadline at all: only the pool's liveness check can notice
        # the SIGKILLed worker, and its attempt must still be retried.
        marker = tmp_path / "killed"
        aligner = _KillOnceAligner(pairs[2].pattern, str(marker), tile_size=8)
        batch = align_batch_resilient(aligner, pairs, workers=2, shard_size=2)
        if batch.telemetry.executor == "resilient-inline":
            pytest.skip("no usable multiprocessing start method")
        assert marker.exists()
        assert batch.results == reference.results
        assert batch.stats == reference.stats
        assert batch.telemetry.resilience.crashes >= 1

    def test_hang_charges_only_the_late_attempt(self, pairs, reference):
        # Three 0.7 s shards on two workers.  Shard 0 hangs; shard 2 starts
        # when shard 1 finishes, so it is mid-flight when shard 0 misses
        # its 1 s deadline and the pool is rebuilt under it.  It reruns
        # uncharged: one timeout, one retry, nothing else.
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="hang",
                      pair_index=0, seed=5),
        )
        batch = align_batch_resilient(
            _PausingAligner(0.35, tile_size=8), pairs, workers=2,
            shard_size=2, fault_plan=plan, shard_timeout=1.0,
        )
        if batch.telemetry.executor == "resilient-inline":
            pytest.skip("no usable multiprocessing start method")
        assert batch.results == reference.results
        counters = batch.telemetry.resilience
        assert counters.timeouts == 1
        assert counters.retries == 1
        assert counters.crashes == 0
        assert batch.ledger[0].outcome == "retried"

    def test_no_worker_outlives_a_run(self, aligner, pairs):
        align_batch_resilient(aligner, pairs, workers=2, shard_size=2)
        plan = _plan(
            6,
            FaultSpec(fault_id=0, layer="worker", kind="hang",
                      pair_index=0, seed=5),
        )
        align_batch_resilient(
            aligner, pairs, workers=2, shard_size=2, fault_plan=plan,
            shard_timeout=0.3,
        )

        def broken_stream():
            yield from pairs[:4]
            raise RuntimeError("input stream broke")

        with pytest.raises(RuntimeError, match="input stream broke"):
            align_batch_resilient(
                aligner, broken_stream(), workers=2, shard_size=2
            )
        assert multiprocessing.active_children() == []
