"""AlignmentService semantics: byte-identity, cache, dedup, admission."""

import multiprocessing
import threading
import time

import pytest

from repro.align import FullGmxAligner, align_batch
from repro.serve import (
    AlignmentService,
    ServeConfig,
    ServeError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.workloads import generate_pair_set

HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())

needs_processes = pytest.mark.skipif(
    not HAS_PROCESSES, reason="no multiprocessing start method available"
)


def _workload(count=16, length=90, seed=31):
    pair_set = generate_pair_set("service", length, 0.08, count, seed=seed)
    return [(p.pattern, p.text) for p in pair_set]


def _rows(results):
    return [(r.score, r.cigar, r.exact, r.text_start, r.text_end)
            for r in results]


class _GatedAligner(FullGmxAligner):
    """Aligner whose align() blocks until the test releases it."""

    def __init__(self, gate, **kwargs):
        super().__init__(**kwargs)
        self.gate = gate

    def align(self, pattern, text, traceback=True):
        self.gate.wait(timeout=30)
        return super().align(pattern, text, traceback=traceback)


class _PoisonAligner(FullGmxAligner):
    """Aligner that raises on a marker pattern (application-error drills)."""

    def align(self, pattern, text, traceback=True):
        if pattern == "POISON":
            raise ValueError("poisoned pair")
        return super().align(pattern, text, traceback=traceback)


class _SlowAligner(FullGmxAligner):
    """Picklable aligner slower than several of the pool's liveness checks."""

    def align(self, pattern, text, traceback=True):
        time.sleep(0.5)
        return super().align(pattern, text, traceback=traceback)


def test_single_pair_matches_direct_alignment_including_stats():
    pattern, text = _workload(count=1)[0]
    direct = FullGmxAligner().align(pattern, text)
    config = ServeConfig(workers=1)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        served = service.align_pair(pattern, text)
    assert served.score == direct.score
    assert served.cigar == direct.cigar
    assert served.exact == direct.exact
    assert served.stats == direct.stats
    assert served.cached is False


def test_served_batch_identical_to_serial_batch():
    workload = _workload()
    serial = align_batch(FullGmxAligner(), workload)
    config = ServeConfig(workers=1)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        served = service.align_pairs(workload)
    assert _rows(served) == _rows(serial.results)
    assert [r.stats for r in served] == [r.stats for r in serial.results]


def test_eight_concurrent_threads_byte_identical():
    """The coalescing/caching acceptance bar: 8 threads, same bytes."""
    workload = _workload(count=12)
    serial_rows = _rows(align_batch(FullGmxAligner(), workload).results)
    config = ServeConfig(workers=1)
    outcomes = {}
    errors = []
    with AlignmentService(FullGmxAligner(), config=config) as service:

        def client(index):
            try:
                # Each thread rotates the workload so requests interleave
                # differently — coalesced batches mix pairs from many
                # threads and later threads hit the cache.
                rotated = workload[index:] + workload[:index]
                results = service.align_pairs(rotated, timeout=120)
                restored = results[-index:] + results[:-index] if index else results
                outcomes[index] = _rows(restored)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((index, exc))

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = service.metrics_snapshot()

    assert not errors, errors
    assert len(outcomes) == 8
    for rows in outcomes.values():
        assert rows == serial_rows
    # The overlap was actually served from cache/dedup, not recomputed 8x.
    requests = snapshot["requests"]
    assert requests["pairs"] == 8 * len(workload)
    assert requests["computed"] < requests["pairs"]
    assert requests["cached"] + requests["deduped"] > 0


def test_cache_hit_identical_to_cold_miss():
    workload = _workload(count=6)
    config = ServeConfig(workers=1)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        cold = service.align_pairs(workload)
        hot = service.align_pairs(workload)
        snapshot = service.metrics_snapshot()
    assert _rows(hot) == _rows(cold)
    assert [r.stats for r in hot] == [r.stats for r in cold]
    assert all(not r.cached for r in cold)
    assert all(r.cached for r in hot)
    assert snapshot["cache"]["hits"] == len(workload)
    assert snapshot["requests"]["computed"] == len(workload)


def test_cache_disabled_always_computes():
    workload = _workload(count=4)
    config = ServeConfig(workers=1, cache_size=0)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        first = service.align_pairs(workload)
        second = service.align_pairs(workload)
        snapshot = service.metrics_snapshot()
    assert _rows(first) == _rows(second)
    assert all(not r.cached for r in first + second)
    assert snapshot["requests"]["computed"] == 2 * len(workload)


def test_identical_inflight_requests_deduplicate():
    gate = threading.Event()
    pattern, text = _workload(count=1)[0]
    expected = FullGmxAligner().align(pattern, text)
    config = ServeConfig(workers=1)
    service = AlignmentService(_GatedAligner(gate), config=config)
    with service:
        first = service.submit(pattern, text)
        # While the first computation is gated, identical submissions
        # attach to it instead of dispatching again.
        waiters = [service.submit(pattern, text) for _ in range(3)]
        gate.set()
        first_result = first.result(timeout=30)
        waiter_results = [w.result(timeout=30) for w in waiters]
    assert first_result.score == expected.score
    assert first_result.cached is False
    for result in waiter_results:
        assert (result.score, result.cigar) == (
            first_result.score, first_result.cigar
        )
        assert result.cached is True
    assert service.pairs_deduped == 3
    assert service.pairs_computed == 1


def test_admission_control_rejects_past_max_inflight():
    gate = threading.Event()
    workload = _workload(count=4, seed=37)
    config = ServeConfig(
        workers=1, cache_size=0, max_inflight=2,
        retry_after=0.125,
    )
    service = AlignmentService(_GatedAligner(gate), config=config)
    with service:
        accepted = [
            service.submit(pattern, text) for pattern, text in workload[:2]
        ]
        with pytest.raises(ServiceSaturatedError) as excinfo:
            service.submit(*workload[2])
        assert excinfo.value.retry_after == 0.125
        assert service.pairs_rejected == 1
        gate.set()
        for future in accepted:
            future.result(timeout=30)
        # Draining the backlog reopens admission.
        late = service.align_pair(*workload[3], timeout=30)
    assert late.score is not None
    assert service.pairs_rejected == 1


def test_closed_service_rejects_requests():
    service = AlignmentService(FullGmxAligner(), config=ServeConfig(workers=1))
    with pytest.raises(ServiceClosedError):
        service.submit("ACGT", "ACGA")  # never started
    service.start()
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit("ACGT", "ACGA")
    service.close()  # idempotent


def test_non_string_pair_rejected():
    with AlignmentService(config=ServeConfig(workers=1)) as service:
        with pytest.raises(ServeError):
            service.submit(b"ACGT", "ACGA")


def test_invalid_max_inflight_rejected():
    with pytest.raises(ServeError):
        AlignmentService(config=ServeConfig(workers=1, max_inflight=0))


@needs_processes
def test_process_mode_identical_to_serial():
    workload = _workload(count=10, seed=41)
    serial = align_batch(FullGmxAligner(), workload)
    config = ServeConfig(workers=2, coalesce_max_pairs=4)
    with AlignmentService(FullGmxAligner(), config=config) as service:
        assert service.pool.process_mode
        served = service.align_pairs(workload)
        health = service.health()
    assert _rows(served) == _rows(serial.results)
    assert [r.stats for r in served] == [r.stats for r in serial.results]
    assert health["executor"] in ("fork", "spawn", "forkserver")


def test_empty_pair_rejected_before_dispatch():
    """Empty sequences are a 400-class submit error, never a shard error."""
    with AlignmentService(config=ServeConfig(workers=1)) as service:
        for bad in (("", "ACGT"), ("ACGT", ""), ("", "")):
            with pytest.raises(ServeError):
                service.submit(*bad)
        # The rejections never reached a shard: nothing failed, nothing
        # recovered, and the service still serves.
        pattern, text = _workload(count=1)[0]
        result = service.align_pair(pattern, text)
        assert result.score == FullGmxAligner().align(pattern, text).score
        assert service.pairs_failed == 0
        assert service.shard_recoveries == 0
        assert service.pool.rebuilds == 0


def test_application_error_fails_batch_without_pool_rebuild():
    """A shard that ran and raised is an app error, not a lost worker."""
    workload = _workload(count=2, seed=43)
    config = ServeConfig(workers=1, cache_size=0)
    with AlignmentService(_PoisonAligner(), config=config) as service:
        poisoned = service.submit("POISON", "ACGT")
        with pytest.raises(ValueError):
            poisoned.result(timeout=30)
        # No recovery theatre: the pool was healthy the whole time...
        assert service.shard_recoveries == 0
        assert service.pool.rebuilds == 0
        assert service.pairs_failed == 1
        # ...and unrelated requests are untouched.
        results = service.align_pairs(workload)
        assert len(results) == 2
        assert service.inflight_pairs == 0


def test_failed_shards_free_their_slot():
    """One worker, one slot: failed shards must not leak it."""
    config = ServeConfig(workers=1, cache_size=0)
    with AlignmentService(_PoisonAligner(), config=config) as service:
        assert service.coalescer.slots == 1
        for _ in range(3):
            with pytest.raises(ValueError):
                service.align_pair("POISON", "ACGT", timeout=10)
        # A leaked slot would leave this miss queued until the timeout.
        pattern, text = _workload(count=1, seed=59)[0]
        result = service.align_pair(pattern, text, timeout=10)
    assert result.score == FullGmxAligner().align(pattern, text).score
    assert service.pairs_failed == 3


def test_cancelled_future_does_not_kill_collector():
    """A client-side cancel must not crash the collector thread."""
    gate = threading.Event()
    workload = _workload(count=2, seed=47)
    config = ServeConfig(workers=1, cache_size=0)
    service = AlignmentService(_GatedAligner(gate), config=config)
    with service:
        future = service.submit(*workload[0])
        future.cancel()
        gate.set()
        # The collector survived resolving a cancelled future: later
        # requests still complete instead of hanging until timeout.
        result = service.align_pair(*workload[1], timeout=30)
        assert result.score is not None
        for _ in range(200):
            if service.inflight_pairs == 0:
                break
            time.sleep(0.01)
        assert service.inflight_pairs == 0


def test_submit_rolls_back_admission_on_coalescer_failure():
    """A failed hand-off must release the admission slot it claimed."""
    service = AlignmentService(config=ServeConfig(workers=1))
    with service:
        pattern, text = _workload(count=1)[0]
        # Simulate the close() race: the coalescer stops accepting while
        # the service still believes it is open.
        service.coalescer.close()
        with pytest.raises(ServiceClosedError):
            service.submit(pattern, text)
        assert service.inflight_pairs == 0
        assert service._pending == {}


@needs_processes
def test_slow_healthy_shard_is_not_declared_lost():
    """A slow shard must not rebuild the pool: only a dead worker does."""
    config = ServeConfig(
        workers=2, cache_size=0, request_timeout=30.0,
    )
    with AlignmentService(_SlowAligner(), config=config) as service:
        if not service.pool.process_mode:
            pytest.skip("aligner did not reach process mode")
        pattern, text = _workload(count=1)[0]
        result = service.align_pair(pattern, text, timeout=30)
        assert result.score == FullGmxAligner().align(pattern, text).score
        # The shard outlived several liveness checks while its worker
        # stayed alive — no spurious recovery, no rebuild.
        assert service.shard_recoveries == 0
        assert service.pool.rebuilds == 0


def test_unpicklable_aligner_falls_back_inline():
    gate = threading.Event()
    gate.set()
    # _GatedAligner carries a threading.Event — unpicklable, so a
    # multi-worker service must degrade to inline execution at init.
    config = ServeConfig(workers=4)
    with AlignmentService(_GatedAligner(gate), config=config) as service:
        assert not service.pool.process_mode
        assert service.fallback_reason is not None
        pattern, text = _workload(count=1)[0]
        result = service.align_pair(pattern, text)
        assert result.score == FullGmxAligner().align(pattern, text).score
        assert service.metrics_snapshot()["pool"]["fallback_reason"]
