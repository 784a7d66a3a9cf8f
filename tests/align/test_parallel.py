"""Parallel-vs-serial equivalence tests for the sharded batch engine.

The engine's contract: for any worker count, ``align_batch`` produces
results, merged stats, and ordering identical to the serial loop — the
only observable difference is the telemetry record.
"""

import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from repro import obs
from repro.align import (
    BatchTelemetry,
    FullGmxAligner,
    WorkerLost,
    WorkerPool,
    align_batch,
    iter_shards,
)
from repro.align.batch import SHARDS_IN_FLIGHT_PER_WORKER
from repro.baselines import NeedlemanWunschAligner
from repro.workloads import generate_pair_set, save_pairs
from repro.workloads.seqio import iter_pairs

WORKER_COUNTS = (1, 2, 4)

needs_processes = pytest.mark.skipif(
    not multiprocessing.get_all_start_methods(),
    reason="no multiprocessing start method available",
)


def _dataset(count=12, length=90, seed=11):
    return generate_pair_set("parallel", length, 0.08, count, seed=seed)


def _host_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


class TestEquivalence:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_results_stats_order_identical(self, workers):
        dataset = _dataset()
        serial = align_batch(FullGmxAligner(), dataset)
        parallel = align_batch(
            FullGmxAligner(), dataset, workers=workers, shard_size=5
        )
        assert parallel.results == serial.results
        assert parallel.stats == serial.stats
        assert [r.score for r in parallel.results] == [
            r.score for r in serial.results
        ]
        assert [r.cigar for r in parallel.results] == [
            r.cigar for r in serial.results
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_empty_batch(self, workers):
        batch = align_batch(FullGmxAligner(), [], workers=workers)
        assert batch.pairs == 0
        assert batch.results == []
        assert batch.mean_score == 0.0
        assert batch.telemetry.pairs == 0
        assert batch.telemetry.pairs_per_second == 0.0

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_single_pair_batch(self, workers):
        dataset = _dataset(count=1)
        serial = align_batch(FullGmxAligner(), dataset)
        parallel = align_batch(FullGmxAligner(), dataset, workers=workers)
        assert parallel.results == serial.results
        assert parallel.stats == serial.stats

    def test_nw_baseline_parallel(self):
        dataset = _dataset(count=6, length=60)
        serial = align_batch(NeedlemanWunschAligner(), dataset)
        parallel = align_batch(
            NeedlemanWunschAligner(), dataset, workers=2, shard_size=2
        )
        assert parallel.results == serial.results
        assert parallel.stats == serial.stats

    def test_traceback_off(self):
        dataset = _dataset(count=6)
        serial = align_batch(FullGmxAligner(), dataset, traceback=False)
        parallel = align_batch(
            FullGmxAligner(), dataset, traceback=False, workers=2
        )
        assert parallel.results == serial.results
        assert all(r.alignment is None for r in parallel.results)

    def test_validate_mode_parallel(self):
        dataset = _dataset(count=6)
        batch = align_batch(
            FullGmxAligner(), dataset, validate=True, workers=2
        )
        assert batch.pairs == 6

    def test_generator_input_streams(self):
        dataset = _dataset()
        serial = align_batch(FullGmxAligner(), dataset)
        generator = ((p.pattern, p.text) for p in dataset)
        parallel = align_batch(
            FullGmxAligner(), generator, workers=2, shard_size=4
        )
        assert parallel.results == serial.results
        assert parallel.telemetry.shard_count == 3

    def test_seq_file_stream_input(self, tmp_path):
        dataset = _dataset(count=5)
        path = tmp_path / "pairs.seq"
        save_pairs(dataset, path)
        serial = align_batch(FullGmxAligner(), dataset)
        streamed = align_batch(
            FullGmxAligner(), iter_pairs(path), workers=2, shard_size=2
        )
        assert streamed.results == serial.results

    def test_non_picklable_aligner_falls_back_inline(self):
        class Unpicklable(FullGmxAligner):
            def __init__(self):
                super().__init__()
                self.hook = lambda result: result  # defeats pickling

        dataset = _dataset(count=4)
        serial = align_batch(FullGmxAligner(), dataset)
        batch = align_batch(Unpicklable(), dataset, workers=4)
        assert batch.telemetry.executor == "inline"
        assert batch.results == serial.results
        assert batch.stats == serial.stats
        # The degradation is explained, not silent: the telemetry names
        # the concrete pickling failure.
        reason = batch.telemetry.fallback_reason
        assert reason is not None
        assert "pickl" in reason.lower()

    def test_picklable_parallel_run_has_no_fallback_reason(self):
        batch = align_batch(
            FullGmxAligner(), _dataset(count=4), workers=2, shard_size=2
        )
        assert batch.telemetry.fallback_reason is None


class TestSharding:
    def test_iter_shards_sizes_and_order(self):
        items = [(f"A{i}", f"C{i}") for i in range(10)]
        shards = list(iter_shards(items, 4))
        assert [len(s) for s in shards] == [4, 4, 2]
        assert [pair for shard in shards for pair in shard] == items

    def test_iter_shards_normalises_pair_objects(self):
        dataset = _dataset(count=3)
        (shard,) = iter_shards(dataset, 8)
        assert shard == [(p.pattern, p.text) for p in dataset]

    def test_iter_shards_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(iter_shards([("A", "A")], 0))

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            align_batch(FullGmxAligner(), [], workers=0)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ValueError):
            WorkerPool(2, start_method="bogus")

    def test_default_workers_uses_host_cpus(self):
        batch = align_batch(FullGmxAligner(), _dataset(count=2), workers=None)
        assert batch.telemetry.workers == (os.cpu_count() or 1)


class TestTelemetry:
    def test_serial_run_records_telemetry(self):
        batch = align_batch(FullGmxAligner(), _dataset(count=3))
        telemetry = batch.telemetry
        assert isinstance(telemetry, BatchTelemetry)
        assert telemetry.executor == "serial"
        assert telemetry.workers == 1
        assert telemetry.shard_count == 1
        assert telemetry.pairs == 3
        assert telemetry.wall_seconds > 0
        assert telemetry.pairs_per_second > 0
        assert 0 < telemetry.worker_utilization <= 1.0

    def test_parallel_run_records_shards(self):
        batch = align_batch(
            FullGmxAligner(), _dataset(count=10), workers=2, shard_size=3
        )
        telemetry = batch.telemetry
        assert telemetry.workers == 2
        assert telemetry.shard_count == 4
        assert [s.index for s in telemetry.shards] == [0, 1, 2, 3]
        assert [s.pairs for s in telemetry.shards] == [3, 3, 3, 1]
        assert telemetry.pairs == 10
        assert telemetry.busy_seconds > 0
        assert telemetry.executor in ("fork", "spawn", "forkserver", "inline")

    def test_empty_batch_telemetry_is_inert(self):
        telemetry = align_batch(FullGmxAligner(), [], workers=2).telemetry
        assert telemetry.pairs == 0
        assert telemetry.pairs_per_second == 0.0
        assert telemetry.busy_seconds == 0.0

    def test_speedup_vs(self):
        fast = BatchTelemetry(workers=4, shard_size=8, wall_seconds=1.0)
        slow = BatchTelemetry(workers=1, shard_size=8, wall_seconds=3.0)
        assert fast.speedup_vs(slow) == pytest.approx(3.0)
        assert slow.speedup_vs(fast) == pytest.approx(1 / 3)

    def test_speedup_vs_is_total_on_zero_wall_time(self):
        instant = BatchTelemetry(workers=1, shard_size=8, wall_seconds=0.0)
        timed = BatchTelemetry(workers=1, shard_size=8, wall_seconds=2.0)
        assert instant.speedup_vs(timed) == float("inf")
        assert instant.speedup_vs(instant) == 1.0
        assert timed.speedup_vs(instant) == 0.0

    def test_pairs_per_second_is_total_on_zero_wall_time(self):
        from repro.align.parallel import ShardTelemetry

        telemetry = BatchTelemetry(workers=1, shard_size=8, wall_seconds=0.0)
        telemetry.shards.append(
            ShardTelemetry(index=0, pairs=3, wall_seconds=0.0, worker="inline")
        )
        assert telemetry.pairs_per_second == float("inf")


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, instead of hang, a call still blocked after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still blocked after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _SlowAligner(FullGmxAligner):
    """Sleeps before every pair, so each pool worker is busy mid-batch."""

    def align(self, pattern, text, traceback=True):
        time.sleep(0.05)
        return super().align(pattern, text, traceback=traceback)


class _KillSelfAligner(FullGmxAligner):
    """SIGKILLs the pool worker that aligns ``victim`` (never the test
    process itself)."""

    def __init__(self, victim, **kwargs):
        super().__init__(**kwargs)
        self.victim = victim
        self.parent = os.getpid()

    def align(self, pattern, text, traceback=True):
        if pattern == self.victim and os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().align(pattern, text, traceback=traceback)


@needs_processes
class TestLostWorker:
    """A plain batch fails fast when a pool worker dies under it."""

    def test_killed_worker_raises_and_the_warm_pool_recovers(self):
        pairs = [(p.pattern, p.text) for p in _dataset(count=40)]
        serial = align_batch(FullGmxAligner(), pairs)
        with WorkerPool(2) as pool:
            victim = pool.worker_pids()[0]

            def feed():
                for index, pair in enumerate(pairs):
                    if index == 16:  # shards 0-7 cut, the window is busy
                        os.kill(victim, signal.SIGKILL)
                    yield pair

            started = time.monotonic()
            with _deadline(30), pytest.raises(WorkerLost):
                align_batch(_SlowAligner(), feed(), shard_size=2, pool=pool)
            assert time.monotonic() - started < 5
            assert pool.rebuilds == 1
            with _deadline(60):
                batch = align_batch(
                    FullGmxAligner(), pairs, shard_size=3, pool=pool
                )
        assert batch.results == serial.results
        assert batch.stats == serial.stats
        assert batch.telemetry.executor == pool.method

    def test_aligner_killing_its_worker_raises_and_leaks_nothing(self):
        pairs = [(p.pattern, p.text) for p in _dataset(count=12)]
        aligner = _KillSelfAligner(pairs[5][0])
        with _deadline(30), pytest.raises(WorkerLost):
            align_batch(aligner, pairs, workers=2, shard_size=2)
        assert multiprocessing.active_children() == []

    def test_close_frees_a_result_lock_orphaned_by_a_dead_worker(self):
        pool = WorkerPool(2).start()
        # What a worker SIGKILLed while sending its reply leaves behind.
        pool._pool._outqueue._wlock.acquire()
        started = time.monotonic()
        with _deadline(30):
            pool.close()
        assert time.monotonic() - started < 5
        assert multiprocessing.active_children() == []


@needs_processes
def test_stream_is_cut_only_as_the_window_drains():
    workers, shard_size, count = 2, 4, 4000
    window = SHARDS_IN_FLIGHT_PER_WORKER * workers
    distinct = [(p.pattern, p.text) for p in _dataset(count=50, length=100)]
    ahead = []

    def counting(registry):
        for index in range(count):
            if index % shard_size == 0:
                # Shards cut so far (this one included) minus shards
                # merged: each worker's batch.shards count reaches the
                # parent's registry as its shard is merged.
                cut = index // shard_size + 1
                ahead.append(cut - registry.counter("batch.shards"))
            yield distinct[index % len(distinct)]

    with _deadline(120), obs.capture() as (_recorder, registry):
        batch = align_batch(
            FullGmxAligner(),
            counting(registry),
            traceback=False,
            workers=workers,
            shard_size=shard_size,
        )
    assert batch.pairs == count
    assert max(ahead) <= window, f"cut {max(ahead)} shards ahead"


@pytest.mark.slow
class TestWallClock:
    """The PR's acceptance batch: 500 pairs, workers=4 vs serial."""

    def test_500_pair_parallel_identical_to_serial(self):
        dataset = generate_pair_set("acceptance", 80, 0.05, 500, seed=2)
        serial = align_batch(FullGmxAligner(), dataset)
        parallel = align_batch(FullGmxAligner(), dataset, workers=4)
        assert parallel.results == serial.results
        assert parallel.stats == serial.stats
        assert parallel.telemetry.pairs == 500

    @pytest.mark.skipif(
        _host_cpus() < 2,
        reason="wall-clock speedup requires >= 2 host CPUs",
    )
    def test_500_pair_speedup_over_1_5x(self):
        # 250 bp on the pure engine keeps the serial run several seconds
        # long (~6 s on a 2-CPU x86 host), so pool start-up cannot
        # dominate the ratio; bitpar finishes the batch in ~1 s.
        dataset = generate_pair_set("acceptance-speed", 250, 0.05, 500, seed=2)
        aligner = FullGmxAligner(backend="pure")
        serial = align_batch(aligner, dataset)
        parallel = align_batch(aligner, dataset, workers=4)
        assert parallel.results == serial.results
        speedup = parallel.telemetry.speedup_vs(serial.telemetry)
        assert speedup > 1.5, (
            f"workers=4 speedup {speedup:.2f}x "
            f"(serial {serial.telemetry.wall_seconds:.2f}s, "
            f"parallel {parallel.telemetry.wall_seconds:.2f}s)"
        )
