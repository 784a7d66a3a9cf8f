"""Parallel-vs-serial equivalence tests for the sharded batch engine.

The engine's contract: for any worker count, ``align_batch`` produces
results, merged stats, and ordering identical to the serial loop — the
only observable difference is the telemetry record.
"""

import contextlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

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
from repro.align.parallel import close_shared_pool, shared_pool_pids
from repro.baselines import NeedlemanWunschAligner
from repro.resilience import FaultPlan, FaultSpec, align_batch_resilient
from repro.workloads import generate_pair_set, save_pairs
from repro.workloads.seqio import iter_pairs

WORKER_COUNTS = (1, 2, 4)

needs_processes = pytest.mark.skipif(
    not multiprocessing.get_all_start_methods(),
    reason="no multiprocessing start method available",
)

#: Both batch engines check the warm pool out under the same rule.
both_engines = pytest.mark.parametrize(
    "engine", (align_batch, align_batch_resilient), ids=("plain", "resilient")
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
        align_batch(FullGmxAligner(), pairs, workers=2, shard_size=3)
        victim = min(shared_pool_pids())

        def feed():
            for index, pair in enumerate(pairs):
                if index == 16:  # shards 0-7 cut, the window is busy
                    os.kill(victim, signal.SIGKILL)
                yield pair

        started = time.monotonic()
        with _deadline(30), pytest.raises(WorkerLost):
            align_batch(_SlowAligner(), feed(), workers=2, shard_size=2)
        assert time.monotonic() - started < 5
        assert multiprocessing.active_children() == []
        with _deadline(60):
            batch = align_batch(
                FullGmxAligner(), pairs, workers=2, shard_size=3
            )
        assert batch.results == serial.results
        assert batch.stats == serial.stats
        assert batch.telemetry.executor == "fork"
        assert victim not in shared_pool_pids()

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


class _RaisingAligner(FullGmxAligner):
    """Raises on the pair whose pattern is ``victim``."""

    def __init__(self, victim, **kwargs):
        super().__init__(**kwargs)
        self.victim = victim

    def align(self, pattern, text, traceback=True):
        if pattern == self.victim:
            raise ValueError("planted aligner error")
        return super().align(pattern, text, traceback=traceback)


def _shard_pids(batch):
    """The worker pids that ran a batch's shards."""
    return {int(shard.worker.split(":")[1]) for shard in batch.telemetry.shards}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _child_pids():
    return {child.pid for child in multiprocessing.active_children()}


@needs_processes
class TestSharedPool:
    """A batch of either engine with ``workers=N`` checks out this
    process's one warm pool, which outlives the batch but never the
    process."""

    def _pairs(self, count=12):
        return [(p.pattern, p.text) for p in _dataset(count=count)]

    @both_engines
    def test_consecutive_batches_run_on_the_same_workers(self, engine):
        pairs = self._pairs(8)
        serial = align_batch(FullGmxAligner(), pairs)
        # A sleeping shard keeps its worker busy, so both workers run one.
        first = engine(_SlowAligner(), pairs, workers=2, shard_size=1)
        second = engine(_SlowAligner(), pairs, workers=2, shard_size=1)
        assert len(_shard_pids(first)) == 2
        assert _shard_pids(second) == _shard_pids(first)
        for batch in (first, second):
            assert batch.results == serial.results
            assert batch.stats == serial.stats

    def test_another_worker_count_replaces_the_warm_pool(self):
        pairs = self._pairs(9)
        serial = align_batch(FullGmxAligner(), pairs)
        two = align_batch(_SlowAligner(), pairs, workers=2, shard_size=1)
        three = align_batch(_SlowAligner(), pairs, workers=3, shard_size=1)
        assert len(_shard_pids(three)) == 3
        assert shared_pool_pids() == _shard_pids(three) == _child_pids()
        two_again = align_batch(
            _SlowAligner(), pairs, workers=2, shard_size=1
        )
        assert len(_shard_pids(two_again)) == 2
        assert shared_pool_pids() == _shard_pids(two_again) == _child_pids()
        for batch in (two, three, two_again):
            assert batch.results == serial.results
            assert batch.stats == serial.stats

    @pytest.mark.parametrize(
        "engine, error",
        (
            (align_batch, ValueError),
            (align_batch, RuntimeError),
            (align_batch, KeyboardInterrupt),
            # The resilient engine retries an aligner error, not raises it.
            (align_batch_resilient, RuntimeError),
            (align_batch_resilient, KeyboardInterrupt),
        ),
        ids=(
            "aligner", "stream", "interrupt",
            "resilient-stream", "resilient-interrupt",
        ),
    )
    def test_a_raising_batch_leaves_no_worker(self, engine, error):
        pairs = self._pairs()
        serial = align_batch(FullGmxAligner(), pairs)
        engine(FullGmxAligner(), pairs, workers=2, shard_size=2)
        assert shared_pool_pids()

        def broken_stream():
            yield from pairs[:5]
            raise error("input stream broke")

        if error is ValueError:  # raised by the aligner, in a worker
            aligner, feed = _RaisingAligner(pairs[5][0]), pairs
        else:
            aligner, feed = FullGmxAligner(), broken_stream()
        with _deadline(30), pytest.raises(error):
            engine(aligner, feed, workers=2, shard_size=2)
        assert multiprocessing.active_children() == []
        assert shared_pool_pids() == frozenset()
        again = engine(FullGmxAligner(), pairs, workers=2, shard_size=2)
        assert again.results == serial.results
        assert again.stats == serial.stats

    @both_engines
    def test_a_bad_shard_size_is_rejected_before_the_pool(self, engine):
        pairs = self._pairs(4)
        engine(FullGmxAligner(), pairs, workers=2, shard_size=2)
        warm = shared_pool_pids()
        with pytest.raises(ValueError, match="shard size"):
            engine(FullGmxAligner(), pairs, workers=2, shard_size=0)
        assert shared_pool_pids() == warm

    def test_a_resilient_deadline_puts_the_rebuilt_pool_back(self):
        pairs = self._pairs(6)
        serial = align_batch(FullGmxAligner(), pairs)
        align_batch(FullGmxAligner(), pairs, workers=2, shard_size=2)
        before = shared_pool_pids()
        plan = FaultPlan(
            seed=0,
            pair_count=len(pairs),
            faults=(
                FaultSpec(fault_id=0, layer="worker", kind="hang",
                          pair_index=0, seed=5),
            ),
        )
        with _deadline(60):
            hung = align_batch_resilient(
                FullGmxAligner(), pairs, workers=2, shard_size=2,
                fault_plan=plan, shard_timeout=0.3,
            )
        assert hung.telemetry.resilience.timeouts == 1
        rebuilt = shared_pool_pids()
        # The deadline rebuilt the checked-out pool; the batch put it back.
        assert len(rebuilt) == 2 and not rebuilt & before
        with _deadline(60):
            after = align_batch(_SlowAligner(), pairs, workers=2, shard_size=1)
        assert _shard_pids(after) == rebuilt == shared_pool_pids()
        for batch in (hung, after):
            assert batch.results == serial.results
            assert batch.stats == serial.stats

    @both_engines
    def test_a_main_class_redefined_between_batches_runs_as_redefined(
        self, engine, monkeypatch
    ):
        pairs = self._pairs(6)
        serial = align_batch(FullGmxAligner(), pairs)
        main = sys.modules["__main__"]

        def define(offset):
            # What a script, REPL or notebook cell defining it does.
            class Shifted(FullGmxAligner):
                def align(self, pattern, text, traceback=True):
                    result = super().align(pattern, text, traceback=traceback)
                    result.score += offset
                    return result

            Shifted.__module__ = "__main__"
            Shifted.__qualname__ = "Shifted"
            monkeypatch.setattr(main, "Shifted", Shifted, raising=False)
            return Shifted()

        with _deadline(60):
            first = engine(define(1), pairs, workers=2, shard_size=2)
            second = engine(define(2), pairs, workers=2, shard_size=2)
        for offset, batch in ((1, first), (2, second)):
            assert batch.telemetry.executor.endswith("fork")
            assert [r.score for r in batch.results] == [
                r.score + offset for r in serial.results
            ]
        # Each ran on a pool of its own, closed with its batch.
        assert shared_pool_pids() == frozenset()
        assert multiprocessing.active_children() == []

    def test_a_batch_beside_a_running_one_gets_its_own_pool(self):
        pairs = self._pairs(12)
        serial = align_batch(FullGmxAligner(), pairs)
        align_batch(FullGmxAligner(), pairs, workers=2, shard_size=2)
        warm = shared_pool_pids()
        checked_out, release = threading.Event(), threading.Event()
        outcome = {}

        def held_feed():
            yield from pairs[:4]
            checked_out.set()
            assert release.wait(60)
            yield from pairs[4:]

        def run_held():
            outcome["held"] = align_batch(
                FullGmxAligner(), held_feed(), workers=2, shard_size=1
            )

        thread = threading.Thread(target=run_held)
        thread.start()
        try:
            assert checked_out.wait(30)
            with _deadline(60):
                beside = align_batch(
                    FullGmxAligner(), pairs, workers=2, shard_size=2
                )
                # A worker lost beside the held batch does not reach it.
                with pytest.raises(WorkerLost):
                    align_batch(
                        _KillSelfAligner(pairs[3][0]), pairs, workers=2,
                        shard_size=2,
                    )
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        held = outcome["held"]
        assert not _shard_pids(beside) & warm
        assert _shard_pids(held) <= warm
        for batch in (beside, held):
            assert batch.results == serial.results
            assert batch.stats == serial.stats
        # The held pool came back; the other two closed.
        assert shared_pool_pids() == warm == _child_pids()

    def test_no_worker_outlives_its_process(self):
        script = (
            "from repro.align import FullGmxAligner, align_batch\n"
            "from repro.align.parallel import shared_pool_pids\n"
            "pairs = [('ACGT' * 20, 'ACGA' * 20)] * 8\n"
            "align_batch(FullGmxAligner(), pairs, workers=2, shard_size=2)\n"
            "print(*sorted(shared_pool_pids()))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        assert not [pid for pid in pids if _alive(pid)]

    def test_a_forked_child_starts_its_own_pool(self):
        pairs = self._pairs()
        serial = align_batch(FullGmxAligner(), pairs)
        align_batch(FullGmxAligner(), pairs, workers=2, shard_size=2)
        parent_pids = shared_pool_pids()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            code = 1
            try:
                batch = align_batch(
                    FullGmxAligner(), pairs, workers=2, shard_size=2
                )
                own = shared_pool_pids()
                good = (
                    batch.results == serial.results
                    and len(own) == 2
                    and not own & parent_pids
                    and _shard_pids(batch) <= own
                )
                close_shared_pool()
                code = 0 if good else 2
            finally:
                os._exit(code)
        try:
            with _deadline(60):
                _, status = os.waitpid(child, 0)
        except TimeoutError:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
            raise
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert shared_pool_pids() == parent_pids
        assert all(_alive(pid) for pid in parent_pids)
        again = align_batch(FullGmxAligner(), pairs, workers=2, shard_size=2)
        assert _shard_pids(again) <= parent_pids
        assert again.results == serial.results


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
