"""WorkerPool lifecycle: warm reuse, rebuild, close, loss check, sharing."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.align import (
    FullGmxAligner,
    PoolError,
    WorkerLost,
    WorkerPool,
)
from repro.align.parallel import _align_shard, executor_label
from repro.workloads import generate_pair_set

HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())

needs_processes = pytest.mark.skipif(
    not HAS_PROCESSES, reason="no multiprocessing start method available"
)


def _payload(pairs=2):
    pair_set = generate_pair_set("pool", 48, 0.1, pairs, seed=3)
    shard = [(p.pattern, p.text) for p in pair_set]
    return (FullGmxAligner(), shard, True, False, False)


class TestInlinePool:
    def test_single_worker_is_inline(self):
        pool = WorkerPool(1)
        assert not pool.process_mode
        assert executor_label(1, pool) == "serial"
        assert pool.method is None
        assert pool.worker_pids() == []

    def test_submit_executes_inline(self):
        with WorkerPool(1) as pool:
            handle = pool.submit(_align_shard, _payload())
            assert handle.ready()
            results, stats, _, worker, _ = handle.get()
            assert len(results) == 2
            assert worker.startswith("pid:")

    def test_inline_error_raised_from_get(self):
        def boom(payload):
            raise ValueError("inline failure")

        with WorkerPool(1) as pool:
            handle = pool.submit(boom, None)
            with pytest.raises(ValueError, match="inline failure"):
                handle.get()


class TestPoolLifecycle:
    def test_closed_pool_rejects_submissions(self):
        pool = WorkerPool(1)
        pool.close()
        assert pool.closed
        with pytest.raises(PoolError):
            pool.submit(_align_shard, _payload())

    def test_close_is_idempotent(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()

    @needs_processes
    def test_warm_start_pays_generation_once(self):
        with WorkerPool(2) as pool:
            assert pool.process_mode
            assert pool.generation == 1
            pool.start()  # idempotent
            assert pool.generation == 1
            pids = pool.worker_pids()
            assert len(pids) == 2
            for _ in range(3):
                pool.submit(_align_shard, _payload()).get(timeout=60)
            # Reuse never recreated the pool.
            assert pool.generation == 1
            assert pool.worker_pids() == pids

    @needs_processes
    def test_rebuild_replaces_workers(self):
        with WorkerPool(2) as pool:
            before = set(pool.worker_pids())
            pool.rebuild()
            assert pool.rebuilds == 1
            assert pool.generation == 2
            after = set(pool.worker_pids())
            assert after and after.isdisjoint(before)
            results, *_ = pool.submit(_align_shard, _payload()).get(timeout=60)
            assert len(results) == 2


class TestLossCheck:
    """WorkerPool.wait tells a lost task from a slow one."""

    @needs_processes
    def test_slow_live_task_is_not_lost(self):
        with WorkerPool(2) as pool:
            handle = pool.submit(time.sleep, 0.4)
            with pytest.raises(TimeoutError):
                pool.wait(handle, timeout=0.05)
            # Several liveness checks pass while the worker sleeps.
            assert pool.wait(handle, timeout=30) is None
            assert pool.rebuilds == 0

    @needs_processes
    def test_killed_worker_is_lost_and_the_pool_rebuilt(self):
        with WorkerPool(2) as pool:
            # One task per worker: either may have landed on the victim.
            handles = [pool.submit(time.sleep, 30) for _ in range(2)]
            os.kill(sorted(handles[0].pids)[0], signal.SIGKILL)
            started = time.monotonic()
            with pytest.raises(WorkerLost):
                pool.wait(handles[0], timeout=20)
            assert time.monotonic() - started < 5
            with pytest.raises(WorkerLost):
                pool.wait(handles[1], timeout=0)
            assert pool.rebuilds == 1 and pool.generation == 2
            handle = pool.submit(_align_shard, _payload())
            results, *_ = pool.wait(handle, timeout=60)
            assert len(results) == 2

    @needs_processes
    def test_handle_from_before_rebuild_is_lost(self):
        with WorkerPool(2) as pool:
            done = pool.submit(_align_shard, _payload())
            done.get(timeout=60)
            pending = pool.submit(time.sleep, 30)
            pool.rebuild()
            with pytest.raises(WorkerLost):
                pool.wait(pending, timeout=30)
            # A reply that landed before the rebuild is still delivered,
            # and the loss did not rebuild the pool a second time.
            results, *_ = pool.wait(done, timeout=0)
            assert len(results) == 2
            assert pool.rebuilds == 1

    def test_inline_handle_is_never_lost(self):
        pool = WorkerPool(1)
        handle = pool.submit(_align_shard, _payload())
        pool.rebuild()
        pool.close()
        results, *_ = pool.wait(handle, timeout=0)
        assert len(results) == 2
