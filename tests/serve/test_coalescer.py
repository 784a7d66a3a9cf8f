"""Coalescer micro-batching semantics: slots, caps, groups, failures."""

import queue
import sys
import threading

import pytest

from repro.serve import Coalescer, CoalescerError, PendingPair

TIMEOUT = 5.0


class _Sink:
    """Dispatch target recording batches and resolving their futures.

    Each dispatched batch holds its slot until the test calls
    ``coalescer.release()`` — the service's collector does so once a
    shard is done — so a test decides exactly when a slot frees up.
    """

    def __init__(self, fail=False):
        self.batches = []
        self.fail = fail

    def __call__(self, batch):
        self.batches.append([entry.pattern for entry in batch])
        if self.fail:
            raise RuntimeError("dispatch exploded")
        for entry in batch:
            entry.future.set_result(entry.pattern)


def _pair(pattern="A", group=True):
    return PendingPair(pattern=pattern, text=pattern, group=group)


def _hold_every_slot(coalescer):
    """Dispatch one blocker batch per slot; none is released."""
    for index in range(coalescer.slots):
        blocker = _pair(f"hold{index}")
        coalescer.submit(blocker)
        blocker.future.result(timeout=TIMEOUT)


def _release_and_wait(coalescer, entries):
    """Free one slot and wait until ``entries`` were dispatched."""
    coalescer.release()
    for entry in entries:
        entry.future.result(timeout=TIMEOUT)


def test_lone_request_dispatches_at_once():
    sink = _Sink()
    coalescer = Coalescer(sink, slots=1, max_pairs=16).start()
    try:
        entry = _pair("solo")
        coalescer.submit(entry)
        # A free slot ships it alone: no release() and no company needed.
        assert entry.future.result(timeout=TIMEOUT) == "solo"
        assert sink.batches == [["solo"]]
    finally:
        coalescer.close()


def test_burst_coalesces_up_to_max_pairs():
    sink = _Sink()
    coalescer = Coalescer(sink, slots=2, max_pairs=4).start()
    try:
        _hold_every_slot(coalescer)
        entries = [_pair(f"p{i}") for i in range(10)]
        for entry in entries:
            coalescer.submit(entry)
        # No free slot: the whole burst waits in the queue.
        assert coalescer.backlog == 10
        assert len(sink.batches) == 2
        # Each freed slot cuts one batch of min(backlog, max_pairs), in
        # order; with no further release the rest stays queued.
        _release_and_wait(coalescer, entries[:4])
        assert sink.batches[2:] == [["p0", "p1", "p2", "p3"]]
        assert coalescer.backlog == 6
        _release_and_wait(coalescer, entries[4:8])
        _release_and_wait(coalescer, entries[8:])
    finally:
        coalescer.close()
    assert sink.batches[2:] == [
        ["p0", "p1", "p2", "p3"], ["p4", "p5", "p6", "p7"], ["p8", "p9"],
    ]
    assert coalescer.pairs_out == 12
    assert coalescer.max_batch == 4


def test_group_change_flushes_current_batch():
    sink = _Sink()
    coalescer = Coalescer(sink, slots=1, max_pairs=16).start()
    try:
        _hold_every_slot(coalescer)
        tb = [_pair("tb1", group=True), _pair("tb2", group=True)]
        dist = [_pair("d1", group=False)]
        later = [_pair("tb3", group=True)]
        for entry in tb + dist + later:
            coalescer.submit(entry)
        _release_and_wait(coalescer, tb)
        # The other group's request ends the batch and opens the next.
        assert sink.batches[1:] == [["tb1", "tb2"]]
        _release_and_wait(coalescer, dist)
        _release_and_wait(coalescer, later)
    finally:
        coalescer.close()
    assert sink.batches[1:] == [["tb1", "tb2"], ["d1"], ["tb3"]]


def test_dispatch_failure_routes_to_futures():
    sink = _Sink(fail=True)
    coalescer = Coalescer(sink, slots=1, max_pairs=4).start()
    try:
        entry = _pair("boom")
        coalescer.submit(entry)
        with pytest.raises(RuntimeError, match="dispatch exploded"):
            entry.future.result(timeout=TIMEOUT)
        # The failed batch freed its slot: with the only slot leaked, the
        # next request would never be dispatched.
        sink.fail = False
        after = _pair("after")
        coalescer.submit(after)
        assert after.future.result(timeout=TIMEOUT) == "after"
    finally:
        coalescer.close()
    assert sink.batches == [["boom"], ["after"]]


def test_close_flushes_queued_requests():
    sink = _Sink()
    coalescer = Coalescer(sink, slots=1, max_pairs=16).start()
    _hold_every_slot(coalescer)
    entries = [_pair(f"q{i}") for i in range(3)]
    for entry in entries:
        coalescer.submit(entry)
    # close() neither waits for a slot nor strands the queue.
    closer = threading.Thread(target=coalescer.close)
    closer.start()
    closer.join(TIMEOUT)
    assert not closer.is_alive()
    for entry in entries:
        assert entry.future.result(timeout=1.0) == entry.pattern


def test_submit_after_close_raises():
    coalescer = Coalescer(_Sink()).start()
    coalescer.close()
    with pytest.raises(CoalescerError):
        coalescer.submit(_pair())


def test_invalid_configuration_rejected():
    with pytest.raises(CoalescerError):
        Coalescer(_Sink(), slots=0)
    with pytest.raises(CoalescerError):
        Coalescer(_Sink(), max_pairs=0)


def test_mean_batch_telemetry():
    sink = _Sink()
    coalescer = Coalescer(sink, slots=1, max_pairs=2).start()
    try:
        _hold_every_slot(coalescer)
        entries = [_pair(f"m{i}") for i in range(4)]
        for entry in entries:
            coalescer.submit(entry)
        _release_and_wait(coalescer, entries[:2])
        _release_and_wait(coalescer, entries[2:])
        # The blocker plus two full batches: 5 pairs in 3 batches.
        assert coalescer.batches == 3
        assert coalescer.mean_batch == pytest.approx(5 / 3)
    finally:
        coalescer.close()


def test_slots_bound_batches_in_flight_under_contention():
    """8 submitters and a releasing thread never exceed the slot count."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    lock = threading.Lock()
    in_flight = []
    peak = [0]
    done = queue.Queue()

    def dispatch(batch):
        with lock:
            in_flight.append(batch)
            peak[0] = max(peak[0], len(in_flight))
        done.put(batch)

    coalescer = Coalescer(dispatch, slots=3, max_pairs=4).start()

    def collector():
        # Like the service's collector: resolve, then free the slot.
        while (batch := done.get()) is not None:
            with lock:
                in_flight.remove(batch)
            for entry in batch:
                entry.future.set_result(entry.pattern)
            coalescer.release()

    def submitter(own):
        for entry in own:
            coalescer.submit(entry)

    entries = [[_pair(f"s{k}-{i}") for i in range(50)] for k in range(8)]
    threads = [threading.Thread(target=collector)] + [
        threading.Thread(target=submitter, args=(own,)) for own in entries
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads[1:]:
            thread.join(TIMEOUT)
            assert not thread.is_alive()
        for own in entries:
            for entry in own:
                assert entry.future.result(timeout=TIMEOUT) == entry.pattern
    finally:
        done.put(None)
        threads[0].join(TIMEOUT)
        coalescer.close()
        sys.setswitchinterval(interval)
    assert not threads[0].is_alive()
    assert peak[0] <= 3
    assert coalescer.pairs_out == coalescer.pairs_in == 400
