"""Ambient observability state: the enable flag and module-level helpers.

Instrumented call sites throughout the library go through this module:

    from ..obs import runtime as obs
    ...
    with obs.span("align.full_gmx", n=len(pattern)):
        ...
    obs.inc("align.tiles", stats.tiles)

While observability is disabled (the default), :func:`span` returns one
shared no-op context manager and :func:`inc`/:func:`observe_ns` return
immediately after a single module-attribute check — the cost the
``test_obs_overhead`` benchmark bounds at <5% on the kernel microbenches.

:func:`enable`/:func:`disable` swap in a live
:class:`~repro.obs.tracing.SpanRecorder` +
:class:`~repro.obs.metrics.MetricsRegistry` pair; :func:`capture` is the
context-manager form used by tests, workers, and the ``repro profile``
driver.  The state is process-local: each worker process arms its own
recorder and ships the buffer back (see
:meth:`~repro.obs.tracing.SpanRecorder.drain`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
from time import perf_counter_ns
from typing import Callable, Iterator, Optional, Tuple

from .metrics import MetricsRegistry
from .tracing import NOOP_SPAN, SpanRecorder

#: Master switch checked by every instrumented call site.
ENABLED: bool = False

_RECORDER: Optional[SpanRecorder] = None
_METRICS: Optional[MetricsRegistry] = None


def enable(  # dsan: allow[REPRO007] arming primitive; capture() restores
    recorder: Optional[SpanRecorder] = None,
    registry: Optional[MetricsRegistry] = None,
    *,
    clock: Optional[Callable[[], int]] = None,
) -> Tuple[SpanRecorder, MetricsRegistry]:
    """Turn observability on; returns the active (recorder, registry).

    Passing an existing recorder/registry resumes recording into it —
    how the profiler accumulates across several commands.  ``clock``
    builds the fresh recorder with a deterministic test clock.
    """
    global ENABLED, _RECORDER, _METRICS
    _RECORDER = recorder if recorder is not None else SpanRecorder(clock=clock)
    _METRICS = registry if registry is not None else MetricsRegistry()
    ENABLED = True
    return _RECORDER, _METRICS


def disable() -> None:
    """Turn observability off (instrumentation reverts to no-ops)."""
    global ENABLED, _RECORDER, _METRICS
    ENABLED = False
    _RECORDER = None
    _METRICS = None


def enabled() -> bool:
    """Whether observability is currently recording."""
    return ENABLED


def owns_recorder() -> bool:
    """True when recording is on *and* this process created the recorder.

    Distinguishes the parent from a fork-started worker: the worker
    inherits ``ENABLED`` and a memory-copy of the parent's recorder, but
    anything recorded into that copy dies with the worker.  Worker code
    checks this to decide between recording directly (same process) and
    capturing locally to ship buffers back (any worker process).
    """
    return (
        ENABLED and _RECORDER is not None and _RECORDER.pid == os.getpid()
    )


def recorder() -> Optional[SpanRecorder]:
    """The active span recorder (``None`` while disabled)."""
    return _RECORDER


def metrics() -> Optional[MetricsRegistry]:
    """The active metrics registry (``None`` while disabled)."""
    return _METRICS


def span(name: str, **tags):
    """Open a span when enabled; a shared no-op context manager otherwise."""
    if not ENABLED:
        return NOOP_SPAN
    return _RECORDER.span(name, **tags)


def inc(name: str, value: int = 1) -> None:
    """Increment a counter (no-op while disabled)."""
    if ENABLED:
        _METRICS.inc(name, value)


def inc_record(namespace: str, record) -> None:
    """Add a dataclass record's int fields as ``<namespace>.<field>``
    counters (no-op while disabled).

    A run that keeps a counter record (``ResilienceCounters``,
    ``StreamCounters``) feeds it here once, when it ends, so the registry
    names each count exactly as the record's field.
    """
    if ENABLED:
        for item in dataclasses.fields(record):
            value = getattr(record, item.name)
            if type(value) is int:
                _METRICS.inc(f"{namespace}.{item.name}", value)


def observe_ns(name: str, value_ns: int) -> None:
    """Record a histogram observation (no-op while disabled)."""
    if ENABLED:
        _METRICS.observe_ns(name, value_ns)


def instrument_align(kernel: str) -> Callable:
    """Decorator instrumenting an ``Aligner.align`` method.

    When enabled, each call records a span ``align.<kernel>`` (tagged with
    the pair dimensions), per-kernel pair/tile/traceback counters, and a
    wall-time observation into the ``kernel.<kernel>.align_ns`` histogram.
    The disabled path is one flag check and a tail call.
    """

    span_name = f"align.{kernel}"
    hist_name = f"kernel.{kernel}.align_ns"
    pairs_name = f"align.{kernel}.pairs"
    tiles_name = f"align.{kernel}.tiles"
    tb_name = f"align.{kernel}.tracebacks"

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, pattern, text, *, traceback=True):
            if not ENABLED:
                return fn(self, pattern, text, traceback=traceback)
            start_ns = perf_counter_ns()
            with _RECORDER.span(
                span_name, m=len(pattern), n=len(text), traceback=traceback
            ):
                result = fn(self, pattern, text, traceback=traceback)
            _METRICS.inc(pairs_name)
            _METRICS.inc(tiles_name, result.stats.tiles)
            if result.alignment is not None:
                _METRICS.inc(tb_name)
            _METRICS.observe_ns(hist_name, perf_counter_ns() - start_ns)
            return result

        return wrapper

    return decorate


@contextlib.contextmanager
def capture(
    *, clock: Optional[Callable[[], int]] = None
) -> Iterator[Tuple[SpanRecorder, MetricsRegistry]]:
    """Enable observability for a block, restoring the previous state.

    Nesting-safe: the previous recorder/registry (and flag) come back on
    exit, so a worker capturing its shard does not clobber a profiling
    session in the same process (inline executors).
    """
    global ENABLED, _RECORDER, _METRICS
    previous = (ENABLED, _RECORDER, _METRICS)
    pair = enable(clock=clock)
    try:
        yield pair
    finally:
        ENABLED, _RECORDER, _METRICS = previous
