"""Span tracing: recorder, context-manager API, Chrome-trace export.

A *span* is one timed region of the harness — an alignment, a tile-compute
phase, a shard attempt, a simulated pipeline run — with a name, a tag
dict, nesting (parent span), and thread/process attribution.  Spans are
recorded into a :class:`SpanRecorder`, an append-only in-memory buffer
guarded by one lock; the per-thread open-span stack lives in
``threading.local`` so concurrent threads nest independently.

Process boundaries: a worker records into its own recorder and ships
``recorder.drain()`` (a list of plain dicts — the cheapest payload to
pickle) back to the parent, which merges it with
:meth:`SpanRecorder.absorb`.  Span ids are remapped on absorb so parent
links stay intact and ids stay unique in the merged trace.
``time.perf_counter_ns`` is CLOCK_MONOTONIC-based on Linux, so parent and
worker timestamps share one clock domain and the merged trace lines up.

Exports:

* :meth:`SpanRecorder.chrome_trace` — the Chrome trace-event format
  (``chrome://tracing`` / Perfetto): complete events (``ph: "X"``) with
  microsecond timestamps, one ``pid``/``tid`` lane per worker thread.
* :meth:`SpanRecorder.to_jsonl` — one span dict per line, for ad-hoc
  ``jq``-style analysis and the profile regression workflow.

Determinism: span structure (names, tags, nesting, per-thread order) is a
pure function of the instrumented program's execution, so fixed seeds
reproduce it exactly; only ``start_ns``/``duration_ns`` vary run to run.
Tests that need bit-identical traces inject a fake ``clock``.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class TracingError(RuntimeError):
    """Raised on span API misuse (exit without enter, absorb of garbage)."""


@dataclass
class Span:
    """One finished timed region.

    Attributes:
        span_id: recorder-unique id (remapped on cross-process absorb).
        parent_id: enclosing span's id (``None`` for top-level spans).
        name: dotted region name (see docs/observability.md conventions).
        start_ns: monotonic start timestamp.
        duration_ns: elapsed nanoseconds.
        tags: small JSON-safe annotation dict (lengths, counts, labels).
        pid / tid: recording process and thread.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ns: int
    duration_ns: int
    tags: Dict[str, object] = field(default_factory=dict)
    pid: int = 0
    tid: int = 0

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "tags": self.tags,
            "pid": self.pid,
            "tid": self.tid,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        try:
            return cls(
                span_id=payload["span_id"],
                parent_id=payload["parent_id"],
                name=payload["name"],
                start_ns=payload["start_ns"],
                duration_ns=payload["duration_ns"],
                tags=dict(payload.get("tags", {})),
                pid=payload.get("pid", 0),
                tid=payload.get("tid", 0),
            )
        except (KeyError, TypeError) as exc:
            raise TracingError(f"malformed span payload: {exc}") from exc


class _LiveSpan:
    """An open span; closes (and records) on context-manager exit."""

    __slots__ = ("_recorder", "span_id", "name", "tags", "_start")

    def __init__(self, recorder: "SpanRecorder", name: str, tags: dict):
        self._recorder = recorder
        self.name = name
        self.tags = tags
        self.span_id = -1
        self._start = 0

    def __enter__(self) -> "_LiveSpan":
        self._recorder._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._close(self, failed=exc_type is not None)
        return False

    def tag(self, **tags) -> "_LiveSpan":
        """Attach tags to the open span (chainable)."""
        self.tags.update(tags)
        return self


class SpanRecorder:
    """Thread-safe in-memory span buffer.

    Args:
        clock: nanosecond clock (injectable for deterministic tests;
            defaults to ``time.perf_counter_ns``).
    """

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self._clock = clock if clock is not None else perf_counter_ns
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: List[Span] = []
        self._next_id = 0
        self._pid = os.getpid()

    @property
    def pid(self) -> int:
        """Process that created this recorder (fork-inheritance detection)."""
        return self._pid

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **tags) -> _LiveSpan:
        """Open a span as a context manager: ``with rec.span("x"): ...``."""
        return _LiveSpan(self, name, tags)

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, live: _LiveSpan) -> None:
        with self._lock:
            live.span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        stack.append(live.span_id)
        live._start = self._clock()

    def _close(self, live: _LiveSpan, *, failed: bool) -> None:
        end = self._clock()
        stack = self._stack()
        if not stack or stack[-1] != live.span_id:
            raise TracingError(
                f"span {live.name!r} closed out of order (open stack: {stack})"
            )
        stack.pop()
        parent = stack[-1] if stack else None
        tags = live.tags
        if failed:
            tags = dict(tags)
            tags["error"] = True
        record = Span(
            span_id=live.span_id,
            parent_id=parent,
            name=live.name,
            start_ns=live._start,
            duration_ns=end - live._start,
            tags=tags,
            pid=self._pid,
            tid=threading.get_ident(),
        )
        with self._lock:
            self._spans.append(record)

    # -- access and merging --------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Finished spans, in completion order (children before parents)."""
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def drain(self) -> List[dict]:
        """Remove and return all finished spans as picklable dicts.

        The worker-boundary payload: a worker drains its recorder into the
        shard reply; the parent absorbs the buffer into the batch trace.
        """
        with self._lock:
            spans = self._spans
            self._spans = []
        return [span.to_dict() for span in spans]

    def absorb(self, buffer: Iterable[dict]) -> int:
        """Merge a drained span buffer (id-remapped); returns spans added.

        Parent links inside the buffer are preserved; ids are shifted into
        this recorder's id space so a merged trace never collides, no
        matter how many workers contributed.
        """
        spans = [Span.from_dict(entry) for entry in buffer]
        if not spans:
            return 0
        with self._lock:
            base = self._next_id
            remap = {span.span_id: base + i for i, span in enumerate(spans)}
            self._next_id = base + len(spans)
            for span in spans:
                span.span_id = remap[span.span_id]
                if span.parent_id is not None:
                    # Parents outside the buffer (never the case for a
                    # cleanly drained worker) degrade to top-level spans.
                    span.parent_id = remap.get(span.parent_id)
                self._spans.append(span)
        return len(spans)

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The Chrome trace-event document (loads in Perfetto).

        Complete events (``ph: "X"``) with microsecond timestamps rebased
        to the earliest span, so the viewer opens at t=0.
        """
        spans = self.spans
        origin = min((span.start_ns for span in spans), default=0)
        events = []
        for span in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
            args = dict(span.tags)
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start_ns - origin) / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs", "spans": len(events)},
        }

    def to_json(self) -> str:
        """Chrome-trace document as a JSON string."""
        return json.dumps(self.chrome_trace(), indent=2, sort_keys=True)

    def to_jsonl(self) -> str:
        """One span dict per line (completion order), for jq-style tooling."""
        return "\n".join(
            json.dumps(span.to_dict(), sort_keys=True) for span in self.spans
        )


class NoopSpan:
    """The shared do-nothing span returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def tag(self, **tags) -> "NoopSpan":
        return self


NOOP_SPAN = NoopSpan()
