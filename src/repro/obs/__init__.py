"""repro.obs — zero-dependency tracing, metrics, and profiling.

The paper's evaluation (§7) attributes cycles and instructions to
individual tiles, kernels, and cores; this package gives the reproduction
the same visibility over its own hot paths:

* **Tracing** (:mod:`.tracing`) — a lightweight span API
  (``obs.span("tile.compute", tiles=12)``) recording into a thread-safe
  in-memory :class:`~repro.obs.tracing.SpanRecorder`, exported as
  Chrome-trace JSON (loads in ``chrome://tracing`` / Perfetto) or JSON
  lines.  Span buffers are picklable, so worker processes ship their
  spans back to the parent and a sharded batch produces one merged trace.
* **Metrics** (:mod:`.metrics`) — a registry of counters, gauges, and
  histograms (tiles computed, traceback rate, band exceedances, retries,
  per-kernel wall-time) with snapshot / diff / merge semantics; exported
  into ``experiment all`` artifacts next to the lint and resilience
  badges.
* **Profiling** (:mod:`.profiler`) — a sampling-free deterministic
  profiler (``repro profile`` on the CLI) that aggregates the span stream
  into a per-kernel hot-path table and diffs two profile JSONs for
  regression hunting.

Everything is **off by default**: instrumented call sites check one
module-level flag (:data:`~repro.obs.runtime.ENABLED`) and cost a single
attribute read plus a no-op context manager when observability is
disabled.  When enabled, span *structure* (names, nesting, tags, per-
thread ordering) is deterministic under fixed seeds — only the recorded
nanosecond timestamps vary — so traces are replayable alongside
:class:`~repro.resilience.FaultPlan` journals.
"""

from .metrics import MetricsRegistry, MetricsSnapshot, merge_snapshots
from .profiler import (
    Profile,
    ProfileError,
    diff_profiles,
    load_profile,
    render_profile,
    render_profile_diff,
)
from .runtime import (
    capture,
    disable,
    enable,
    enabled,
    inc,
    inc_record,
    metrics,
    observe_ns,
    recorder,
    span,
)
from .tracing import Span, SpanRecorder, TracingError

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "Profile",
    "ProfileError",
    "Span",
    "SpanRecorder",
    "TracingError",
    "capture",
    "diff_profiles",
    "disable",
    "enable",
    "enabled",
    "inc",
    "inc_record",
    "load_profile",
    "merge_snapshots",
    "metrics",
    "observe_ns",
    "recorder",
    "render_profile",
    "render_profile_diff",
    "span",
]
