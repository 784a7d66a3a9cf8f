"""Metrics: counters, gauges, and histograms with snapshot/diff/merge.

The registry is deliberately plain — three dicts of numbers — because its
contract is algebraic, not structural:

* **snapshot** produces an immutable, stable-key view
  (:class:`MetricsSnapshot`) suitable for JSON artifacts and golden
  tests;
* **diff** of two snapshots isolates what one region of a run did
  (``after - before`` for counters and histogram totals);
* **merge** is commutative and associative, so per-worker registries
  reduce to the same totals in any grouping — the same property
  :class:`~repro.align.base.KernelStats` guarantees for the parallel
  batch engine.

Histograms use fixed power-of-two nanosecond buckets, so merging never
re-bins and the bucket layout is identical across processes and runs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple


class MetricsError(ValueError):
    """Raised on metric API misuse (bad name, mixed metric kinds)."""


#: Histogram bucket upper bounds: powers of two from 1 µs to ~17 s, in ns.
#: The final implicit bucket is unbounded (+inf).
HISTOGRAM_BOUNDS_NS: Tuple[int, ...] = tuple(
    1000 * (1 << exp) for exp in range(0, 25)
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable view of one histogram.

    Attributes:
        count / sum_ns / min_ns / max_ns: observation aggregates.
        buckets: observation counts per :data:`HISTOGRAM_BOUNDS_NS` bucket
            (plus the trailing overflow bucket).
    """

    count: int = 0
    sum_ns: int = 0
    min_ns: int = 0
    max_ns: int = 0
    buckets: Tuple[int, ...] = (0,) * (len(HISTOGRAM_BOUNDS_NS) + 1)

    @property
    def mean_ns(self) -> float:
        return self.sum_ns / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "mean_ns": self.mean_ns,
            "buckets": list(self.buckets),
        }

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if not other.count:
            return self
        if not self.count:
            return other
        return HistogramSnapshot(
            count=self.count + other.count,
            sum_ns=self.sum_ns + other.sum_ns,
            min_ns=min(self.min_ns, other.min_ns),
            max_ns=max(self.max_ns, other.max_ns),
            buckets=tuple(
                a + b for a, b in zip(self.buckets, other.buckets)
            ),
        )

    def diff(self, before: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations recorded after ``before`` was taken.

        min/max cannot be un-merged; the diff reports the *after* extremes,
        which is the conservative envelope of the window's observations.
        """
        count = self.count - before.count
        if count <= 0:
            return HistogramSnapshot()
        return HistogramSnapshot(
            count=count,
            sum_ns=self.sum_ns - before.sum_ns,
            min_ns=self.min_ns,
            max_ns=self.max_ns,
            buckets=tuple(
                a - b for a, b in zip(self.buckets, before.buckets)
            ),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, stable-key view of a registry at one instant."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form with deterministically sorted keys."""
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name] for name in sorted(self.gauges)
            },
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    def diff(self, before: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened between ``before`` and this snapshot."""
        counters = {}
        for name, value in self.counters.items():
            delta = value - before.counters.get(name, 0)
            if delta:
                counters[name] = delta
        histograms = {}
        for name, hist in self.histograms.items():
            delta_hist = hist.diff(
                before.histograms.get(name, HistogramSnapshot())
            )
            if delta_hist.count:
                histograms[name] = delta_hist
        return MetricsSnapshot(
            counters=counters,
            gauges=dict(self.gauges),  # gauges are levels, not flows
            histograms=histograms,
        )


def merge_snapshots(parts: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Order-insensitive reduction of snapshots (worker → parent merge).

    Counters and histograms add; a gauge takes the last non-``None``
    written value per name (gauges describe levels, and merging levels
    across workers keeps the most recent report, which is what the batch
    engine's input-ordered merge delivers deterministically).
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, HistogramSnapshot] = {}
    for part in parts:
        for name, value in part.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(part.gauges)
        for name, hist in part.histograms.items():
            histograms[name] = histograms.get(
                name, HistogramSnapshot()
            ).merge(hist)
    return MetricsSnapshot(
        counters=counters, gauges=gauges, histograms=histograms
    )


class _Histogram:
    """Mutable histogram backing store (registry-internal)."""

    __slots__ = ("count", "sum_ns", "min_ns", "max_ns", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum_ns = 0
        self.min_ns = 0
        self.max_ns = 0
        self.buckets = [0] * (len(HISTOGRAM_BOUNDS_NS) + 1)

    def observe(self, value_ns: int) -> None:
        if self.count:
            self.min_ns = min(self.min_ns, value_ns)
            self.max_ns = max(self.max_ns, value_ns)
        else:
            self.min_ns = self.max_ns = value_ns
        self.count += 1
        self.sum_ns += value_ns
        lo, hi = 0, len(HISTOGRAM_BOUNDS_NS)
        while lo < hi:  # first bound >= value (bisect, no imports)
            mid = (lo + hi) // 2
            if HISTOGRAM_BOUNDS_NS[mid] < value_ns:
                lo = mid + 1
            else:
                hi = mid
        self.buckets[lo] += 1

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self.count,
            sum_ns=self.sum_ns,
            min_ns=self.min_ns,
            max_ns=self.max_ns,
            buckets=tuple(self.buckets),
        )


class MetricsRegistry:
    """Thread-safe named counters, gauges, and nanosecond histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    @staticmethod
    def _check_name(name: str) -> None:
        if not name or name != name.strip():
            raise MetricsError(f"bad metric name {name!r}")

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._check_name(name)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self._check_name(name)
        with self._lock:
            self._gauges[name] = value

    def observe_ns(self, name: str, value_ns: int) -> None:
        """Record one observation into histogram ``name``."""
        self._check_name(name)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(value_ns)

    def counter(self, name: str) -> int:
        """Current counter value (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        """Immutable stable-key view of everything recorded so far."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    name: hist.snapshot()
                    for name, hist in self._histograms.items()
                },
            )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Merge a worker's snapshot into this registry (additive)."""
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(snapshot.gauges)
            for name, incoming in snapshot.histograms.items():
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = _Histogram()
                merged = hist.snapshot().merge(incoming)
                hist.count = merged.count
                hist.sum_ns = merged.sum_ns
                hist.min_ns = merged.min_ns
                hist.max_ns = merged.max_ns
                hist.buckets = list(merged.buckets)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def snapshot_from_dict(payload: dict) -> MetricsSnapshot:
    """Rebuild a snapshot from its ``to_dict`` form (worker transport)."""
    histograms = {}
    for name, entry in payload.get("histograms", {}).items():
        buckets = entry.get("buckets") or [0] * (
            len(HISTOGRAM_BOUNDS_NS) + 1
        )
        histograms[name] = HistogramSnapshot(
            count=entry.get("count", 0),
            sum_ns=entry.get("sum_ns", 0),
            min_ns=entry.get("min_ns", 0),
            max_ns=entry.get("max_ns", 0),
            buckets=tuple(buckets),
        )
    return MetricsSnapshot(
        counters=dict(payload.get("counters", {})),
        gauges=dict(payload.get("gauges", {})),
        histograms=histograms,
    )

