"""Concurrency & determinism sanitizer ("dsan") for the GMX reproduction.

Two sides, one contract — a parallel run must be observationally
identical to a serial one:

* **static** (:mod:`~repro.analysis.sanitizer.reachability`) — a
  cross-module call-graph analysis rooted at the worker entry points
  (the parallel pool worker, the resilient shard runner, every kernel
  backend) flagging REPRO006–009: shared-state writes, unguarded
  ambient-hook arming, wall-clock/unseeded-RNG use, and registry
  mutation in worker-reachable code;
* **dynamic** (:mod:`~repro.analysis.sanitizer.guards` /
  :mod:`~repro.analysis.sanitizer.shadow`) — batch-boundary and
  session-exit hook-leak checks, and shadow execution diffing content
  digests of a seeded shard sample re-executed serially.

``repro sanitize`` drives both (:mod:`~repro.analysis.sanitizer.driver`);
the batch engines see only :mod:`~repro.analysis.sanitizer.runtime`,
whose disarmed cost is bounded <5% by ``benchmarks/test_sanitizer_overhead``.
"""

from .driver import SanitizeReport, run_sanitize
from .guards import SanitizerSession, sanitize
from .reachability import ScanConfig, ScanReport, scan_package, scan_tree
from .runtime import SanitizerError, armed, batch_begin, batch_end
from .sancorpus import ViolationCase, violation_corpus
from .shadow import (
    ShadowMismatch,
    ShadowReport,
    result_digest,
    results_digest,
    shadow_execute,
    shrink_shard,
)

__all__ = [
    "SanitizeReport",
    "SanitizerError",
    "SanitizerSession",
    "ScanConfig",
    "ScanReport",
    "ShadowMismatch",
    "ShadowReport",
    "ViolationCase",
    "armed",
    "batch_begin",
    "batch_end",
    "result_digest",
    "results_digest",
    "run_sanitize",
    "sanitize",
    "scan_package",
    "scan_tree",
    "shadow_execute",
    "shrink_shard",
    "violation_corpus",
]
