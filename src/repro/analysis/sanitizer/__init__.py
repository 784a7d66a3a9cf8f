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
whose disarmed cost is bounded <5% by ``benchmarks/test_sanitizer_overhead``;
every other name here loads its submodule on first access.
"""

from typing import TYPE_CHECKING

from ...common.lazy import lazy_exports

if TYPE_CHECKING:
    # For type checkers and linters only; ``Name as Name`` marks each one a
    # re-export.  At run time ``__getattr__`` resolves them from the map.
    from .driver import SanitizeReport as SanitizeReport, run_sanitize as run_sanitize
    from .guards import SanitizerSession as SanitizerSession, sanitize as sanitize
    from .reachability import (
        ScanConfig as ScanConfig,
        ScanReport as ScanReport,
        scan_package as scan_package,
        scan_tree as scan_tree,
    )
    from .runtime import (
        SanitizerError as SanitizerError,
        armed as armed,
        batch_begin as batch_begin,
        batch_end as batch_end,
    )
    from .sancorpus import (
        ViolationCase as ViolationCase,
        violation_corpus as violation_corpus,
    )
    from .shadow import (
        ShadowMismatch as ShadowMismatch,
        ShadowReport as ShadowReport,
        result_digest as result_digest,
        results_digest as results_digest,
        shadow_execute as shadow_execute,
        shrink_shard as shrink_shard,
    )

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "driver": "SanitizeReport run_sanitize",
        "guards": "SanitizerSession sanitize",
        "reachability": "ScanConfig ScanReport scan_package scan_tree",
        "runtime": "SanitizerError armed batch_begin batch_end",
        "sancorpus": "ViolationCase violation_corpus",
        "shadow": (
            "ShadowMismatch ShadowReport result_digest results_digest "
            "shadow_execute shrink_shard"
        ),
    },
)
