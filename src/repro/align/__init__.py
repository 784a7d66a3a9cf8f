"""GMX co-designed alignment algorithms: Full, Banded, and Windowed (§4.1)."""

from .base import (
    Aligner,
    AlignerError,
    AlignmentMode,
    AlignmentResult,
    KernelStats,
    ResilienceCounters,
)
from .auto import AutoAligner
from .backends import (
    BackendError,
    KernelBackend,
    backend_names,
    get_backend,
    register_backend,
)
from .banded_gmx import BandExceededError, BandedGmxAligner
from .batch import BatchResult, align_batch
from .chunked import (
    canonical_cigar,
    canonicalize_ops,
    ops_to_runs,
    runs_to_cigar,
    runs_to_ops,
    trim_insertion_flanks,
)
from .full_gmx import FullGmxAligner, align_pair
from .parallel import (
    BatchTelemetry,
    PoolError,
    ShardTelemetry,
    WorkerLost,
    WorkerPool,
    iter_shards,
)
from .windowed_gmx import WindowedAligner, WindowedGmxAligner

__all__ = [
    "Aligner",
    "AlignerError",
    "AlignmentMode",
    "AlignmentResult",
    "AutoAligner",
    "BackendError",
    "BandExceededError",
    "BandedGmxAligner",
    "BatchResult",
    "BatchTelemetry",
    "FullGmxAligner",
    "KernelBackend",
    "KernelStats",
    "PoolError",
    "ResilienceCounters",
    "ShardTelemetry",
    "WorkerLost",
    "WorkerPool",
    "WindowedAligner",
    "WindowedGmxAligner",
    "align_batch",
    "align_pair",
    "backend_names",
    "canonical_cigar",
    "canonicalize_ops",
    "ops_to_runs",
    "runs_to_cigar",
    "runs_to_ops",
    "trim_insertion_flanks",
    "get_backend",
    "iter_shards",
    "register_backend",
]
