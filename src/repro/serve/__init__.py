"""Alignment-as-a-service: warm pools, coalescing, content-addressed cache.

The serving subsystem turns the batch alignment engine into a long-lived
service: a warm :class:`~repro.align.parallel.WorkerPool` paid for once at
startup, a :class:`~repro.serve.coalescer.Coalescer` that batches
concurrent requests into shards only while every worker is busy, a
content-addressed :class:`~repro.serve.cache.AlignmentCache`, admission
control with back-pressure (429 + ``Retry-After``), and crash recovery
that rebuilds the pool and re-executes lost shards.  See
``docs/serving.md``.
"""

from .cache import (
    AlignmentCache,
    CachedAlignment,
    CacheError,
    aligner_fingerprint,
    pair_key,
)
from .coalescer import Coalescer, CoalescerError, PendingPair
from .http import (
    AlignmentHTTPServer,
    AlignmentRequestHandler,
    RequestError,
    running_server,
)
from .service import (
    AlignmentService,
    ServeConfig,
    ServeError,
    ServeResult,
    ServiceClosedError,
    ServiceSaturatedError,
)

__all__ = [
    "AlignmentCache",
    "AlignmentHTTPServer",
    "AlignmentRequestHandler",
    "AlignmentService",
    "CacheError",
    "CachedAlignment",
    "Coalescer",
    "CoalescerError",
    "PendingPair",
    "RequestError",
    "ServeConfig",
    "ServeError",
    "ServeResult",
    "ServiceClosedError",
    "ServiceSaturatedError",
    "aligner_fingerprint",
    "pair_key",
    "running_server",
]
