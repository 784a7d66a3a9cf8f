"""repro.stream — chromosome-scale chunked alignment with bounded memory.

The streaming pipeline splits an arbitrarily long reference into
overlapping windows, probes every 8th reference base against an index
of every query k-mer to pick the few windows the query can plausibly
map to, aligns only those windows with auto-widening Banded(GMX)
through ``align_batch`` (serial or pooled) or the resilient engine,
and stitches the per-window alignments, in job order, back into one
global alignment with deterministic overlap reconciliation.  Peak
memory is O(chunk + query), independent of reference length.

Entry points:

* :func:`stream_align` — align a query against an in-memory or streamed
  reference.
* :func:`stream_align_fasta` — same, reading the reference lazily from
  a FASTA file via :func:`repro.workloads.iter_fasta_blocks`.
* :func:`repro.stream.conformance.verify_windows` — oracle-check seeded
  sub-windows of a stitched alignment against Hirschberg.
"""

from .chunker import ReferenceChunk, chunk_spans, iter_reference_chunks, validate_chunking
from .conformance import WindowCheck, path_cut_points, verify_windows, window_ops
from .errors import StreamError
from .pipeline import (
    ENGINES,
    StageTimings,
    StreamConfig,
    StreamCounters,
    StreamResult,
    stream_align,
    stream_align_fasta,
)
from .stitch import (
    Anchor,
    ChunkAlignment,
    ChunkJob,
    StitchCounters,
    StitchedAlignment,
    Stitcher,
    common_anchor,
    find_anchors,
)

__all__ = [
    "ENGINES",
    "Anchor",
    "ChunkAlignment",
    "ChunkJob",
    "ReferenceChunk",
    "StageTimings",
    "StitchCounters",
    "StitchedAlignment",
    "Stitcher",
    "StreamConfig",
    "StreamCounters",
    "StreamError",
    "StreamResult",
    "WindowCheck",
    "chunk_spans",
    "common_anchor",
    "find_anchors",
    "iter_reference_chunks",
    "path_cut_points",
    "stream_align",
    "stream_align_fasta",
    "validate_chunking",
    "verify_windows",
    "window_ops",
]
