"""Overlapping reference chunking with O(chunk) buffering.

The SegAlign/KegAlign splitting pattern: the reference is cut into
windows of ``chunk_size`` bases that overlap their successor by
``overlap`` bases, so every alignment feature of up to ``overlap`` bases
is wholly contained in at least one window and neighbouring windows
share enough sequence to reconcile their alignments on exact-match
anchors.  The chunker consumes the reference as a *block stream* (a
string is accepted too) and never buffers more than one window plus one
input block — the first leg of the pipeline's O(chunk) memory bound.

Edge semantics (all tested in ``tests/stream/test_chunker.py``):

* ``overlap >= chunk_size`` or ``chunk_size < 1`` → :class:`ValueError`
  at call time — the stream would not advance.
* reference shorter than ``chunk_size`` (including exactly equal) →
  one final chunk holding the whole reference.
* empty reference → zero chunks (the pipeline turns that into a
  :class:`~repro.stream.pipeline.StreamError` — an empty genome cannot
  anchor anything).
* the final chunk is whatever remains past the last full window; it is
  always at least ``overlap + 1`` bases (it still spans the shared
  region with its predecessor plus new sequence), never an empty or
  sub-overlap sliver.
* ``N`` runs are carried through verbatim — chunk boundaries may fall
  inside them; the filter simply never votes there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Tuple, Union


@dataclass(frozen=True)
class ReferenceChunk:
    """One overlapping window of the streamed reference.

    Attributes:
        index: 0-based chunk number.
        start: absolute reference offset of the first base (inclusive).
        end: absolute reference offset past the last base (exclusive).
        sequence: the window's bases, ``end - start`` of them.
        is_final: true for the last chunk of the reference.
    """

    index: int
    start: int
    end: int
    sequence: str
    is_final: bool

    def __len__(self) -> int:
        return self.end - self.start


def validate_chunking(chunk_size: int, overlap: int) -> None:
    """Reject chunk geometries that cannot advance.

    Raises:
        ValueError: when ``chunk_size < 1``, ``overlap < 0``, or
            ``overlap >= chunk_size`` (the window would never move
            forward past the shared region).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if overlap < 0:
        raise ValueError(f"overlap must be >= 0, got {overlap}")
    if overlap >= chunk_size:
        raise ValueError(
            f"overlap ({overlap}) must be smaller than chunk_size "
            f"({chunk_size}) or the stream cannot advance"
        )


def chunk_spans(
    length: int, chunk_size: int, overlap: int
) -> List[Tuple[int, int]]:
    """The ``(start, end)`` windows a reference of ``length`` bases cuts
    into — the offline mirror of :func:`iter_reference_chunks`."""
    validate_chunking(chunk_size, overlap)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    spans: List[Tuple[int, int]] = []
    step = chunk_size - overlap
    start = 0
    while True:
        end = min(start + chunk_size, length)
        if length == 0:
            break
        spans.append((start, end))
        if end >= length:
            break
        start += step
    return spans


def iter_reference_chunks(
    reference: Union[str, Iterable[str]],
    chunk_size: int,
    overlap: int,
) -> Iterator[ReferenceChunk]:
    """Stream overlapping chunks off a reference block stream.

    ``reference`` may be a plain string (already in memory) or any
    iterable of string blocks (e.g.
    :func:`repro.workloads.seqio.iter_fasta_blocks`); blocks may be of
    any size.  Buffering never exceeds one window plus the largest
    single input block.

    Geometry is validated eagerly, at call time — not deferred to the
    first ``next()`` like the generator body.
    """
    validate_chunking(chunk_size, overlap)
    blocks: Iterable[str]
    if isinstance(reference, str):
        blocks = (reference,) if reference else ()
    else:
        blocks = reference

    def chunks() -> Iterator[ReferenceChunk]:
        step = chunk_size - overlap
        buffer = ""
        base = 0
        index = 0
        for block in blocks:
            if not block:
                continue
            buffer += block
            # Emit full windows while at least one base past the window
            # proves it is not the final chunk.
            while len(buffer) > chunk_size:
                yield ReferenceChunk(
                    index=index,
                    start=base,
                    end=base + chunk_size,
                    sequence=buffer[:chunk_size],
                    is_final=False,
                )
                index += 1
                buffer = buffer[step:]
                base += step
        if buffer:
            yield ReferenceChunk(
                index=index,
                start=base,
                end=base + len(buffer),
                sequence=buffer,
                is_final=True,
            )

    return chunks()
