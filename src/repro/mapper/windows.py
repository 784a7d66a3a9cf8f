"""Window-candidate filtering for the chunked streaming pipeline.

The mapper's :class:`~repro.mapper.index.KmerIndex` indexes the
*reference* — O(reference) memory, exactly what a chromosome-scale
stream cannot afford.  This module inverts the roles: every k-mer of the
**query** is indexed once (O(query) entries, independent of the
reference), and each reference chunk is probed against the index as it
streams past — but only at every ``stride``-th reference base.  A chunk
whose probes vote a coherent diagonal is a *candidate window*; the
vote's diagonal predicts which query span the chunk aligns to, so the
expensive aligner only ever sees O(chunk)-sized problems.

Sampling the streamed side is what makes the scan cheap: the filter
pays one k-byte key per ``stride`` reference bases instead of one per
base.  Probes sit on the *absolute* reference grid (positions that
are multiples of ``stride``), so the probe set does not depend on chunk
geometry, and any exact shared run of ``stride + k - 1`` bases
contains a probe.  A window's keys are cut by ``struct`` and looked up
by ``map``, so a window without a hit, which is nearly every window of
a scan, takes no interpreter step per probe: one ``list.count`` tells.

This is the seed-location-filtering pre-pass of the compute-in-SRAM
papers applied at chunk granularity: cheap exact-match voting gates the
expensive DP, and chunks with no query support are skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from struct import unpack_from
from typing import Dict, Iterator, List, Optional, Tuple

#: Bytes of the bases a k-mer may hold to be indexed.
DNA_ALPHABET = frozenset(b"ACGT")

#: Default k-mer length of :class:`QuerySketch`.
DEFAULT_K = 16


@dataclass(frozen=True)
class WindowVote:
    """The diagonal vote of one reference chunk against a query sketch.

    Attributes:
        votes: probe hits supporting the winning diagonal bucket.
        diagonal: representative diagonal (reference − query position) of
            the winning bucket.
        total_hits: all probe hits in the chunk, any diagonal.
    """

    votes: int
    diagonal: int
    total_hits: int


class QuerySketch:
    """Index of every query k-mer, probed by streaming chunks.

    Memory is O(len(query)) entries (about 220 bytes of Python heap per
    indexed k-mer).  K-mers containing anything but upper-case ``ACGT``
    are skipped (``N`` runs never vote), and k-mers occurring more than
    ``max_occurrences`` times in the query are dropped as repeats —
    their votes would smear across every diagonal.  The default of 512
    is 64 × the default stride of 8: counts run over every query
    position, and a window probes one base in 8, so a window's
    worst-case vote work is 64 votes per base of chunk.
    """

    def __init__(
        self,
        query: str,
        *,
        k: int = DEFAULT_K,
        stride: int = 8,
        max_occurrences: int = 512,
    ) -> None:
        if k < 4:
            raise ValueError(f"k must be >= 4, got {k}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if max_occurrences < 1:
            raise ValueError(
                f"max_occurrences must be >= 1, got {max_occurrences}"
            )
        self.query = query
        self.k = k
        self.stride = stride
        self.max_occurrences = max_occurrences
        # Keys are ASCII bytes: a non-ASCII base encodes as "?", which is
        # not in the alphabet, so it is never indexed and never hits.
        data = query.encode("ascii", "replace")
        offsets: Dict[bytes, List[int]] = {}
        dropped = set()
        for position in range(len(data) - k + 1):
            kmer = data[position:position + k]
            if not DNA_ALPHABET.issuperset(kmer):
                continue
            if kmer in dropped:
                continue
            bucket = offsets.setdefault(kmer, [])
            bucket.append(position)
            if len(bucket) > max_occurrences:
                del offsets[kmer]
                dropped.add(kmer)
        self._offsets = offsets

    def __len__(self) -> int:
        return len(self._offsets)

    def lookup(self, kmer: str) -> Tuple[int, ...]:
        """Query offsets at which ``kmer`` was indexed (possibly empty)."""
        return tuple(self._offsets.get(kmer.encode("ascii", "replace"), ()))

    def hits(self, chunk: str, chunk_start: int) -> Iterator[Tuple[int, int]]:
        """``(reference, query)`` positions of every probe hit in the chunk.

        Probes are the chunk positions whose absolute reference
        coordinate is a multiple of ``stride``, so a window yields
        exactly the hits of any split of it into pieces that overlap by
        ``k - 1`` bases.  Probes less than ``k`` bases apart overlap, so
        the keys are cut in ``ceil(k / stride)`` interleaved phases, each
        one ``struct`` unpack of keys at least ``k`` bases apart.
        """
        k = self.k
        stride = self.stride
        first = (-chunk_start) % stride
        probes = len(range(first, len(chunk) - k + 1, stride))
        if probes <= 0:
            return
        data = chunk.encode("ascii", "replace")
        phases = -(-k // stride)
        gap = phases * stride - k
        keys = [b""] * probes  # every slot is cut by exactly one phase
        for phase in range(min(phases, probes)):
            count = len(range(phase, probes, phases))
            layout = f"{k}s" + f"{gap}x{k}s" * (count - 1)
            keys[phase::phases] = unpack_from(layout, data, first + phase * stride)
        found = list(map(self._offsets.get, keys))
        if found.count(None) == probes:
            return
        for probe, query_positions in enumerate(found):
            if query_positions:
                reference_position = chunk_start + first + probe * stride
                for query_position in query_positions:
                    yield reference_position, query_position

    def scan_window(
        self,
        chunk: str,
        chunk_start: int,
        *,
        bucket: int = 32,
    ) -> Optional[WindowVote]:
        """Vote the chunk's probe hits (see :meth:`hits`) per diagonal.

        Votes accumulate per diagonal *bucket* — ``bucket`` absorbs
        indel drift within the chunk — and the winning bucket is the
        one with the most votes, ties broken toward the smallest
        diagonal for determinism.

        Returns ``None`` when no probe of the chunk hits the sketch.
        """
        if bucket < 1:
            raise ValueError(f"bucket must be >= 1, got {bucket}")
        counts: Dict[int, int] = {}
        total = 0
        for reference_position, query_position in self.hits(
            chunk, chunk_start
        ):
            key = (reference_position - query_position) // bucket
            counts[key] = counts.get(key, 0) + 1
            total += 1
        if not counts:
            return None
        best_bucket = min(
            counts, key=lambda key: (-counts[key], key)
        )
        return WindowVote(
            votes=counts[best_bucket],
            diagonal=best_bucket * bucket + bucket // 2,
            total_hits=total,
        )
