"""Stitcher unit tests: anchors, seams, ordering, and error contracts.

Chunk alignments are built directly (no pipeline) so each seam shape —
common-anchor cut, anchorless bridge, out-of-order rejection — is exercised
in isolation with known coordinates.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import EdlibAligner
from repro.stream import (
    Anchor,
    ChunkAlignment,
    ChunkJob,
    StreamError,
    Stitcher,
    common_anchor,
    find_anchors,
)

from conftest import random_dna, scalar_edit_distance


def make_chunk(
    reference: str,
    query: str,
    order: int,
    ref_span: tuple,
    query_span: tuple,
) -> ChunkAlignment:
    """Globally align one query span against one reference window."""
    ref_start, ref_end = ref_span
    query_start, query_end = query_span
    job = ChunkJob(
        order=order,
        chunk_index=order,
        ref_start=ref_start,
        ref_end=ref_end,
        query_start=query_start,
        query_end=query_end,
        pattern=query[query_start:query_end],
        text=reference[ref_start:ref_end],
        votes=1,
        diagonal=ref_start - query_start,
    )
    outcome = EdlibAligner().align(job.pattern, job.text, traceback=True)
    return ChunkAlignment(
        job=job, ops=tuple(outcome.alignment.ops), score=outcome.score
    )


@pytest.fixture
def exact_case():
    """query == reference[500:1500]; two overlapping windows."""
    rng = random.Random(11)
    reference = random_dna(2000, rng)
    query = reference[500:1500]
    chunks = [
        make_chunk(reference, query, 0, (400, 1000), (0, 500)),
        make_chunk(reference, query, 1, (900, 1600), (400, 1000)),
    ]
    return reference, query, chunks


class TestConstruction:
    def test_empty_query_rejected(self):
        with pytest.raises(StreamError, match="empty query"):
            Stitcher("")

    def test_min_anchor_must_be_positive(self):
        with pytest.raises(ValueError, match="min_anchor"):
            Stitcher("ACGT", min_anchor=0)


class TestAnchors:
    def test_find_anchors_absolute_coordinates(self, exact_case):
        _, _, chunks = exact_case
        anchors = find_anchors(chunks[0], min_anchor=12)
        # Window 400..1000 vs query 0..500: 100 slack bases then 500 M.
        assert anchors == [Anchor(query=0, ref=500, length=500)]
        assert anchors[0].diagonal == 500
        assert anchors[0].ref_end == 1000

    def test_short_match_runs_are_not_anchors(self):
        rng = random.Random(12)
        reference = random_dna(100, rng)
        # Query mismatches every 4th base: no M run reaches 12.
        query = "".join(
            ("A" if c != "A" else "C") if i % 4 == 0 else c
            for i, c in enumerate(reference)
        )
        chunk = make_chunk(reference, query, 0, (0, 100), (0, 100))
        assert find_anchors(chunk, min_anchor=12) == []

    def test_common_anchor_intersects_and_clamps(self):
        left = [Anchor(query=0, ref=100, length=100)]
        right = [Anchor(query=50, ref=150, length=100)]
        # Same diagonal (100): intersection 150..200, clamped to hi=180.
        assert common_anchor(
            left, right, lo=0, hi=180, min_anchor=12
        ) == (150, 180, 100)

    def test_common_anchor_requires_same_diagonal(self):
        left = [Anchor(query=0, ref=100, length=100)]
        right = [Anchor(query=49, ref=150, length=100)]
        assert (
            common_anchor(left, right, lo=0, hi=1000, min_anchor=12) is None
        )

    def test_common_anchor_tie_breaks_to_smallest_position(self):
        left = [
            Anchor(query=0, ref=100, length=20),
            Anchor(query=100, ref=200, length=20),
        ]
        right = list(left)
        cut = common_anchor(left, right, lo=0, hi=1000, min_anchor=12)
        assert cut == (100, 120, 100)


class TestStitching:
    def finish(self, query, chunks, order=None):
        stitcher = Stitcher(query)
        for index in order if order is not None else range(len(chunks)):
            stitcher.submit(chunks[index])
        return stitcher.finish()

    def test_exact_match_stitches_clean(self, exact_case):
        _, query, chunks = exact_case
        stitched = self.finish(query, chunks)
        assert stitched.score == 0
        assert stitched.cigar == "1000M"
        assert (stitched.text_start, stitched.text_end) == (500, 1500)
        assert stitched.counters.chunks == 2
        assert stitched.counters.anchor_seams == 1
        assert stitched.counters.bridge_seams == 0

    def test_duplicate_order_rejected(self, exact_case):
        _, query, chunks = exact_case
        stitcher = Stitcher(query)
        stitcher.submit(chunks[0])
        with pytest.raises(StreamError, match="submitted twice"):
            stitcher.submit(chunks[0])

    def test_missing_order_detected_at_finish(self, exact_case):
        _, query, chunks = exact_case
        stitcher = Stitcher(query)
        # Order 0 never arrives: engines return results in job order, so
        # an early result is rejected when it is submitted.
        with pytest.raises(StreamError, match="submitted before order 0"):
            stitcher.submit(chunks[1])

    def test_finish_twice_rejected(self, exact_case):
        _, query, chunks = exact_case
        stitcher = Stitcher(query)
        for chunk in chunks:
            stitcher.submit(chunk)
        stitcher.finish()
        with pytest.raises(StreamError, match="already finished"):
            stitcher.finish()
        with pytest.raises(StreamError, match="already finished"):
            stitcher.submit(chunks[0])

    def test_gap_in_reference_coverage_rejected(self, exact_case):
        reference, query, chunks = exact_case
        stitcher = Stitcher(query)
        stitcher.submit(chunks[0])
        gapped = make_chunk(reference, query, 1, (1100, 1600), (600, 1000))
        with pytest.raises(StreamError, match="contiguously"):
            stitcher.submit(gapped)

    def test_no_usable_chunk_raises(self):
        stitcher = Stitcher("ACGTACGTACGTACGT")
        with pytest.raises(StreamError, match="anchored nowhere"):
            stitcher.finish()

    def test_anchorless_overlap_bridges(self):
        rng = random.Random(13)
        reference = random_dna(2000, rng)
        # Query = reference locus, but every 4th base of the overlap
        # region (900..1000) mismatches: the seam has no anchor and must
        # be repaired by exact realignment.
        locus = list(reference[500:1500])
        flips = 0
        for absolute in range(900, 1000, 4):
            index = absolute - 500
            locus[index] = "A" if locus[index] != "A" else "C"
            flips += 1
        query = "".join(locus)
        chunks = [
            make_chunk(reference, query, 0, (400, 1000), (0, 500)),
            make_chunk(reference, query, 1, (900, 1600), (400, 1000)),
        ]
        stitched = self.finish(query, chunks)
        assert stitched.counters.bridge_seams == 1
        assert stitched.counters.bridge_columns > 0
        assert stitched.score == flips
        assert stitched.score == scalar_edit_distance(query, stitched.text)
