"""Property suite: chunking invariance and window conformance.

Two pillars of the streaming pipeline's correctness story:

* **Chunking invariance** — the stitched global alignment is a function
  of (reference, query), not of the window geometry that produced it.
  Random chunk_size/overlap draws must yield byte-identical results; on
  a violation the geometry set is ddmin-shrunk
  (:func:`conformance.oracle.shrink_shard`) to a minimal disagreeing
  pair before failing.

* **Window conformance** — seeded random sub-windows of the stitched
  path, cut at anchor midpoints, must be score-identical and
  byte-identical (after canonicalisation) to an independent Hirschberg
  oracle run on the same window.  Accumulated across cases to >= 200
  verified windows, per the reproduction target.
"""

from __future__ import annotations

import random

import pytest

from repro.stream import StreamConfig, StreamError, stream_align, verify_windows

from .cases import planted_case
from conformance.oracle import shrink_shard

#: Window-conformance accumulation target across all cases.
WINDOW_TARGET = 200

CASE_SEEDS = (0xA1, 0xA2, 0xA3, 0xA4, 0xA5)


def geometry_draws(rng: random.Random, count: int):
    """Seeded random (chunk_size, overlap) pairs the pipeline accepts."""
    draws = []
    while len(draws) < count:
        chunk_size = rng.randrange(700, 4097)
        overlap = rng.randrange(64, max(65, chunk_size // 3))
        config = StreamConfig(chunk_size=chunk_size, overlap=overlap)
        try:
            config.validate()
        except ValueError:
            continue
        draws.append(config)
    return draws


class TestChunkingInvariance:
    def test_random_geometries_are_byte_identical(self):
        rng = random.Random(0x5EED)
        case = planted_case(
            rng, query_len=2000, left_flank=3000, right_flank=3000, edits=24
        )
        configs = geometry_draws(rng, 6)

        def outcome(config: StreamConfig):
            result = stream_align(case.reference, case.query, config=config)
            return (
                result.score,
                result.text_start,
                result.text_end,
                result.cigar,
            )

        outcomes = {config: outcome(config) for config in configs}
        if len(set(outcomes.values())) > 1:
            def disagrees(subset):
                return len({outcomes[config] for config in subset}) > 1

            minimal = shrink_shard(configs, disagrees)
            pytest.fail(
                "chunk geometry changed the stitched alignment "
                "(ddmin-shrunk to a minimal disagreeing set): "
                + "; ".join(
                    f"chunk_size={config.chunk_size} "
                    f"overlap={config.overlap} -> {outcomes[config]}"
                    for config in minimal
                )
            )

    def test_overlap_extremes_agree_with_default(self):
        rng = random.Random(0x5EEE)
        case = planted_case(
            rng, query_len=1500, left_flank=2000, right_flank=2000, edits=15
        )
        results = [
            stream_align(case.reference, case.query, config=config)
            for config in (
                StreamConfig(chunk_size=1024, overlap=128),
                StreamConfig(chunk_size=1024, overlap=512),  # half the chunk
                StreamConfig(chunk_size=1024, overlap=768),  # three quarters
            )
        ]
        first = results[0]
        for other in results[1:]:
            assert other.stitched.runs == first.stitched.runs
            assert other.stitched.text == first.stitched.text

    def test_minimal_overlap_bounds_boundary_loss(self):
        # overlap == min_anchor is accepted but marginal: a query flank
        # landing in a window with too few sketch votes can go unmapped
        # (documented limitation).  The loss is bounded by the unmapped
        # flank columns the stitcher accounts for — never silent.
        rng = random.Random(0x5EEE)
        case = planted_case(
            rng, query_len=1500, left_flank=2000, right_flank=2000, edits=15
        )
        baseline = stream_align(
            case.reference,
            case.query,
            config=StreamConfig(chunk_size=1024, overlap=512),
        )
        marginal = stream_align(
            case.reference,
            case.query,
            config=StreamConfig(chunk_size=1024, overlap=12),
        )
        counters = marginal.stitched.counters
        unmapped = counters.head_unmapped + counters.tail_unmapped
        assert marginal.score <= baseline.score + unmapped
        assert unmapped <= marginal.config.chunk_size


class TestWindowConformance:
    @pytest.fixture(scope="class")
    def checks(self):
        accumulated = []
        for seed in CASE_SEEDS:
            rng = random.Random(seed)
            case = planted_case(
                rng,
                query_len=3000,
                left_flank=2500,
                right_flank=2500,
                edits=30,
            )
            result = stream_align(
                case.reference,
                case.query,
                config=StreamConfig(chunk_size=1024, overlap=192),
            )
            accumulated.extend(
                verify_windows(
                    result.stitched,
                    windows=50,
                    seed=seed,
                    min_span=96,
                    max_span=384,
                )
            )
        return accumulated

    def test_accumulates_target_window_count(self, checks):
        assert len(checks) >= WINDOW_TARGET

    def test_every_window_matches_the_oracle(self, checks):
        bad = [check for check in checks if not check.ok]
        assert not bad, (
            f"{len(bad)}/{len(checks)} windows diverged from the "
            f"Hirschberg oracle; first: {bad[0]}"
        )

    def test_window_geometry_invariants(self, checks):
        for check in checks:
            assert check.query_end > check.query_start
            assert 96 <= check.ref_end - check.ref_start <= 384
            assert check.window_score == check.oracle_score
            # Raw CIGARs may tie-break differently; canonical forms match.
            assert check.identical


class TestVerifyWindowsContract:
    """An empty check list must never read as a pass."""

    @pytest.fixture(scope="class", params=[0, 2], ids=["one-anchor", "two-anchors"])
    def short_stitched(self, request):
        # A 150 bp query: one exact run, or two anchors too close together
        # for a 128-base window.
        case = planted_case(
            random.Random(0xA6),
            query_len=150,
            left_flank=1500,
            right_flank=1500,
            edits=request.param,
        )
        return stream_align(
            case.reference,
            case.query,
            config=StreamConfig(chunk_size=1024, overlap=192),
        ).stitched

    def test_no_window_cut_raises(self, short_stitched):
        with pytest.raises(StreamError, match="no verification window"):
            verify_windows(short_stitched, windows=5)

    def test_zero_windows_returns_empty(self, short_stitched):
        assert verify_windows(short_stitched, windows=0) == []

    def test_negative_windows_rejected(self, short_stitched):
        with pytest.raises(ValueError, match="windows must be >= 0"):
            verify_windows(short_stitched, windows=-3)
