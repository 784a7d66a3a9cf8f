"""Tests for Banded(GMX) (repro.align.banded_gmx)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_dna, random_dna, scalar_edit_distance
from repro.align import (
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
)
from repro.align.banded_gmx import BandExceededError

dna = st.text(alphabet="ACGT", min_size=1, max_size=60)


class TestAutoWiden:
    @given(dna, dna)
    @settings(max_examples=80, deadline=None)
    def test_exact_with_auto_widening(self, pattern, text):
        """Doubling until self-certification makes Banded(GMX) exact."""
        result = BandedGmxAligner(tile_size=8).align(pattern, text)
        assert result.score == scalar_edit_distance(pattern, text)
        assert result.exact
        result.alignment.validate()

    def test_certification_criterion(self, rng):
        """A result is certified exact only when score ≤ band (Ukkonen)."""
        pattern = random_dna(200, rng)
        text = mutate_dna(pattern, 10, rng)
        result = BandedGmxAligner(tile_size=8).align(pattern, text)
        assert result.exact
        assert result.score <= max(200, result.score)


class TestFixedBand:
    def test_wide_band_is_exact(self, rng):
        pattern = random_dna(150, rng)
        text = mutate_dna(pattern, 8, rng)
        distance = scalar_edit_distance(pattern, text)
        result = BandedGmxAligner(
            band=distance + 32, auto_widen=False, tile_size=8
        ).align(pattern, text)
        assert result.score == distance
        assert result.exact

    def test_narrow_band_flagged_inexact(self, rng):
        """When the band can't certify, the result must not claim exactness."""
        pattern = random_dna(128, rng)
        text = pattern[::-1]  # high divergence
        distance = scalar_edit_distance(pattern, text)
        result = BandedGmxAligner(
            band=8, auto_widen=False, tile_size=8
        ).align(pattern, text, traceback=False)
        assert result.score >= distance
        assert not result.exact

    def test_narrow_band_alignment_still_valid(self, rng):
        """Even an uncertified banded alignment must replay correctly."""
        pattern = random_dna(96, rng)
        text = mutate_dna(pattern, 30, rng)
        try:
            result = BandedGmxAligner(
                band=16, auto_widen=False, tile_size=8
            ).align(pattern, text)
        except BandExceededError:
            return  # acceptable: the walk left the band and said so
        result.alignment.validate()
        assert result.score >= scalar_edit_distance(pattern, text)

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            BandedGmxAligner(band=0)


class TestCostAdvantage:
    def test_band_computes_fewer_tiles_than_full(self, rng):
        """The point of banding: m·B/T² tiles, not n·m/T² (§4.1)."""
        from repro.align import FullGmxAligner

        pattern = random_dna(512, rng)
        text = mutate_dna(pattern, 10, rng)
        banded = BandedGmxAligner(tile_size=16).align(
            pattern, text, traceback=False
        )
        full = FullGmxAligner(tile_size=16).align(pattern, text, traceback=False)
        assert banded.score == full.score
        assert banded.stats.tiles < full.stats.tiles / 2

    def test_length_difference_always_covered(self, rng):
        """Band is widened to |n−m| so the corner is always reachable."""
        pattern = random_dna(40, rng)
        text = random_dna(200, rng)
        result = BandedGmxAligner(tile_size=8).align(pattern, text)
        assert result.score == scalar_edit_distance(pattern, text)


class TestTileSizeValidation:
    @pytest.mark.parametrize("size", [0, 1, -3])
    @pytest.mark.parametrize(
        "cls",
        [FullGmxAligner, BandedGmxAligner, WindowedGmxAligner, AutoAligner],
        ids=lambda cls: cls.__name__,
    )
    def test_constructor_rejects_tile_size_below_two(self, cls, size):
        with pytest.raises(ValueError, match=f"at least 2, got {size}$"):
            cls(tile_size=size)
