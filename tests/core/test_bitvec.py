"""Tests for bit-vector helpers (repro.core.bitvec)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitvec import (
    bits_of,
    from_bits,
    get_bit,
    mask,
    merge_plus_minus,
    pack_deltas,
    pack_plus_minus,
    popcount,
    set_bit,
    split_plus_minus,
    unpack_deltas,
    unpack_plus_minus,
)
from repro.core.delta import DeltaEncodingError

deltas_strategy = st.lists(
    st.sampled_from([-1, 0, 1]), min_size=1, max_size=64
)


class TestPrimitives:
    def test_mask(self):
        assert mask(0) == 0
        assert mask(1) == 1
        assert mask(8) == 0xFF
        assert mask(64) == (1 << 64) - 1

    def test_mask_negative(self):
        with pytest.raises(ValueError):
            mask(-1)

    def test_get_set_bit(self):
        value = 0b1010
        assert get_bit(value, 1) == 1
        assert get_bit(value, 0) == 0
        assert set_bit(value, 0, 1) == 0b1011
        assert set_bit(value, 3, 0) == 0b0010

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        assert popcount(mask(100)) == 100

    def test_bits_roundtrip(self):
        value = 0b110101
        assert from_bits(bits_of(value, 6)) == value


class TestDeltaPacking:
    def test_known_packing(self):
        # +1 -> 0b01 in field 0; -1 -> 0b10 in field 1; 0 -> 0b00 in field 2
        assert pack_deltas([1, -1, 0]) == 0b00_10_01

    def test_unpack_known(self):
        assert unpack_deltas(0b00_10_01, 3) == [1, -1, 0]

    def test_unpack_rejects_illegal_field(self):
        with pytest.raises(DeltaEncodingError):
            unpack_deltas(0b11, 1)

    @given(deltas_strategy)
    def test_roundtrip(self, deltas):
        assert unpack_deltas(pack_deltas(deltas), len(deltas)) == deltas

    @given(deltas_strategy)
    def test_register_width(self, deltas):
        """A T-element vector fits in 2T bits (the paper's register sizing)."""
        assert pack_deltas(deltas) < (1 << (2 * len(deltas)))


class TestPlusMinusMasks:
    @given(deltas_strategy)
    def test_roundtrip(self, deltas):
        plus, minus = split_plus_minus(deltas)
        assert merge_plus_minus(plus, minus, len(deltas)) == deltas

    @given(deltas_strategy)
    def test_masks_disjoint(self, deltas):
        plus, minus = split_plus_minus(deltas)
        assert plus & minus == 0

    def test_merge_rejects_overlap(self):
        with pytest.raises(DeltaEncodingError):
            merge_plus_minus(0b1, 0b1, 1)

    def test_split_rejects_bad_value(self):
        with pytest.raises(DeltaEncodingError):
            split_plus_minus([2])

    @given(deltas_strategy)
    def test_register_image_twins_match_list_codecs(self, deltas):
        """pack/unpack_plus_minus agree with pack/unpack_deltas."""
        plus, minus = split_plus_minus(deltas)
        image = pack_deltas(deltas)
        assert pack_plus_minus(plus, minus) == image
        # Fields above ``count`` are ignored, even illegal ones.
        garbage = 0b11 << (2 * len(deltas))
        assert unpack_plus_minus(image | garbage, len(deltas)) == (plus, minus)

    def test_unpack_plus_minus_rejects_illegal_field(self):
        with pytest.raises(DeltaEncodingError):
            unpack_plus_minus(0b01_11_00, 3)
