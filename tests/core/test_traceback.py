"""Tests for tile traceback / gmx.tb semantics (repro.core.traceback)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scalar_edit_matrix
from repro.core.bitvec import pack_deltas
from repro.core.cigar import Alignment, OP_DELETION, OP_INSERTION
from repro.core.delta import DeltaEncodingError
from repro.core.isa import GmxIsa, encode_pos
from repro.core.tile import boundary_deltas, compute_tile_interior
from repro.core.traceback import (
    NextTile,
    pack_tile_ops,
    traceback_tile,
    unpack_tile_ops,
    walk_tile,
)

dna = st.text(alphabet="ACGT", min_size=1, max_size=12)


def complete_single_tile_alignment(pattern, text, tile_size=16):
    """Run a single-tile traceback and complete it along the boundary."""
    n, m = len(pattern), len(text)
    result = traceback_tile(
        pattern,
        text,
        boundary_deltas(n),
        boundary_deltas(m),
        (n - 1, m - 1),
        tile_size=tile_size,
    )
    interior = compute_tile_interior(
        pattern, text, boundary_deltas(n), boundary_deltas(m), tile_size=tile_size
    )
    _, exit_row, exit_col = walk_tile(pattern, text, interior, (n - 1, m - 1))
    ops = list(result.ops)
    ops.extend([OP_DELETION] * (exit_row + 1))
    ops.extend([OP_INSERTION] * (exit_col + 1))
    ops.reverse()
    return ops, result


class TestWalk:
    @given(dna, dna)
    @settings(max_examples=150)
    def test_single_tile_walk_is_optimal(self, pattern, text):
        """The walked path's cost must equal the true edit distance."""
        distance = scalar_edit_matrix(pattern, text)[len(pattern)][len(text)]
        ops, _ = complete_single_tile_alignment(pattern, text)
        Alignment(
            pattern=pattern, text=text, ops=tuple(ops), score=distance
        ).validate()

    @given(dna, dna)
    @settings(max_examples=100)
    def test_path_descends_antidiagonals(self, pattern, text):
        """Each op lowers i+j by ≥1 — at most one cell per antidiagonal."""
        result = traceback_tile(
            pattern,
            text,
            boundary_deltas(len(pattern)),
            boundary_deltas(len(text)),
            (len(pattern) - 1, len(text) - 1),
            tile_size=16,
        )
        assert len(result.ops) <= len(pattern) + len(text) - 1

    def test_start_outside_tile_rejected(self):
        with pytest.raises(ValueError):
            traceback_tile("AC", "AC", [1, 1], [1, 1], (5, 0), tile_size=4)


class TestNextTileClassification:
    def test_pure_match_exits_diagonally(self):
        result = traceback_tile(
            "ACGT", "ACGT", boundary_deltas(4), boundary_deltas(4), (3, 3),
            tile_size=4,
        )
        assert result.next_tile is NextTile.DIAGONAL
        assert result.next_pos == (3, 3)

    def test_deletion_column_exits_up(self):
        # Pattern much "longer" in walk terms: all deletions from column 0.
        result = traceback_tile(
            "AAAA", "C", boundary_deltas(4), [1], (3, 0), tile_size=4
        )
        assert result.next_tile in (NextTile.UP, NextTile.DIAGONAL)

    def test_up_exit_preserves_column(self):
        # Start on the right edge of a tall tile: MMM... then exit up.
        result = traceback_tile(
            "AAAA", "AA", boundary_deltas(4), boundary_deltas(2), (3, 1),
            tile_size=4,
        )
        # Two matches consume both columns; exit depends on path, but the
        # reported next position must lie on a tile edge.
        row, col = result.next_pos
        assert row == 3 or col == 3


class TestPackUnpack:
    @given(dna, dna)
    @settings(max_examples=150)
    def test_roundtrip_through_registers(self, pattern, text):
        """gmx_lo/gmx_hi encode the walk losslessly given the start cell."""
        n, m = len(pattern), len(text)
        start = (n - 1, m - 1)
        result = traceback_tile(
            pattern, text, boundary_deltas(n), boundary_deltas(m), start,
            tile_size=16,
        )
        lo, hi = pack_tile_ops(result.ops, start, result.next_tile, tile_size=16)
        ops, next_tile = unpack_tile_ops(
            lo, hi, start, len(result.ops), tile_size=16
        )
        assert tuple(ops) == result.ops
        assert next_tile == result.next_tile

    def test_register_width_bounded(self):
        """gmx_lo and gmx_hi must fit 2T bits each."""
        tile_size = 8
        ops = ("M",) * 8
        lo, hi = pack_tile_ops(ops, (7, 7), NextTile.DIAGONAL, tile_size=tile_size)
        assert lo < (1 << (2 * tile_size))
        assert hi < (1 << (2 * tile_size))

    def test_next_tile_in_top_bits(self):
        lo, hi = pack_tile_ops((), (7, 7), NextTile.LEFT, tile_size=8)
        assert (hi >> 14) & 0b11 == NextTile.LEFT.code


def _reference_tile_traceback(pattern, text, interior, start, tile_size):
    """Scalar reference: ``walk_tile`` over ``compute_tile_interior``."""
    ops, row, col = walk_tile(pattern, text, interior, start)
    if row < 0 and col < 0:
        exit_ = (NextTile.DIAGONAL, (tile_size - 1, tile_size - 1))
    elif row < 0:
        exit_ = (NextTile.UP, (tile_size - 1, col))
    else:
        exit_ = (NextTile.LEFT, (row, tile_size - 1))
    return tuple(ops), exit_[0], exit_[1]


class TestBitParallelRecompute:
    """``gmx.tb``'s bit-parallel recompute against the scalar reference.

    Every tile shape up to T x T, random (not necessarily DP-consistent)
    Δ edges, every start cell on the bottom row or right column; the ISA
    path must also deposit the reference's packed gmx_lo/gmx_hi/gmx_pos.
    """

    @pytest.mark.parametrize(
        "tile_size", [4, 8, pytest.param(32, marks=pytest.mark.slow)]
    )
    def test_every_shape_and_start_matches_reference(self, tile_size):
        rng = random.Random(1000 + tile_size)
        isa = GmxIsa(tile_size=tile_size)
        for rows in range(1, tile_size + 1):
            for cols in range(1, tile_size + 1):
                pattern = "".join(rng.choice("ACGT") for _ in range(rows))
                text = "".join(rng.choice("ACGT") for _ in range(cols))
                dv_in = [rng.choice((-1, 0, 1)) for _ in range(rows)]
                dh_in = [rng.choice((-1, 0, 1)) for _ in range(cols)]
                starts = {(rows - 1, c) for c in range(cols)}
                starts |= {(r, cols - 1) for r in range(rows)}
                interior = compute_tile_interior(
                    pattern, text, dv_in, dh_in, tile_size=tile_size
                )
                isa.csrw("gmx_pattern", pattern)
                isa.csrw("gmx_text", text)
                for start in sorted(starts):
                    ops, next_tile, next_pos = _reference_tile_traceback(
                        pattern, text, interior, start, tile_size
                    )
                    fast = traceback_tile(
                        pattern, text, dv_in, dh_in, start, tile_size=tile_size
                    )
                    case = (pattern, text, dv_in, dh_in, start)
                    assert fast.ops == ops, case
                    assert fast.next_tile is next_tile, case
                    assert fast.next_pos == next_pos, case
                    # The same tile through the instruction: a full-tile
                    # gmx_pos that clamps onto this (maybe partial) edge.
                    row, col = start
                    if row == rows - 1:
                        isa.csrw("gmx_pos", encode_pos(tile_size - 1, col, tile_size))
                    else:
                        isa.csrw("gmx_pos", encode_pos(row, tile_size - 1, tile_size))
                    executed = isa.gmx_tb(pack_deltas(dv_in), pack_deltas(dh_in))
                    assert executed == fast, case
                    assert (isa.gmx_lo, isa.gmx_hi) == pack_tile_ops(
                        ops, start, next_tile, tile_size=tile_size
                    ), case
                    assert isa.gmx_pos == encode_pos(*next_pos, tile_size), case

    @pytest.mark.parametrize("register", ["rs1", "rs2"])
    def test_illegal_delta_field_raises(self, register):
        isa = GmxIsa(tile_size=4)
        isa.csrw("gmx_pattern", "ACGT")
        isa.csrw("gmx_text", "ACGA")
        isa.csrw("gmx_pos", encode_pos(3, 3, 4))
        legal = pack_deltas([1, 1, 1, 1])
        illegal = legal | (0b11 << 4)  # field 2 holds the unused 0b11 code
        operands = {"rs1": legal, "rs2": legal}
        operands[register] = illegal
        with pytest.raises(DeltaEncodingError):
            isa.gmx_tb(operands["rs1"], operands["rs2"])
        assert isa.retired["gmx.tb"] == 0
