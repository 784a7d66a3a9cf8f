"""Tile-wise traceback — the semantics of ``gmx.tb`` (paper §5, §6.2).

Because GMX only stores the DP elements at tile edges, the traceback unit
recomputes the tile interior from the stored edge vectors (exactly what the
GMX-TB hardware does) and then walks the alignment path backwards from a
start position on the tile's bottom or right edge until it leaves the tile
through the top or left edge.  The recomputation is bit-parallel — one
column step per text column, not one scalar GMXΔ per cell.  The ``pure``
engine runs it once per tile on the path; ``bitpar`` keeps its fill's
column masks and walks the same rule on them without a recompute (see
:func:`repro.align.full_gmx._walk_columns`).

The walk at a cell (i, j) applies the CC_TB priority rule (Figure 8):

1. ``eq == 1``      → **M**  (diagonal; D[i,j] = D[i-1,j-1] when the
   characters match — a standard edit-distance lemma, so the move is always
   on an optimal path);
2. ``Δv[i,j] == +1`` → **D** (vertical move: D[i,j] = D[i-1,j] + 1);
3. ``Δh[i,j] == +1`` → **I** (horizontal move: D[i,j] = D[i,j-1] + 1);
4. otherwise         → **X** (diagonal mismatch: D[i,j] = D[i-1,j-1] + 1,
   which must hold when no other predecessor is tight).

Every move lowers the antidiagonal index ``i + j`` by at least one, so the
path visits at most one cell per antidiagonal — the property the hardware
exploits to pack the tile's alignment into the 2·(2T−1)-bit gmx_lo/gmx_hi
register pair, one 2-bit op per antidiagonal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .bitvec import split_plus_minus
from .cigar import CODE_TO_OP, OP_TO_CODE, OP_DELETION, OP_INSERTION, OP_MATCH, OP_MISMATCH
from .tile import (
    DEFAULT_TILE_SIZE,
    TileInterior,
    _check_inputs,
    advance_column,
    build_peq,
)


class NextTile(enum.Enum):
    """Which neighbouring tile the traceback continues in (paper Alg. 2)."""

    DIAGONAL = 0  # continue in the upper-left tile
    UP = 1  # continue in the tile above
    LEFT = 2  # continue in the tile to the left
    DONE = 3  # unused by gmx.tb itself; drivers use it at the matrix corner

    @property
    def code(self) -> int:
        """2-bit encoding stored in the top bits of gmx_hi."""
        return self.value


@dataclass(frozen=True)
class TileTraceback:
    """Result of one ``gmx.tb`` execution.

    Attributes:
        ops: alignment operations in walk order (bottom-right → top-left).
        next_tile: neighbouring tile in which the traceback continues.
        next_pos: (row, col) entry cell *within the next tile*, assuming the
            next tile has full ``tile_size`` shape.  For UP exits the entry
            row is the next tile's bottom row; for LEFT exits the entry
            column is its rightmost column.
    """

    ops: Tuple[str, ...]
    next_tile: NextTile
    next_pos: Tuple[int, int]

    @property
    def rows_walked(self) -> int:
        """Pattern rows the walk consumed (every op but an insertion)."""
        return len(self.ops) - self.ops.count(OP_INSERTION)

    @property
    def cols_walked(self) -> int:
        """Text columns the walk consumed (every op but a deletion)."""
        return len(self.ops) - self.ops.count(OP_DELETION)


def walk_tile(
    pattern: str,
    text: str,
    interior: TileInterior,
    start: Tuple[int, int],
) -> Tuple[List[str], int, int]:
    """Walk the alignment path backwards through a recomputed tile interior.

    Together with :func:`~repro.core.tile.compute_tile_interior` this is
    the cell-by-cell reference for :func:`traceback_tile_masks`, the way
    ``compute_tile_reference`` is for ``gmx.v``/``gmx.h``.

    Args:
        start: (row, col) cell where the path enters the tile; must lie on
            the bottom row or the right column for hardware-faithful use,
            though the walk itself accepts any interior cell.

    Returns:
        ``(ops, exit_row, exit_col)`` where the exit coordinates are the
        first out-of-tile position reached (row == −1 and/or col == −1).
    """
    i, j = start
    rows = len(pattern)
    cols = len(text)
    if not (0 <= i < rows and 0 <= j < cols):
        raise ValueError(f"start cell {start!r} outside tile {rows}x{cols}")
    ops: List[str] = []
    while i >= 0 and j >= 0:
        if pattern[i] == text[j]:
            ops.append(OP_MATCH)
            i -= 1
            j -= 1
        elif interior.dv[i][j] == 1:
            ops.append(OP_DELETION)
            i -= 1
        elif interior.dh[i][j] == 1:
            ops.append(OP_INSERTION)
            j -= 1
        else:
            ops.append(OP_MISMATCH)
            i -= 1
            j -= 1
    return ops, i, j


def traceback_tile(
    pattern: str,
    text: str,
    dv_in: Sequence[int],
    dh_in: Sequence[int],
    start: Tuple[int, int],
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> TileTraceback:
    """Execute the full ``gmx.tb`` semantics for one tile.

    Recomputes the tile interior from its input edge vectors, walks the path
    from ``start``, and classifies the exit into a :class:`NextTile`
    direction plus the entry cell of the neighbouring tile.  The Δ-list
    front end of :func:`traceback_tile_masks`.
    """
    _check_inputs(pattern, text, dv_in, dh_in, tile_size)
    pv, mv = split_plus_minus(dv_in)
    ph, mh = split_plus_minus(dh_in)
    return traceback_tile_masks(
        pattern, text, pv, mv, ph, mh, start, tile_size=tile_size
    )


def traceback_tile_masks(
    pattern: str,
    text: str,
    pv: int,
    mv: int,
    ph: int,
    mh: int,
    start: Tuple[int, int],
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
    peq: Optional[Dict[str, int]] = None,
) -> TileTraceback:
    """``gmx.tb`` on (P, M) bitmask edges, recomputing bit-parallel.

    ``pv``/``mv`` hold the left-edge ΔV (bit i set iff Δv[i] is +1 / −1),
    ``ph``/``mh`` the top-edge ΔH (bit j per column).  Instead of the T²
    scalar cells of :func:`~repro.core.tile.compute_tile_interior` (kept
    as the reference), the interior is rebuilt with one
    :func:`~repro.core.tile.advance_column` step per column, and only
    over what the walk can reach: columns ``0..start_col`` and rows
    ``0..start_row`` (a cell depends only on cells above and to its
    left).  Each column keeps its Δv=+1 mask (the new ``pv``) and Δh=+1
    mask (the pre-shift ``ph``); the CC_TB priority rule reads bits of
    those.

    Args:
        peq: optional equality masks for ``pattern`` (see
            :func:`~repro.core.tile.build_peq`).
    """
    i, j = start
    if not (0 <= i < len(pattern) and 0 <= j < len(text)):
        raise ValueError(
            f"start cell {start!r} outside tile {len(pattern)}x{len(text)}"
        )
    if peq is None:
        peq = build_peq(pattern)
    height = i + 1
    rows_mask = (1 << height) - 1
    pv &= rows_mask
    mv &= rows_mask
    dv_plus: List[int] = []
    dh_plus: List[int] = []
    for c in range(j + 1):
        h_in = ((ph >> c) & 1) - ((mh >> c) & 1)
        pv, mv, _, col_ph, _ = advance_column(
            peq.get(text[c], 0), pv, mv, h_in, height
        )
        dv_plus.append(pv)
        dh_plus.append(col_ph)
    ops: List[str] = []
    i, j = walk_masks(pattern, text, dv_plus, dh_plus, ops, i, j)
    if i < 0 and j < 0:
        next_tile = NextTile.DIAGONAL
        next_pos = (tile_size - 1, tile_size - 1)
    elif i < 0:
        next_tile = NextTile.UP
        next_pos = (tile_size - 1, j)
    else:
        next_tile = NextTile.LEFT
        next_pos = (i, tile_size - 1)
    return TileTraceback(ops=tuple(ops), next_tile=next_tile, next_pos=next_pos)


def walk_masks(
    pattern: str,
    text: str,
    dv_plus: Sequence[int],
    dh_plus: Sequence[int],
    ops: List[str],
    i: int,
    j: int,
    top: int = 0,
    left: int = 0,
    offset: int = 0,
) -> Tuple[int, int]:
    """Walk the CC_TB priority rule backwards from cell ``(i, j)``.

    Bit ``i - offset`` of ``dv_plus[j]`` / ``dh_plus[j]`` is set iff Δv /
    Δh of cell ``(i, j)`` is +1.  The walk appends its ops to ``ops`` in
    walk order and stops on the first cell above row ``top`` or left of
    column ``left``, which it returns.  :func:`traceback_tile_masks` runs
    it on one recomputed tile; the ``bitpar`` engine runs it on the
    columns its fill kept (:func:`repro.align.full_gmx._walk_columns`).
    """
    while i >= top and j >= left:
        if pattern[i] == text[j]:
            ops.append(OP_MATCH)
            i -= 1
            j -= 1
        elif (dv_plus[j] >> (i - offset)) & 1:
            ops.append(OP_DELETION)
            i -= 1
        elif (dh_plus[j] >> (i - offset)) & 1:
            ops.append(OP_INSERTION)
            j -= 1
        else:
            ops.append(OP_MISMATCH)
            i -= 1
            j -= 1
    return i, j


def pack_tile_ops(
    ops: Sequence[str],
    start: Tuple[int, int],
    next_tile: NextTile,
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> Tuple[int, int]:
    """Pack a tile traceback into the (gmx_lo, gmx_hi) register images.

    Each of the 2T−1 antidiagonals owns a 2-bit field holding the op of the
    cell the path visited on it (fields of skipped antidiagonals are
    don't-care and left zero).  Antidiagonals 0..T−1 live in gmx_lo; T..2T−2
    in the low bits of gmx_hi; the top two bits of gmx_hi carry the
    next-tile code.

    Args:
        ops: walk-order operations produced by :func:`walk_tile`.
        start: the walk's start cell, which anchors the antidiagonal index.
    """
    lo = 0
    hi = 0
    diag = start[0] + start[1]
    for op in ops:
        if diag < 0:
            raise ValueError("operation sequence underruns antidiagonal 0")
        code = OP_TO_CODE[op]
        if diag < tile_size:
            lo |= code << (2 * diag)
        else:
            hi |= code << (2 * (diag - tile_size))
        diag -= 2 if op in (OP_MATCH, OP_MISMATCH) else 1
    hi |= next_tile.code << (2 * (tile_size - 1))
    return lo, hi


def unpack_tile_ops(
    lo: int,
    hi: int,
    start: Tuple[int, int],
    op_count: int,
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> Tuple[List[str], NextTile]:
    """Decode (gmx_lo, gmx_hi) back into the walk-order operation list.

    The decoder replays the antidiagonal walk: starting from the start
    cell's antidiagonal, it reads one field, steps down by 1 or 2 depending
    on the op, and repeats ``op_count`` times.
    """
    ops: List[str] = []
    diag = start[0] + start[1]
    for _ in range(op_count):
        if diag < tile_size:
            code = (lo >> (2 * diag)) & 0b11
        else:
            code = (hi >> (2 * (diag - tile_size))) & 0b11
        op = CODE_TO_OP[code]
        ops.append(op)
        diag -= 2 if op in (OP_MATCH, OP_MISMATCH) else 1
    next_tile = NextTile(((hi >> (2 * (tile_size - 1))) & 0b11))
    return ops, next_tile
