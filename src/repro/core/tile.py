"""GMX-Tile: tile-wise computation of the edit-distance DP matrix (paper §4.2).

A tile covers ``R`` pattern rows × ``C`` text columns (both ≤ T, the hardware
tile size; partial tiles model the masking a real implementation performs for
sequence lengths that are not multiples of T).  A tile consumes the
difference vectors on its input edges,

* ``dv_in[i]``:  Δv of the cell immediately left of row ``i`` (left edge),
* ``dh_in[j]``:  Δh of the cell immediately above column ``j`` (top edge),

and produces the output edges ``dv_out`` (right edge) and ``dh_out`` (bottom
edge).  Interior elements are computed on the fly and never stored — the key
to GMX's ``T×`` memory-footprint reduction.

Two interchangeable kernels are provided:

* :func:`compute_tile_reference` — cell-by-cell evaluation of the GMXΔ
  function, mirroring the CC_AC array of the hardware (Figure 7).
* :func:`compute_tile` — a bit-parallel blocked kernel (Hyyrö-style) that
  advances one text column per step using word-wide boolean operations; this
  is what makes megabase-scale functional runs feasible in Python.

Both are exhaustively cross-checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .bitvec import merge_plus_minus, split_plus_minus
from .delta import gmx_delta

#: Default hardware tile size: 32 two-bit Δ values fill a 64-bit register.
DEFAULT_TILE_SIZE = 32


class TileShapeError(ValueError):
    """Raised when tile inputs have inconsistent shapes."""


@dataclass(frozen=True)
class TileResult:
    """Output edges of a computed tile.

    Attributes:
        dv_out: Δv of each row's rightmost cell (right edge), length R.
        dh_out: Δh of each column's bottom cell (bottom edge), length C.
    """

    dv_out: Tuple[int, ...]
    dh_out: Tuple[int, ...]


@dataclass(frozen=True)
class TileInterior:
    """Full interior of a tile, used by traceback recomputation.

    ``dv[i][j]`` / ``dh[i][j]`` are the output Δ values of cell (i, j);
    row index i runs over pattern characters, column index j over text.
    """

    dv: Tuple[Tuple[int, ...], ...]
    dh: Tuple[Tuple[int, ...], ...]


def _check_inputs(
    pattern: str,
    text: str,
    dv_in: Sequence[int],
    dh_in: Sequence[int],
    tile_size: int,
) -> None:
    if not pattern or not text:
        raise TileShapeError("tile pattern and text chunks must be non-empty")
    if len(pattern) > tile_size or len(text) > tile_size:
        raise TileShapeError(
            f"chunk sizes ({len(pattern)}, {len(text)}) exceed tile size {tile_size}"
        )
    if len(dv_in) != len(pattern):
        raise TileShapeError(
            f"dv_in length {len(dv_in)} != pattern chunk length {len(pattern)}"
        )
    if len(dh_in) != len(text):
        raise TileShapeError(
            f"dh_in length {len(dh_in)} != text chunk length {len(text)}"
        )


def compute_tile_reference(
    pattern: str,
    text: str,
    dv_in: Sequence[int],
    dh_in: Sequence[int],
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> TileResult:
    """Cell-by-cell tile computation via the GMXΔ function.

    This mirrors the hardware CC_AC array exactly: each cell evaluates two
    GMXΔ modules fed by its left Δv, upper Δh and character-equality bit.
    """
    _check_inputs(pattern, text, dv_in, dh_in, tile_size)
    dv = list(dv_in)
    dh_out: List[int] = []
    for j, text_char in enumerate(text):
        dh = dh_in[j]
        for i, pattern_char in enumerate(pattern):
            eq = 1 if pattern_char == text_char else 0
            new_dv = gmx_delta(dv[i], dh, eq)
            new_dh = gmx_delta(dh, dv[i], eq)
            dv[i] = new_dv
            dh = new_dh
        dh_out.append(dh)
    return TileResult(dv_out=tuple(dv), dh_out=tuple(dh_out))


def compute_tile_interior(
    pattern: str,
    text: str,
    dv_in: Sequence[int],
    dh_in: Sequence[int],
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
) -> TileInterior:
    """Recompute and return every interior Δ value of a tile.

    The hardware GMX-TB module performs this recomputation transparently when
    executing ``gmx.tb``; software never stores the interior.
    """
    _check_inputs(pattern, text, dv_in, dh_in, tile_size)
    rows = len(pattern)
    cols = len(text)
    dv_grid = [[0] * cols for _ in range(rows)]
    dh_grid = [[0] * cols for _ in range(rows)]
    dv = list(dv_in)
    for j, text_char in enumerate(text):
        dh = dh_in[j]
        for i, pattern_char in enumerate(pattern):
            eq = 1 if pattern_char == text_char else 0
            new_dv = gmx_delta(dv[i], dh, eq)
            new_dh = gmx_delta(dh, dv[i], eq)
            dv[i] = new_dv
            dh = new_dh
            dv_grid[i][j] = new_dv
            dh_grid[i][j] = new_dh
    return TileInterior(
        dv=tuple(tuple(row) for row in dv_grid),
        dh=tuple(tuple(row) for row in dh_grid),
    )


def build_peq(pattern: str) -> Dict[str, int]:
    """Build per-character equality bitmasks for a pattern chunk.

    Bit ``i`` of ``peq[c]`` is set iff ``pattern[i] == c``.  GMX hardware
    compares characters directly (no tables); the bit-parallel software
    kernel builds this tiny map per pattern chunk purely as a speed device,
    and it is reused across every tile in the same tile-row.
    """
    peq: Dict[str, int] = {}
    for i, char in enumerate(pattern):
        peq[char] = peq.get(char, 0) | (1 << i)
    return peq


def advance_column(
    peq_char: int,
    pv: int,
    mv: int,
    h_in: int,
    rows: int,
) -> Tuple[int, int, int, int, int]:
    """Advance one text column of a tile using word-parallel boolean ops.

    This is the blocked Myers/Hyyrö column step restricted to ``rows`` bits,
    with an explicit horizontal carry in/out.

    Args:
        peq_char: equality bitmask of the column's text character.
        pv, mv: vertical Δ masks of the previous column (bit i set iff
            Δv[i] == +1 / −1).
        h_in: the horizontal Δ entering the column's top cell (−1, 0, +1).
        rows: number of active rows (R ≤ T).

    Returns:
        ``(pv, mv, h_out, ph, mh)`` — the new vertical masks, the horizontal
        Δ leaving the column's bottom cell, and the *pre-shift* horizontal
        masks (bit i set iff Δh[i] of this column is +1 / −1), which the
        traceback recomputation consumes.
    """
    row_mask = (1 << rows) - 1
    eq = peq_char & row_mask
    xv = eq | mv
    if h_in < 0:
        eq |= 1
    xh = ((((eq & pv) + pv) & ((row_mask << 1) | 1)) ^ pv) | eq
    ph = (mv | ~(xh | pv)) & row_mask
    mh = (pv & xh) & row_mask
    top_bit = 1 << (rows - 1)
    if ph & top_bit:
        h_out = 1
    elif mh & top_bit:
        h_out = -1
    else:
        h_out = 0
    ph_shift = (ph << 1) & row_mask
    mh_shift = (mh << 1) & row_mask
    if h_in > 0:
        ph_shift |= 1
    elif h_in < 0:
        mh_shift |= 1
    new_pv = (mh_shift | ~(xv | ph_shift)) & row_mask
    new_mv = (ph_shift & xv) & row_mask
    return new_pv, new_mv, h_out, ph, mh


def compute_tile(
    pattern: str,
    text: str,
    dv_in: Sequence[int],
    dh_in: Sequence[int],
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
    peq: Dict[str, int] | None = None,
) -> TileResult:
    """Bit-parallel tile computation (production kernel).

    Semantically identical to :func:`compute_tile_reference`; advances the
    tile one text column at a time with word-wide operations.

    Args:
        peq: optional precomputed equality masks for ``pattern`` (see
            :func:`build_peq`); callers aligning many tiles against the same
            pattern chunk pass this to amortise its construction.
    """
    _check_inputs(pattern, text, dv_in, dh_in, tile_size)
    rows = len(pattern)
    if peq is None:
        peq = build_peq(pattern)
    pv, mv = split_plus_minus(dv_in)
    dh_out: List[int] = []
    for j, text_char in enumerate(text):
        pv, mv, h_out, _, _ = advance_column(
            peq.get(text_char, 0), pv, mv, dh_in[j], rows
        )
        dh_out.append(h_out)
    return TileResult(
        dv_out=tuple(merge_plus_minus(pv, mv, rows)),
        dh_out=tuple(dh_out),
    )


def boundary_deltas(length: int) -> Tuple[int, ...]:
    """Difference values along a DP-matrix boundary (all +1).

    The first row/column of the DP matrix holds D[0,j] = j and D[i,0] = i,
    so every boundary difference is +1.
    """
    return tuple([1] * length)


@dataclass
class TileOpCounter:
    """Accumulates tile-kernel operation counts for the cost models.

    The counts follow the paper's §4.2 accounting: 12 bit-operations per DP
    element for GMX-Tile, and 4·T bits of storage per tile (only the edges).
    """

    tiles: int = 0
    dp_elements: int = 0
    bitops: int = 0
    edge_bits_stored: int = 0
    per_shape: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def record(self, rows: int, cols: int) -> None:
        """Record one computed tile of the given shape."""
        self.tiles += 1
        elements = rows * cols
        self.dp_elements += elements
        self.bitops += 12 * elements
        self.edge_bits_stored += 2 * (rows + cols)
        shape = (rows, cols)
        self.per_shape[shape] = self.per_shape.get(shape, 0) + 1
