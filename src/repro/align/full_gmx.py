"""Full(GMX): tile-wise computation of the entire DP matrix (paper §5.1).

Implements the paper's Algorithm 1 (DP-matrix computation) and Algorithm 2
(traceback) on top of the functional GMX ISA model.  The matrix ``M`` of tile
edge vectors — two 2T-bit register images per tile — is the *only* DP state
ever stored, a factor-T reduction over element-wise algorithms.

Besides the paper's global alignment, the aligner supports the PREFIX and
INFIX anchoring modes of :class:`~repro.align.base.AlignmentMode` — in
difference terms these only change the top-boundary ΔH fill (0 instead of
+1 for a free text prefix) and read the score as the minimum of the bottom
row, which Full(GMX) reconstructs from the bottom tile row's ΔH vectors.

Software instruction recipes (counted per dynamic iteration, mirroring the
RISC-V code the paper compiles):

* per tile (compute phase): 1 ``csrw`` (pattern chunk), 2 ``gmx`` ops,
  2 loads (input edges), 2 stores (output edges), 4 address/int ops,
  1 branch;
* per tile column: 1 ``csrw`` (text chunk), 2 loop-control ops, 1 branch,
  3 ops folding the bottom-row ΔH into the running score;
* per tile (traceback phase): 1 ``gmx.tb``, 3 ``csrr`` + 2 ``csrw``,
  2 loads, 6 int ops, 2 branches, and 2 stores dumping the raw encoded
  gmx_hi/gmx_lo alignment (operations stay 2-bit encoded in memory).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from ..core.bitvec import pack_deltas
from ..core.cigar import Alignment, OP_DELETION, OP_INSERTION
from ..core.isa import GmxIsa, encode_pos
from ..core.tile import DEFAULT_TILE_SIZE
from ..core.traceback import NextTile
from ..obs import runtime as obs
from .backends import (
    FullMatrixRequest,
    KernelBackend,
    effective_backend,
    get_backend,
)
from .base import Aligner, AlignmentMode, AlignmentResult, KernelStats


def _edge_bytes(tile_size: int) -> int:
    """Bytes per stored tile edge register (2T bits; 8 bytes at T = 32)."""
    return (2 * tile_size + 7) // 8


def _chunks(sequence: str, tile_size: int) -> List[str]:
    """Split a sequence into tile-size chunks (last chunk may be partial)."""
    return [
        sequence[k : k + tile_size] for k in range(0, len(sequence), tile_size)
    ]


def _walk_tiles(
    isa: GmxIsa,
    stats: KernelStats,
    p_chunks: List[str],
    t_chunks: List[str],
    edges: Callable[[int, int], Tuple[int, int]],
    ti: int,
    tj: int,
    gi: int,
    gj: int,
) -> Tuple[List[str], int, int]:
    """Algorithm 2's tile loop: one ``gmx.tb`` per tile on the path.

    The walk starts in tile ``(ti, tj)`` at global cell ``(gi, gj)``, with
    ``gmx_pos`` already written, and stops once it leaves the matrix
    through the top row or the left column.  ``edges(ti, tj)`` returns the
    tile's stored ``(ΔV_in, ΔH_in)`` images (and may raise to stop the
    walk).

    Returns:
        (the walked ops in reverse order, final gi, final gj).
    """
    edge_bytes = _edge_bytes(isa.tile_size)
    reversed_ops: List[str] = []
    while gi >= 0 and gj >= 0:
        dv_in, dh_in = edges(ti, tj)
        isa.csrw("gmx_text", t_chunks[tj])
        isa.csrw("gmx_pattern", p_chunks[ti])
        result = isa.gmx_tb(dv_in, dh_in)
        isa.csrr("gmx_hi")
        isa.csrr("gmx_lo")
        isa.csrr("gmx_pos")
        stats.dp_bytes_read += 2 * edge_bytes
        stats.add_instr("load", 2)
        stats.add_instr("int_alu", 6)
        stats.add_instr("branch", 2)
        reversed_ops.extend(result.ops)
        gi -= result.rows_walked
        gj -= result.cols_walked
        # Algorithm 2 dumps the raw encoded alignment: two stores of
        # gmx_hi/gmx_lo per tile (the ops stay 2-bit encoded in memory).
        stats.add_instr("store", 2)
        stats.dp_bytes_written += 2 * edge_bytes
        if result.next_tile is NextTile.DIAGONAL:
            ti -= 1
            tj -= 1
        elif result.next_tile is NextTile.UP:
            ti -= 1
        else:
            tj -= 1
    return reversed_ops, gi, gj


class FullGmxAligner(Aligner):
    """Full-matrix aligner built on GMX tile instructions.

    Args:
        tile_size: T, the GMX tile dimension (32 in the paper's design).
        mode: alignment anchoring (GLOBAL / PREFIX / INFIX).
        fused: use the dual-destination ``gmx.vh`` variant the paper
            sketches for cores with two register write ports (§5) — one
            tile instruction instead of the gmx.v/gmx.h pair.
        trace_sink: when given, every ``align`` call appends its retired
            :class:`~repro.core.isa.IsaEvent` stream to this list — the
            input of the static program verifier (:mod:`repro.analysis`).
        backend: kernel backend computing the DP-matrix phase — a
            registered name or a
            :class:`~repro.align.backends.KernelBackend` instance; ``None``
            is ``bitpar`` (see :mod:`repro.align.backends`).
    """

    name = "Full(GMX)"

    def __init__(
        self,
        tile_size: int = DEFAULT_TILE_SIZE,
        mode: AlignmentMode = AlignmentMode.GLOBAL,
        *,
        fused: bool = False,
        trace_sink: Optional[List] = None,
        backend: Union[None, str, KernelBackend] = None,
    ):
        if tile_size < 2:
            raise ValueError(f"tile size must be at least 2, got {tile_size}")
        self.tile_size = tile_size
        self.mode = mode
        self.fused = fused
        self.trace_sink = trace_sink
        self.backend = get_backend(backend)

    def _fresh_isa(self) -> GmxIsa:
        """A new ISA instance, wired for trace recording when requested."""
        isa = GmxIsa(tile_size=self.tile_size)
        if self.trace_sink is not None:
            isa.trace = []
            self.trace_sink.append(isa.trace)
        return isa

    @obs.instrument_align("full_gmx")
    def align(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> AlignmentResult:
        if not pattern or not text:
            raise ValueError("pattern and text must be non-empty")
        isa = self._fresh_isa()
        backend = effective_backend(self.backend, isa)
        stats = KernelStats()
        tile = self.tile_size
        edge_bytes = _edge_bytes(tile)
        p_chunks = _chunks(pattern, tile)
        t_chunks = _chunks(text, tile)
        n_tiles = len(p_chunks)
        m_tiles = len(t_chunks)

        boundary_v = [pack_deltas([1] * len(chunk)) for chunk in p_chunks]
        top_fill = 0 if self.mode is AlignmentMode.INFIX else 1
        boundary_h = [
            pack_deltas([top_fill] * len(chunk)) for chunk in t_chunks
        ]

        # ---- Algorithm 1: tile-wise DP-matrix computation (column-major) ----
        # The backend produces M[i][j] = (ΔV_out, ΔH_out) register images
        # plus the bottom-row ΔH stream; everything downstream (score,
        # traceback, stats folding) is backend-independent.
        with obs.span(
            "phase.compute",
            kernel="full_gmx",
            tiles=n_tiles * m_tiles,
            backend=backend.name,
        ):
            outcome = backend.full_matrix(
                FullMatrixRequest(
                    isa=isa,
                    stats=stats,
                    pattern=pattern,
                    p_chunks=p_chunks,
                    t_chunks=t_chunks,
                    tile_size=tile,
                    top_fill=top_fill,
                    fused=self.fused,
                    store_matrix=traceback,
                    boundary_v=boundary_v,
                    boundary_h=boundary_h,
                )
            )
        matrix = outcome.matrix
        bottom_deltas = outcome.bottom_deltas

        score, end_column = self._score(len(pattern), bottom_deltas)

        stats.hot_bytes = edge_bytes * (n_tiles + 1)
        if matrix is not None:
            stats.dp_bytes_peak = 2 * edge_bytes * n_tiles * m_tiles
        else:
            stats.dp_bytes_peak = stats.hot_bytes

        alignment = None
        start_column = 0
        if traceback:
            with obs.span("phase.traceback", kernel="full_gmx"):
                ops, start_column = self._traceback(
                    isa, stats, pattern, text, p_chunks, t_chunks, matrix,
                    boundary_v, boundary_h, end_column,
                )
            alignment = Alignment(
                pattern=pattern,
                text=text[start_column:end_column],
                ops=tuple(ops),
                score=score,
            )

        # Fold the ISA's retired counters into the stats record.
        stats.add_instr("csr", isa.retired["csrw"] + isa.retired["csrr"])
        stats.add_instr(
            "gmx",
            isa.retired["gmx.v"] + isa.retired["gmx.h"] + isa.retired["gmx.vh"],
        )
        stats.add_instr("gmx_tb", isa.retired["gmx.tb"])
        return AlignmentResult(
            score=score,
            alignment=alignment,
            stats=stats,
            exact=True,
            text_start=start_column,
            text_end=end_column,
        )

    def _score(
        self, pattern_length: int, bottom_deltas: List[int]
    ) -> Tuple[int, int]:
        """Score and end column from the bottom-row ΔH values.

        ``D[n][j] = n + Σ_{k ≤ j} Δh[n][k]``; GLOBAL reads the corner, the
        free-suffix modes take the (leftmost) bottom-row minimum — with
        ``j = 0`` (whole pattern deleted against an empty prefix) included.
        """
        value = pattern_length
        if self.mode is AlignmentMode.GLOBAL:
            for delta in bottom_deltas:
                value += delta
            return value, len(bottom_deltas)
        best = value
        best_column = 0
        for j, delta in enumerate(bottom_deltas, start=1):
            value += delta
            if value < best:
                best = value
                best_column = j
        return best, best_column

    def _traceback(
        self,
        isa: GmxIsa,
        stats: KernelStats,
        pattern: str,
        text: str,
        p_chunks: List[str],
        t_chunks: List[str],
        matrix: List[List[Tuple[int, int]]],
        boundary_v: List[int],
        boundary_h: List[int],
        end_column: int,
    ) -> Tuple[List[str], int]:
        """Algorithm 2: tile-wise traceback via ``gmx.tb``.

        Returns (ops, start column of the covered text span).
        """
        tile = self.tile_size
        gi = len(pattern) - 1  # global row of the walk position
        gj = end_column - 1  # global column of the walk position
        if gj < 0:
            # Whole pattern against an empty text prefix: pure deletions.
            return [OP_DELETION] * len(pattern), end_column

        def edges(ti: int, tj: int) -> Tuple[int, int]:
            dv_in = matrix[ti][tj - 1][0] if tj > 0 else boundary_v[ti]
            dh_in = matrix[ti - 1][tj][1] if ti > 0 else boundary_h[tj]
            return dv_in, dh_in

        isa.csrw("gmx_pos", encode_pos(tile - 1, gj % tile, tile))
        reversed_ops, gi, gj = _walk_tiles(
            isa, stats, p_chunks, t_chunks, edges,
            len(p_chunks) - 1, gj // tile, gi, gj,
        )
        # Finish along the matrix boundary.
        reversed_ops.extend([OP_DELETION] * (gi + 1))
        if self.mode is AlignmentMode.INFIX:
            start_column = gj + 1  # free text prefix: stop here
        else:
            reversed_ops.extend([OP_INSERTION] * (gj + 1))
            start_column = 0
        stats.add_instr("int_alu", 4)
        reversed_ops.reverse()
        return reversed_ops, start_column


def align_pair(
    pattern: str,
    text: str,
    *,
    tile_size: int = DEFAULT_TILE_SIZE,
    mode: AlignmentMode = AlignmentMode.GLOBAL,
    traceback: bool = True,
    backend: Union[None, str, KernelBackend] = None,
) -> AlignmentResult:
    """Align one pair with Full(GMX) — the library's front door.

    Example::

        >>> align_pair("GCAT", "GATT").score
        2
    """
    return FullGmxAligner(tile_size=tile_size, mode=mode, backend=backend).align(
        pattern, text, traceback=traceback
    )
