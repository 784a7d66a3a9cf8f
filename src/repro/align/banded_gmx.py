"""Banded(GMX): band heuristic over GMX tiles (paper §4.1, Figure 4.b.2).

Only tiles whose index distance from the main tile diagonal is at most
``ceil(B / T)`` are computed.  Edges entering the band from uncomputed
neighbours are filled with +1 differences, i.e. the DP values just outside
the band are assumed to keep growing — an over-estimate, so in-band values
are upper bounds on the true distances and *exact* whenever the optimal path
stays inside the band (Ukkonen's classical band argument; the reported score
``s`` certifies itself when ``s ≤ B``, because an optimal path can stray at
most ``s`` cells off the diagonal).

With ``auto_widen=True`` (the default, mirroring Edlib's doubling search)
the aligner restarts with twice the band until the result self-certifies,
so it remains an exact algorithm with banded cost on low-divergence pairs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.cigar import (
    Alignment,
    OP_DELETION,
    OP_INSERTION,
    edit_cost,
)
from ..core.isa import GmxIsa, encode_pos
from ..core.tile import DEFAULT_TILE_SIZE
from ..obs import runtime as obs
from .backends import (
    BandedMatrixRequest,
    BandedMatrixResult,
    boundary_images,
    effective_backend,
    get_backend,
)
from .base import Aligner, AlignmentResult, BandExceededError, KernelStats
from .full_gmx import _chunks, _edge_bytes, _walk_columns, _walk_tiles

__all__ = ["BandExceededError", "BandedGmxAligner"]


class BandedGmxAligner(Aligner):
    """Banded edit-distance aligner built on GMX tile instructions.

    Args:
        band: initial band half-width in DP cells; ``None`` starts at
            ``max(|n−m|, 2·T)`` for each pair.
        auto_widen: double the band and retry until the score self-certifies
            (``score ≤ band``); when False a non-certified result is returned
            with ``exact=False``.
        tile_size: T, the GMX tile dimension.
        trace_sink: when given, every banded pass appends its retired
            :class:`~repro.core.isa.IsaEvent` stream to this list — the
            input of the static program verifier (:mod:`repro.analysis`).
        backend: name of the kernel backend computing the band passes;
            ``None`` is ``bitpar``.
    """

    name = "Banded(GMX)"

    def __init__(
        self,
        band: Optional[int] = None,
        *,
        auto_widen: bool = True,
        tile_size: int = DEFAULT_TILE_SIZE,
        trace_sink: Optional[List] = None,
        backend: Optional[str] = None,
    ):
        if band is not None and band < 1:
            raise ValueError(f"band must be positive, got {band}")
        if tile_size < 2:
            raise ValueError(f"tile size must be at least 2, got {tile_size}")
        self.band = band
        self.auto_widen = auto_widen
        self.tile_size = tile_size
        self.trace_sink = trace_sink
        self.backend = get_backend(backend)

    @obs.instrument_align("banded_gmx")
    def align(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> AlignmentResult:
        if not pattern or not text:
            raise ValueError("pattern and text must be non-empty")
        tile = self.tile_size
        band = self.band
        if band is None:
            band = max(abs(len(pattern) - len(text)), 2 * tile)
        band = max(band, abs(len(pattern) - len(text)))
        stats = KernelStats()
        max_band = max(len(pattern), len(text))
        while True:
            try:
                with obs.span("phase.band_pass", kernel="banded_gmx", band=band):
                    result = self._align_banded(
                        pattern, text, band, traceback, stats
                    )
            except BandExceededError:
                obs.inc("align.banded_gmx.band_exceeded")
                if not self.auto_widen or band >= max_band:
                    raise
                obs.inc("align.banded_gmx.band_widened")
                band = min(2 * band, max_band)
                continue
            certified = result.score <= band or band >= max_band
            if certified or not self.auto_widen:
                result.exact = certified
                return result
            obs.inc("align.banded_gmx.band_widened")
            band = min(2 * band, max_band)

    # -- one banded pass -------------------------------------------------------

    def _tile_band(self, band: int) -> int:
        """Band half-width in tile units."""
        return -(-band // self.tile_size)  # ceil division

    def _align_banded(
        self,
        pattern: str,
        text: str,
        band: int,
        traceback: bool,
        stats: KernelStats,
    ) -> AlignmentResult:
        tile = self.tile_size
        edge_bytes = _edge_bytes(tile)
        isa = GmxIsa(tile_size=tile)
        if self.trace_sink is not None:
            isa.trace = []
            self.trace_sink.append(isa.trace)
        backend = effective_backend(self.backend, isa)
        p_chunks = _chunks(pattern, tile)
        t_chunks = _chunks(text, tile)
        n_tiles = len(p_chunks)
        bt = self._tile_band(band)
        outcome = backend.banded_matrix(
            BandedMatrixRequest(
                isa=isa,
                stats=stats,
                pattern=pattern,
                p_chunks=p_chunks,
                t_chunks=t_chunks,
                tile_size=tile,
                tile_band=bt,
                traceback=traceback,
            )
        )
        score = outcome.score

        stats.hot_bytes = max(stats.hot_bytes or 0, edge_bytes * (2 * bt + 2))
        if traceback:
            band_tiles = sum(
                min(n_tiles - 1, tj + bt) - max(0, tj - bt) + 1
                for tj in range(len(t_chunks))
            )
            stats.dp_bytes_peak = max(
                stats.dp_bytes_peak, 2 * edge_bytes * band_tiles
            )
        else:
            stats.dp_bytes_peak = max(
                stats.dp_bytes_peak, edge_bytes * (2 * bt + 2)
            )

        alignment = None
        if traceback:
            ops = self._traceback(
                isa, stats, pattern, text, p_chunks, t_chunks, outcome,
                bt,
            )
            # Inside the band the path cost equals the corner value; report
            # the path's own cost so a non-certified (heuristic) result still
            # describes a valid alignment.
            score = edit_cost(ops)
            alignment = Alignment(
                pattern=pattern, text=text, ops=tuple(ops), score=score
            )
        stats.add_instr("csr", isa.retired["csrw"] + isa.retired["csrr"])
        stats.add_instr("gmx", isa.retired["gmx.v"] + isa.retired["gmx.h"])
        stats.add_instr("gmx_tb", isa.retired["gmx.tb"])
        return AlignmentResult(
            score=score, alignment=alignment, stats=stats, exact=False
        )

    def _traceback(
        self,
        isa: GmxIsa,
        stats: KernelStats,
        pattern: str,
        text: str,
        p_chunks: List[str],
        t_chunks: List[str],
        outcome: BandedMatrixResult,
        bt: int,
    ) -> List[str]:
        tile = self.tile_size
        ti = len(p_chunks) - 1
        tj = len(t_chunks) - 1
        if abs(ti - tj) > bt:
            raise BandExceededError(
                f"band of {bt} tiles does not reach the DP corner "
                f"({ti}, {tj}); widen the band"
            )

        isa.csrw("gmx_pos", encode_pos(tile - 1, tile - 1, tile))
        if outcome.columns is not None:
            reversed_ops, gi, gj = _walk_columns(
                isa, stats, pattern, text, outcome.columns,
                len(pattern) - 1, len(text) - 1, tile_band=bt,
            )
        else:
            matrix = outcome.matrix
            plus_v = boundary_images(p_chunks, 1)
            plus_h = boundary_images(t_chunks, 1)

            def edges(ti: int, tj: int) -> Tuple[int, int]:
                if (ti, tj) not in matrix:
                    raise BandExceededError(
                        f"traceback left the computed band at tile ({ti}, {tj})"
                    )
                left = matrix.get((ti, tj - 1))
                above = matrix.get((ti - 1, tj))
                dv_in = left[0] if left else plus_v[ti]
                dh_in = above[1] if above else plus_h[tj]
                return dv_in, dh_in

            reversed_ops, gi, gj = _walk_tiles(
                isa, stats, p_chunks, t_chunks, edges,
                ti, tj, len(pattern) - 1, len(text) - 1,
            )
        reversed_ops.extend([OP_DELETION] * (gi + 1))
        reversed_ops.extend([OP_INSERTION] * (gj + 1))
        reversed_ops.reverse()
        return reversed_ops
