"""Kernel backends: the two tile-matrix compute engines.

The GMX aligners (:class:`~repro.align.full_gmx.FullGmxAligner`,
:class:`~repro.align.banded_gmx.BandedGmxAligner` and everything layered on
top of them) separate *what* the DP-matrix phase produces — the tile edge
images ``M[i][j] = (ΔV_out, ΔH_out)`` plus the bottom-row ΔH stream — from
*how* it is computed.  A :class:`KernelBackend` owns the "how":

``pure``
    The reference engine: one ISA tile instruction per tile, exactly the
    loop the paper's Algorithm 1 describes.  Every ``gmx.v``/``gmx.h`` is
    an individually retired instruction, so IsaEvent traces and the
    ISA-level fault hook see each tile in flight.
``bitpar``
    The fast engine: the whole pattern is held in one Python
    arbitrary-precision-integer bitvector pair (Pv, Mv) and each text
    character advances *all* tile rows with a single Myers/Hyyrö column
    step — O(1) big-int ops per column instead of O(tiles) tile
    instructions of O(T) Python work.  When traceback is requested it
    keeps each text column's Δv=+1 and Δh=+1 masks instead of tile edge
    images, and the aligners walk the CC_TB rule on those columns instead
    of recomputing tiles with ``gmx.tb``.  Scores, CIGARs and
    :class:`KernelStats` are byte-identical to ``pure`` (block-equivalence
    of the Myers recurrence: both engines compute the unique Δ values of
    the same DP matrix).

Both engines are built once, at import, into a read-only table:
:func:`get_backend` looks one up by name and :func:`backend_names` lists
them.  Nothing adds, replaces or fills an engine after import, so every
pool worker holds the same two engines as its parent.

Every GMX aligner runs ``bitpar`` unless its constructor is given
``backend="pure"``, which is how the reference suites and the speedup
gate name the reference.  The one exception is made here, by
:func:`effective_backend`: ``bitpar`` batches its retired-instruction
accounting, so it cannot feed per-instruction observers, and whenever an
ISA trace is being recorded or a fault-injection hook is armed the
alignment runs on ``pure`` — the program verifier and the chaos
campaigns always see the reference engine, and fault-injected results
are the same whichever engine the aligner was built with.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.bitvec import mask, pack_plus_minus, popcount, unpack_deltas
from ..core.isa import GmxIsa
from ..core.tile import build_peq
from .base import KernelStats

__all__ = [
    "DEFAULT_BACKEND",
    "BackendError",
    "BandedMatrixRequest",
    "BandedMatrixResult",
    "BitparTileBackend",
    "FullMatrixRequest",
    "FullMatrixResult",
    "KernelBackend",
    "PureTileBackend",
    "backend_names",
    "boundary_images",
    "effective_backend",
    "get_backend",
]

#: The engine of every aligner not built with ``backend="pure"``.
DEFAULT_BACKEND = "bitpar"


class BackendError(ValueError):
    """Raised for unknown or misused kernel backends."""


def _edge_bytes(tile_size: int) -> int:
    """Bytes per stored tile edge register (2T bits; 8 bytes at T = 32)."""
    return (2 * tile_size + 7) // 8


def boundary_images(chunks: List[str], fill: int) -> List[int]:
    """Packed edge images of a matrix boundary, one per chunk, all ``fill``.

    Only the ``pure`` engine and the tile walks it feeds read these, so
    they build them; the ``bitpar`` fills start from whole-pattern masks.
    """
    return [pack_plus_minus(fill * mask(len(chunk)), 0) for chunk in chunks]


# ---------------------------------------------------------------------------
# Requests and results: the aligner <-> backend contract.
# ---------------------------------------------------------------------------


@dataclass
class FullMatrixRequest:
    """Inputs of a Full(GMX) DP-matrix phase.

    Attributes:
        isa: the ISA instance whose retired counters the phase feeds.
        stats: the kernel-stats record the phase feeds.
        pattern: full pattern (rows).
        p_chunks / t_chunks: tile-size chunks of pattern and text.
        tile_size: T.
        top_fill: top-boundary ΔH fill value (+1, or 0 for INFIX mode).
        fused: retire ``gmx.vh`` instead of the ``gmx.v``/``gmx.h`` pair.
        traceback: keep what traceback reads (see :class:`FullMatrixResult`).
        bottom_row: keep the bottom-row ΔH stream (PREFIX and INFIX read
            its minimum; GLOBAL reads only the corner).
    """

    isa: GmxIsa
    stats: KernelStats
    pattern: str
    p_chunks: List[str]
    t_chunks: List[str]
    tile_size: int
    top_fill: int
    fused: bool
    traceback: bool
    bottom_row: bool


@dataclass
class ColumnMasks:
    """What ``bitpar`` keeps of its fill for traceback, per text column j.

    Bit ``r`` of ``dv_plus[j]`` / ``dh_plus[j]`` is set iff Δv / Δh of DP
    row ``offsets[j] + r`` is +1: the post-step ``pv`` and the pre-shift
    ``ph`` of :func:`~repro.core.tile.advance_column`, the two masks the
    CC_TB rule reads.  Full keeps whole-pattern columns (offset 0);
    Banded keeps each column's band segment.
    """

    offsets: List[int]
    dv_plus: List[int]
    dh_plus: List[int]


@dataclass
class FullMatrixResult:
    """Outputs of a Full(GMX) DP-matrix phase.

    Attributes:
        corner: ``D[n][m]``, the bottom-right cell (GLOBAL's score).
        bottom_deltas: ΔH values along the bottom matrix row, one per
            text column (when the request asked for the bottom row).
        matrix: ``M[i][j] = (ΔV_out, ΔH_out)`` images (``pure``, when
            traceback was requested).
        columns: every text column's Δ masks (``bitpar``, when traceback
            was requested).
    """

    corner: int
    bottom_deltas: Optional[List[int]] = None
    matrix: Optional[List[List[Tuple[int, int]]]] = None
    columns: Optional[ColumnMasks] = None


@dataclass
class BandedMatrixRequest:
    """Inputs of a Banded(GMX) band pass (one fixed band width).

    The attributes shared with :class:`FullMatrixRequest` mean the same
    (a band pass always has top fill +1 and never fuses), plus:
        tile_band: band half-width in tile units.
    """

    isa: GmxIsa
    stats: KernelStats
    pattern: str
    p_chunks: List[str]
    t_chunks: List[str]
    tile_size: int
    tile_band: int
    traceback: bool


@dataclass
class BandedMatrixResult:
    """Outputs of a Banded(GMX) band pass.

    Attributes:
        score: ``D`` at the lowest in-band row of the last text column:
            the last row of the first column's band, plus one per row the
            band bottom moves down (the +1 fill below the band), plus
            every column's band-bottom ΔH.
        matrix: in-band tile edge images keyed by (tile_row, tile_col)
            (``pure``, when traceback was requested).
        columns: every text column's Δ masks over its band segment
            (``bitpar``, when traceback was requested).
    """

    score: int
    matrix: Optional[Dict[Tuple[int, int], Tuple[int, int]]] = None
    columns: Optional[ColumnMasks] = None


# ---------------------------------------------------------------------------
# Backend interface.
# ---------------------------------------------------------------------------


class KernelBackend(abc.ABC):
    """One way of computing the GMX tile DP matrix.

    Backends are stateless singletons shared across aligners and pickled
    into pool workers; all per-alignment state lives in the request.
    """

    #: Engine name (the aligners' ``backend=`` spelling).
    name: str = "?"

    #: One-line summary for the ``experiment all`` backends stamp.
    description: str = ""

    #: True when the backend retires each ISA instruction individually, so
    #: IsaEvent traces and fault hooks observe every tile in flight.  Only
    #: such backends may run under tracing or fault injection (see
    #: :func:`effective_backend`).
    observes_isa: bool = False

    @abc.abstractmethod
    def full_matrix(self, request: FullMatrixRequest) -> FullMatrixResult:
        """Compute the full DP matrix phase of Full(GMX)."""

    @abc.abstractmethod
    def banded_matrix(self, request: BandedMatrixRequest) -> BandedMatrixResult:
        """Compute one band pass of Banded(GMX)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------------
# pure: the reference tile-instruction engine.
# ---------------------------------------------------------------------------


class PureTileBackend(KernelBackend):
    """Algorithm 1 exactly as written: one ISA tile instruction per tile.

    This is the seed repository's original loop, moved verbatim.  It is
    the only backend that retires instructions one at a time, which makes
    it the reference for traces, fault injection, and the differential
    suites.
    """

    name = "pure"
    description = "reference engine: one ISA tile instruction per tile"
    observes_isa = True

    def full_matrix(self, request: FullMatrixRequest) -> FullMatrixResult:
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        n_tiles = len(request.p_chunks)
        m_tiles = len(request.t_chunks)
        matrix: Optional[List[List[Tuple[int, int]]]] = None
        if request.traceback:
            matrix = [[(0, 0)] * m_tiles for _ in range(n_tiles)]
        bottom_deltas: List[int] = []
        dv_column = boundary_images(request.p_chunks, 1)
        boundary_h = boundary_images(request.t_chunks, request.top_fill)
        for j, text_chunk in enumerate(request.t_chunks):
            isa.csrw("gmx_text", text_chunk)
            stats.add_instr("int_alu", 2)
            stats.add_instr("branch", 1)
            dh_down = boundary_h[j]
            for i, pattern_chunk in enumerate(request.p_chunks):
                isa.csrw("gmx_pattern", pattern_chunk)
                dv_in = dv_column[i]
                dh_in = dh_down
                if request.fused:
                    dv_out, dh_out = isa.gmx_vh(dv_in, dh_in)
                else:
                    dv_out = isa.gmx_v(dv_in, dh_in)
                    dh_out = isa.gmx_h(dv_in, dh_in)
                dv_column[i] = dv_out
                dh_down = dh_out
                if matrix is not None:
                    matrix[i][j] = (dv_out, dh_out)
                    stats.dp_bytes_written += 2 * edge_bytes
                    stats.add_instr("store", 2)
                stats.dp_bytes_read += 2 * edge_bytes
                stats.add_instr("load", 2)
                stats.add_instr("int_alu", 4)
                stats.add_instr("branch", 1)
                stats.dp_cells += len(pattern_chunk) * len(text_chunk)
                stats.tiles += 1
            bottom_deltas.extend(unpack_deltas(dh_down, len(text_chunk)))
            stats.add_instr("int_alu", 3)
        return FullMatrixResult(
            corner=len(request.pattern) + sum(bottom_deltas),
            bottom_deltas=bottom_deltas if request.bottom_row else None,
            matrix=matrix,
        )

    def banded_matrix(self, request: BandedMatrixRequest) -> BandedMatrixResult:
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        n_tiles = len(request.p_chunks)
        bt = request.tile_band
        matrix: Optional[Dict[Tuple[int, int], Tuple[int, int]]] = None
        if request.traceback:
            matrix = {}
        bottoms: List[int] = []
        # All +1: the matrix boundary, and the fill entering the band
        # from uncomputed neighbours.
        boundary_v = boundary_images(request.p_chunks, 1)
        boundary_h = boundary_images(request.t_chunks, 1)
        dv_prev: Dict[int, int] = {}
        hi = 0
        for tj, text_chunk in enumerate(request.t_chunks):
            lo = max(0, tj - bt)
            hi = min(n_tiles - 1, tj + bt)
            isa.csrw("gmx_text", text_chunk)
            stats.add_instr("int_alu", 3)
            stats.add_instr("branch", 1)
            dh_down = 0
            dv_cur: Dict[int, int] = {}
            for ti in range(lo, hi + 1):
                pattern_chunk = request.p_chunks[ti]
                isa.csrw("gmx_pattern", pattern_chunk)
                dv_in = dv_prev.get(ti, boundary_v[ti])
                dh_in = boundary_h[tj] if ti == lo else dh_down
                dv_out = isa.gmx_v(dv_in, dh_in)
                dh_out = isa.gmx_h(dv_in, dh_in)
                dv_cur[ti] = dv_out
                dh_down = dh_out
                if matrix is not None:
                    matrix[(ti, tj)] = (dv_out, dh_out)
                    stats.dp_bytes_written += 2 * edge_bytes
                    stats.add_instr("store", 2)
                stats.dp_bytes_read += 2 * edge_bytes
                stats.add_instr("load", 2)
                stats.add_instr("int_alu", 5)
                stats.add_instr("branch", 1)
                stats.dp_cells += len(pattern_chunk) * len(text_chunk)
                stats.tiles += 1
            dv_prev = dv_cur
            bottoms.append(dh_down)
            stats.add_instr("int_alu", 3)
        # Decoded after the pass, so a corrupt image raises once every
        # tile has retired.
        score = min((hi + 1) * request.tile_size, len(request.pattern))
        for image, text_chunk in zip(bottoms, request.t_chunks):
            score += sum(unpack_deltas(image, len(text_chunk)))
        return BandedMatrixResult(score=score, matrix=matrix)


# ---------------------------------------------------------------------------
# bitpar: whole-pattern big-integer bitvectors.
# ---------------------------------------------------------------------------


class BitparTileBackend(KernelBackend):
    """Whole-pattern Myers/Hyyrö bitvector engine.

    One Myers column step advances every tile row at once: the (Pv, Mv)
    pair spans the entire pattern as one big integer, so each text
    character costs O(1) big-int operations instead of one Python-level
    tile loop per tile row.  Both fills inline the step (Banded on each
    column's band segment), so a text column costs no call and no tuple.
    For traceback the fill keeps every text column's Δ masks
    (:class:`ColumnMasks`), which the aligners walk directly;
    retired-instruction and stats accounting reproduces the ``pure``
    recipes in bulk, so the two backends are indistinguishable downstream.
    """

    name = "bitpar"
    description = "whole-pattern big-integer Myers/Hyyrö bitvectors"
    observes_isa = False

    # -- full matrix --------------------------------------------------------

    def full_matrix(self, request: FullMatrixRequest) -> FullMatrixResult:
        """One inlined Myers column step per text character.

        The step is :func:`~repro.core.tile.advance_column` over all ``n``
        rows with the top ΔH fixed at ``top_fill`` (0 or +1), written out
        so that a column costs no call and no tuple.  ``~x & rows`` is
        spelled ``(x & rows) ^ rows``, which never builds a negative big
        int; the carry of ``(eq & pv) + pv`` into bit ``n`` is dropped by
        the masks of ``ph`` and ``mh``.  The bottom-row ΔH is kept only
        when the request asks for it and the Δ masks only for traceback;
        ``D[n][m] = top_fill·m + popcount(pv) − popcount(mv)`` is read off
        the last column.
        """
        n = len(request.pattern)
        rows = mask(n)
        bottom = 1 << (n - 1)
        top_fill = request.top_fill
        peq_get = build_peq(request.pattern).get
        keep_columns = request.traceback
        dv_plus: List[int] = []
        dh_plus: List[int] = []
        bottom_deltas: Optional[List[int]] = [] if request.bottom_row else None
        text = "".join(request.t_chunks)
        pv = rows  # left boundary: every ΔV is +1
        mv = 0
        for text_char in text:
            eq = peq_get(text_char, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = (((xh | pv) & rows) ^ rows) | mv  # rows whose Δh is +1
            mh = pv & xh  # rows whose Δh is −1
            if bottom_deltas is not None:
                bottom_deltas.append(
                    1 if ph & bottom else -1 if mh & bottom else 0
                )
            ph_in = ((ph << 1) & rows) | top_fill  # Δh entering each row
            pv = ((mh << 1) & rows) | ((xv | ph_in) ^ rows)
            mv = ph_in & xv
            if keep_columns:
                dv_plus.append(pv)
                dh_plus.append(ph)
        self._charge_full(request, n, len(text))
        columns = None
        if keep_columns:
            columns = ColumnMasks([0] * len(text), dv_plus, dh_plus)
        return FullMatrixResult(
            corner=top_fill * len(text) + popcount(pv) - popcount(mv),
            bottom_deltas=bottom_deltas,
            columns=columns,
        )

    def _charge_full(
        self, request: FullMatrixRequest, rows: int, cols: int
    ) -> None:
        """Retire the ``pure`` instruction recipe of the whole fill at once.

        Per tile column: 1 ``csrw``, 5 int ops and 1 branch; per tile:
        1 ``csrw``, the tile instruction(s), 4 int ops, 1 branch, 2 loads
        and, for traceback, 2 stores — charged in ``pure``'s order.
        """
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        m_tiles = len(request.t_chunks)
        tiles = len(request.p_chunks) * m_tiles
        isa.retired["csrw"] += tiles + m_tiles
        if request.fused:
            isa.retired["gmx.vh"] += tiles
        else:
            isa.retired["gmx.v"] += tiles
            isa.retired["gmx.h"] += tiles
        stats.add_instr("int_alu", 4 * tiles + 5 * m_tiles)
        stats.add_instr("branch", tiles + m_tiles)
        if request.traceback:
            stats.add_instr("store", 2 * tiles)
            stats.dp_bytes_written += 2 * edge_bytes * tiles
        stats.add_instr("load", 2 * tiles)
        stats.dp_bytes_read += 2 * edge_bytes * tiles
        stats.dp_cells += rows * cols
        stats.tiles += tiles

    # -- banded matrix ------------------------------------------------------

    def banded_matrix(self, request: BandedMatrixRequest) -> BandedMatrixResult:
        """Full's inlined Myers column step, on each column's band segment.

        Per tile column, ``pv``/``mv`` are cut to the band segment (from
        the first row of tile row ``lo`` to the last row of tile row
        ``hi``), and the segment's Eq is built once per distinct character
        of the text chunk.  Each text character then costs the step of
        :meth:`full_matrix` on ``span`` rows with the top ΔH fixed at +1
        (the matrix boundary and the band's +1 fill agree), and the
        band-bottom ΔH goes straight into the score.
        """
        tile = request.tile_size
        n = len(request.pattern)
        n_tiles = len(request.p_chunks)
        bt = request.tile_band
        peq = build_peq(request.pattern)
        # The +1 boundary and the +1 band fill coincide, and the band
        # interval of each tile row is contiguous, so initialising every
        # row to ΔV = +1 covers both the tj == 0 boundary and every later
        # band entry: a row's bits are untouched until its tile first
        # enters the band, and never read again after it leaves.
        pv = mask(n)
        mv = 0
        keep_columns = request.traceback
        offsets: List[int] = []
        dv_plus: List[int] = []
        dh_plus: List[int] = []
        bottom_sum = 0
        band_tiles = 0
        cells = 0
        hi_end = 0
        for tj, text_chunk in enumerate(request.t_chunks):
            lo = max(0, tj - bt)
            hi = min(n_tiles - 1, tj + bt)
            lo_base = lo * tile
            hi_end = min((hi + 1) * tile, n)
            span = hi_end - lo_base
            rows = mask(span)
            last = span - 1
            seg_eq = {
                char: (peq.get(char, 0) >> lo_base) & rows
                for char in set(text_chunk)
            }
            seg_pv = (pv >> lo_base) & rows
            seg_mv = (mv >> lo_base) & rows
            for text_char in text_chunk:
                eq = seg_eq[text_char]
                xv = eq | seg_mv
                xh = (((eq & seg_pv) + seg_pv) ^ seg_pv) | eq
                ph = (((xh | seg_pv) & rows) ^ rows) | seg_mv
                mh = seg_pv & xh
                bottom_sum += (ph >> last) - (mh >> last)
                ph_in = ((ph << 1) & rows) | 1
                seg_pv = ((mh << 1) & rows) | ((xv | ph_in) ^ rows)
                seg_mv = ph_in & xv
                if keep_columns:
                    dv_plus.append(seg_pv)
                    dh_plus.append(ph)
            if keep_columns:
                offsets.extend([lo_base] * len(text_chunk))
            keep = ~(rows << lo_base)
            pv = (pv & keep) | (seg_pv << lo_base)
            mv = (mv & keep) | (seg_mv << lo_base)
            band_tiles += hi - lo + 1
            cells += span * len(text_chunk)
        self._charge_banded(request, band_tiles, cells)
        columns = None
        if keep_columns:
            columns = ColumnMasks(offsets, dv_plus, dh_plus)
        return BandedMatrixResult(score=hi_end + bottom_sum, columns=columns)

    def _charge_banded(
        self, request: BandedMatrixRequest, tiles: int, cells: int
    ) -> None:
        """Retire the ``pure`` instruction recipe of a whole band pass.

        Per tile column: 1 ``csrw``, 6 int ops and 1 branch; per in-band
        tile: 1 ``csrw``, ``gmx.v`` and ``gmx.h``, 5 int ops, 1 branch,
        2 loads and, for traceback, 2 stores — charged in ``pure``'s
        order (stores before loads).
        """
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        m_tiles = len(request.t_chunks)
        isa.retired["csrw"] += tiles + m_tiles
        isa.retired["gmx.v"] += tiles
        isa.retired["gmx.h"] += tiles
        stats.add_instr("int_alu", 5 * tiles + 6 * m_tiles)
        stats.add_instr("branch", tiles + m_tiles)
        if request.traceback:
            stats.add_instr("store", 2 * tiles)
            stats.dp_bytes_written += 2 * edge_bytes * tiles
        stats.add_instr("load", 2 * tiles)
        stats.dp_bytes_read += 2 * edge_bytes * tiles
        stats.dp_cells += cells
        stats.tiles += tiles


# ---------------------------------------------------------------------------
# The two engines, built once at import.
# ---------------------------------------------------------------------------


_ENGINES: Mapping[str, KernelBackend] = MappingProxyType(
    {engine.name: engine for engine in (PureTileBackend(), BitparTileBackend())}
)


def backend_names() -> Tuple[str, ...]:
    """Engine names, the reference first."""
    return tuple(_ENGINES)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The engine called ``name``; ``None`` is :data:`DEFAULT_BACKEND`.

    Raises:
        BackendError: ``name`` is not an engine name (an engine instance
            is not accepted either: engines are chosen by name).
    """
    engine = _ENGINES.get(DEFAULT_BACKEND if name is None else name)
    if engine is None:
        known = ", ".join(_ENGINES)
        raise BackendError(
            f"unknown kernel backend {name!r} (registered: {known})"
        )
    return engine


def effective_backend(backend: KernelBackend, isa: GmxIsa) -> KernelBackend:
    """The backend actually used for one alignment on ``isa``.

    Backends that batch their accounting cannot feed per-instruction
    observers, so when an IsaEvent trace is being recorded or a fault
    hook is armed (instance or ambient) the reference ``pure`` engine
    takes over — verifier streams and injected faults behave identically
    regardless of the configured backend.
    """
    if backend.observes_isa:
        return backend
    if isa.trace is not None or isa._active_fault_hook() is not None:
        return get_backend("pure")
    return backend

