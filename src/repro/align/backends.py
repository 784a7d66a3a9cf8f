"""Kernel backend registry: interchangeable tile-matrix compute engines.

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
    step (:func:`repro.core.tile.advance_column`) — O(1) big-int ops per
    column instead of O(tiles) tile instructions of O(T) Python work.
    Tile edge images are extracted from the bitvectors only where the
    matrix is stored, so scores, CIGARs and :class:`KernelStats` are
    byte-identical to ``pure`` (block-equivalence of the Myers recurrence:
    both engines compute the unique Δ values of the same DP matrix).

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
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.bitvec import mask, pack_plus_minus, unpack_deltas
from ..core.isa import GmxIsa
from ..core.tile import advance_column, build_peq
from .base import KernelStats

__all__ = [
    "DEFAULT_BACKEND",
    "BackendError",
    "BackendSpec",
    "BandedMatrixRequest",
    "BandedMatrixResult",
    "BitparTileBackend",
    "FullMatrixRequest",
    "FullMatrixResult",
    "KernelBackend",
    "PureTileBackend",
    "backend_names",
    "backend_specs",
    "effective_backend",
    "get_backend",
    "register_backend",
]

#: The engine of every aligner not built with ``backend="pure"``.
DEFAULT_BACKEND = "bitpar"


class BackendError(ValueError):
    """Raised for unknown or misused kernel backends."""


def _edge_bytes(tile_size: int) -> int:
    """Bytes per stored tile edge register (2T bits; 8 bytes at T = 32)."""
    return (2 * tile_size + 7) // 8


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
        store_matrix: store tile edge images for traceback.
        boundary_v / boundary_h: packed boundary edge images per chunk.
    """

    isa: GmxIsa
    stats: KernelStats
    pattern: str
    p_chunks: List[str]
    t_chunks: List[str]
    tile_size: int
    top_fill: int
    fused: bool
    store_matrix: bool
    boundary_v: List[int]
    boundary_h: List[int]


@dataclass
class FullMatrixResult:
    """Outputs of a Full(GMX) DP-matrix phase.

    Attributes:
        matrix: ``M[i][j] = (ΔV_out, ΔH_out)`` images (None when the
            request did not store the matrix).
        bottom_deltas: ΔH values along the bottom matrix row, one per
            text column.
    """

    matrix: Optional[List[List[Tuple[int, int]]]]
    bottom_deltas: List[int]


@dataclass
class BandedMatrixRequest:
    """Inputs of a Banded(GMX) band pass (one fixed band width).

    Attributes are as in :class:`FullMatrixRequest` plus:
        tile_band: band half-width in tile units.
        plus_fill_v / plus_fill_h: packed +1-fill images for edges entering
            the band from uncomputed neighbours.
    """

    isa: GmxIsa
    stats: KernelStats
    pattern: str
    p_chunks: List[str]
    t_chunks: List[str]
    tile_size: int
    tile_band: int
    store_matrix: bool
    boundary_v: List[int]
    boundary_h: List[int]
    plus_fill_v: List[int]
    plus_fill_h: List[int]


@dataclass
class BandedMatrixResult:
    """Outputs of a Banded(GMX) band pass.

    Attributes:
        matrix: in-band tile edge images keyed by (tile_row, tile_col)
            (empty when the request did not store the matrix).
        bottoms: per tile column, the packed ΔH image of the lowest
            in-band tile's bottom edge (the band-bottom score stream).
    """

    matrix: Dict[Tuple[int, int], Tuple[int, int]]
    bottoms: List[int]


# ---------------------------------------------------------------------------
# Backend interface.
# ---------------------------------------------------------------------------


class KernelBackend(abc.ABC):
    """One way of computing the GMX tile DP matrix.

    Backends are stateless singletons shared across aligners and pickled
    into pool workers; all per-alignment state lives in the request.
    """

    #: Registry name (the aligners' ``backend=`` spelling).
    name: str = "?"

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
    observes_isa = True

    def full_matrix(self, request: FullMatrixRequest) -> FullMatrixResult:
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        n_tiles = len(request.p_chunks)
        m_tiles = len(request.t_chunks)
        matrix: Optional[List[List[Tuple[int, int]]]] = None
        if request.store_matrix:
            matrix = [[(0, 0)] * m_tiles for _ in range(n_tiles)]
        bottom_deltas: List[int] = []
        dv_column = list(request.boundary_v)
        for j, text_chunk in enumerate(request.t_chunks):
            isa.csrw("gmx_text", text_chunk)
            stats.add_instr("int_alu", 2)
            stats.add_instr("branch", 1)
            dh_down = request.boundary_h[j]
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
        return FullMatrixResult(matrix=matrix, bottom_deltas=bottom_deltas)

    def banded_matrix(self, request: BandedMatrixRequest) -> BandedMatrixResult:
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        n_tiles = len(request.p_chunks)
        bt = request.tile_band
        matrix: Dict[Tuple[int, int], Tuple[int, int]] = {}
        bottoms: List[int] = []
        dv_prev: Dict[int, int] = {}
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
                if tj == 0:
                    dv_in = request.boundary_v[ti]
                elif ti in dv_prev:
                    dv_in = dv_prev[ti]
                else:
                    dv_in = request.plus_fill_v[ti]
                if ti == lo:
                    if ti == 0:
                        dh_in = request.boundary_h[tj]
                    else:
                        dh_in = request.plus_fill_h[tj]
                else:
                    dh_in = dh_down
                dv_out = isa.gmx_v(dv_in, dh_in)
                dh_out = isa.gmx_h(dv_in, dh_in)
                dv_cur[ti] = dv_out
                dh_down = dh_out
                if request.store_matrix:
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
        return BandedMatrixResult(matrix=matrix, bottoms=bottoms)


# ---------------------------------------------------------------------------
# bitpar: whole-pattern big-integer bitvectors.
# ---------------------------------------------------------------------------


def _tile_column_edges(
    pv: int,
    mv: int,
    phs: List[int],
    mhs: List[int],
    tiles: int,
    last_rows: int,
    tile: int,
) -> List[Tuple[int, int]]:
    """Packed ``(ΔV_out, ΔH_out)`` images of each tile row of one tile column.

    The bitvectors span a row segment that starts on a tile boundary and
    holds ``tiles`` tile rows: T rows each, except the last, which has
    ``last_rows``.  ``pv``/``mv`` are the ΔV masks after the tile column's
    last text column; ``phs``/``mhs`` hold each text column's pre-shift Δh
    masks (see :func:`~repro.core.tile.advance_column`).

    Tile row k's ΔH_out taps bit ``k·T + T − 1`` of every column.  Shifting
    column c's taps right by ``T − 1 − c`` lands them on bit ``k·T + c``,
    so OR-ing the shifted taps of all columns builds every full tile row's
    ΔH_out at once, in T-bit blocks; the last (maybe partial) tile row is
    tapped on its own into the last block.
    """
    last_end = (tiles - 1) * tile + last_rows - 1
    taps = int("1".ljust(tile, "0") * (tiles - 1) or "0", 2)
    acc_p = acc_m = last_p = last_m = 0
    for c, (ph, mh) in enumerate(zip(phs, mhs)):
        shift = tile - 1 - c
        acc_p |= (ph & taps) >> shift
        acc_m |= (mh & taps) >> shift
        last_p |= ((ph >> last_end) & 1) << c
        last_m |= ((mh >> last_end) & 1) << c
    # One interleave for both edges: ΔV blocks low, ΔH blocks above them.
    dh_base = tiles * tile
    last_base = dh_base + (tiles - 1) * tile
    packed = pack_plus_minus(
        pv | (acc_p << dh_base) | (last_p << last_base),
        mv | (acc_m << dh_base) | (last_m << last_base),
    )
    dh_packed = packed >> (2 * dh_base)
    dv_mask = mask(2 * tile)
    dh_mask = mask(2 * len(phs))
    stride = 2 * tile
    return [
        (
            (packed >> (stride * k)) & dv_mask,
            (dh_packed >> (stride * k)) & dh_mask,
        )
        for k in range(tiles)
    ]


class BitparTileBackend(KernelBackend):
    """Whole-pattern Myers/Hyyrö bitvector engine.

    One :func:`~repro.core.tile.advance_column` call advances every tile
    row at once: the (Pv, Mv) pair spans the entire pattern as one big
    integer, so each text character costs O(1) big-int operations instead
    of one Python-level tile loop per tile row.  Edge images for the
    traceback matrix are extracted from the bitvectors at tile-row
    boundaries; retired-instruction and stats accounting reproduces the
    ``pure`` recipes in bulk, so the two backends are indistinguishable
    downstream.
    """

    name = "bitpar"
    observes_isa = False

    # -- full matrix --------------------------------------------------------

    def full_matrix(self, request: FullMatrixRequest) -> FullMatrixResult:
        tile = request.tile_size
        pattern = request.pattern
        n = len(pattern)
        m_tiles = len(request.t_chunks)
        store = request.store_matrix
        peq = build_peq(pattern)
        n_tiles = len(request.p_chunks)
        last_rows = len(request.p_chunks[-1])
        pv = mask(n)  # left boundary: every ΔV is +1
        mv = 0
        matrix: Optional[List[List[Tuple[int, int]]]] = None
        if store:
            matrix = [[(0, 0)] * m_tiles for _ in range(n_tiles)]
        bottom_deltas: List[int] = []
        for j, text_chunk in enumerate(request.t_chunks):
            phs: List[int] = []
            mhs: List[int] = []
            for text_char in text_chunk:
                pv, mv, h_out, ph, mh = advance_column(
                    peq.get(text_char, 0), pv, mv, request.top_fill, n
                )
                bottom_deltas.append(h_out)
                if store:
                    phs.append(ph)
                    mhs.append(mh)
            if store:
                edges = _tile_column_edges(
                    pv, mv, phs, mhs, n_tiles, last_rows, tile
                )
                for i, edge in enumerate(edges):
                    matrix[i][j] = edge
            self._account_full_column(request, n, n_tiles, len(text_chunk))
        return FullMatrixResult(matrix=matrix, bottom_deltas=bottom_deltas)

    def _account_full_column(
        self, request: FullMatrixRequest, rows: int, n_tiles: int, cols: int
    ) -> None:
        """Retire one tile column's worth of the ``pure`` instruction recipe."""
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        isa.retired["csrw"] += n_tiles + 1
        if request.fused:
            isa.retired["gmx.vh"] += n_tiles
        else:
            isa.retired["gmx.v"] += n_tiles
            isa.retired["gmx.h"] += n_tiles
        stats.add_instr("int_alu", 4 * n_tiles + 5)
        stats.add_instr("branch", n_tiles + 1)
        stats.add_instr("load", 2 * n_tiles)
        stats.dp_bytes_read += 2 * edge_bytes * n_tiles
        if request.store_matrix:
            stats.add_instr("store", 2 * n_tiles)
            stats.dp_bytes_written += 2 * edge_bytes * n_tiles
        stats.dp_cells += rows * cols
        stats.tiles += n_tiles

    # -- banded matrix ------------------------------------------------------

    def banded_matrix(self, request: BandedMatrixRequest) -> BandedMatrixResult:
        tile = request.tile_size
        pattern = request.pattern
        n = len(pattern)
        p_chunks = request.p_chunks
        n_tiles = len(p_chunks)
        bt = request.tile_band
        store = request.store_matrix
        peq = build_peq(pattern)
        # The +1 boundary and the +1 band fill coincide, and the band
        # interval of each tile row is contiguous, so initialising every
        # row to ΔV = +1 covers both the tj == 0 boundary and every later
        # band entry: a row's bits are untouched until its tile first
        # enters the band, and never read again after it leaves.
        pv = mask(n)
        mv = 0
        matrix: Dict[Tuple[int, int], Tuple[int, int]] = {}
        bottoms: List[int] = []
        for tj, text_chunk in enumerate(request.t_chunks):
            lo = max(0, tj - bt)
            hi = min(n_tiles - 1, tj + bt)
            lo_base = lo * tile
            hi_end = min((hi + 1) * tile, n)
            span = hi_end - lo_base
            span_mask = mask(span)
            seg_pv = (pv >> lo_base) & span_mask
            seg_mv = (mv >> lo_base) & span_mask
            phs: List[int] = []
            mhs: List[int] = []
            bottom_image = 0
            for c, text_char in enumerate(text_chunk):
                peq_char = (peq.get(text_char, 0) >> lo_base) & span_mask
                # The band-top ΔH fill (boundary or +1 fill) is always +1.
                seg_pv, seg_mv, h_out, ph, mh = advance_column(
                    peq_char, seg_pv, seg_mv, 1, span
                )
                if h_out > 0:
                    bottom_image |= 1 << (2 * c)
                elif h_out < 0:
                    bottom_image |= 1 << (2 * c + 1)
                if store:
                    phs.append(ph)
                    mhs.append(mh)
            keep = ~(span_mask << lo_base)
            pv = (pv & keep) | (seg_pv << lo_base)
            mv = (mv & keep) | (seg_mv << lo_base)
            if store:
                edges = _tile_column_edges(
                    seg_pv, seg_mv, phs, mhs, hi - lo + 1, len(p_chunks[hi]), tile
                )
                for ti, edge in enumerate(edges, start=lo):
                    matrix[(ti, tj)] = edge
            bottoms.append(bottom_image)
            self._account_banded_column(request, span, hi - lo + 1, len(text_chunk))
        return BandedMatrixResult(matrix=matrix, bottoms=bottoms)

    def _account_banded_column(
        self, request: BandedMatrixRequest, rows: int, tiles: int, cols: int
    ) -> None:
        """Retire one band column's worth of the ``pure`` instruction recipe."""
        isa = request.isa
        stats = request.stats
        edge_bytes = _edge_bytes(request.tile_size)
        isa.retired["csrw"] += tiles + 1
        isa.retired["gmx.v"] += tiles
        isa.retired["gmx.h"] += tiles
        stats.add_instr("int_alu", 5 * tiles + 6)
        stats.add_instr("branch", tiles + 1)
        stats.add_instr("load", 2 * tiles)
        stats.dp_bytes_read += 2 * edge_bytes * tiles
        if request.store_matrix:
            stats.add_instr("store", 2 * tiles)
            stats.dp_bytes_written += 2 * edge_bytes * tiles
        stats.dp_cells += rows * cols
        stats.tiles += tiles


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BackendSpec:
    """Registry entry for one kernel backend.

    Attributes:
        name: registry spelling (the aligners' ``backend=`` argument).
        factory: zero-argument constructor of the backend singleton.
        description: one-line summary for the eval badge.
    """

    name: str
    factory: Callable[[], KernelBackend]
    description: str


_REGISTRY: Dict[str, BackendSpec] = {}
_INSTANCES: Dict[str, KernelBackend] = {}


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    description: str = "",
) -> None:
    """Register a kernel backend under ``name``.

    Raises:
        BackendError: if the name is already taken.
    """
    if name in _REGISTRY:
        raise BackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = BackendSpec(
        name=name, factory=factory, description=description
    )


def backend_specs() -> Tuple[BackendSpec, ...]:
    """Every registered backend spec, in registration order."""
    return tuple(_REGISTRY.values())


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(
    backend: Union[None, str, KernelBackend] = None
) -> KernelBackend:
    """Resolve a backend selector to a backend instance.

    ``None`` is :data:`DEFAULT_BACKEND`; a string is looked up in the
    registry (instances are cached singletons); an instance passes
    through.

    Raises:
        BackendError: unknown name.
    """
    if isinstance(backend, KernelBackend):
        return backend
    if backend is None:
        backend = DEFAULT_BACKEND
    spec = _REGISTRY.get(backend)
    if spec is None:
        known = ", ".join(backend_names())
        raise BackendError(
            f"unknown kernel backend {backend!r} (registered: {known})"
        )
    if backend not in _INSTANCES:
        # The sanitizer session pre-warms and then guards this dict.
        _INSTANCES[backend] = spec.factory()  # dsan: allow[REPRO009] singleton fill
    return _INSTANCES[backend]


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


register_backend(
    "pure",
    PureTileBackend,
    description="reference engine: one ISA tile instruction per tile",
)
register_backend(
    "bitpar",
    BitparTileBackend,
    description="whole-pattern big-integer Myers/Hyyrö bitvectors",
)
