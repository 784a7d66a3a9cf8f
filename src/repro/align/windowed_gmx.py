"""Windowed alignment: overlapping-window heuristic (§4.1, Fig 4.b.3).

The windowed strategy (introduced by Darwin's GACT and adopted by GenASM)
starts a W×W window at the bottom-right of the DP matrix, aligns it fully,
commits the traceback up to an overlap margin of O cells from the window's
top/left edges, then re-anchors the window at the committed position and
repeats until it reaches the top-left corner.  The overlap absorbs path
divergence between windows; the result is a high-quality heuristic
alignment whose cost upper-bounds the true edit distance.

:class:`WindowedAligner` is generic over the *inner* aligner that solves
each window, which is how the paper's three windowed systems share one
driver in this library:

* ``Windowed(GMX)``        — inner Full(GMX), W = 3T, O = T;
* ``Windowed(GenASM-CPU)`` — inner Bitap (see :mod:`repro.baselines.genasm`);
* ``Darwin (GACT)``        — inner gap-affine DP (:mod:`repro.baselines.darwin`).
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.cigar import (
    Alignment,
    OP_DELETION,
    OP_INSERTION,
    OP_MATCH,
    OP_MISMATCH,
    edit_cost,
)
from ..core.tile import DEFAULT_TILE_SIZE
from ..obs import runtime as obs
from .backends import KernelBackend
from .base import Aligner, AlignmentResult, KernelStats
from .full_gmx import FullGmxAligner, _edge_bytes


class WindowedAligner(Aligner):
    """Overlapping-window heuristic driver around any full aligner.

    Args:
        inner: the aligner used to solve each W×W window (with traceback).
        window: W, the window side length in DP cells.
        overlap: O, the re-computed overlap between consecutive windows;
            must satisfy ``0 <= overlap < window``.
    """

    name = "Windowed"

    def __init__(self, inner: Aligner, window: int, overlap: int):
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        if not 0 <= overlap < window:
            raise ValueError(
                f"overlap must lie in [0, window), got {overlap} "
                f"with window {window}"
            )
        self.inner = inner
        self.window = window
        self.overlap = overlap

    @property
    def backend(self) -> "KernelBackend | None":
        """The inner aligner's kernel backend (None when it has none)."""
        return getattr(self.inner, "backend", None)

    @obs.instrument_align("windowed")
    def align(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> AlignmentResult:
        if not pattern or not text:
            raise ValueError("pattern and text must be non-empty")
        stats = KernelStats()
        window = self.window
        overlap = self.overlap
        remaining_p = len(pattern)  # un-committed pattern prefix length
        remaining_t = len(text)
        reversed_ops: List[str] = []
        windows = 0
        while remaining_p > 0 and remaining_t > 0:
            rows = min(window, remaining_p)
            cols = min(window, remaining_t)
            sub_pattern = pattern[remaining_p - rows : remaining_p]
            sub_text = text[remaining_t - cols : remaining_t]
            with obs.span("phase.window", kernel=self.name, rows=rows, cols=cols):
                window_result = self.inner.align(
                    sub_pattern, sub_text, traceback=True
                )
            stats.merge(window_result.stats)
            windows += 1
            obs.inc("align.windowed.windows")
            is_final = rows == remaining_p and cols == remaining_t
            ops_before = len(reversed_ops)
            committed_p, committed_t = self._commit(
                window_result.alignment.ops,
                rows,
                cols,
                reversed_ops,
                final=is_final,
                limit_i=0 if rows == remaining_p else overlap,
                limit_j=0 if cols == remaining_t else overlap,
            )
            remaining_p -= committed_p
            remaining_t -= committed_t
            # Software driver work: window setup/re-anchoring and the
            # commit bookkeeping.  The commit point is derived from the
            # gmx_pos chain (tile granularity), not by decoding every op,
            # so the cost is per window, not per operation.
            del ops_before
            stats.add_instr("int_alu", 40)
            stats.add_instr("branch", 6)
        reversed_ops.extend([OP_DELETION] * remaining_p)
        reversed_ops.extend([OP_INSERTION] * remaining_t)
        ops = tuple(reversed(reversed_ops))
        score = edit_cost(ops)
        # Only one window of DP state is ever live.
        stats.dp_bytes_peak = self._window_state_bytes()
        stats.hot_bytes = self._window_state_bytes()
        alignment = None
        if traceback:
            alignment = Alignment(pattern=pattern, text=text, ops=ops, score=score)
        return AlignmentResult(
            score=score, alignment=alignment, stats=stats, exact=False
        )

    def _window_state_bytes(self) -> int:
        """Peak DP-state bytes of one window (subclasses refine)."""
        return 4 * self.window * self.window

    @staticmethod
    def _commit(
        window_ops,
        rows: int,
        cols: int,
        reversed_ops: List[str],
        *,
        final: bool,
        limit_i: int,
        limit_j: int,
    ) -> Tuple[int, int]:
        """Commit the window traceback up to the overlap margin.

        ``window_ops`` are in pattern→text order for the window; the walk
        re-traverses them backwards from the window's bottom-right corner
        and stops once the position crosses into the overlap margin
        (``i <= limit_i`` or ``j <= limit_j``), unless the window is final.
        At least one operation is always committed to guarantee progress.

        Returns:
            (pattern_chars_committed, text_chars_committed).
        """
        i = rows  # rows of the window still un-walked
        j = cols
        committed_p = 0
        committed_t = 0
        for op in reversed(window_ops):
            if not final and committed_p + committed_t > 0:
                if i <= limit_i or j <= limit_j:
                    break
            reversed_ops.append(op)
            if op in (OP_MATCH, OP_MISMATCH):
                i -= 1
                j -= 1
                committed_p += 1
                committed_t += 1
            elif op == OP_DELETION:
                i -= 1
                committed_p += 1
            else:
                j -= 1
                committed_t += 1
        return committed_p, committed_t


class WindowedGmxAligner(WindowedAligner):
    """Windowed(GMX): windows solved tile-wise with Full(GMX).

    Paper defaults W = 3T and O = T (W = 96, O = 32 in the DSA comparison),
    so a window is a 3×3 block of tiles whose edge vectors stay in
    registers — Windowed(GMX) keeps almost no DP state in memory (§7.2).

    Args:
        window: W (default 3·T).
        overlap: O (default T).
        tile_size: T, the GMX tile dimension.
        trace_sink: when given, every window's Full(GMX) run appends its
            retired instruction stream to this list (one program per
            window) for the static program verifier.
        backend: name of the kernel backend for the inner Full(GMX)
            windows; ``None`` is ``bitpar`` (see :mod:`repro.align.backends`).
    """

    name = "Windowed(GMX)"

    def __init__(
        self,
        window: int | None = None,
        overlap: int | None = None,
        *,
        tile_size: int = DEFAULT_TILE_SIZE,
        trace_sink: List | None = None,
        backend: "str | None" = None,
    ):
        self.tile_size = tile_size
        super().__init__(
            inner=FullGmxAligner(
                tile_size=tile_size, trace_sink=trace_sink, backend=backend
            ),
            window=window if window is not None else 3 * tile_size,
            overlap=overlap if overlap is not None else tile_size,
        )

    def _window_state_bytes(self) -> int:
        tiles_per_side = -(-self.window // self.tile_size)
        return 2 * _edge_bytes(self.tile_size) * tiles_per_side**2
