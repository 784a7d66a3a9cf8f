"""Gap-affine alignment (Gotoh / KSW2-like) — the Figure-3 comparator.

Implements global alignment under gap-affine penalties (match / mismatch /
gap-open / gap-extend, minimisation form) three ways:

* :func:`affine_score` — exact score via NumPy-vectorised antidiagonals
  (O(nm) cells, three matrices, no traceback storage; NumPy is imported
  only when one of these scores is computed);
* :func:`affine_score_banded` — the banded heuristic (KSW2's ``-w`` band in
  Minimap2), optionally with a Z-drop early exit; may miss the optimum;
* :class:`AffineAligner` — full Gotoh with traceback (pure Python; used for
  Darwin's GACT windows and for tests).

Penalty defaults follow the common short-read preset (0 / 4 / 6 / 2), the
same shape as KSW2's defaults; the paper's Figure 3 measures how far
edit-distance alignments deviate from the optimum under such a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..align.base import Aligner, AlignmentResult, KernelStats
from ..core.cigar import (
    Alignment,
    OP_DELETION,
    OP_INSERTION,
    OP_MATCH,
    OP_MISMATCH,
    edit_cost,
)

if TYPE_CHECKING:
    import numpy

#: Sentinel for unreachable DP states (safe against int32 overflow).
INF = 1 << 28


@dataclass(frozen=True)
class AffinePenalties:
    """Gap-affine penalty set (minimisation: lower is better).

    A gap of length ℓ costs ``gap_open + ℓ · gap_extend``.  An optional
    substitution matrix refines the flat mismatch penalty per character
    pair — e.g. the transition/transversion weighting of
    :func:`transition_transversion_matrix`, or any protein cost matrix.
    Unlisted pairs fall back to match/mismatch.
    """

    match: int = 0
    mismatch: int = 4
    gap_open: int = 6
    gap_extend: int = 2
    matrix: Optional[Mapping[Tuple[str, str], int]] = None

    def gap(self, length: int) -> int:
        """Penalty of a gap of the given length."""
        return self.gap_open + length * self.gap_extend if length else 0

    def substitution(self, a: str, b: str) -> int:
        """Cost of aligning character ``a`` (pattern) with ``b`` (text)."""
        if self.matrix is not None:
            cost = self.matrix.get((a, b))
            if cost is None:
                cost = self.matrix.get((b, a))
            if cost is not None:
                return cost
        return self.match if a == b else self.mismatch

    def substitution_table(self) -> numpy.ndarray:
        """128×128 cost lookup over byte codes (for vectorised kernels)."""
        import numpy as np

        table = np.full((128, 128), self.mismatch, dtype=np.int64)
        np.fill_diagonal(table, self.match)
        if self.matrix is not None:
            for (a, b), cost in self.matrix.items():
                table[ord(a) & 127, ord(b) & 127] = cost
                table[ord(b) & 127, ord(a) & 127] = cost
        return table


def transition_transversion_matrix(
    transition: int = 2, transversion: int = 4
) -> Dict[Tuple[str, str], int]:
    """DNA substitution costs weighting transitions below transversions.

    Transitions (A↔G, C↔T) are chemically alike and far more frequent in
    real genomes, so weighted edit models price them lower — the standard
    refinement over flat mismatch costs (§2.4's "weighted distance
    functions ... capture meaningful biological insights").
    """
    if not 0 < transition <= transversion:
        raise ValueError(
            f"need 0 < transition ≤ transversion, got {transition}/{transversion}"
        )
    matrix: Dict[Tuple[str, str], int] = {}
    purines = "AG"
    pyrimidines = "CT"
    for a in "ACGT":
        for b in "ACGT":
            if a == b:
                continue
            alike = (a in purines and b in purines) or (
                a in pyrimidines and b in pyrimidines
            )
            matrix[(a, b)] = transition if alike else transversion
    return matrix


def _codes(sequence: str) -> numpy.ndarray:
    import numpy as np

    return np.frombuffer(sequence.encode("latin-1"), dtype=np.uint8)


def _antidiagonal_pass(
    pattern: str,
    text: str,
    penalties: AffinePenalties,
    band: Optional[int],
    zdrop: Optional[int],
) -> int:
    """Shared antidiagonal engine for full and banded affine scores.

    Returns INF when a band/Z-drop heuristic cut the corner off.
    """
    import numpy as np

    n = len(pattern)
    m = len(text)
    p_codes = _codes(pattern)
    t_codes = _codes(text)
    oe = penalties.gap_open + penalties.gap_extend
    extend = penalties.gap_extend
    sub_x = penalties.mismatch
    sub_m = penalties.match
    sub_table = (
        penalties.substitution_table() if penalties.matrix is not None else None
    )

    # Arrays are indexed by i (pattern position, 0..n) per antidiagonal d.
    h_prev2 = np.full(n + 1, INF, dtype=np.int64)
    h_prev1 = np.full(n + 1, INF, dtype=np.int64)
    e_prev1 = np.full(n + 1, INF, dtype=np.int64)
    f_prev1 = np.full(n + 1, INF, dtype=np.int64)
    h_prev2[0] = 0  # H[0][0]
    if n >= 1:
        h_prev1[1] = penalties.gap(1)  # H[1][0]
        f_prev1[1] = penalties.gap(1)
    h_prev1[0] = penalties.gap(1) if m >= 1 else INF  # H[0][1]
    e_prev1[0] = penalties.gap(1) if m >= 1 else INF
    best_seen = 0
    for d in range(2, n + m + 1):
        h_cur = np.full(n + 1, INF, dtype=np.int64)
        e_cur = np.full(n + 1, INF, dtype=np.int64)
        f_cur = np.full(n + 1, INF, dtype=np.int64)
        i_lo = max(1, d - m)
        i_hi = min(n, d - 1)  # interior cells (j ≥ 1)
        if band is not None:
            # |i - j| ≤ band with j = d - i  ⇒  (d - band)/2 ≤ i ≤ (d + band)/2
            i_lo = max(i_lo, -(-(d - band) // 2))
            i_hi = min(i_hi, (d + band) // 2)
        if i_lo <= i_hi:
            sl = slice(i_lo, i_hi + 1)
            e_cur[sl] = np.minimum(h_prev1[sl] + oe, e_prev1[sl] + extend)
            sl_up = slice(i_lo - 1, i_hi)
            f_cur[sl] = np.minimum(h_prev1[sl_up] + oe, f_prev1[sl_up] + extend)
            p_slice = p_codes[i_lo - 1 : i_hi]
            t_slice = t_codes[d - i_hi - 1 : d - i_lo][::-1]
            if sub_table is None:
                sub = np.where(p_slice == t_slice, sub_m, sub_x)
            else:
                sub = sub_table[p_slice & 127, t_slice & 127]
            diag = h_prev2[i_lo - 1 : i_hi] + sub
            h_cur[sl] = np.minimum(np.minimum(e_cur[sl], f_cur[sl]), diag)
        # Boundary cells of this antidiagonal.
        if d <= m and (band is None or d <= band):
            h_cur[0] = penalties.gap(d)
            e_cur[0] = penalties.gap(d)
        if d <= n and (band is None or d <= band):
            h_cur[d] = penalties.gap(d)
            f_cur[d] = penalties.gap(d)
        if zdrop is not None:
            diag_min = int(h_cur.min())
            if diag_min >= INF:
                return INF
            best_seen = min(best_seen, diag_min)
            if diag_min > best_seen + zdrop:
                return INF
        h_prev2 = h_prev1
        h_prev1 = h_cur
        e_prev1 = e_cur
        f_prev1 = f_cur
    final = h_prev1 if n + m >= 1 else h_prev2
    return int(final[n]) if final[n] < INF else INF


def affine_score(
    pattern: str, text: str, penalties: AffinePenalties = AffinePenalties()
) -> int:
    """Exact global gap-affine penalty of the optimal alignment."""
    if not pattern or not text:
        raise ValueError("pattern and text must be non-empty")
    return _antidiagonal_pass(pattern, text, penalties, band=None, zdrop=None)


def affine_score_banded(
    pattern: str,
    text: str,
    band: int,
    penalties: AffinePenalties = AffinePenalties(),
    zdrop: Optional[int] = None,
) -> int:
    """Banded (and optionally Z-dropped) gap-affine penalty.

    Mirrors Minimap2's banded KSW2: exact when the optimal path stays within
    ``band`` of the diagonal, otherwise an over-estimate; returns
    :data:`INF` when the heuristics disconnect the corner.
    """
    if not pattern or not text:
        raise ValueError("pattern and text must be non-empty")
    if band < abs(len(pattern) - len(text)):
        return INF
    return _antidiagonal_pass(pattern, text, penalties, band=band, zdrop=zdrop)


class AffineAligner(Aligner):
    """Full Gotoh gap-affine aligner with traceback.

    Conventions: :attr:`AlignmentResult.score` carries the *affine penalty*;
    the embedded :class:`Alignment` carries its own edit cost (so that
    ``Alignment.validate`` remains meaningful).  Pure Python — intended for
    window-sized problems (Darwin GACT) and for tests; use
    :func:`affine_score` for big score-only runs.
    """

    name = "KSW2(affine)"

    def __init__(self, penalties: AffinePenalties = AffinePenalties()):
        self.penalties = penalties

    def align(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> AlignmentResult:
        if not pattern or not text:
            raise ValueError("pattern and text must be non-empty")
        pen = self.penalties
        n = len(pattern)
        m = len(text)
        stats = KernelStats()
        stats.dp_cells = n * m
        stats.add_instr("int_alu", 12 * n * m)
        stats.add_instr("load", 3 * n * m)
        stats.add_instr("store", 3 * n * m)
        stats.dp_bytes_written += 12 * n * m
        stats.dp_bytes_read += 24 * n * m
        stats.dp_bytes_peak = 12 * (n + 1) * (m + 1) if traceback else 24 * (m + 1)
        stats.hot_bytes = 24 * (m + 1)
        oe = pen.gap_open + pen.gap_extend
        ext = pen.gap_extend
        h = [[INF] * (m + 1) for _ in range(n + 1)]
        e = [[INF] * (m + 1) for _ in range(n + 1)]
        f = [[INF] * (m + 1) for _ in range(n + 1)]
        h[0][0] = 0
        for j in range(1, m + 1):
            e[0][j] = pen.gap(j)
            h[0][j] = e[0][j]
        for i in range(1, n + 1):
            f[i][0] = pen.gap(i)
            h[i][0] = f[i][0]
        for i in range(1, n + 1):
            p_char = pattern[i - 1]
            for j in range(1, m + 1):
                e[i][j] = min(h[i][j - 1] + oe, e[i][j - 1] + ext)
                f[i][j] = min(h[i - 1][j] + oe, f[i - 1][j] + ext)
                sub = pen.substitution(p_char, text[j - 1])
                h[i][j] = min(h[i - 1][j - 1] + sub, e[i][j], f[i][j])
        penalty = h[n][m]
        alignment = None
        if traceback:
            ops = self._traceback(pattern, text, h, e, f)
            alignment = Alignment(
                pattern=pattern, text=text, ops=tuple(ops), score=edit_cost(ops)
            )
        return AlignmentResult(
            score=penalty, alignment=alignment, stats=stats, exact=True
        )

    def _traceback(
        self,
        pattern: str,
        text: str,
        h: List[List[int]],
        e: List[List[int]],
        f: List[List[int]],
    ) -> List[str]:
        pen = self.penalties
        oe = pen.gap_open + pen.gap_extend
        ext = pen.gap_extend
        i = len(pattern)
        j = len(text)
        state = "H"
        reversed_ops: List[str] = []
        while i > 0 and j > 0:
            if state == "H":
                sub = pen.substitution(pattern[i - 1], text[j - 1])
                if h[i][j] == h[i - 1][j - 1] + sub:
                    reversed_ops.append(
                        OP_MATCH if pattern[i - 1] == text[j - 1] else OP_MISMATCH
                    )
                    i -= 1
                    j -= 1
                elif h[i][j] == e[i][j]:
                    state = "E"
                else:
                    state = "F"
            elif state == "E":
                reversed_ops.append(OP_INSERTION)
                if e[i][j] == e[i][j - 1] + ext:
                    j -= 1
                else:
                    j -= 1
                    state = "H"
            else:  # state == "F"
                reversed_ops.append(OP_DELETION)
                if f[i][j] == f[i - 1][j] + ext:
                    i -= 1
                else:
                    i -= 1
                    state = "H"
        reversed_ops.extend([OP_DELETION] * i)
        reversed_ops.extend([OP_INSERTION] * j)
        reversed_ops.reverse()
        return reversed_ops
