"""Window-conformance verification against the Hirschberg oracle.

A stitched chromosome-scale alignment is far too large to verify against
an O(n·m) oracle in one piece — but it does not have to be.  Exact-match
anchors of the stitched alignment are points the optimal path provably
passes through (if the stitch is correct); between two anchor midpoints
the stitched sub-alignment must therefore be an *optimal* alignment of
the sub-pattern against the sub-text.  This module cuts seeded random
windows at anchor midpoints and replays each one through the
linear-memory :class:`~repro.baselines.hirschberg.HirschbergAligner`:

* **score conformance** — the window's edit cost must equal the oracle's
  optimal score (a stitched path that wanders is caught here);
* **byte identity** — the window CIGAR must equal the oracle CIGAR after
  both are put in the canonical form of
  :func:`repro.align.chunked.canonicalize_ops` (co-optimal alignments
  differ only in tie-broken gap placement; canonicalisation removes
  exactly that freedom and nothing else).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..align.chunked import canonical_cigar, ops_to_runs, runs_to_cigar
from ..baselines.hirschberg import HirschbergAligner
from ..core.cigar import OP_DELETION, OP_INSERTION, OP_MATCH, edit_cost
from .errors import StreamError
from .stitch import StitchedAlignment


@dataclass(frozen=True)
class WindowCheck:
    """One verification window and its oracle verdict.

    Coordinates are absolute (query / reference); ``score_ok`` is the
    hard conformance bit, ``identical`` the canonical byte-identity bit.
    """

    query_start: int
    query_end: int
    ref_start: int
    ref_end: int
    window_score: int
    oracle_score: int
    window_cigar: str
    oracle_cigar: str
    identical: bool

    @property
    def score_ok(self) -> bool:
        return self.window_score == self.oracle_score

    @property
    def ok(self) -> bool:
        return self.score_ok and self.identical


def path_cut_points(
    stitched: StitchedAlignment, *, min_anchor: int = 16
) -> List[Tuple[int, int]]:
    """Anchor midpoints of the stitched path, as absolute ``(q, r)``.

    Only exact-match runs of at least ``min_anchor`` bases qualify —
    the optimal path cannot avoid a long exact run, so its midpoint is a
    sound window boundary.
    """
    points: List[Tuple[int, int]] = []
    q = 0
    r = stitched.text_start
    for op, length in stitched.runs:
        if op == OP_MATCH:
            if length >= min_anchor:
                mid = length // 2
                points.append((q + mid, r + mid))
            q += length
            r += length
        elif op == OP_DELETION:
            q += length
        elif op == OP_INSERTION:
            r += length
        else:
            q += length
            r += length
    return points


def window_ops(
    stitched: StitchedAlignment,
    qr_from: Tuple[int, int],
    qr_to: Tuple[int, int],
) -> List[str]:
    """The stitched ops between two on-path points (expanded)."""
    ops: List[str] = []
    q = 0
    r = stitched.text_start
    for op, length in stitched.runs:
        dq = length if op != OP_INSERTION else 0
        dr = length if op != OP_DELETION else 0
        take_from = 0
        if q < qr_from[0] or r < qr_from[1]:
            skip_q = qr_from[0] - q if dq else 0
            skip_r = qr_from[1] - r if dr else 0
            take_from = min(length, max(skip_q, skip_r))
        room_q = qr_to[0] - q if dq else length
        room_r = qr_to[1] - r if dr else length
        take_to = min(length, max(take_from, min(room_q, room_r)))
        if take_to > take_from:
            ops.extend([op] * (take_to - take_from))
        q += dq
        r += dr
        if q >= qr_to[0] and r >= qr_to[1]:
            break
    return ops


def verify_windows(
    stitched: StitchedAlignment,
    *,
    windows: int = 25,
    seed: int = 0,
    min_span: int = 128,
    max_span: int = 2048,
    min_anchor: int = 16,
    oracle: Optional[HirschbergAligner] = None,
) -> List[WindowCheck]:
    """Verify seeded random sub-windows against the Hirschberg oracle.

    Windows are cut at anchor midpoints with reference spans in
    ``[min_span, max_span]``.  Returns one :class:`WindowCheck` per
    verified window (possibly fewer than requested when the alignment
    has too few anchors to cut from); ``windows=0`` returns ``[]``.

    Raises:
        ValueError: ``windows`` is negative.
        StreamError: windows were requested but none can be cut — an
            alignment without two qualifying anchors a valid span apart
            is too weak to verify, and an empty check list would pass
            vacuously.
    """
    if windows < 0:
        raise ValueError(f"windows must be >= 0, got {windows}")
    points = path_cut_points(stitched, min_anchor=min_anchor)
    oracle = oracle if oracle is not None else HirschbergAligner()
    rng = random.Random(seed)
    refs = [r for _, r in points]
    chosen: List[Tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(points) > 1 and len(chosen) < windows and attempts < windows * 20:
        attempts += 1
        start = rng.randrange(len(points) - 1)
        lo = bisect_left(refs, refs[start] + min_span, start + 1)
        hi = bisect_left(refs, refs[start] + max_span + 1, start + 1)
        if lo >= hi:
            continue
        end = rng.randrange(lo, hi)
        if (start, end) in seen:
            continue
        seen.add((start, end))
        chosen.append((start, end))
    if windows and not chosen:
        raise StreamError(
            f"no verification window of reference span [{min_span}, "
            f"{max_span}] fits between the {len(points)} anchors "
            f"(min_anchor={min_anchor}) of the stitched alignment"
        )
    checks: List[WindowCheck] = []
    for start, end in chosen:
        q_lo, r_lo = points[start]
        q_hi, r_hi = points[end]
        sub_pattern = stitched.query[q_lo:q_hi]
        sub_text = stitched.text[
            r_lo - stitched.text_start:r_hi - stitched.text_start
        ]
        ops = window_ops(stitched, (q_lo, r_lo), (q_hi, r_hi))
        outcome = oracle.align(sub_pattern, sub_text, traceback=True)
        assert outcome.alignment is not None
        window_canonical = canonical_cigar(sub_pattern, sub_text, ops)
        oracle_canonical = canonical_cigar(
            sub_pattern, sub_text, outcome.alignment.ops
        )
        checks.append(
            WindowCheck(
                query_start=q_lo,
                query_end=q_hi,
                ref_start=r_lo,
                ref_end=r_hi,
                window_score=edit_cost(ops),
                oracle_score=outcome.score,
                window_cigar=runs_to_cigar(ops_to_runs(ops)),
                oracle_cigar=outcome.alignment.cigar,
                identical=window_canonical == oracle_canonical,
            )
        )
    return checks
