"""Deterministic overlap reconciliation of per-chunk alignments.

Each candidate chunk is aligned GLOBALly — query span against reference
window — by whatever engine the pipeline chose.  This module turns those
per-chunk alignments back into **one** global alignment:

* results arrive in job order — every engine returns them that way,
  and :meth:`Stitcher.submit` rejects any other order;
* neighbouring chunks share ``overlap`` reference bases; both of their
  alignments are searched for **common anchors** — maximal exact-match
  runs on the same (query, reference) diagonal that both alignments
  produced inside the shared region.  The longest common run (ties to
  the smallest reference position) is cut at its midpoint and the commit
  switches from one chunk's path to the next there — deterministic, and
  independent of which engine aligned which chunk;
* when no common anchor exists (divergent overlap, an ``N`` desert, or a
  skipped window) the seam is **bridge-repaired**: the query segment
  between the last trusted anchor of the left chunk and the first
  trusted anchor of the right chunk is realigned exactly with the
  linear-memory Hirschberg baseline — O(seam) memory, bounded by the
  chunk geometry;
* window slack — reference bases the candidate windows cover before the
  first and after the last query base — is removed by **flank repair**:
  the path before the first trusted anchor (and after the last) is
  realigned with a free-text-flank formulation, so ``text_start`` /
  ``text_end`` tighten to the query's true locus and the stitched CIGAR
  does not depend on where windows happened to start.

Memory: the stitcher holds the committed run-length CIGAR (O(runs)),
the covered reference text (O(query), for validation), and one pending
chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..align.chunked import (
    Run,
    append_run,
    ops_to_runs,
    runs_to_cigar,
    runs_to_ops,
)
from ..baselines.hirschberg import HirschbergAligner
from ..core.cigar import (
    OP_DELETION,
    OP_INSERTION,
    OP_MATCH,
    OP_MISMATCH,
    Alignment,
    edit_cost,
)
from ..obs import runtime as obs
from .errors import StreamError

# Flank repair is an O(flank_query × flank_text) DP; past this many
# cells (a pathological, mostly-unmapped flank) the repair is skipped
# and the raw — still valid, just looser — flank path is kept.
FLANK_REPAIR_CELL_CAP = 1 << 22


def _free_entry(pattern: str, text: str) -> Tuple[int, int]:
    """Best free-prefix entry: ``min_e cost(pattern, text[e:])``.

    Returns ``(cost, e)``; ties prefer the largest ``e`` (tightest
    covered span), so the result is deterministic.
    """
    m = len(text)
    prev_cost = [0] * (m + 1)
    prev_start = list(range(m + 1))
    for ch in pattern:
        cur_cost = [prev_cost[0] + 1]
        cur_start = [prev_start[0]]
        for j in range(1, m + 1):
            best = prev_cost[j - 1] + (0 if ch == text[j - 1] else 1)
            start = prev_start[j - 1]
            up = prev_cost[j] + 1
            if up < best or (up == best and prev_start[j] > start):
                best, start = up, prev_start[j]
            left = cur_cost[j - 1] + 1
            if left < best or (left == best and cur_start[j - 1] > start):
                best, start = left, cur_start[j - 1]
            cur_cost.append(best)
            cur_start.append(start)
        prev_cost, prev_start = cur_cost, cur_start
    return prev_cost[m], prev_start[m]


def _free_exit(pattern: str, text: str) -> Tuple[int, int]:
    """Best free-suffix exit: ``min_x cost(pattern, text[:x])``.

    Returns ``(cost, x)``; ties prefer the smallest ``x`` (tightest
    covered span).
    """
    m = len(text)
    prev = list(range(m + 1))
    for ch in pattern:
        cur = [prev[0] + 1]
        for j in range(1, m + 1):
            best = prev[j - 1] + (0 if ch == text[j - 1] else 1)
            up = prev[j] + 1
            if up < best:
                best = up
            left = cur[j - 1] + 1
            if left < best:
                best = left
            cur.append(best)
        prev = cur
    exit_at = min(range(m + 1), key=lambda j: (prev[j], j))
    return prev[exit_at], exit_at


@dataclass(frozen=True)
class ChunkJob:
    """One chunk-alignment work item: a query span vs a reference window.

    Attributes:
        order: dense submission sequence number among candidate jobs —
            the stitcher consumes jobs in this order.
        chunk_index: index of the originating :class:`ReferenceChunk`.
        ref_start / ref_end: absolute reference window.
        query_start / query_end: absolute query span predicted by the
            window vote.
        pattern: ``query[query_start:query_end]``.
        text: ``reference[ref_start:ref_end]``.
        votes: filter votes that promoted this chunk.
        diagonal: winning diagonal of the vote.
    """

    order: int
    chunk_index: int
    ref_start: int
    ref_end: int
    query_start: int
    query_end: int
    pattern: str
    text: str
    votes: int
    diagonal: int


@dataclass(frozen=True)
class ChunkAlignment:
    """A chunk job plus its GLOBAL alignment (pattern vs window text)."""

    job: ChunkJob
    ops: Tuple[str, ...]
    score: int


@dataclass(frozen=True)
class Anchor:
    """A maximal exact-match run of one chunk alignment.

    ``query``/``ref`` are absolute start coordinates; the run spans
    ``length`` bases on the diagonal ``ref - query``.
    """

    query: int
    ref: int
    length: int

    @property
    def diagonal(self) -> int:
        return self.ref - self.query

    @property
    def ref_end(self) -> int:
        return self.ref + self.length


@dataclass
class StitchCounters:
    """Accounting of one stitched alignment (all deterministic)."""

    chunks: int = 0
    anchor_seams: int = 0
    bridge_seams: int = 0
    bridge_columns: int = 0
    skipped_alignments: int = 0
    head_unmapped: int = 0
    tail_unmapped: int = 0


@dataclass
class StitchedAlignment:
    """The reassembled global alignment.

    ``text_start/text_end`` delimit the covered reference span; ``text``
    is exactly ``reference[text_start:text_end]``, reassembled from the
    committed windows.  ``runs`` is the run-length CIGAR over the whole
    query against that span.
    """

    query: str
    runs: List[Run]
    score: int
    text_start: int
    text_end: int
    text: str
    counters: StitchCounters = field(default_factory=StitchCounters)

    @property
    def cigar(self) -> str:
        return runs_to_cigar(self.runs)

    def to_alignment(self) -> Alignment:
        """Expand into a validatable :class:`~repro.core.cigar.Alignment`."""
        return Alignment(
            pattern=self.query,
            text=self.text,
            ops=tuple(runs_to_ops(self.runs)),
            score=self.score,
        )


class _Pending:
    """The most recent accepted chunk, not yet (fully) committed."""

    __slots__ = ("chunk", "runs", "entry_q", "entry_r", "anchors")

    def __init__(
        self,
        chunk: ChunkAlignment,
        entry_q: int,
        entry_r: int,
        anchors: List[Anchor],
    ) -> None:
        self.chunk = chunk
        self.runs = ops_to_runs(chunk.ops)
        self.entry_q = entry_q
        self.entry_r = entry_r
        self.anchors = anchors


def find_anchors(
    chunk: ChunkAlignment, *, min_anchor: int
) -> List[Anchor]:
    """Maximal M-runs of at least ``min_anchor`` bases, absolute coords."""
    anchors: List[Anchor] = []
    q = chunk.job.query_start
    r = chunk.job.ref_start
    for op, length in ops_to_runs(chunk.ops):
        if op == OP_MATCH:
            if length >= min_anchor:
                anchors.append(Anchor(query=q, ref=r, length=length))
            q += length
            r += length
        elif op == OP_MISMATCH:
            q += length
            r += length
        elif op == OP_DELETION:
            q += length
        else:
            r += length
    return anchors


def common_anchor(
    left: Sequence[Anchor],
    right: Sequence[Anchor],
    *,
    lo: int,
    hi: int,
    min_anchor: int,
) -> Optional[Tuple[int, int, int]]:
    """Longest reference interval both sides match identically.

    Considers anchor pairs on the same diagonal, intersects their
    reference intervals with each other and with ``[lo, hi)``, and
    returns ``(ref_start, ref_end, diagonal)`` of the longest surviving
    interval of at least ``min_anchor`` bases — ties broken toward the
    smallest reference position, so the cut is deterministic regardless
    of engine or arrival order.  ``None`` when no such interval exists.
    """
    best: Optional[Tuple[int, int, int]] = None
    best_key: Optional[Tuple[int, int]] = None
    for a in left:
        for b in right:
            if a.diagonal != b.diagonal:
                continue
            start = max(a.ref, b.ref, lo)
            end = min(a.ref_end, b.ref_end, hi)
            if end - start < min_anchor:
                continue
            key = (-(end - start), start)
            if best_key is None or key < best_key:
                best_key = key
                best = (start, end, a.diagonal)
    return best


class Stitcher:
    """Merge per-chunk alignments into one global alignment.

    Results are :meth:`submit`-ted in job order; :meth:`finish` seals
    the stream and returns the replay-validated
    :class:`StitchedAlignment`.
    """

    def __init__(self, query: str, *, min_anchor: int = 12) -> None:
        if not query:
            raise StreamError("cannot stitch an empty query")
        if min_anchor < 1:
            raise ValueError(f"min_anchor must be >= 1, got {min_anchor}")
        self.query = query
        self.min_anchor = min_anchor
        self._bridge_aligner = HirschbergAligner()
        self._next_order = 0
        self._pending: Optional[_Pending] = None
        # Skipped-but-contiguous chunks parked between seams: their
        # windows are still needed to assemble bridge reference text.
        self._parked: List[ChunkAlignment] = []
        self._runs: List[Run] = []
        self._text_parts: List[str] = []
        self._text_start: Optional[int] = None
        self._finished = False
        self.counters = StitchCounters()

    # -- submission ------------------------------------------------------

    def submit(self, result: ChunkAlignment) -> None:
        """Accept the next chunk alignment in job order."""
        if self._finished:
            raise StreamError("stitcher already finished")
        order = result.job.order
        if order < self._next_order:
            raise StreamError(
                f"chunk order {order} submitted twice (next expected "
                f"{self._next_order})"
            )
        if order > self._next_order:
            raise StreamError(
                f"chunk order {order} submitted before order "
                f"{self._next_order}: results must arrive in job order"
            )
        self._next_order += 1
        anchors = find_anchors(result, min_anchor=self.min_anchor)
        with obs.span(
            "stream.stitch",
            chunk=result.job.chunk_index,
            anchors=len(anchors),
        ):
            if self._pending is None:
                self._accept_first(result, anchors)
            else:
                self._reconcile(result, anchors)

    def finish(self) -> StitchedAlignment:
        """Seal the stream and return the validated global alignment."""
        if self._finished:
            raise StreamError("stitcher already finished")
        self._finished = True
        if self._pending is None:
            raise StreamError(
                "no usable chunk alignment: the query anchored nowhere "
                "in the reference"
            )
        with obs.span("stream.stitch", seam="final"):
            frontier_q, frontier_r = self._commit_pending(None, None)
            tail = len(self.query) - frontier_q
            if tail:
                # Query tail beyond the last committed window: unmapped,
                # consumed as deletions so the alignment stays global.
                append_run(self._runs, OP_DELETION, tail)
            runs = self._runs
            text = "".join(self._text_parts)
            text_start = self._text_start
            assert text_start is not None
            runs, text, text_start = self._repair_head(runs, text, text_start)
            runs, text = self._repair_tail(runs, text)
        self.counters.head_unmapped = (
            runs[0][1] if runs and runs[0][0] == OP_DELETION else 0
        )
        self.counters.tail_unmapped = (
            runs[-1][1] if runs and runs[-1][0] == OP_DELETION else 0
        )
        stitched = StitchedAlignment(
            query=self.query,
            runs=runs,
            score=edit_cost(runs_to_ops(runs)),
            text_start=text_start,
            text_end=text_start + len(text),
            text=text,
            counters=self.counters,
        )
        stitched.to_alignment().validate()
        return stitched

    # -- flank repair ----------------------------------------------------

    def _repair_head(
        self, runs: List[Run], text: str, text_start: int
    ) -> Tuple[List[Run], str, int]:
        """Realign the path before the first trusted anchor.

        The per-chunk GLOBAL alignments are forced to consume their whole
        window, so slack reference before the query's true locus can end
        up scattered through the head of the path instead of forming a
        trimmable leading insertion run.  The head is replaced with the
        optimal free-prefix alignment (leading reference is free), which
        both tightens ``text_start`` and makes the head independent of
        where the first window happened to start.
        """
        q = roff = idx = 0
        for op, length in runs:
            if op == OP_MATCH and length >= self.min_anchor:
                break
            if op != OP_INSERTION:
                q += length
            if op != OP_DELETION:
                roff += length
            idx += 1
        else:
            return runs, text, text_start
        if roff == 0 or q * roff > FLANK_REPAIR_CELL_CAP:
            return runs, text, text_start
        _, entry = _free_entry(self.query[:q], text[:roff])
        head = self._align_bridge(self.query[:q], text[entry:roff])
        repaired = list(head)
        for op, length in runs[idx:]:
            append_run(repaired, op, length)
        return repaired, text[entry:], text_start + entry

    def _repair_tail(
        self, runs: List[Run], text: str
    ) -> Tuple[List[Run], str]:
        """Realign the path after the last trusted anchor (mirror of
        :meth:`_repair_head`: trailing reference is free)."""
        q = roff = 0
        anchor_at: Optional[Tuple[int, int, int]] = None
        for idx, (op, length) in enumerate(runs):
            if op != OP_INSERTION:
                q += length
            if op != OP_DELETION:
                roff += length
            if op == OP_MATCH and length >= self.min_anchor:
                anchor_at = (idx, q, roff)
        if anchor_at is None:
            return runs, text
        idx, q, roff = anchor_at
        tail_q = len(self.query) - q
        tail_r = len(text) - roff
        if tail_r == 0 or tail_q * tail_r > FLANK_REPAIR_CELL_CAP:
            return runs, text
        _, exit_at = _free_exit(self.query[q:], text[roff:])
        tail = self._align_bridge(self.query[q:], text[roff:roff + exit_at])
        repaired = list(runs[:idx + 1])
        for op, length in tail:
            append_run(repaired, op, length)
        return repaired, text[:roff + exit_at]

    # -- internals -------------------------------------------------------

    def _accept_first(
        self, result: ChunkAlignment, anchors: List[Anchor]
    ) -> None:
        if not anchors:
            # A first chunk with no exact-match run of anchor length is
            # indistinguishable from a spurious vote; wait for a real one.
            self.counters.skipped_alignments += 1
            return
        job = result.job
        # Window slack before the first query base is not alignment.
        runs = ops_to_runs(result.ops)
        leading = runs[0][1] if runs and runs[0][0] == OP_INSERTION else 0
        entry_q = job.query_start
        entry_r = job.ref_start + leading
        self._text_start = entry_r
        if entry_q:
            # Query head that precedes every candidate window: unmapped,
            # consumed as deletions (mirrors the tail rule in finish()).
            append_run(self._runs, OP_DELETION, entry_q)
            self.counters.head_unmapped = entry_q
        self._pending = _Pending(result, entry_q, entry_r, anchors)
        self.counters.chunks += 1

    def _reconcile(
        self, result: ChunkAlignment, anchors: List[Anchor]
    ) -> None:
        pending = self._pending
        assert pending is not None
        job = result.job
        prev_job = pending.chunk.job
        covered_to = max(
            [prev_job.ref_end] + [p.job.ref_end for p in self._parked]
        )
        if job.ref_start > covered_to:
            raise StreamError(
                f"chunk {job.chunk_index} window starts at {job.ref_start}, "
                f"past the covered reference end {covered_to}: chunk "
                "jobs must cover the reference contiguously"
            )
        cut = common_anchor(
            pending.anchors,
            anchors,
            lo=max(job.ref_start, pending.entry_r + 1),
            hi=prev_job.ref_end,
            min_anchor=self.min_anchor,
        )
        if cut is not None:
            lo, hi, diagonal = cut
            r_cut = lo + (hi - lo) // 2
            q_cut = r_cut - diagonal
            if q_cut > pending.entry_q and r_cut > pending.entry_r:
                self._commit_pending(q_cut, r_cut)
                self._pending = _Pending(result, q_cut, r_cut, anchors)
                self._parked.clear()
                self.counters.chunks += 1
                self.counters.anchor_seams += 1
                return
        self._bridge(result, anchors)

    def _bridge(
        self, result: ChunkAlignment, anchors: List[Anchor]
    ) -> None:
        """Repair a seam with no common anchor by exact realignment."""
        pending = self._pending
        assert pending is not None
        job = result.job
        prev_job = pending.chunk.job
        # Last trusted point of the left chunk: midpoint of its last
        # anchor before the shared region (its own right edge is exactly
        # where its path went wrong), falling back to the entry point.
        left_cut: Tuple[int, int] = (pending.entry_q, pending.entry_r)
        for anchor in pending.anchors:
            mid = anchor.ref + anchor.length // 2
            if mid >= job.ref_start:
                continue
            if mid > left_cut[1] and (mid - anchor.diagonal) > left_cut[0]:
                left_cut = (mid - anchor.diagonal, mid)
        # First trusted point of the right chunk: midpoint of its first
        # anchor past the shared region (its own left edge is suspect),
        # falling back to any anchor strictly past the left cut.
        right_cut: Optional[Tuple[int, int]] = None
        for threshold in (prev_job.ref_end, left_cut[1] + 1):
            for anchor in anchors:
                mid = anchor.ref + anchor.length // 2
                if mid < threshold:
                    continue
                if mid > left_cut[1] and (mid - anchor.diagonal) > left_cut[0]:
                    right_cut = (mid - anchor.diagonal, mid)
                    break
            if right_cut is not None:
                break
        if right_cut is None:
            # Nothing trustworthy in this chunk at all; park it (its
            # window may still serve bridge text) and let the next chunk
            # — or finish() — close the seam.
            self._parked.append(result)
            self.counters.skipped_alignments += 1
            return
        self._commit_pending(*left_cut)
        bridge_text = self._assemble_text(
            left_cut[1],
            right_cut[1],
            [pending.chunk] + self._parked + [result],
        )
        bridge_query = self.query[left_cut[0]:right_cut[0]]
        runs = self._align_bridge(bridge_query, bridge_text)
        for op, length in runs:
            append_run(self._runs, op, length)
        self._text_parts.append(bridge_text)
        self.counters.bridge_seams += 1
        self.counters.bridge_columns += sum(length for _, length in runs)
        self._pending = _Pending(result, right_cut[0], right_cut[1], anchors)
        self._parked.clear()
        self.counters.chunks += 1

    def _align_bridge(self, pattern: str, text: str) -> List[Run]:
        if not pattern and not text:
            return []
        if not pattern:
            return [(OP_INSERTION, len(text))]
        if not text:
            return [(OP_DELETION, len(pattern))]
        outcome = self._bridge_aligner.align(pattern, text, traceback=True)
        assert outcome.alignment is not None
        return ops_to_runs(outcome.alignment.ops)

    @staticmethod
    def _assemble_text(
        lo: int, hi: int, chunks: Sequence[ChunkAlignment]
    ) -> str:
        """Reference bases ``[lo, hi)`` reassembled from chunk windows."""
        parts: List[str] = []
        position = lo
        for chunk in chunks:
            job = chunk.job
            if position >= hi:
                break
            if position < job.ref_start or position >= job.ref_end:
                continue
            end = min(hi, job.ref_end)
            parts.append(
                job.text[position - job.ref_start:end - job.ref_start]
            )
            position = end
        if position < hi:
            raise StreamError(
                f"bridge [{lo}, {hi}) not fully covered by the available "
                f"chunk windows (reached {position})"
            )
        return "".join(parts)

    def _commit_pending(
        self, q_to: Optional[int], r_to: Optional[int]
    ) -> Tuple[int, int]:
        """Commit the pending chunk's path from its entry to the cut.

        ``None`` cut commits to the end of the chunk's path, trimming the
        trailing insertion run (window slack past the last query base).
        Returns the new committed frontier ``(q, r)``.
        """
        pending = self._pending
        assert pending is not None
        job = pending.chunk.job
        runs = list(pending.runs)
        if q_to is None:
            # Trim trailing window slack.
            while runs and runs[-1][0] == OP_INSERTION:
                runs.pop()
        q = job.query_start
        r = job.ref_start
        committed: List[Run] = []
        for op, length in runs:
            dq = length if op != OP_INSERTION else 0
            dr = length if op != OP_DELETION else 0
            take_from = 0
            if q < pending.entry_q or r < pending.entry_r:
                # Still before the entry point: skip whole or partial run.
                skip_q = pending.entry_q - q if dq else 0
                skip_r = pending.entry_r - r if dr else 0
                take_from = min(length, max(skip_q, skip_r))
            take_to = length
            if q_to is not None and r_to is not None:
                room_q = q_to - q if dq else length
                room_r = r_to - r if dr else length
                take_to = min(take_to, max(take_from, min(room_q, room_r)))
            if take_to > take_from:
                append_run(committed, op, take_to - take_from)
            q += dq
            r += dr
            if q_to is not None and r_to is not None and q >= q_to and r >= r_to:
                q, r = q_to, r_to
                break
        if q_to is not None and r_to is not None and (q, r) != (q_to, r_to):
            raise StreamError(
                f"cut ({q_to}, {r_to}) is not on the path of chunk "
                f"{job.chunk_index} (walk ended at ({q}, {r}))"
            )
        frontier_q = q_to if q_to is not None else q
        frontier_r = r_to if r_to is not None else r
        for op, length in committed:
            append_run(self._runs, op, length)
        self._text_parts.append(
            job.text[pending.entry_r - job.ref_start:frontier_r - job.ref_start]
        )
        return frontier_q, frontier_r
