"""Run-length CIGAR algebra for chunked alignment (the stream pipeline).

The chunked pipeline (:mod:`repro.stream`) stitches per-chunk alignments
into one chromosome-scale CIGAR.  Doing that on expanded op lists would
cost O(alignment) per edit; these helpers work on **run-length encoded**
operations — ``[("M", 8192), ("I", 1), ...]`` — so commits, trims, and
concatenations touch O(runs), not O(bases).

Two pieces of real algebra live here:

* :func:`trim_insertion_flanks` — converts a GLOBAL chunk alignment whose
  text is a reference *window* into the INFIX-style form the stitcher
  composes: leading/trailing ``I`` runs (text consumed before the first /
  after the last query base) become window offsets instead of alignment
  columns.
* :func:`canonicalize_ops` — a deterministic normal form for
  edit-distance alignments.  Co-optimal alignments differ only in
  tie-broken traceback choices (``CGAAAT`` vs ``CGAAT`` can delete any of
  the three ``A``\\ s); the normal form re-derives the alignment with a
  banded DP and a fixed traceback preference, so two alignments of the
  same pair and cost compare equal byte-for-byte.  The stream conformance
  harness canonicalises both the stitched alignment and the Hirschberg
  oracle before demanding identity.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.cigar import (
    OP_DELETION,
    OP_INSERTION,
    OP_MATCH,
    OP_MISMATCH,
    AlignmentError,
)

#: One run-length encoded operation block.
Run = Tuple[str, int]

#: Largest banded-DP size (rows x band) canonicalisation will attempt.
#: The band half-width equals the alignment's cost, so only pathologically
#: divergent inputs hit this — callers should canonicalise windows, not
#: whole chromosomes.
CANONICAL_CELL_CAP = 1 << 24


def ops_to_runs(ops: Sequence[str]) -> List[Run]:
    """Run-length encode an expanded operation sequence."""
    runs: List[Run] = []
    for op in ops:
        if runs and runs[-1][0] == op:
            runs[-1] = (op, runs[-1][1] + 1)
        else:
            runs.append((op, 1))
    return runs


def runs_to_ops(runs: Sequence[Run]) -> List[str]:
    """Expand run-length encoded operations."""
    ops: List[str] = []
    for op, length in runs:
        ops.extend([op] * length)
    return ops


def runs_to_cigar(runs: Sequence[Run]) -> str:
    """CIGAR string of run-length encoded operations (no expansion)."""
    return "".join(f"{length}{op}" for op, length in runs if length)


def runs_consumed(runs: Sequence[Run]) -> Tuple[int, int]:
    """``(pattern, text)`` characters consumed by the runs."""
    pattern = 0
    text = 0
    for op, length in runs:
        if op in (OP_MATCH, OP_MISMATCH):
            pattern += length
            text += length
        elif op == OP_DELETION:
            pattern += length
        elif op == OP_INSERTION:
            text += length
        else:
            raise AlignmentError(f"unknown alignment operation {op!r}")
    return pattern, text


def append_run(runs: List[Run], op: str, length: int) -> None:
    """Append a run in place, coalescing with the tail run."""
    if length <= 0:
        return
    if runs and runs[-1][0] == op:
        runs[-1] = (op, runs[-1][1] + length)
    else:
        runs.append((op, length))


def trim_insertion_flanks(
    ops: Sequence[str],
) -> Tuple[List[str], int, int]:
    """Strip leading/trailing ``I`` runs from a GLOBAL window alignment.

    A chunk aligner sees the query span against a reference *window*; text
    consumed before the first query base (leading ``I``) and after the
    last (trailing ``I``) is window slack, not alignment.  Returns
    ``(core_ops, leading, trailing)`` where ``leading``/``trailing`` count
    the stripped text characters — the caller folds them into the window
    offsets (INFIX semantics, like ``AlignmentResult.text_start/end``).
    """
    lo = 0
    hi = len(ops)
    while lo < hi and ops[lo] == OP_INSERTION:
        lo += 1
    while hi > lo and ops[hi - 1] == OP_INSERTION:
        hi -= 1
    return list(ops[lo:hi]), lo, len(ops) - hi


def canonicalize_ops(
    pattern: str, text: str, ops: Sequence[str]
) -> List[str]:
    """Deterministic normal form of an edit-distance alignment.

    Co-optimal alignments of the same pair differ only in tie-broken
    traceback choices — where a gap sits inside a repeat, whether a
    balanced ``I``/``D`` detour rides the diagonal as two mismatches,
    how a gap run splits around intervening matches.  Local rewrite
    rules cannot chase every such tie, so the normal form is derived
    globally: a banded edit-distance DP (half-width = the input
    alignment's cost, which bounds the diagonal excursion of every
    alignment at least as good) followed by a backward traceback with a
    fixed preference order — diagonal, then ``I``, then ``D``.  Every
    alignment of the pair with the same cost canonicalises to the same
    op list; diagonal columns are relabelled ``M``/``X`` from the
    characters.

    The input ops only supply the band (their cost) and are validated
    for consumption; if the input was not optimal within its own band,
    the returned alignment is strictly cheaper — callers comparing
    canonical forms must compare scores separately (the conformance
    harness does).

    Raises:
        AlignmentError: malformed input ops, or a band too large to
            canonicalise (cells beyond :data:`CANONICAL_CELL_CAP`).
    """
    runs = ops_to_runs(
        [op if op in (OP_DELETION, OP_INSERTION) else OP_MATCH for op in ops]
    )
    # Verify consumption up front so a malformed input fails loudly.
    consumed = runs_consumed(runs)
    if consumed != (len(pattern), len(text)):
        raise AlignmentError(
            f"ops consume {consumed}, sequences are "
            f"({len(pattern)}, {len(text)})"
        )
    n, m = len(pattern), len(text)
    # Input cost, with diagonal columns relabelled from the characters.
    cost = 0
    i = j = 0
    for op, length in runs:
        if op == OP_DELETION:
            cost += length
            i += length
        elif op == OP_INSERTION:
            cost += length
            j += length
        else:
            for _ in range(length):
                cost += pattern[i] != text[j]
                i += 1
                j += 1
    if cost == 0:
        return [OP_MATCH] * n
    if (n + 1) * (2 * cost + 1) > CANONICAL_CELL_CAP:
        raise AlignmentError(
            f"canonicalisation band too large: cost {cost} over "
            f"{n} rows exceeds CANONICAL_CELL_CAP"
        )
    # Banded prefix DP: rows[i][j - lo(i)] = D(i, j) for |i - j| <= cost.
    inf = cost + 1

    def lo(i: int) -> int:
        return max(0, i - cost)

    rows: List[List[int]] = [list(range(min(m, cost) + 1))]
    for i in range(1, n + 1):
        row_lo, row_hi = lo(i), min(m, i + cost)
        prev = rows[i - 1]
        prev_lo = lo(i - 1)
        row: List[int] = []
        for j in range(row_lo, row_hi + 1):
            best = inf
            if prev_lo <= j <= (i - 1) + cost and j <= m:
                up = prev[j - prev_lo] + 1  # D: consume pattern[i-1]
                if up < best:
                    best = up
            if j > 0 and prev_lo <= j - 1:
                diag = prev[j - 1 - prev_lo] + (pattern[i - 1] != text[j - 1])
                if diag < best:
                    best = diag
            if j > row_lo:
                left = row[-1] + 1  # I: consume text[j-1]
                if left < best:
                    best = left
            row.append(min(best, inf))
        rows.append(row)
    # Backward walk from (n, m), preferring diagonal, then I, then D:
    # ties resolve toward the fewest gap columns, gaps leftmost, and the
    # rightmost placement of a gap's covering diagonal run.
    out: List[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = rows[i][j - lo(i)]
        if i > 0 and j > 0 and lo(i - 1) <= j - 1 <= (i - 1) + cost:
            step = pattern[i - 1] != text[j - 1]
            if rows[i - 1][j - 1 - lo(i - 1)] + step == here:
                out.append(OP_MISMATCH if step else OP_MATCH)
                i -= 1
                j -= 1
                continue
        if j > 0 and j - 1 >= lo(i) and rows[i][j - 1 - lo(i)] + 1 == here:
            out.append(OP_INSERTION)
            j -= 1
            continue
        if i > 0 and lo(i - 1) <= j <= (i - 1) + cost:
            if rows[i - 1][j - lo(i - 1)] + 1 == here:
                out.append(OP_DELETION)
                i -= 1
                continue
        raise AlignmentError(
            "canonicalisation walk lost the optimal path "
            f"at ({i}, {j})"
        )  # pragma: no cover - the DP invariant guarantees a step
    out.reverse()
    return out


def canonical_cigar(pattern: str, text: str, ops: Sequence[str]) -> str:
    """CIGAR of :func:`canonicalize_ops` (convenience for comparisons)."""
    return runs_to_cigar(ops_to_runs(canonicalize_ops(pattern, text, ops)))

