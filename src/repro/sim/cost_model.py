"""Closed-form kernel-statistics predictors.

Functional runs of every aligner are feasible up to ~10 kbp in Python, but
the paper's scalability points (1 Mbp pairs, §7.3) execute 10⁸–10¹¹ DP
cells — far beyond interpreter speed.  This module predicts the
:class:`~repro.align.base.KernelStats` of each aligner *without running it*
by mirroring the aligners' instruction recipes over closed-form (or cheap
dry-run) iteration counts.

Fidelity contract, enforced by the test suite:

* distance-only predictions match the instrumented aligners **exactly**
  (same Counter, same traffic) on randomised inputs;
* traceback predictions match within a few percent (the traceback path's
  tile count and operation mix depend on the data; we use their expected
  values).

``distance`` inputs default to the expected edit distance of the workload
generator, ``≈ 0.85 · error_rate · length`` (edits partially cancel).
"""

from __future__ import annotations

from typing import Optional

from ..align.base import KernelStats
from ..align.full_gmx import _edge_bytes

#: Expected edit distance per generated error (edits partially cancel).
DISTANCE_PER_ERROR = 0.85


def expected_distance(length: int, error_rate: float) -> int:
    """Expected edit distance of a generated pair."""
    return round(DISTANCE_PER_ERROR * error_rate * length)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------------------
# GMX aligners
# ---------------------------------------------------------------------------

def predict_full_gmx(
    n: int,
    m: int,
    *,
    traceback: bool = True,
    distance: int = 0,
    tile_size: int = 32,
    fused: bool = False,
) -> KernelStats:
    """Predict Full(GMX) stats (mirrors ``FullGmxAligner.align``).

    Args:
        fused: model the dual-destination ``gmx.vh`` variant (§5): one
            tile instruction instead of the gmx.v/gmx.h pair.
    """
    stats = KernelStats()
    nt = _ceil_div(n, tile_size)
    mt = _ceil_div(m, tile_size)
    tiles = nt * mt
    edge = _edge_bytes(tile_size)
    stats.tiles = tiles
    stats.dp_cells = n * m
    stats.add_instr("csr", mt + tiles)
    stats.add_instr("gmx", tiles if fused else 2 * tiles)
    stats.add_instr("load", 2 * tiles)
    stats.add_instr("int_alu", 5 * mt + 4 * tiles)
    stats.add_instr("branch", mt + tiles)
    stats.dp_bytes_read += 2 * edge * tiles
    stats.hot_bytes = edge * (nt + 1)
    if not traceback:
        stats.dp_bytes_peak = stats.hot_bytes
        return stats
    stats.add_instr("store", 2 * tiles)
    stats.dp_bytes_written += 2 * edge * tiles
    stats.dp_bytes_peak = 2 * edge * tiles
    _add_gmx_traceback(stats, n, m, distance, tile_size)
    return stats


def _add_gmx_traceback(
    stats: KernelStats, n: int, m: int, distance: int, tile_size: int
) -> None:
    """Expected-value model of the Algorithm-2 traceback phase."""
    edge = _edge_bytes(tile_size)
    nt = _ceil_div(n, tile_size)
    mt = _ceil_div(m, tile_size)
    # The path visits roughly one tile per tile-antidiagonal.
    tb_tiles = nt + mt - 1
    stats.add_instr("csr", 1 + 5 * tb_tiles)
    stats.add_instr("gmx_tb", tb_tiles)
    stats.add_instr("load", 2 * tb_tiles)
    stats.add_instr("int_alu", 6 * tb_tiles + 4)
    stats.add_instr("branch", 2 * tb_tiles)
    stats.add_instr("store", 2 * tb_tiles)
    stats.dp_bytes_read += 2 * edge * tb_tiles
    stats.dp_bytes_written += 2 * edge * tb_tiles


def _expected_ops(n: int, m: int, distance: int) -> int:
    """Expected alignment length: diagonal steps plus indel detours."""
    return max(n, m) + distance // 2


def banded_gmx_band_schedule(
    n: int, m: int, distance: int, tile_size: int
) -> list:
    """Band sizes Banded(GMX)'s auto-widening actually tries."""
    band = max(abs(n - m), 2 * tile_size)
    max_band = max(n, m)
    schedule = [band]
    while band < distance and band < max_band:
        band = min(2 * band, max_band)
        schedule.append(band)
    return schedule


def predict_banded_gmx(
    n: int,
    m: int,
    *,
    traceback: bool = True,
    distance: int = 0,
    tile_size: int = 32,
    band: Optional[int] = None,
) -> KernelStats:
    """Predict Banded(GMX) stats, including the auto-widening restarts."""
    stats = KernelStats()
    if band is not None:
        schedule = [max(band, abs(n - m))]
    else:
        schedule = banded_gmx_band_schedule(n, m, distance, tile_size)
    edge = _edge_bytes(tile_size)
    nt = _ceil_div(n, tile_size)
    mt = _ceil_div(m, tile_size)
    for pass_band in schedule:
        bt = _ceil_div(pass_band, tile_size)
        tiles = sum(
            min(nt - 1, tj + bt) - max(0, tj - bt) + 1 for tj in range(mt)
        )
        cells = _banded_cells(n, m, bt, tile_size)
        stats.tiles += tiles
        stats.dp_cells += cells
        stats.add_instr("csr", mt + tiles)
        stats.add_instr("gmx", 2 * tiles)
        stats.add_instr("load", 2 * tiles)
        stats.add_instr("int_alu", 6 * mt + 5 * tiles)
        stats.add_instr("branch", mt + tiles)
        stats.dp_bytes_read += 2 * edge * tiles
        stats.hot_bytes = max(stats.hot_bytes or 0, edge * (2 * bt + 2))
        if traceback:
            stats.add_instr("store", 2 * tiles)
            stats.dp_bytes_written += 2 * edge * tiles
            stats.dp_bytes_peak = max(stats.dp_bytes_peak, 2 * edge * tiles)
            _add_gmx_traceback(stats, n, m, distance, tile_size)
        else:
            stats.dp_bytes_peak = max(stats.dp_bytes_peak, stats.hot_bytes)
    return stats


def _banded_cells(n: int, m: int, bt: int, tile_size: int) -> int:
    """DP cells inside the tile band (exact tile-by-tile sum, vectorised)."""
    nt = _ceil_div(n, tile_size)
    mt = _ceil_div(m, tile_size)
    last_rows = n - (nt - 1) * tile_size
    last_cols = m - (mt - 1) * tile_size
    cells = 0
    for tj in range(mt):
        lo = max(0, tj - bt)
        hi = min(nt - 1, tj + bt)
        cols = last_cols if tj == mt - 1 else tile_size
        full_rows = hi - lo + 1
        rows = full_rows * tile_size
        if hi == nt - 1:
            rows += last_rows - tile_size
        cells += rows * cols
    return cells


def predict_windowed_gmx(
    n: int,
    m: int,
    *,
    distance: int = 0,
    window: Optional[int] = None,
    overlap: Optional[int] = None,
    tile_size: int = 32,
) -> KernelStats:
    """Predict Windowed(GMX) stats.

    Each window is a Full(GMX) run of W×W with traceback; the driver
    commits ~(W − O) cells of progress per window.
    """
    window = window if window is not None else 3 * tile_size
    overlap = overlap if overlap is not None else tile_size
    windows = _expected_windows(n, m, window, overlap)
    per_window = predict_full_gmx(
        min(window, n),
        min(window, m),
        traceback=True,
        distance=round(distance * window / max(n, m, 1)),
        tile_size=tile_size,
    )
    stats = KernelStats()
    for _ in range(windows):
        stats.merge(per_window)
    _add_window_driver(stats, n, m, distance, windows)
    tiles_per_side = _ceil_div(window, tile_size)
    stats.dp_bytes_peak = 2 * _edge_bytes(tile_size) * tiles_per_side**2
    stats.hot_bytes = stats.dp_bytes_peak
    return stats


def _add_window_driver(
    stats: KernelStats, n: int, m: int, distance: int, windows: int
) -> None:
    """Software window-driver work (setup and position-based commits)."""
    del n, m, distance
    stats.add_instr("int_alu", 40 * windows)
    stats.add_instr("branch", 6 * windows)


def _expected_windows(n: int, m: int, window: int, overlap: int) -> int:
    """Expected number of windows the driver opens."""
    span = min(n, m)
    if span <= window:
        return 1
    return 1 + _ceil_div(span - window, window - overlap)


# ---------------------------------------------------------------------------
# Software baselines
# ---------------------------------------------------------------------------

def predict_nw(n: int, m: int, *, traceback: bool = True, distance: int = 0) -> KernelStats:
    """Predict Full(DP) stats (mirrors ``NeedlemanWunschAligner``)."""
    stats = KernelStats()
    stats.dp_cells = n * m
    stats.add_instr("int_alu", 5 * n * m)
    stats.add_instr("load", n * m)
    stats.add_instr("store", n * m)
    stats.add_instr("branch", n)
    stats.dp_bytes_written += 4 * n * m
    stats.dp_bytes_read += 12 * n * m
    stats.hot_bytes = 4 * 2 * (m + 1)
    if traceback:
        ops = _expected_ops(n, m, distance)
        stats.dp_bytes_peak = 4 * (n + 1) * (m + 1)
        stats.add_instr("int_alu", 4 * ops)
        stats.add_instr("load", 3 * ops)
        stats.dp_bytes_read += 12 * ops
    else:
        stats.dp_bytes_peak = 4 * 2 * (m + 1)
    return stats


def predict_hirschberg(
    n: int, m: int, *, traceback: bool = True, distance: int = 0
) -> KernelStats:
    """Predict linear-memory Hirschberg stats (mirrors ``HirschbergAligner``).

    The divide-and-conquer recursion executes ~2x the cells of one
    distance-only NW sweep while never holding more than two score rows —
    the canonical time-for-memory trade the stream pipeline's bridge
    repair relies on.
    """
    stats = KernelStats()
    cells = 2 * n * m
    stats.dp_cells = cells
    stats.add_instr("int_alu", 5 * cells)
    stats.add_instr("load", cells)
    stats.add_instr("store", cells)
    stats.add_instr("branch", 2 * n)
    stats.dp_bytes_written += 4 * cells
    stats.dp_bytes_read += 12 * cells
    stats.hot_bytes = 4 * 4 * (m + 1)
    stats.dp_bytes_peak = 4 * 4 * (m + 1)
    if traceback:
        ops = _expected_ops(n, m, distance)
        stats.add_instr("int_alu", 2 * ops)
    return stats


def predict_bpm(
    n: int, m: int, *, traceback: bool = True, distance: int = 0, word_size: int = 64
) -> KernelStats:
    """Predict Full(BPM) stats (mirrors ``BpmAligner``)."""
    stats = KernelStats()
    blocks = _ceil_div(n, word_size)
    steps = blocks * m
    word_bytes = word_size // 8
    stats.dp_cells = n * m
    stats.add_instr("int_alu", 17 * steps)
    stats.add_instr("load", 3 * steps)
    stats.add_instr("branch", steps)
    stats.dp_bytes_read += 2 * word_bytes * steps
    stats.hot_bytes = 2 * word_bytes * blocks
    if traceback:
        stats.add_instr("store", 4 * steps)
        stats.dp_bytes_written += 4 * word_bytes * steps
        stats.dp_bytes_peak = 4 * word_bytes * blocks * m
        ops = _expected_ops(n, m, distance)
        stats.add_instr("int_alu", 6 * ops)
        stats.add_instr("load", 2 * ops)
    else:
        stats.add_instr("store", 2 * steps)
        stats.dp_bytes_written += 2 * word_bytes * steps
        stats.dp_bytes_peak = 2 * word_bytes * blocks
    return stats


def edlib_k_schedule(n: int, m: int, distance: int, word_size: int = 64) -> list:
    """Band thresholds Edlib's doubling search actually tries."""
    k = max(abs(n - m), word_size // 2)
    limit = n + m
    schedule = [k]
    while k < distance and k < limit:
        k = min(2 * k, limit)
        schedule.append(k)
    return schedule


def predict_edlib(
    n: int,
    m: int,
    *,
    traceback: bool = True,
    distance: int = 0,
    word_size: int = 64,
) -> KernelStats:
    """Predict Banded(Edlib) stats (mirrors ``EdlibAligner``)."""
    stats = KernelStats()
    word_bytes = word_size // 8
    n_blocks = _ceil_div(n, word_size)
    for k in edlib_k_schedule(n, m, distance, word_size):
        stats.add_instr("int_alu", 2 * n)
        stats.add_instr("store", n // 8 + 1)
        steps = 0
        cells = 0
        max_live = 0
        for j in range(m):
            lo = max(0, (j - k) // word_size)
            hi = min(n_blocks - 1, (j + k) // word_size)
            live = hi - lo + 1
            steps += live
            max_live = max(max_live, live)
            cells += live * word_size
            if hi == n_blocks - 1:
                cells -= n_blocks * word_size - n
        stats.dp_cells += cells
        stats.add_instr("int_alu", 17 * steps)
        stats.add_instr("load", 3 * steps)
        stats.add_instr("branch", steps)
        stats.dp_bytes_read += 2 * word_bytes * steps
        stats.hot_bytes = max(stats.hot_bytes or 0, 2 * word_bytes * max_live)
        if traceback:
            stats.add_instr("store", 4 * steps)
            stats.dp_bytes_written += 4 * word_bytes * steps
            stats.dp_bytes_peak = max(
                stats.dp_bytes_peak, 4 * word_bytes * steps
            )
            ops = _expected_ops(n, m, distance)
            stats.add_instr("int_alu", 6 * ops)
            stats.add_instr("load", 2 * ops)
        else:
            stats.add_instr("store", 2 * steps)
            stats.dp_bytes_written += 2 * word_bytes * steps
            stats.dp_bytes_peak = max(
                stats.dp_bytes_peak, 2 * word_bytes * max_live
            )
    return stats


def bitap_k_schedule(n: int, m: int, distance: int) -> list:
    """Error bounds the Bitap doubling search actually tries."""
    k = max(abs(n - m), 2)
    limit = n + m
    schedule = [min(k, limit)]
    while k < distance and k < limit:
        k = min(2 * k, limit)
        schedule.append(k)
    return schedule


def predict_bitap(
    n: int, m: int, *, distance: int = 0, traceback: bool = True, word_size: int = 64
) -> KernelStats:
    """Predict Bitap aligner stats (mirrors ``BitapAligner``)."""
    stats = KernelStats()
    words = _ceil_div(n, word_size)
    word_bytes = word_size // 8
    final_k = 0
    for k in bitap_k_schedule(n, m, distance):
        k = min(k, n + m)
        final_k = k
        steps = (k + 1) * words
        stats.add_instr("int_alu", 7 * steps * m)
        stats.add_instr("load", 2 * steps * m)
        stats.add_instr("store", steps * m)
        stats.add_instr("branch", (k + 1) * m)
        stats.dp_cells += n * m
        stats.dp_bytes_read += 2 * steps * word_bytes * m
        stats.dp_bytes_written += steps * word_bytes * m
    stats.hot_bytes = 2 * (final_k + 1) * words * word_bytes
    if traceback:
        stats.dp_bytes_peak = (final_k + 1) * (m + 1) * words * word_bytes
        ops = _expected_ops(n, m, distance)
        stats.add_instr("int_alu", 8 * ops)
        stats.add_instr("load", 3 * ops)
    else:
        stats.dp_bytes_peak = stats.hot_bytes
    return stats


def predict_genasm_cpu(
    n: int,
    m: int,
    *,
    distance: int = 0,
    window: int = 96,
    overlap: int = 32,
    word_size: int = 64,
) -> KernelStats:
    """Predict Windowed(GenASM-CPU) stats: Bitap per window plus stitching."""
    windows = _expected_windows(n, m, window, overlap)
    window_distance = max(2, round(distance * window / max(n, m, 1)))
    per_window = predict_bitap(
        min(window, n),
        min(window, m),
        distance=window_distance,
        traceback=True,
        word_size=word_size,
    )
    stats = KernelStats()
    for _ in range(windows):
        stats.merge(per_window)
    _add_window_driver(stats, n, m, distance, windows)
    return stats


def predict_darwin_gact(
    n: int,
    m: int,
    *,
    window: int = 96,
    overlap: int = 32,
) -> KernelStats:
    """Predict Darwin GACT stats: full affine DP per window."""
    windows = _expected_windows(n, m, window, overlap)
    stats = KernelStats()
    w_rows = min(window, n)
    w_cols = min(window, m)
    cells = w_rows * w_cols
    for _ in range(windows):
        stats.dp_cells += cells
        stats.add_instr("int_alu", 12 * cells)
        stats.add_instr("load", 3 * cells)
        stats.add_instr("store", 3 * cells)
        stats.dp_bytes_written += 12 * cells
        stats.dp_bytes_read += 24 * cells
    stats.dp_bytes_peak = 12 * (window + 1) * (window + 1)
    stats.hot_bytes = stats.dp_bytes_peak
    return stats


#: Predictor registry keyed by the aligners' figure labels.
PREDICTORS = {
    "Full(GMX)": predict_full_gmx,
    "Banded(GMX)": predict_banded_gmx,
    "Windowed(GMX)": predict_windowed_gmx,
    "Full(DP)": predict_nw,
    "Full(BPM)": predict_bpm,
    "Banded(Edlib)": predict_edlib,
    "Hirschberg": predict_hirschberg,
    "Windowed(GenASM-CPU)": predict_genasm_cpu,
    "Darwin(GACT)": predict_darwin_gact,
}


def predict_pair_cost(aligner, n: int, m: int, *, traceback: bool = True) -> int:
    """Predicted instruction cost of aligning one ``n x m`` pair.

    The distributed coordinator's shard packer calls this per pair to cut
    cost-balanced shards for heterogeneous nodes — without running a
    kernel.  Dispatches on the aligner's class to the matching closed-form
    predictor and returns ``KernelStats.total_instructions``; an aligner
    without a predictor (wrappers, test doubles) falls back to the
    quadratic cell count ``n * m``, which preserves relative ordering.
    """
    name = type(aligner).__name__
    tile = getattr(aligner, "tile_size", 32)
    try:
        if name == "FullGmxAligner":
            stats = predict_full_gmx(
                n,
                m,
                traceback=traceback,
                tile_size=tile,
                fused=bool(getattr(aligner, "fused", False)),
            )
        elif name == "BandedGmxAligner":
            stats = predict_banded_gmx(
                n, m, traceback=traceback, tile_size=tile
            )
        elif name == "WindowedAligner":
            stats = predict_windowed_gmx(n, m, tile_size=tile)
        elif name == "NeedlemanWunschAligner":
            stats = predict_nw(n, m, traceback=traceback)
        elif name == "BpmAligner":
            stats = predict_bpm(
                n,
                m,
                traceback=traceback,
                word_size=getattr(aligner, "word_size", 64),
            )
        elif name == "EdlibAligner":
            stats = predict_edlib(
                n,
                m,
                traceback=traceback,
                word_size=getattr(aligner, "word_size", 64),
            )
        elif name == "HirschbergAligner":
            stats = predict_hirschberg(n, m, traceback=traceback)
        else:
            return n * m
    except (ValueError, ZeroDivisionError):
        return n * m
    return max(1, stats.total_instructions)

