"""Overhead bound for the sanitizer's disabled mode.

The acceptance bar mirrors the observability layer's: when no
``sanitize()`` session is armed, the batch-boundary instrumentation in
``align_batch`` / ``align_batch_resilient`` must cost <5% — every
instrumented boundary collapses to one module-flag check (``dsan.armed``
is False), so a library user who never arms the sanitizer pays (almost)
nothing.  The armed path is measured and
reported, never gated: guarding is opt-in, CI-only.
"""

from __future__ import annotations

import random
from time import perf_counter

import pytest

from repro.align import FullGmxAligner
from repro.align.batch import align_batch
from repro.analysis.sanitizer import sanitize
from repro.analysis.sanitizer import runtime as dsan
from repro.workloads.generator import generate_pair

#: Accepted disabled-instrumentation overhead vs one measured align.
MAX_DISABLED_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def pair_500():
    return generate_pair(500, 0.10, random.Random(11))


def _best_of(fn, repeats=5):
    """Best-of-N wall time of ``fn()`` (minimum filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def test_bench_batch_sanitizer_disabled(benchmark, pair_500):
    aligner = FullGmxAligner()
    pairs = [(pair_500.pattern, pair_500.text)] * 4
    assert not dsan.armed()
    batch = benchmark.pedantic(
        align_batch, args=(aligner, pairs), rounds=2, iterations=1
    )
    assert len(batch.results) == 4


def test_bench_batch_sanitizer_armed(benchmark, pair_500):
    aligner = FullGmxAligner()
    pairs = [(pair_500.pattern, pair_500.text)] * 4

    def armed_batch():
        with sanitize():
            return align_batch(aligner, pairs)

    batch = benchmark.pedantic(armed_batch, rounds=2, iterations=1)
    assert len(batch.results) == 4


def test_disabled_overhead_is_bounded(pair_500):
    """Disabled-path cost stays within MAX_DISABLED_OVERHEAD of an align.

    The sanitizer instrumentation a batch executes while disarmed is one
    ``batch_begin()``/``batch_end()`` pair — two module-flag checks per
    *batch*, never per pair or per tile.  This test measures the actual
    per-call cost of the disarmed primitives, multiplies by a generous
    per-batch call budget (16; the real count is 2), and requires the
    product to stay under 5% of a single measured 500 bp align (a batch
    runs many of those, so the real ratio is far smaller).  Two stable
    measurements instead of differencing two noisy ones.
    """
    assert not dsan.armed()
    calls = 100_000

    def disabled_primitives():
        for _ in range(calls):
            token = dsan.batch_begin()
            dsan.batch_end(token, "bench")

    per_call = _best_of(disabled_primitives) / (2 * calls)

    aligner = FullGmxAligner()
    align_time = _best_of(
        lambda: aligner.align(pair_500.pattern, pair_500.text), repeats=3
    )

    budget_per_batch = 16  # >> the 2 dsan calls a batch boundary makes
    overhead = (budget_per_batch * per_call) / align_time
    assert overhead < MAX_DISABLED_OVERHEAD, (
        f"disarmed dsan calls cost {per_call * 1e9:.0f} ns each; "
        f"{budget_per_batch} of them are {overhead:.2%} of a "
        f"{align_time * 1e3:.1f} ms align (budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_armed_overhead_recorded_not_gated(pair_500):
    """Armed-path cost is observed, never asserted — guarding is opt-in.

    The deterministic facts are asserted instead: the session checks the
    batch boundary and the results match the disarmed run exactly.
    """
    aligner = FullGmxAligner()
    pairs = [(pair_500.pattern, pair_500.text)] * 2
    plain = align_batch(aligner, pairs)
    with sanitize() as session:
        guarded = align_batch(aligner, pairs)
    assert session.batches_checked >= 1
    assert [r.score for r in plain.results] == [
        r.score for r in guarded.results
    ]
    assert [r.cigar for r in plain.results] == [
        r.cigar for r in guarded.results
    ]
