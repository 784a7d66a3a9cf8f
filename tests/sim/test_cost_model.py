"""Tests for the stat predictors — the fidelity contract (repro.sim.cost_model).

Distance-only predictions must match the instrumented aligners *exactly*;
traceback predictions must match within tolerance.  These tests are what
licenses using the predictors for the 1 Mbp experiments.
"""

import pytest

from conftest import mutate_dna, random_dna, scalar_edit_distance
from repro.align import BandedGmxAligner, FullGmxAligner, WindowedGmxAligner
from repro.baselines import (
    BitapAligner,
    BpmAligner,
    DarwinGactAligner,
    EdlibAligner,
    GenasmCpuAligner,
    NeedlemanWunschAligner,
)
from repro.sim.cost_model import (
    expected_distance,
    predict_banded_gmx,
    predict_bitap,
    predict_bpm,
    predict_darwin_gact,
    predict_edlib,
    predict_full_gmx,
    predict_genasm_cpu,
    predict_nw,
    predict_windowed_gmx,
)


def _make_pair(rng, n=None):
    n = n or rng.randint(50, 400)
    pattern = random_dna(n, rng)
    text = mutate_dna(pattern, max(1, n // 15), rng)
    return pattern, text, scalar_edit_distance(pattern, text)


def assert_stats_equal(measured, predicted):
    assert dict(measured.instructions) == dict(predicted.instructions)
    assert measured.dp_cells == predicted.dp_cells
    assert measured.dp_bytes_read == predicted.dp_bytes_read
    assert measured.dp_bytes_written == predicted.dp_bytes_written
    assert measured.tiles == predicted.tiles
    assert measured.hot_bytes == predicted.hot_bytes


class TestExactDistanceOnlyContract:
    def test_full_gmx(self, rng):
        for _ in range(5):
            p, t, d = _make_pair(rng)
            measured = FullGmxAligner().align(p, t, traceback=False).stats
            assert_stats_equal(
                measured, predict_full_gmx(len(p), len(t), traceback=False)
            )

    def test_banded_gmx(self, rng):
        for _ in range(5):
            p, t, d = _make_pair(rng)
            measured = BandedGmxAligner().align(p, t, traceback=False).stats
            assert_stats_equal(
                measured,
                predict_banded_gmx(len(p), len(t), traceback=False, distance=d),
            )

    def test_nw(self, rng):
        p, t, d = _make_pair(rng)
        measured = NeedlemanWunschAligner().align(p, t, traceback=False).stats
        assert_stats_equal(measured, predict_nw(len(p), len(t), traceback=False))

    def test_bpm(self, rng):
        p, t, d = _make_pair(rng)
        measured = BpmAligner().align(p, t, traceback=False).stats
        assert_stats_equal(measured, predict_bpm(len(p), len(t), traceback=False))

    def test_edlib(self, rng):
        for _ in range(5):
            p, t, d = _make_pair(rng)
            measured = EdlibAligner().align(p, t, traceback=False).stats
            assert_stats_equal(
                measured,
                predict_edlib(len(p), len(t), traceback=False, distance=d),
            )

    def test_bitap(self, rng):
        for _ in range(5):
            p, t, d = _make_pair(rng, n=rng.randint(30, 120))
            measured = BitapAligner().align(p, t, traceback=False).stats
            assert_stats_equal(
                measured,
                predict_bitap(len(p), len(t), traceback=False, distance=d),
            )


class TestTracebackTolerance:
    TOLERANCE = 0.25

    def _check(self, measured, predicted, tolerance=TOLERANCE):
        ratio = predicted.total_instructions / measured.total_instructions
        assert 1 - tolerance < ratio < 1 + tolerance

    def test_full_gmx_traceback(self, rng):
        p, t, d = _make_pair(rng)
        measured = FullGmxAligner().align(p, t).stats
        self._check(
            measured, predict_full_gmx(len(p), len(t), traceback=True, distance=d)
        )

    def test_windowed_gmx(self, rng):
        p, t, d = _make_pair(rng, n=500)
        measured = WindowedGmxAligner().align(p, t).stats
        self._check(measured, predict_windowed_gmx(len(p), len(t), distance=d))

    def test_genasm(self, rng):
        p, t, d = _make_pair(rng, n=500)
        measured = GenasmCpuAligner().align(p, t).stats
        predicted = predict_genasm_cpu(len(p), len(t), distance=d)
        # Bitap's per-window k-doubling makes this the coarsest predictor.
        ratio = predicted.total_instructions / measured.total_instructions
        assert 0.4 < ratio < 2.5

    def test_darwin(self, rng):
        p, t, d = _make_pair(rng, n=500)
        measured = DarwinGactAligner().align(p, t).stats
        self._check(measured, predict_darwin_gact(len(p), len(t)), tolerance=0.35)


class TestExpectedDistance:
    def test_generator_calibration(self, rng):
        """The 0.85·e·n rule must match the workload generator closely."""
        from repro.workloads import generate_pair

        import random as random_module

        total_expected = 0
        total_actual = 0
        gen_rng = random_module.Random(42)
        for _ in range(30):
            pair = generate_pair(400, 0.10, gen_rng)
            total_expected += expected_distance(400, 0.10)
            total_actual += scalar_edit_distance(pair.pattern, pair.text)
        assert abs(total_expected - total_actual) / total_actual < 0.15

    def test_zero_error(self):
        assert expected_distance(1000, 0.0) == 0


class TestScalePredictions:
    def test_1mbp_predictions_are_finite_and_fast(self):
        """The whole point: predicting megabase stats without running them."""
        distance = expected_distance(1_000_000, 0.15)
        banded = predict_banded_gmx(
            1_000_000, 1_000_000, traceback=True, distance=distance, band=3_000
        )
        windowed = predict_windowed_gmx(1_000_000, 1_000_000, distance=distance)
        assert banded.total_instructions > windowed.total_instructions
        assert windowed.dp_bytes_peak < 10_000  # constant window memory

    def test_full_gmx_1mbp_footprint_matches_paper_exclusion(self):
        """§7.3 excludes Full(GMX) at 1 Mbp: >10 GB of edge state."""
        stats = predict_full_gmx(1_000_000, 1_000_000, traceback=True)
        assert stats.dp_bytes_peak > 10 * 2**30
