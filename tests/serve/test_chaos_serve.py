"""Serving-path chaos: a killed pool worker must not lose a request."""

import multiprocessing

import pytest

from repro.serve.chaos import run_serve_chaos

HAS_PROCESSES = bool(multiprocessing.get_all_start_methods())


@pytest.mark.chaos
def test_worker_kill_mid_request_still_completes():
    report = run_serve_chaos(seed=7, pairs=24, workers=2)
    assert report.ok
    assert report.identical
    assert report.completed == 24
    if HAS_PROCESSES:
        assert report.killed_pid is not None
        # The lost shard was detected and re-executed.
        assert report.recoveries >= 1
        assert report.pool_generation >= 2
    else:
        assert report.degraded_reason


@pytest.mark.chaos
def test_inline_degrade_reports_honestly():
    report = run_serve_chaos(seed=11, pairs=8, workers=1)
    assert report.ok
    assert report.identical
    assert report.killed_pid is None
    assert report.degraded_reason
    assert report.to_dict()["executor"] == "serial"
