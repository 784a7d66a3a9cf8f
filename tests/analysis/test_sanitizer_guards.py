"""Unit tests for the sanitizer's runtime checks and sessions.

Covers batch-boundary hook-leak detection and the ``sanitize()`` session
lifecycle (arm/disarm, nesting, exception paths, session-exit check).
"""

from __future__ import annotations

import pytest

from repro.align import backends
from repro.analysis.sanitizer import SanitizerError, sanitize
from repro.analysis.sanitizer import runtime as dsan
from repro.obs import runtime as obs


# -- batch boundary tokens ----------------------------------------------


def test_batch_hooks_disabled_when_disarmed():
    assert not dsan.armed()
    token = dsan.batch_begin()
    assert token is None
    dsan.batch_end(token, "noop")  # must be a silent no-op


def test_batch_leak_detected_inside_session():
    with sanitize() as session:
        token = dsan.batch_begin()
        obs.enable()
        try:
            with pytest.raises(SanitizerError, match="REPRO007 dynamic"):
                dsan.batch_end(token, "test_batch")
        finally:
            obs.disable()
        # Only leak-free boundaries count as "checked".
        assert session.batches_checked == 0


def test_batch_balanced_arming_passes():
    """obs armed and disarmed inside the batch leaves no residue."""
    with sanitize() as session:
        token = dsan.batch_begin()
        obs.enable()
        obs.disable()
        dsan.batch_end(token, "test_batch")
        assert session.batches_checked >= 1


def test_batch_token_is_per_batch_not_per_session():
    """Hooks armed *around* a batch (obs.capture style) are legitimate."""
    with sanitize():
        obs.enable()
        try:
            token = dsan.batch_begin()
            dsan.batch_end(token, "wrapped_batch")  # must not raise
        finally:
            obs.disable()


# -- sanitize() session lifecycle ---------------------------------------


def test_sanitize_restores_on_exception():
    with pytest.raises(ValueError):
        with sanitize():
            raise ValueError("boom")
    assert not dsan.armed()


def test_get_backend_works_under_session():
    with sanitize():
        engine = backends.get_backend("pure")
        assert engine.name == "pure"


def test_nested_sanitize_reuses_session():
    with sanitize() as outer:
        with sanitize() as inner:
            assert inner is outer
        # Inner exit must not disarm the outer session.
        assert dsan.armed()
    assert not dsan.armed()


def test_session_exit_leak_check():
    """An ambient hook still armed at clean session exit raises."""
    with pytest.raises(SanitizerError):
        with sanitize():
            obs.enable()
    obs.disable()
    assert not dsan.armed()


def test_session_exit_check_skipped_on_exception():
    """An in-flight exception must not be shadowed by the leak check."""
    with pytest.raises(KeyError, match="original"):
        with sanitize():
            obs.enable()
            raise KeyError("original")
    obs.disable()
    assert not dsan.armed()


def test_session_summary_shape():
    with sanitize() as session:
        token = dsan.batch_begin()
        dsan.batch_end(token, "summary_batch")
        summary = session.summary()
    assert summary["batches_checked"] >= 1
    assert set(summary) == {"batches_checked"}
