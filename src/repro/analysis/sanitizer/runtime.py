"""Ambient sanitizer state: the armed flag and the per-batch check hooks.

This module is the sanitizer's footprint inside the batch engines.  It is
deliberately tiny and imports nothing but the standard library, so that
:mod:`repro.align.parallel` and :mod:`repro.resilience.engine` can import
it unconditionally without creating an import cycle and without paying for
the heavy analysis machinery.

While the sanitizer is disarmed (the default), :func:`batch_begin` is a
single module-flag check returning ``None`` and :func:`batch_end` is a
single ``is None`` test — the cost the ``test_sanitizer_overhead``
benchmark bounds at <5%, mirroring :mod:`repro.obs.runtime`.

:func:`repro.analysis.sanitizer.guards.sanitize` arms this module with a
live :class:`~repro.analysis.sanitizer.guards.SanitizerSession`; from then
on every ``align_batch*`` call snapshots the ambient hook state on entry
and re-checks it on exit — *including* the exception path — so armed state
surviving a batch return or raise surfaces as a :class:`SanitizerError`
at the batch boundary where it leaked, not in some later test.
"""

from __future__ import annotations

from typing import Optional

#: Master switch checked by every batch boundary.  Armed only by
#: :func:`repro.analysis.sanitizer.guards.sanitize`.
ARMED: bool = False

_SESSION: Optional[object] = None


class SanitizerError(RuntimeError):
    """A concurrency/determinism contract was violated under the sanitizer.

    Raised by the batch-boundary leak check when an ambient hook, trace
    sink, or observability recorder survives a batch return or raise, and
    by the session-exit check when one survives the ``sanitize()`` block.
    """


def armed() -> bool:
    """Whether a sanitizer session is currently active in this process."""
    return ARMED


def session() -> Optional[object]:
    """The active :class:`SanitizerSession` (``None`` while disarmed)."""
    return _SESSION


def batch_begin() -> Optional[object]:
    """Open a batch-boundary check; returns an opaque token.

    ``None`` while disarmed (the common case — one flag check).  The
    token is the ambient-state snapshot taken at batch entry; pass it to
    :func:`batch_end` in a ``finally`` block.
    """
    if not ARMED:
        return None
    return _SESSION.batch_begin()


def batch_end(token: Optional[object], where: str) -> None:
    """Close a batch-boundary check opened by :func:`batch_begin`.

    No-op when ``token`` is ``None`` (sanitizer disarmed at batch entry).
    Otherwise compares the ambient hook/sink/recorder state against the
    entry snapshot and raises :class:`SanitizerError` on any leak.  Call
    from a ``finally`` so leaks on the exception path are caught too.
    """
    if token is None:
        return
    if _SESSION is not None:
        _SESSION.batch_end(token, where)


def _arm(session: object) -> object:
    """Install ``session`` as the active one; returns the previous state."""
    global ARMED, _SESSION
    previous = (ARMED, _SESSION)
    ARMED = True
    _SESSION = session
    return previous


def _disarm(previous: object) -> None:
    """Restore the state captured by :func:`_arm` (nesting-safe)."""
    global ARMED, _SESSION
    ARMED, _SESSION = previous
