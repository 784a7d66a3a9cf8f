"""Dynamic sanitizer: batch-boundary leak checks, the ``sanitize()`` CM.

The static side (:mod:`repro.analysis.sanitizer.reachability`) proves the
*source* obeys the worker contracts; this module proves the *process*
does.  :func:`sanitize` arms two layers of runtime checking:

* **Batch-boundary leak checks** — every ``align_batch*`` engine calls
  :func:`repro.analysis.sanitizer.runtime.batch_begin` on entry and
  ``batch_end`` in a ``finally``.  While a session is armed, that pair
  snapshots the ambient hook state (the :mod:`repro.core.isa` fault hook
  and the :mod:`repro.obs` flag/recorder/metrics trio) at entry and
  re-checks it at exit, so a hook armed inside a batch that survives the
  batch's return *or raise* fails loudly at the boundary where it leaked.
  Snapshots are per batch, not per session: a batch legitimately running
  inside ``obs.capture()`` or ``fault_injection()`` sees the armed state
  on both sides of the boundary and passes.
* **Session-exit check** — on clean exit of the ``sanitize()`` block the
  ambient state must match what it was on entry; anything left armed by
  non-batch code is reported then.

The kernel backends need no runtime guard: :mod:`repro.align.backends`
builds both engines at import into a read-only table, so a late
registration or a cross-thread first fill cannot happen.

The heavy imports (``obs.runtime``, ``core.isa``) happen inside
functions: :mod:`repro.analysis` must stay importable without dragging in
the alignment engines.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from . import runtime
from .runtime import SanitizerError

__all__ = [
    "SanitizerError",
    "SanitizerSession",
    "sanitize",
]

#: Human names for the ambient snapshot slots, in snapshot order.
_AMBIENT_SLOTS = (
    "core.isa ambient fault hook",
    "obs.runtime.ENABLED flag",
    "obs.runtime span recorder",
    "obs.runtime metrics registry",
)


def _ambient_snapshot() -> Tuple:
    """Identity snapshot of every ambient hook the leak check watches."""
    from ...core import isa as isa_mod
    from ...obs import runtime as obs

    return (
        id(isa_mod._AMBIENT_FAULT_HOOK)
        if isa_mod._AMBIENT_FAULT_HOOK is not None
        else None,
        obs.ENABLED,
        id(obs._RECORDER) if obs._RECORDER is not None else None,
        id(obs._METRICS) if obs._METRICS is not None else None,
    )


def _diff_snapshots(before: Tuple, after: Tuple) -> List[str]:
    return [
        name
        for name, entry, exit_ in zip(_AMBIENT_SLOTS, before, after)
        if entry != exit_
    ]


@dataclass
class _BatchToken:
    """Ambient snapshot taken at one batch entry."""

    snapshot: Tuple
    pid: int


@dataclass
class SanitizerSession:
    """Book-keeping for one armed ``sanitize()`` block.

    Attributes:
        batches_checked: batch boundaries verified leak-free.
    """

    batches_checked: int = 0

    def batch_begin(self) -> _BatchToken:
        return _BatchToken(snapshot=_ambient_snapshot(), pid=os.getpid())

    def batch_end(self, token: _BatchToken, where: str) -> None:
        if token.pid != os.getpid():
            return  # forked child finishing its copy of the batch frame
        leaked = _diff_snapshots(token.snapshot, _ambient_snapshot())
        if leaked:
            raise SanitizerError(
                f"ambient state leaked across the {where} batch boundary: "
                f"{', '.join(leaked)} changed between batch entry and exit "
                f"(REPRO007 dynamic); arm hooks through a context manager "
                f"that restores them on the exception path"
            )
        self.batches_checked += 1

    def summary(self) -> Dict[str, object]:
        """JSON-ready description of what the session observed."""
        return {"batches_checked": self.batches_checked}


@contextlib.contextmanager
def sanitize() -> Iterator[SanitizerSession]:
    """Arm the dynamic sanitizer for a block.

    Arms the batch-boundary leak checks in
    :mod:`repro.analysis.sanitizer.runtime` and verifies on clean exit
    that no ambient hook outlived the block.  Nested calls reuse the
    active session rather than stacking a second one.
    """
    if runtime.armed():
        active = runtime.session()
        assert isinstance(active, SanitizerSession)
        yield active
        return

    session = SanitizerSession()
    entry_snapshot = _ambient_snapshot()
    previous = runtime._arm(session)
    try:
        yield session
        leaked = _diff_snapshots(entry_snapshot, _ambient_snapshot())
        if leaked:
            raise SanitizerError(
                f"ambient state leaked out of the sanitize() block: "
                f"{', '.join(leaked)} changed between session entry and "
                f"exit (REPRO007 dynamic)"
            )
    finally:
        runtime._disarm(previous)
