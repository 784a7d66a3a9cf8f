"""Dynamic sanitizer: registry guards, leak checks, the ``sanitize()`` CM.

The static side (:mod:`repro.analysis.sanitizer.reachability`) proves the
*source* obeys the worker contracts; this module proves the *process*
does.  :func:`sanitize` arms three layers of runtime checking:

* **Registry guards** — the backend registry and its instance cache are
  wrapped in :class:`GuardedMapping` objects that record the owning
  pid/thread and raise :class:`SanitizerError` on cross-context mutation.
  The registry itself is frozen (registration after workers exist is the
  REPRO009 hazard); the instance cache stays writable from the owning
  thread, because singleton fills there are benign and audited.  A
  *different pid* may always mutate: after ``fork`` the child owns a
  copy-on-write private copy and its writes cannot race the parent.
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

The heavy imports (``align.backends``, ``obs.runtime``, ``core.isa``)
happen inside functions: :mod:`repro.analysis` must stay importable
without dragging in the alignment engines.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from . import runtime
from .runtime import SanitizerError

__all__ = [
    "AuditEvent",
    "GuardedMapping",
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


@dataclass(frozen=True)
class AuditEvent:
    """One permitted mutation of a guarded mapping (the audit trail)."""

    name: str
    op: str
    key: object
    pid: int
    thread: int


class GuardedMapping:
    """A mapping proxy that polices who may mutate the underlying dict.

    Wraps (never copies) ``data``: reads delegate straight through, so
    code holding the guard sees exactly the shared registry.  Mutations
    are checked against the ownership rules:

    * **different pid** → allowed silently.  A forked worker mutates its
      private copy-on-write clone; nothing it does is visible here.
    * **frozen** → :class:`SanitizerError` on any same-pid mutation.
    * **different thread, same pid** → :class:`SanitizerError`; this is
      the genuine race the sanitizer exists to catch.
    * **owner thread** → allowed, recorded in the audit trail.

    On session teardown the original dict object (with any audited
    mutations) is restored to the module attribute, so the guard leaves
    no trace once disarmed.
    """

    __slots__ = ("_data", "_name", "_frozen", "_audit", "_pid", "_thread")

    def __init__(
        self,
        data: Dict,
        *,
        name: str,
        frozen: bool = False,
        audit: Optional[List[AuditEvent]] = None,
    ) -> None:
        self._data = data
        self._name = name
        self._frozen = frozen
        self._audit = audit if audit is not None else []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    # -- ownership ---------------------------------------------------------

    @property
    def data(self) -> Dict:
        """The wrapped dict (for teardown and tests)."""
        return self._data

    @property
    def owner(self) -> Tuple[int, int]:
        """(pid, thread ident) recorded at guard construction."""
        return (self._pid, self._thread)

    def _authorize(self, op: str, key: object) -> bool:
        """True when the mutation may proceed (and audits it); raises else."""
        pid = os.getpid()
        if pid != self._pid:
            return True  # fork-private copy; invisible to the owner
        thread = threading.get_ident()
        if self._frozen:
            raise SanitizerError(
                f"{self._name} is frozen under the sanitizer: {op}({key!r}) "
                f"from pid {pid} would mutate a process-global registry "
                f"while workers may already hold copies (REPRO009 dynamic)"
            )
        if thread != self._thread:
            raise SanitizerError(
                f"cross-thread mutation of {self._name}: {op}({key!r}) from "
                f"thread {thread}, but the guard is owned by thread "
                f"{self._thread} (pid {pid}); shared registries must only "
                f"be written by their owning thread"
            )
        self._audit.append(
            AuditEvent(name=self._name, op=op, key=key, pid=pid, thread=thread)
        )
        return True

    # -- reads (straight delegation) --------------------------------------

    def __getitem__(self, key):
        return self._data[key]

    def __contains__(self, key) -> bool:
        return key in self._data

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def get(self, key, default=None):
        return self._data.get(key, default)

    def keys(self):
        return self._data.keys()

    def values(self):
        return self._data.values()

    def items(self):
        return self._data.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "frozen" if self._frozen else "owner-checked"
        return f"GuardedMapping({self._name}, {mode}, {len(self._data)} keys)"

    # -- mutations (checked) ----------------------------------------------

    def __setitem__(self, key, value) -> None:
        self._authorize("__setitem__", key)
        self._data[key] = value

    def __delitem__(self, key) -> None:
        self._authorize("__delitem__", key)
        del self._data[key]

    def pop(self, key, *default):
        self._authorize("pop", key)
        return self._data.pop(key, *default)

    def setdefault(self, key, default=None):
        if key not in self._data:
            self._authorize("setdefault", key)
        return self._data.setdefault(key, default)

    def update(self, *args, **kwargs) -> None:
        self._authorize("update", None)
        self._data.update(*args, **kwargs)

    def clear(self) -> None:
        self._authorize("clear", None)
        self._data.clear()


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
        audit: permitted guarded-registry mutations, in order.
        batches_checked: batch boundaries verified leak-free.
        guards: the installed :class:`GuardedMapping` objects by name.
    """

    audit: List[AuditEvent] = field(default_factory=list)
    batches_checked: int = 0
    guards: Dict[str, GuardedMapping] = field(default_factory=dict)
    _pid: int = field(default_factory=os.getpid)

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
        return {
            "batches_checked": self.batches_checked,
            "registry_mutations_audited": len(self.audit),
            "guards": sorted(self.guards),
            "audit": [
                {"name": e.name, "op": e.op, "key": repr(e.key)}
                for e in self.audit[:50]
            ],
        }


@contextlib.contextmanager
def sanitize(
    *, freeze_backend_registry: bool = True
) -> Iterator[SanitizerSession]:
    """Arm the dynamic sanitizer for a block.

    Installs :class:`GuardedMapping` guards over the backend registry
    (frozen) and instance cache (owner-checked), arms the batch-boundary
    leak checks in :mod:`repro.analysis.sanitizer.runtime`, and verifies
    on clean exit that no ambient hook outlived the block.  Nested calls
    reuse the active session rather than stacking guards.

    The instance cache is pre-warmed (every registered backend is
    instantiated) before the guards go up, so a first-touch singleton
    fill from inside a worker thread cannot masquerade as a race.
    """
    if runtime.armed():
        active = runtime.session()
        assert isinstance(active, SanitizerSession)
        yield active
        return

    from ...align import backends

    for name in backends.backend_names():
        backends.get_backend(name)

    session = SanitizerSession()
    entry_snapshot = _ambient_snapshot()
    original_registry = backends._REGISTRY
    original_instances = backends._INSTANCES
    session.guards["align.backends._REGISTRY"] = GuardedMapping(
        original_registry,
        name="align.backends._REGISTRY",
        frozen=freeze_backend_registry,
        audit=session.audit,
    )
    session.guards["align.backends._INSTANCES"] = GuardedMapping(
        original_instances,
        name="align.backends._INSTANCES",
        audit=session.audit,
    )
    backends._REGISTRY = session.guards["align.backends._REGISTRY"]
    backends._INSTANCES = session.guards["align.backends._INSTANCES"]
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
        backends._REGISTRY = original_registry
        backends._INSTANCES = original_instances
