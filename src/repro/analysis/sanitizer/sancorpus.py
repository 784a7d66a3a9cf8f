"""Seeded violation corpus for the sanitizer (dsan's malformed programs).

The verifier proves it catches bad instruction streams by running a
corpus of deliberately malformed programs whose diagnostics are
annotated; ``repro lint --corpus`` must flag every one.  The sanitizer
gets the same treatment, on both sides:

* **static cases** — tiny synthetic source trees, each with a worker
  entry point and a deliberate REPRO006–009 violation.  The expected
  findings are *annotated in the source itself*: a trailing
  ``# <<REPRO006>>`` marker names the code expected on that exact line,
  so the expectation can never drift from the snippet.  Clean
  counterparts (the same shape written correctly) must produce zero
  findings — they pin down the rule boundaries, not just the rules.
* **dynamic cases** — trigger callables that commit a runtime violation
  (leaking an ambient hook across a batch boundary) and must raise
  :class:`~repro.analysis.sanitizer.runtime.SanitizerError` under an
  armed :func:`~repro.analysis.sanitizer.guards.sanitize` session.

``repro sanitize --corpus`` runs every case and exits non-zero by
construction (the static violations are real findings); CI asserts that
exit code, which is the acceptance gate for the corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .reachability import ScanConfig

__all__ = ["ViolationCase", "violation_corpus"]

#: Trailing source annotation naming the diagnostic expected on its line.
_MARKER = re.compile(r"#\s*<<(REPRO\d{3})>>")

#: Scan configuration for corpus trees: a single ``worker.py`` whose
#: ``_shard_worker`` function is the worker entry point; no kernel-class
#: roots, no path prefix.
CORPUS_CONFIG = ScanConfig(
    roots=("worker.py::_shard_worker",),
    kernel_base=None,
    where_prefix="",
)


@dataclass(frozen=True)
class ViolationCase:
    """One corpus entry: a violation (or its clean twin) plus expectations.

    Attributes:
        name: stable case identifier (shows up in reports).
        kind: ``static`` (scan a source tree) or ``dynamic`` (run a
            trigger under an armed session).
        description: what the case proves.
        files: relative path → source, for static cases.
        expect: ``(code, where)`` pairs the scan must produce — derived
            from the ``# <<CODE>>`` markers, never written by hand.
        trigger: the violating callable, for dynamic cases; must raise
            ``SanitizerError`` while a session is armed.
    """

    name: str
    kind: str
    description: str
    files: Dict[str, str] = field(default_factory=dict)
    expect: Tuple[Tuple[str, str], ...] = ()
    trigger: Optional[Callable[[], None]] = None


def _expected_findings(files: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    """(code, ``path:line``) pairs from the ``# <<CODE>>`` annotations."""
    expect: List[Tuple[str, str]] = []
    for relative, source in files.items():
        for lineno, line in enumerate(source.splitlines(), start=1):
            for match in _MARKER.finditer(line):
                expect.append((match.group(1), f"{relative}:{lineno}"))
    return tuple(sorted(expect))


def _static(name: str, description: str, source: str) -> ViolationCase:
    files = {"worker.py": source}
    return ViolationCase(
        name=name,
        kind="static",
        description=description,
        files=files,
        expect=_expected_findings(files),
    )


def _static_cases(seed: int) -> List[ViolationCase]:
    cases: List[ViolationCase] = []

    cases.append(_static(
        "repro006-shared-state",
        "worker mutates module-level dict/list state",
        f'''"""Corpus snippet (seed={seed}): worker-visible shared state."""

_CACHE = {{}}
_LOG = []
TOTAL = 0


def _shard_worker(shard):
    results = []
    for key, value in shard:
        _CACHE[key] = value  # <<REPRO006>>
        _LOG.append(key)  # <<REPRO006>>
        results.append(_score(value))
    _bump(len(results))
    return results


def _bump(count):
    global TOTAL
    TOTAL = TOTAL + count  # <<REPRO006>>


def _score(value):
    return len(value) + {seed % 7}
''',
    ))

    cases.append(_static(
        "repro006-clean-threaded",
        "the same worker written correctly: state rides the reply",
        f'''"""Corpus snippet (seed={seed}): state threaded through returns."""

def _shard_worker(shard):
    cache = {{}}
    log = []
    for key, value in shard:
        cache[key] = value
        log.append(key)
    return cache, log, len(log) + {seed % 7}
''',
    ))

    cases.append(_static(
        "repro007-inline-arm",
        "ambient hook armed inline with no exception-path reset",
        f'''"""Corpus snippet (seed={seed}): dangling hook on the raise path."""

_FAULT_HOOK = None


def _shard_worker(shard, isa):
    buffer = []
    isa.trace_sink = buffer  # <<REPRO007>>
    _arm(object())
    out = [len(p) + len(t) for p, t in shard]
    isa.trace_sink = None
    return out, buffer


def _arm(hook):
    global _FAULT_HOOK
    _FAULT_HOOK = hook  # <<REPRO007>>
''',
    ))

    cases.append(_static(
        "repro007-clean-contextmanager",
        "the same arming through a try/finally contextmanager",
        f'''"""Corpus snippet (seed={seed}): guarded hook arming."""

import contextlib

_FAULT_HOOK = None


def _shard_worker(shard, isa):
    with _fault_scope(object()):
        with _trace_scope(isa) as buffer:
            out = [len(p) + len(t) for p, t in shard]
    return out, buffer


@contextlib.contextmanager
def _fault_scope(hook):
    global _FAULT_HOOK
    previous = _FAULT_HOOK
    _FAULT_HOOK = hook
    try:
        yield
    finally:
        _FAULT_HOOK = previous


@contextlib.contextmanager
def _trace_scope(isa):
    previous = isa.trace_sink
    buffer = []
    isa.trace_sink = buffer
    try:
        yield buffer
    finally:
        isa.trace_sink = previous
''',
    ))

    cases.append(_static(
        "repro008-wallclock-rng",
        "wall clock and global RNG feeding worker results",
        f'''"""Corpus snippet (seed={seed}): nondeterminism in the worker."""

import random
import time


def _shard_worker(shard):
    stamp = time.time()  # <<REPRO008>>
    jitter = random.random()  # <<REPRO008>>
    rng = random.Random()  # <<REPRO008>>
    return [(stamp, jitter, rng.randrange({seed + 10})) for _ in shard]
''',
    ))

    cases.append(_static(
        "repro008-clean-seeded",
        "telemetry clocks and a seeded RNG: the allowed forms",
        f'''"""Corpus snippet (seed={seed}): deterministic worker timing."""

import random
import time


def _shard_worker(shard):
    start = time.perf_counter()
    rng = random.Random({seed})
    out = [rng.randrange(100) for _ in shard]
    return out, time.perf_counter() - start
''',
    ))

    cases.append(_static(
        "repro009-registry-mutation",
        "worker registers into a process-global registry after fork",
        f'''"""Corpus snippet (seed={seed}): post-fork registry writes."""

_REGISTRY = {{}}
_INSTANCES = {{}}


def _shard_worker(shard):
    _REGISTRY["late-{seed}"] = object  # <<REPRO009>>
    _INSTANCES.pop("stale", None)  # <<REPRO009>>
    return [len(p) for p, _ in shard]
''',
    ))

    cases.append(_static(
        "repro009-clean-pragma",
        "an audited per-process cache fill suppressed with a dsan pragma",
        f'''"""Corpus snippet (seed={seed}): allowed singleton cache fill."""

_INSTANCES = {{}}


def _shard_worker(shard):
    engine = _get_engine("pure-{seed}")
    return [engine(p, t) for p, t in shard]


def _get_engine(name):
    if name not in _INSTANCES:
        _INSTANCES[name] = _build(name)  # dsan: allow[REPRO009] cache fill
    return _INSTANCES[name]


def _build(name):
    return lambda p, t: len(p) + len(t) + len(name)
''',
    ))

    return cases


def _dynamic_cases() -> List[ViolationCase]:
    def batch_hook_leak() -> None:
        from ...obs import runtime as obs
        from . import runtime

        token = runtime.batch_begin()
        obs.enable()
        try:
            runtime.batch_end(token, "corpus.batch_hook_leak")
        finally:
            obs.disable()

    return [
        ViolationCase(
            name="dynamic-batch-hook-leak",
            kind="dynamic",
            description="an obs recorder armed inside a batch and still "
            "armed at batch exit must raise at the boundary",
            trigger=batch_hook_leak,
        ),
    ]


def violation_corpus(seed: int = 0) -> List[ViolationCase]:
    """Every corpus case, static then dynamic, seeded for replay.

    The seed is woven into snippet constants and registry key names so a
    failing case names the exact inputs that produced it; the *structure*
    of the corpus (cases and their expectations) is seed-independent.
    """
    return _static_cases(seed) + _dynamic_cases()
