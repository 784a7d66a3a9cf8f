"""Static analysis for the GMX reproduction (``repro lint`` / ``repro sanitize``).

Three passes, one diagnostic vocabulary:

* :mod:`repro.analysis.verifier` — the **GMX program verifier**: abstract
  CSR/register dataflow analysis over instruction streams, both retired
  :class:`~repro.core.isa.IsaEvent` traces and raw binary programs decoded
  through :mod:`repro.core.encoding` (codes ``GMX0xx``).
* :mod:`repro.analysis.repolint` — the **repo invariant lint**: AST-based
  enforcement of codebase contracts the type system can't express
  (codes ``REPRO001``–``005``).
* :mod:`repro.analysis.sanitizer` — the **concurrency & determinism
  sanitizer** ("dsan"): worker-reachability analysis (codes ``REPRO006``–
  ``009``), batch-boundary hook-leak checks, and shadow execution
  diffing parallel-vs-serial content digests.

Findings export as text, JSON, or SARIF (:mod:`repro.analysis.sarif`).
See ``docs/analysis.md`` and ``docs/sanitizer.md`` for the diagnostic
catalogue and CLI usage.
"""

from .corpus import MalformedCase, aligner_stream_programs, malformed_corpus
from .driver import LintReport, run_lint
from .diagnostics import (
    CODES,
    AnalysisError,
    Diagnostic,
    Severity,
    render_text,
    summarize,
    worst_severity,
)
from .program import Instr, Program
from .repolint import (
    check_aligner_picklability,
    lint_repo,
    lint_test_determinism,
)
from .sanitizer import (
    SanitizeReport,
    SanitizerError,
    ScanReport,
    ShadowReport,
    run_sanitize,
    sanitize,
    scan_package,
    shadow_execute,
    violation_corpus,
)
from .sarif import render_sarif, to_sarif
from .verifier import verify_program, verify_trace, verify_words

__all__ = [
    "CODES",
    "AnalysisError",
    "Diagnostic",
    "Instr",
    "LintReport",
    "MalformedCase",
    "Program",
    "SanitizeReport",
    "SanitizerError",
    "ScanReport",
    "Severity",
    "ShadowReport",
    "aligner_stream_programs",
    "check_aligner_picklability",
    "lint_repo",
    "lint_test_determinism",
    "malformed_corpus",
    "render_sarif",
    "render_text",
    "run_lint",
    "run_sanitize",
    "sanitize",
    "scan_package",
    "shadow_execute",
    "summarize",
    "to_sarif",
    "verify_program",
    "verify_trace",
    "verify_words",
    "worst_severity",
]
