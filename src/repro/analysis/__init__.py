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
catalogue and CLI usage.  Each name loads its submodule on first access,
so the batch engines' import of the sanitizer's runtime flag loads none
of the passes.
"""

from typing import TYPE_CHECKING

from ..common.lazy import lazy_exports

if TYPE_CHECKING:
    # For type checkers and linters only; ``Name as Name`` marks each one a
    # re-export.  At run time ``__getattr__`` resolves them from the map.
    from .corpus import (
        MalformedCase as MalformedCase,
        aligner_stream_programs as aligner_stream_programs,
        malformed_corpus as malformed_corpus,
    )
    from .diagnostics import (
        CODES as CODES,
        AnalysisError as AnalysisError,
        Diagnostic as Diagnostic,
        Severity as Severity,
        render_text as render_text,
        summarize as summarize,
        worst_severity as worst_severity,
    )
    from .driver import LintReport as LintReport, run_lint as run_lint
    from .program import Instr as Instr, Program as Program
    from .repolint import (
        check_aligner_picklability as check_aligner_picklability,
        lint_repo as lint_repo,
        lint_test_determinism as lint_test_determinism,
    )
    from .sanitizer import (
        SanitizeReport as SanitizeReport,
        SanitizerError as SanitizerError,
        ScanReport as ScanReport,
        ShadowReport as ShadowReport,
        run_sanitize as run_sanitize,
        sanitize as sanitize,
        scan_package as scan_package,
        shadow_execute as shadow_execute,
        violation_corpus as violation_corpus,
    )
    from .sarif import render_sarif as render_sarif, to_sarif as to_sarif
    from .verifier import (
        verify_program as verify_program,
        verify_trace as verify_trace,
        verify_words as verify_words,
    )

__getattr__, __all__ = lazy_exports(
    __name__,
    {
        "corpus": "MalformedCase aligner_stream_programs malformed_corpus",
        "driver": "LintReport run_lint",
        "diagnostics": (
            "CODES AnalysisError Diagnostic Severity render_text summarize "
            "worst_severity"
        ),
        "program": "Instr Program",
        "repolint": (
            "check_aligner_picklability lint_repo lint_test_determinism"
        ),
        "sanitizer": (
            "SanitizeReport SanitizerError ScanReport ShadowReport run_sanitize "
            "sanitize scan_package shadow_execute violation_corpus"
        ),
        "sarif": "render_sarif to_sarif",
        "verifier": "verify_program verify_trace verify_words",
    },
)
