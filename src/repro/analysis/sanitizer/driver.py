"""Sanitize driver: one entry point for ``repro sanitize``.

:func:`run_sanitize` composes the sanitizer's passes the way
:func:`repro.analysis.driver.run_lint` composes the lint's:

* **worker-reachability** — the static scan of the installed package
  (:func:`~repro.analysis.sanitizer.reachability.scan_package`);
* **guarded execution** — a seeded batch run through the parallel and
  resilient engines under an armed
  :func:`~repro.analysis.sanitizer.guards.sanitize` session, exercising
  the batch-boundary and session-exit leak checks on live code;
* **shadow execution** — seeded serial re-execution of sampled shards
  diffed against the parallel digests
  (:func:`~repro.analysis.sanitizer.shadow.shadow_execute`);
* optionally the **violation corpus** — every seeded violation case,
  whose findings/errors are *expected*; ``repro sanitize --corpus``
  exits non-zero by construction, which is the corpus acceptance gate.

Alignment-engine imports stay inside the functions that need them.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..diagnostics import Diagnostic, render_text, summarize
from .guards import SanitizerError, sanitize
from .reachability import ScanReport, scan_package, scan_tree
from .sancorpus import CORPUS_CONFIG, ViolationCase, violation_corpus
from .shadow import ShadowReport, shadow_execute

__all__ = ["SanitizeReport", "run_sanitize"]


@dataclass
class SanitizeReport:
    """Everything one sanitize run produced, ready to render or serialise.

    Attributes:
        diagnostics: static findings from every scanned tree.
        dynamic_errors: :class:`SanitizerError` messages from guarded
            execution (empty on a healthy tree).
        scan: the package reachability scan (``None`` when skipped).
        session: guarded-execution summary (batches checked).
        shadow: the shadow-execution report (``None`` when skipped).
        corpus_cases / corpus_matched: violation-corpus accounting.
        sections: pass name → diagnostics of that pass.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    dynamic_errors: List[str] = field(default_factory=list)
    scan: Optional[ScanReport] = None
    session: Optional[Dict[str, object]] = None
    shadow: Optional[ShadowReport] = None
    corpus_cases: int = 0
    corpus_matched: int = 0
    sections: Dict[str, List[Diagnostic]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """No static findings, no runtime violations, no shadow drift."""
        return (
            not self.diagnostics
            and not self.dynamic_errors
            and (self.shadow is None or self.shadow.clean)
        )

    def to_dict(self) -> dict:
        """JSON-ready form (``repro sanitize --format json``)."""
        return {
            "clean": self.clean,
            "summary": summarize(self.diagnostics),
            "dynamic_errors": list(self.dynamic_errors),
            "scan": self.scan.to_dict() if self.scan else None,
            "session": self.session,
            "shadow": self.shadow.to_dict() if self.shadow else None,
            "corpus_cases": self.corpus_cases,
            "corpus_matched": self.corpus_matched,
            "sections": {
                name: [d.to_dict() for d in diags]
                for name, diags in self.sections.items()
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render(self) -> str:
        """Human-readable multi-section report."""
        lines: List[str] = []
        for name, diags in self.sections.items():
            status = "clean" if not diags else f"{len(diags)} diagnostics"
            lines.append(f"[{name}] {status}")
            if diags:
                lines.append(render_text(diags))
        if self.scan is not None:
            lines.append(
                f"worker-reachability: {len(self.scan.reachable)} functions "
                f"reachable from {len(self.scan.roots)} roots across "
                f"{self.scan.modules} modules "
                f"({len(self.scan.suppressed)} suppressed)"
            )
        if self.session is not None:
            lines.append(
                f"guarded execution: "
                f"{self.session['batches_checked']} batch boundaries checked"
            )
        for message in self.dynamic_errors:
            lines.append(f"dynamic violation: {message}")
        if self.shadow is not None:
            verdict = (
                "digests identical"
                if self.shadow.clean
                else f"{len(self.shadow.mismatches)} shard(s) diverged"
            )
            lines.append(
                f"shadow execution: {len(self.shadow.sampled)}/"
                f"{self.shadow.shards} shards re-executed serially, {verdict}"
            )
            for mismatch in self.shadow.mismatches:
                lines.append(f"  {mismatch.render()}")
        if self.corpus_cases:
            lines.append(
                f"violation corpus: {self.corpus_matched}/{self.corpus_cases} "
                f"cases produced their annotated violations"
            )
        lines.append("sanitize: clean" if self.clean else "sanitize: DIRTY")
        return "\n".join(lines)


def _seeded_pairs(
    seed: int, count: int, *, tile_size: int = 32
) -> List[Tuple[str, str]]:
    """Deterministic alignment pairs for the dynamic/shadow passes."""
    from ...workloads.generator import generate_pair

    rng = random.Random(f"dsan-pairs:{seed}")
    pairs: List[Tuple[str, str]] = []
    for _ in range(count):
        length = rng.randint(tile_size, 3 * tile_size)
        error = rng.choice((0.0, 0.05, 0.15))
        pair = generate_pair(length, error, rng)
        pairs.append((pair.pattern, pair.text))
    return pairs


def _guarded_execution(
    report: SanitizeReport,
    pairs: List[Tuple[str, str]],
    *,
    workers: int,
    tile_size: int,
) -> None:
    """Run the parallel and resilient engines under an armed session."""
    from ...align.full_gmx import FullGmxAligner
    from ...align.batch import align_batch
    from ...resilience.engine import align_batch_resilient

    aligner = FullGmxAligner(tile_size=tile_size)
    try:
        with sanitize() as session:
            align_batch(aligner, pairs, workers=workers, shard_size=4)
            align_batch_resilient(aligner, pairs, workers=1, shard_size=4)
            report.session = session.summary()
    except SanitizerError as exc:
        report.dynamic_errors.append(str(exc))


def _shadow_pass(
    report: SanitizeReport,
    pairs: List[Tuple[str, str]],
    *,
    seed: int,
    workers: int,
    sample: int,
    tile_size: int,
) -> None:
    from ...align.full_gmx import FullGmxAligner

    aligner = FullGmxAligner(tile_size=tile_size)
    report.shadow = shadow_execute(
        aligner,
        pairs,
        workers=workers,
        shard_size=4,
        sample=sample,
        seed=seed,
    )


def _run_corpus(report: SanitizeReport, seed: int) -> None:
    """Run every violation case; expected findings land in the report."""
    corpus_diags: List[Diagnostic] = []
    for case in violation_corpus(seed=seed):
        if case.kind == "static":
            matched = _run_static_case(case, corpus_diags)
        else:
            matched = _run_dynamic_case(case, report)
        report.corpus_cases += 1
        if matched:
            report.corpus_matched += 1
    report.sections["violation-corpus"] = corpus_diags
    report.diagnostics.extend(corpus_diags)


def _run_static_case(
    case: ViolationCase, corpus_diags: List[Diagnostic]
) -> bool:
    with tempfile.TemporaryDirectory(prefix="dsan-corpus-") as tmp:
        root = Path(tmp)
        for relative, source in case.files.items():
            target = root / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        scan = scan_tree(root, config=CORPUS_CONFIG)
    corpus_diags.extend(scan.findings)
    got = tuple(sorted((d.code, d.where) for d in scan.findings))
    return got == case.expect


def _run_dynamic_case(case: ViolationCase, report: SanitizeReport) -> bool:
    try:
        with sanitize():
            try:
                case.trigger()
            except SanitizerError:
                return True  # the violation was caught — case passes
            return False  # violation went unnoticed
    except SanitizerError as exc:
        # Leak escaped to the session boundary instead of the batch one.
        report.dynamic_errors.append(f"corpus case {case.name}: {exc}")
        return False


def run_sanitize(
    *,
    seed: int = 0,
    static: bool = True,
    dynamic: bool = True,
    shadow: bool = True,
    corpus: bool = False,
    pairs: int = 12,
    workers: int = 2,
    sample: int = 3,
    tile_size: int = 32,
) -> SanitizeReport:
    """Run the configured sanitizer passes into a :class:`SanitizeReport`.

    Args:
        seed: seed for pair generation, shadow sampling, and the corpus.
        static: run the worker-reachability scan of the package.
        dynamic: run the engines under the batch-boundary leak checks.
        shadow: run shadow execution (serial re-execution + digest diff).
        corpus: also run the violation corpus (findings expected; the
            report goes dirty by construction).
        pairs: seeded pairs for the dynamic/shadow batches.
        workers: worker processes for the parallel runs.
        sample: shards re-executed serially by the shadow pass.
        tile_size: GMX tile dimension of the exercised aligner.
    """
    report = SanitizeReport()

    if static:
        scan = scan_package()
        report.scan = scan
        report.sections["worker-reachability"] = list(scan.findings)
        report.diagnostics.extend(scan.findings)

    batch_pairs = (
        _seeded_pairs(seed, pairs, tile_size=tile_size)
        if (dynamic or shadow)
        else []
    )
    if dynamic:
        _guarded_execution(
            report, batch_pairs, workers=workers, tile_size=tile_size
        )
    if shadow:
        _shadow_pass(
            report,
            batch_pairs,
            seed=seed,
            workers=workers,
            sample=sample,
            tile_size=tile_size,
        )
    if corpus:
        _run_corpus(report, seed)
    return report
