"""The sanitizer's violation corpus and its CLI gate.

Mirrors the verifier-corpus contract: every annotated case must produce
exactly its expected findings (``repro sanitize --corpus`` exits
non-zero by construction), and the shipped tree must sanitize clean
(exit 0).
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro.analysis.sanitizer import run_sanitize, sanitize, violation_corpus
from repro.analysis.sanitizer.runtime import SanitizerError
from repro.analysis.sanitizer.sancorpus import CORPUS_CONFIG
from repro.analysis.sanitizer.reachability import scan_tree
from repro.cli import main


def _write_case(case, root: Path) -> None:
    for relative, source in case.files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def test_corpus_covers_every_rule_both_ways():
    corpus = violation_corpus(seed=0)
    static = [c for c in corpus if c.kind == "static"]
    dynamic = [c for c in corpus if c.kind == "dynamic"]
    assert len(dynamic) == 1
    covered = {code for case in static for code, _ in case.expect}
    assert covered == {"REPRO006", "REPRO007", "REPRO008", "REPRO009"}
    # Every rule also has a clean twin (a static case expecting nothing).
    clean = [c for c in static if not c.expect]
    assert len(clean) >= 4


def test_every_static_case_matches_its_annotations():
    for case in violation_corpus(seed=0):
        if case.kind != "static":
            continue
        with tempfile.TemporaryDirectory(prefix="dsan-test-") as tmp:
            root = Path(tmp)
            _write_case(case, root)
            report = scan_tree(root, config=CORPUS_CONFIG)
            got = tuple(sorted((d.code, d.where) for d in report.findings))
            assert got == case.expect, (
                f"case {case.name}: expected {case.expect}, got {got}"
            )


def test_every_dynamic_case_raises_under_session():
    for case in violation_corpus(seed=0):
        if case.kind != "dynamic":
            continue
        raised = False
        with sanitize():
            try:
                case.trigger()
            except SanitizerError:
                raised = True
        assert raised, f"dynamic case {case.name} did not raise"


def test_corpus_is_seed_stable():
    """Structure (cases + expectation codes) is seed-independent."""
    for seed in (1, 7, 42):
        corpus = violation_corpus(seed=seed)
        assert [c.name for c in corpus] == [
            c.name for c in violation_corpus(seed=0)
        ]
        for case, base in zip(corpus, violation_corpus(seed=0)):
            assert [code for code, _ in case.expect] == [
                code for code, _ in base.expect
            ]


def test_run_sanitize_corpus_all_matched():
    report = run_sanitize(
        seed=3,
        static=False,
        dynamic=False,
        shadow=False,
        corpus=True,
    )
    assert report.corpus_matched == report.corpus_cases
    assert report.corpus_cases == len(violation_corpus(seed=3))


def test_cli_sanitize_clean_tree_exits_zero(capsys):
    assert (
        main(
            [
                "sanitize",
                "--skip-shadow",
                "--pairs", "4",
                "--workers", "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "sanitize: clean" in out


def test_cli_sanitize_corpus_exits_nonzero(capsys):
    """--corpus runs real violations, so the exit code must be 1."""
    assert (
        main(
            [
                "sanitize",
                "--corpus",
                "--skip-static",
                "--skip-dynamic",
                "--skip-shadow",
            ]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "violation corpus" in out
    corpus_size = len(violation_corpus(seed=0))
    assert f"{corpus_size}/{corpus_size} cases" in out


def test_cli_sanitize_json(capsys):
    assert (
        main(
            [
                "sanitize",
                "--format", "json",
                "--skip-shadow",
                "--pairs", "4",
                "--workers", "1",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["scan"]["worker_reachable"] > 0
    assert payload["session"]["batches_checked"] >= 1
