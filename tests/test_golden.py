"""Golden-snapshot regression tests for the machine-readable outputs.

Each test renders one of the CLI/export JSON documents, scrubs the
timing-dependent values (see ``sanitize_volatile`` in ``conftest.py``),
and compares the rest byte-for-byte against a committed snapshot in
``tests/golden/``.  A failure means the schema or the deterministic
content changed — either a regression, or an intentional change to bless
with ``pytest --update-golden``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_lint_json_golden(golden, capsys):
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    golden("lint_json", payload)


def test_chaos_report_golden(golden):
    from repro.resilience import run_campaign

    report = run_campaign(
        seed=7,
        faults=6,
        pairs=8,
        length=48,
        workers=1,
        shard_size=3,
        shard_timeout=2.0,
    )
    golden("chaos_report", report.to_dict())


@pytest.mark.slow
def test_experiment_all_golden(golden):
    """The exported artifact's shape: keys plus the status stamps.

    Experiment rows carry measured throughput (volatile by nature), so the
    snapshot pins the key set and the deterministic lint/resilience/
    observability blocks rather than the figures themselves.  The backends
    stamp is pinned through its host-independent fields only — which
    backends exist and that the differential verdict holds.
    """
    from repro.eval.export import run_all

    results = run_all(quick=True)
    backends = results["backends"]
    golden(
        "experiment_all",
        {
            "keys": sorted(results),
            "lint": results["lint"],
            "resilience": results["resilience"],
            "observability": results["observability"],
            "backends": {
                "registered": [
                    entry["name"] for entry in backends["registered"]
                ],
                "default": backends["default"],
                "identical": backends["identical"],
                "checked_pairs": backends["checked_pairs"],
            },
            "serving": {
                "identical": results["serving"]["identical"],
                "cache_identical": results["serving"]["cache_identical"],
                "pairs": results["serving"]["pairs"],
            },
        },
    )
