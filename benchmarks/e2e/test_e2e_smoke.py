"""Smoke test of the end-to-end benchmark at 2% scale.

Runs every workload once untraced and once traced, plants a wrong score
to check that the correctness gate fails the run, and checks that the
benchmark refuses to report without the ``repro`` sources::

    python -m pytest -q benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--scale", "0.02", "--seconds", "1", "--seed", "5"]
SCRATCH = ROOT / ".bench" / "smoke"

#: Runs the benchmark with Full(GMX) reporting every score one too high.
PLANT_WRONG_SCORE = f"""
import sys
sys.path[:0] = [{str(HERE)!r}, {str(ROOT / "src")!r}]
from repro.align import full_gmx
original = full_gmx.FullGmxAligner.align
def off_by_one(self, pattern, text, *, traceback=True):
    result = original(self, pattern, text, traceback=traceback)
    result.score += 1
    return result
full_gmx.FullGmxAligner.align = off_by_one
import run
sys.exit(run.main(sys.argv[1:]))
"""


def _run(args, *, script=None, cwd=ROOT) -> subprocess.CompletedProcess:
    head = ["-c", script] if script else ["benchmarks/e2e/run.py"]
    return subprocess.run(
        [sys.executable, *head, *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_reports_every_metric(workload):
    plain = _run(["--workload", workload, *SMOKE])
    assert plain.returncode == 0, plain.stdout + plain.stderr
    result = _result(plain)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [name for name in result["metrics"]] == [
        entry["name"] for entry in SPEC["end_to_end"]
    ]
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
        line = rf"^\s+{re.escape(entry['name'])}\s+\S+ {re.escape(entry['unit'])}$"
        assert re.search(line, plain.stdout, re.MULTILINE), entry["name"]

    trace_dir = SCRATCH / workload
    traced = _run(
        ["--workload", workload, *SMOKE, "--trace", "1",
         "--trace-dir", str(trace_dir)]
    )
    assert traced.returncode == 0, traced.stdout + traced.stderr
    result = _result(traced)
    assert result["correct"]
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    trace = json.loads((trace_dir / f"{workload}.trace.json").read_text())
    events = trace["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)
    assert all(event["dur"] >= 0 and event["ts"] >= 0 for event in events)
    assert any(event["name"].startswith("bench.") for event in events)
    layers = json.loads((trace_dir / f"{workload}.layers.json").read_text())
    assert layers["metrics"] == result["metrics"]
    assert {"nproc", "python", "git_sha", "load1_before", "load1_after"} <= set(
        layers["host"]
    )


def test_planted_wrong_score_fails_the_run():
    proc = _run(["--workload", "short-tb", *SMOKE], script=PLANT_WRONG_SCORE)
    assert proc.returncode != 0
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] <= result["attempted"]


def test_refuses_to_report_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "short-tb", *SMOKE], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
