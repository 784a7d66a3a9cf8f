"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload short-tb --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --workload serve-mix --trace 1
    python3 benchmarks/e2e/run.py --json runs/a1.json     # every workload

One workload runs for ``--seconds`` of measured time, checks its outputs
against independent oracles (and, for the default seed at full scale,
against the committed digests in ``digests.json``), prints every metric
by name with its unit, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload untraced and under ``repro.obs``
capture (two short runs each), pushes the workload's sample through
every layer (``layers.py``), writes ``<workload>.trace.json``
(Chrome/Perfetto) and ``<workload>.layers.json`` to ``--trace-dir``, and
reports the per-layer metrics.  Without ``--workload`` every workload runs in its own
subprocess.  A wrong output, a failed operation or a missing ``repro``
package exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import DEFAULT_SEED, DIGESTS_PATH, ROOT, load_spec, metric_units

sys.path.insert(0, str(ROOT / "src"))

#: Fresh-process set-ups per run, half before and half after the timed
#: part so one slow spell of the host cannot hold them all; ``setup_s``
#: is their median.
SETUP_REPEATS = 6

#: Seconds one set-up probe may take before the run is abandoned.
SETUP_TIMEOUT = 120


def parse_args(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro alignment stack."
    )
    parser.add_argument(
        "--workload", choices=[entry["name"] for entry in spec["workloads"]],
        help="run one workload (default: each in its own subprocess)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measured time per run",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced run reporting the per-layer metrics",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=ROOT / ".bench" / "trace",
        help="where --trace 1 writes its trace and layer files",
    )
    parser.add_argument(
        "--json", type=Path, help="also write the full result record here"
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload count (the smoke test uses 0.02)",
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0:
        parser.error("--seconds and --scale must be positive")
    if args.setup_probe and args.workload is None:
        parser.error("--setup-probe needs --workload")
    return args


def setup_probe(args: argparse.Namespace) -> int:
    """Time import, construction and warm-up to the first result."""
    start = time.perf_counter()
    import workloads

    imported = time.perf_counter() - start
    workload = workloads.make(args.workload, args.seed, args.scale)
    inputs = workload.warm_inputs()
    start = time.perf_counter()
    close = workload.warm(inputs)
    warmed = time.perf_counter() - start
    close()
    print(repr(imported + warmed))
    return 0


def measure_setup(args: argparse.Namespace, repeats: int) -> List[float]:
    """Set-up seconds of ``repeats`` fresh processes."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", repr(args.scale),
    ]
    samples = []
    for _ in range(repeats):
        probe = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=SETUP_TIMEOUT,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr[-4000:]}")
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_digest(name: str, m, args: argparse.Namespace) -> str:
    """Compare the canonical-output digest with the recorded one."""
    if args.seed != DEFAULT_SEED or args.scale != 1 or m.digest is None:
        return "not applicable"
    recorded = json.loads(DIGESTS_PATH.read_text()).get(name)
    if recorded is None:
        return "not recorded"
    if recorded != m.digest:
        m.wrong("digest", f"outputs hash to {m.digest}, recorded {recorded}")
        return "mismatch"
    return "match"


def prepare(workload) -> None:
    """Build the inputs, then warm up untimed: set-up is ``setup_s``'s job."""
    workload.prepare()
    workload.warm(workload.warm_inputs())()


def run_plain(workload, args) -> dict:
    """The untraced run: end-to-end metrics."""
    setup = measure_setup(args, SETUP_REPEATS // 2)
    prepare(workload)
    m = workload.run(args.seconds)
    setup += measure_setup(args, SETUP_REPEATS - SETUP_REPEATS // 2)
    workload.check(m)
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "bases_per_s": m.bases_per_s,
            "p50_ms": m.p50_ms,
        },
        "extras": dict(m.extras, setup_samples=len(setup),
                       latency_rounds=len(m.latency_rounds)),
        "digest": check_digest(workload.name, m, args),
        "output_sha256": m.digest,
        "attempted": m.attempted,
        "failed": m.failed,
        "problems": m.problems,
    }


def run_traced(workload, args, per_layer: List[str]) -> dict:
    """Untraced and traced runs, then the layer ladder: per-layer metrics.

    The budget is cut into four runs in the order untraced, traced,
    traced, untraced, so drift over the run cancels out of the tracing
    overhead.
    """
    from repro import obs

    from layers import probe_layers

    quarter = args.seconds / 4
    prepare(workload)
    plain = [workload.run(quarter)]
    with obs.capture() as (recorder, _registry):
        with obs.span("bench.run", workload=workload.name):
            traced = [workload.run(quarter), workload.run(quarter)]
    plain.append(workload.run(quarter))
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = args.trace_dir / f"{workload.name}.trace.json"
    trace_path.write_text(json.dumps(recorder.chrome_trace()))
    ladder, ladder_problems = probe_layers(workload.layer_sample())
    first = plain[0]
    workload.check(first)
    for m in plain[1:] + traced:
        if m.digest != first.digest:
            m.wrong("digest", "outputs differ between identical runs")
    measured = dict(ladder, **first.layers)
    measured["trace.overhead_frac"] = _rate(plain) / _rate(traced) - 1
    runs = plain + traced
    return {
        # A layer the workload bypasses reads 0 (only counts and shares can).
        "metrics": {name: measured.get(name, 0.0) for name in per_layer},
        "extras": dict(first.extras, trace_spans=len(recorder)),
        "digest": check_digest(workload.name, first, args),
        "output_sha256": first.digest,
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs) + len(ladder_problems),
        "problems": [p for m in runs for p in m.problems] + ladder_problems,
    }


def _rate(runs) -> float:
    """Bases per second over several runs together."""
    return sum(m.bases for m in runs) / sum(m.busy_seconds for m in runs)


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the repro package: {exc}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.scale)
    section = "per_layer" if args.trace else "end_to_end"
    units = metric_units(spec, section)
    load_before = os.getloadavg()[0]
    if args.trace:
        outcome = run_traced(workload, args, list(units))
    else:
        outcome = run_plain(workload, args)
    attempted, failed = outcome["attempted"], outcome["failed"]
    correct = failed == 0 and attempted > 0
    record = dict(
        outcome,
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        trace=args.trace,
        correct=correct,
        failed_frac=failed / attempted if attempted else 1.0,
        metrics={
            name: {"value": outcome["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
        counts=workload.counts(),
        host={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "load1_before": load_before,
            "load1_after": os.getloadavg()[0],
        },
        problems=outcome["problems"][:50],
    )
    print_report(record)
    outputs = [args.json] if args.json is not None else []
    if args.trace:
        outputs.append(args.trace_dir / f"{workload.name}.layers.json")
    for path in outputs:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def print_report(record: dict) -> None:
    host = record["host"]
    print(
        f"{record['workload']}: seed={record['seed']} "
        f"seconds={record['seconds']:g} scale={record['scale']:g} "
        f"trace={record['trace']}"
    )
    print(
        f"  host: nproc={host['nproc']} python={host['python']} "
        f"git={host['git_sha'][:12]} load1={host['load1_before']:.2f}"
        f"->{host['load1_after']:.2f}"
    )
    print(f"  counts: {json.dumps(record['counts'], sort_keys=True)}")
    for name, entry in record["metrics"].items():
        print(f"  {name:<26} {entry['value']:.6g} {entry['unit']}")
    for name, value in sorted(record["extras"].items()):
        print(f"  ({name} = {value:.6g})")
    print(
        f"  attempted={record['attempted']} failed={record['failed']} "
        f"failed_frac={record['failed_frac']:.6g} digest={record['digest']}"
    )
    for problem in record["problems"][:10]:
        print(f"  WRONG: {problem}", file=sys.stderr)


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in a fresh subprocess, one after another."""
    status = 0
    records: List[Dict] = []
    scratch = ROOT / ".bench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for entry in spec["workloads"]:
            out = Path(tmp) / f"{entry['name']}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", entry["name"], "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--trace-dir", str(args.trace_dir), "--scale", repr(args.scale),
                "--json", str(out),
            ]
            code = subprocess.run(command, cwd=ROOT).returncode
            status = status or code
            if out.exists():
                records.append(json.loads(out.read_text()))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(records, indent=2, sort_keys=True))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
