"""Backend speedup gate + the BENCH trajectory snapshot.

Measures the pure reference loop against the bit-parallel backend on the
standard Illumina profile (150 bp, 0.5 % error) and enforces the two
claims of the backend layer: **distance-only bitpar is at least 3x faster
than pure**, and **bitpar with traceback costs at most 3x bitpar
distance-only** — bitpar keeps the fill's column masks and walks them,
recomputing no tile in traceback, so traceback stays within a small
factor of the fill it follows.

The measured run also writes the repo's first performance trajectory
snapshot, ``BENCH_backends.json``: per-backend wall/GCUPS, speedups, and
the per-span ``diff_profiles`` delta between the pure and bitpar hot
paths (captured live via the observability profiler).  The file is
rewritten only when missing or when the benchmark *configuration* block
changed — re-measuring on a different machine never dirties the
checkout, but changing the workload or gate makes ``git diff
--exit-code BENCH_backends.json`` fail in CI until the new snapshot is
committed alongside the change.
"""

import json
import time
from pathlib import Path

from repro.align import FullGmxAligner
from repro.align.backends import backend_names
from repro.obs import runtime as obs
from repro.obs.profiler import build_profile, diff_profiles
from repro.workloads import illumina_like

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

#: The benchmark's identity: changing anything here stales the snapshot.
CONFIG = {
    "schema": 1,
    "workload": "illumina-150bp-0.5%",
    "pairs": 40,
    "seed": 23,
    "tile_size": 8,
    "repeats": 5,
    "speedup_floor": 3.0,
    "traceback_ratio_ceiling": 3.0,
    "gated_on": "distance-only speedup and bitpar traceback/distance ratio",
}


def _measure(backend, *, traceback):
    """Best-of-N wall time + profile for one backend/mode combination."""
    pairs = list(illumina_like(count=CONFIG["pairs"], seed=CONFIG["seed"]))
    aligner = FullGmxAligner(tile_size=CONFIG["tile_size"], backend=backend)
    best_wall = None
    best_profile = None
    cells = 0
    for _ in range(CONFIG["repeats"]):
        with obs.capture() as (recorder, _registry):
            start = time.perf_counter()
            cells = 0
            for pair in pairs:
                result = aligner.align(
                    pair.pattern, pair.text, traceback=traceback
                )
                cells += result.stats.dp_cells
            wall = time.perf_counter() - start
            spans = list(recorder.spans)
        if best_wall is None or wall < best_wall:
            best_wall = wall
            mode = "distance" if not traceback else "traceback"
            best_profile = build_profile(
                spans,
                wall_ns=int(wall * 1e9),
                label=f"{backend}-{mode}",
            )
    return {"wall_seconds": best_wall, "dp_cells": cells}, best_profile


def _gcups(entry):
    return entry["dp_cells"] / entry["wall_seconds"] / 1e9


def test_bitpar_speedup_and_snapshot():
    # -- measure ---------------------------------------------------------
    distance = {}
    profiles = {}
    for backend in backend_names():
        distance[backend], profiles[backend] = _measure(
            backend, traceback=False
        )
    tb = {
        backend: _measure(backend, traceback=True)[0]
        for backend in ("pure", "bitpar")
    }

    # Identical work: every backend must have swept the same DP area.
    assert len({entry["dp_cells"] for entry in distance.values()}) == 1

    # -- the gate --------------------------------------------------------
    speedup = (
        distance["pure"]["wall_seconds"] / distance["bitpar"]["wall_seconds"]
    )
    assert speedup >= CONFIG["speedup_floor"], (
        f"bitpar distance-only speedup {speedup:.2f}x is below the "
        f"{CONFIG['speedup_floor']}x floor "
        f"(pure {distance['pure']['wall_seconds']:.3f}s, "
        f"bitpar {distance['bitpar']['wall_seconds']:.3f}s)"
    )

    tb_ratio = tb["bitpar"]["wall_seconds"] / distance["bitpar"]["wall_seconds"]
    assert tb_ratio <= CONFIG["traceback_ratio_ceiling"], (
        f"bitpar traceback costs {tb_ratio:.2f}x its distance-only run, "
        f"above the {CONFIG['traceback_ratio_ceiling']}x ceiling "
        f"(traceback {tb['bitpar']['wall_seconds']:.3f}s, "
        f"distance {distance['bitpar']['wall_seconds']:.3f}s)"
    )

    # -- the trajectory snapshot ----------------------------------------
    deltas = diff_profiles(profiles["pure"], profiles["bitpar"])
    snapshot = {
        "config": CONFIG,
        "distance_only": {
            backend: {
                "wall_seconds": round(entry["wall_seconds"], 4),
                "gcups": round(_gcups(entry), 5),
                "speedup_vs_pure": round(
                    distance["pure"]["wall_seconds"] / entry["wall_seconds"],
                    2,
                ),
            }
            for backend, entry in distance.items()
        },
        "traceback": {
            backend: {
                "wall_seconds": round(entry["wall_seconds"], 4),
                "gcups": round(_gcups(entry), 5),
                "speedup_vs_pure": round(
                    tb["pure"]["wall_seconds"] / entry["wall_seconds"], 2
                ),
            }
            for backend, entry in tb.items()
        },
        "bitpar_traceback_vs_distance": round(tb_ratio, 2),
        "diff_profiles": [
            {
                "span": delta.name,
                "pure_ms": round(delta.before_ns / 1e6, 3),
                "bitpar_ms": round(delta.after_ns / 1e6, 3),
                "pure_count": delta.before_count,
                "bitpar_count": delta.after_count,
            }
            for delta in deltas[:10]
        ],
    }

    existing = None
    if BENCH_PATH.exists():
        try:
            existing = json.loads(BENCH_PATH.read_text())
        except json.JSONDecodeError:
            existing = None
    if existing is None or existing.get("config") != CONFIG:
        BENCH_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")

    # Whatever was (or now is) on disk must describe this configuration —
    # the currency contract CI enforces with `git diff --exit-code`.
    on_disk = json.loads(BENCH_PATH.read_text())
    assert on_disk["config"] == CONFIG
    assert on_disk["distance_only"]["bitpar"]["speedup_vs_pure"] >= (
        CONFIG["speedup_floor"]
    )
    assert on_disk["bitpar_traceback_vs_distance"] <= (
        CONFIG["traceback_ratio_ceiling"]
    )
