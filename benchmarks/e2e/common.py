"""Helpers shared by the end-to-end benchmark, its comparer and its test.

Only the standard library is imported here, so ``compare.py`` and the
smoke test work without the ``repro`` package on the path.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Repository root (this file lives in ``benchmarks/e2e/``).
ROOT = Path(__file__).resolve().parents[2]

#: The benchmark description: workloads, metric names, units and bounds.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Canonical-output digests recorded for the default seed at scale 1.
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

#: Seed whose outputs the committed digests describe.
DEFAULT_SEED = 0


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict, section: str) -> Dict[str, str]:
    """Metric name → unit for one section (``end_to_end``/``per_layer``)."""
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100), linear between closest ranks.

    Total on any non-empty input; a single sample is every percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lo = math.floor(position)
    hi = math.ceil(position)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile).

    Uses ``statistics.quantiles(values, n=4)`` — the rule the
    benchmark's acceptance is judged by — and degrades to the single
    value for one sample.
    """
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def load_records(paths: Sequence[str]) -> List[dict]:
    """Result records from ``run.py --json`` files (a record or a list)."""
    records: List[dict] = []
    for path in paths:
        payload = json.loads(Path(path).read_text())
        records.extend(payload if isinstance(payload, list) else [payload])
    return records
