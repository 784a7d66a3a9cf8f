"""Compare two sets of benchmark runs, one row per workload and metric.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``run.py --json`` record (or a list of them, as written
when ``run.py`` runs every workload).  For every (workload, end-to-end
metric) present on both sides the rule of ``BENCHMARK.json`` applies:

* ``unresolved`` — either side's interquartile spread, as a share of its
  median, is wider than the metric's bound, unless every B run reads
  better than every A run;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than the bound;
* ``same`` — otherwise.

Exits 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from common import load_records, load_spec, quartiles, relative_spread


def collect(records: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for record in records:
        for name, entry in record["metrics"].items():
            values[(record["workload"], name)].append(entry["value"])
    return values


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    a_median = quartiles(a)[1]
    change = sign * (quartiles(b)[1] - a_median) / abs(a_median)
    if max(relative_spread(a), relative_spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else 0
    side_a, side_b = argv[:split], argv[split + 1:]
    if not side_a or not side_b:
        print("usage: compare.py A.json... -- B.json...", file=sys.stderr)
        return 2
    spec = load_spec()
    a_values = collect(load_records(side_a))
    b_values = collect(load_records(side_b))
    verdicts = []
    print(
        f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8} {'spread':>7} verdict"
    )
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            verdicts.append(verdict(a, b, metric["better"], metric["bound"]))
            a_q, b_q = quartiles(a), quartiles(b)
            print(
                f"{workload:<13} {metric['name']:<12} "
                f"{_cell(a_q, len(a)):>34} {_cell(b_q, len(b)):>34} "
                f"{(b_q[1] - a_q[1]) / abs(a_q[1]):>+8.1%} "
                f"{max(relative_spread(a), relative_spread(b)):>7.1%} "
                f"{verdicts[-1]} (bound {metric['bound']:.0%})"
            )
    if not verdicts:
        print("no (workload, metric) row present on both sides", file=sys.stderr)
        return 2
    return 1 if {"worse", "unresolved"} & set(verdicts) else 0


def _cell(q: Tuple[float, float, float], n: int) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] n={n}"


if __name__ == "__main__":
    sys.exit(main())
