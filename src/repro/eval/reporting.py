"""Plain-text rendering of experiment results.

Every experiment in :mod:`repro.eval.experiments` returns structured rows
(lists of dicts); these helpers turn them into the aligned text tables the
benchmark harness prints — the reproduction's equivalent of the paper's
figures and tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Union

Cell = Union[str, int, float, bool, None]


def format_value(value: Cell) -> str:
    """Human-friendly cell formatting (SI-ish floats, stable ints)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3e}"
        if abs(value) >= 100:
            return f"{value:,.1f}"
        return f"{value:.3g}"
    return str(value)


def render_table(
    rows: List[Dict[str, Cell]],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> str:
    """Render rows as an aligned text table.

    Args:
        rows: list of homogeneous dicts.
        columns: column order; defaults to the first row's key order.
        title: optional heading printed above the table.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    formatted = [
        [format_value(row.get(column)) for column in columns] for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in formatted))
        for i, column in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for line in formatted:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def render_lint_badge(summary: Dict[str, int]) -> str:
    """One-line static-analysis badge for experiment reports.

    Args:
        summary: the ``summary`` block of ``repro lint --format json``
            (:func:`repro.analysis.summarize` output: total/errors/warnings).

    Returns:
        ``"lint: clean (0 diagnostics)"`` when nothing fired, otherwise a
        count breakdown — embedded in exported experiment artifacts so a
        report is traceable to the program-verifier state that produced it.
    """
    total = summary.get("total", 0)
    if total == 0:
        return "lint: clean (0 diagnostics)"
    errors = summary.get("errors", 0)
    warnings = summary.get("warnings", 0)
    return f"lint: {total} diagnostics ({errors} errors, {warnings} warnings)"


def render_sanitizer_badge(status: Dict[str, object]) -> str:
    """One-line concurrency/determinism badge for experiment reports.

    Args:
        status: the ``sanitizer`` block of an exported artifact
            (:func:`repro.eval.export._sanitizer_status` output).

    Returns:
        ``"sanitizer: clean (N worker-reachable fns, M batches guarded,
        shadow digests identical)"`` when the tree passes, otherwise a
        finding breakdown — embedded in exported artifacts so a report
        records that parallel execution was sanitized against races,
        hook leaks, and parallel-vs-serial divergence.
    """
    if status.get("clean"):
        return (
            f"sanitizer: clean ({status.get('worker_reachable', 0)} "
            f"worker-reachable fns, {status.get('batches_checked', 0)} "
            f"batches guarded, shadow digests identical)"
        )
    findings = status.get("findings", 0)
    dynamic = status.get("dynamic_errors", 0)
    mismatches = status.get("shadow_mismatches", 0)
    return (
        f"sanitizer: DIRTY ({findings} findings, {dynamic} runtime "
        f"violations, {mismatches} shadow mismatches)"
    )


def render_resilience_badge(report: Dict[str, object]) -> str:
    """One-line fault-tolerance badge for experiment reports.

    Args:
        report: a chaos :meth:`~repro.resilience.CampaignReport.to_dict`.

    Returns:
        ``"resilience: OK (N faults injected, output identical)"`` for a
        passing campaign, otherwise a failure breakdown — embedded in
        exported artifacts so a report records that the numbers came from
        an engine that demonstrably survives injected faults.
    """
    counters = report.get("counters", {})
    injected = counters.get("faults_injected", 0)
    if report.get("ok"):
        return (
            f"resilience: OK ({injected} faults injected, output identical)"
        )
    unaccounted = len(report.get("unaccounted", ()))
    identical = "identical" if report.get("identical") else "DIVERGED"
    return (
        f"resilience: FAILED ({injected} faults injected, output "
        f"{identical}, {unaccounted} unaccounted)"
    )


def render_observability_badge(status: Dict[str, object]) -> str:
    """One-line observability badge for experiment reports.

    Args:
        status: the ``observability`` block of an exported artifact
            (:func:`repro.eval.export._observability_status` output).

    Returns:
        ``"observability: N kernels instrumented (M pairs, K spans)"`` —
        embedded in exported artifacts so a report records that per-kernel
        metrics were captured live from the instrumented hot paths.
    """
    kernels = status.get("kernels", {})
    pairs = sum(
        entry.get("pairs", 0)
        for entry in kernels.values()
        if isinstance(entry, dict)
    )
    spans = status.get("spans", 0)
    return (
        f"observability: {len(kernels)} kernels instrumented "
        f"({pairs} pairs, {spans} spans)"
    )


def render_backends_badge(status: Dict[str, object]) -> str:
    """One-line kernel-backend badge for experiment reports.

    Args:
        status: the ``backends`` block of an exported artifact
            (:func:`repro.eval.export._backend_status` output).

    Returns:
        ``"backends: N registered (names), default 'bitpar', differential
        identical on K pairs"`` — embedded in exported artifacts so a
        report records which kernel engines exist and that the fast ones
        reproduce the reference bit-for-bit.
    """
    registered = status.get("registered", [])
    names = ", ".join(
        entry.get("name", "?") for entry in registered if isinstance(entry, dict)
    )
    verdict = "identical" if status.get("identical") else "DIVERGENT"
    return (
        f"backends: {len(registered)} registered ({names}), "
        f"default {status.get('default')!r}, differential {verdict} "
        f"on {status.get('checked_pairs', 0)} pairs"
    )


def render_serving_badge(status: Dict[str, object]) -> str:
    """One-line serving-layer badge for experiment reports.

    Args:
        status: the ``serving`` block of an exported artifact
            (:func:`repro.eval.export._serving_status` output).

    Returns:
        ``"serving: OK (N pairs served identical to batch, replay 100%
        cached, hit_rate H)"`` when the coalesced/cached serving path
        reproduces the batch engine exactly, otherwise a divergence
        breakdown — embedded in exported artifacts so a report records
        that alignment-as-a-service returns the bytes the engine computes.
    """
    cache = status.get("cache", {})
    hit_rate = cache.get("hit_rate", 0.0) if isinstance(cache, dict) else 0.0
    if status.get("identical") and status.get("cache_identical"):
        return (
            f"serving: OK ({status.get('pairs', 0)} pairs served identical "
            f"to batch, replay 100% cached, hit_rate {hit_rate})"
        )
    first = "identical" if status.get("identical") else "DIVERGED"
    replay = "cached" if status.get("cache_identical") else "NOT cached"
    return (
        f"serving: FAILED (first pass {first}, replay {replay}, "
        f"hit_rate {hit_rate})"
    )


def ratio(numerator: float, denominator: float) -> float:
    """Safe ratio (0 when the denominator is 0)."""
    return numerator / denominator if denominator else 0.0


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0 when empty)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))
