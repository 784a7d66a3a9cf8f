"""Shadow execution: serial re-execution of sampled shards, digest-diffed.

The batch engines promise that a parallel run is *observationally
identical* to a serial one — same scores, same CIGARs, same merged
:class:`~repro.align.base.KernelStats`, same ordering.  The static
analysis and the runtime guards police the known ways that promise
breaks; shadow execution checks the promise itself, end to end:

1. run the batch through :func:`~repro.align.batch.align_batch`
   with the requested worker count;
2. draw a seeded sample of shard indices (``random.Random(seed)``, so a
   failing sample replays exactly);
3. re-execute each sampled shard *serially in this process*, through a
   pickle round-trip of the aligner when it is picklable — the same
   copy-the-aligner semantics a pool worker sees;
4. compare content digests — sha256 over a canonical JSON rendering of
   every result (score, exactness, span, CIGAR, stats with the
   instruction :class:`~collections.Counter` sorted) — between the
   parallel results and the shadow results.

A mismatch is shrunk with the same list-ddmin the conformance oracle
uses, down to a minimal pair list that still diverges, and reported with
the backend name and worker count so the failure is reproducible from
the report alone.

Imports of the alignment engines stay inside functions: the analysis
package must be importable without them.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "ShadowMismatch",
    "ShadowReport",
    "result_digest",
    "results_digest",
    "shadow_execute",
    "shrink_shard",
]

Pair = Tuple[str, str]


def _canonical_stats(stats) -> dict:
    """KernelStats as a deterministic JSON-ready dict (Counter sorted)."""
    return {
        "instructions": dict(sorted(stats.instructions.items())),
        "dp_cells": stats.dp_cells,
        "dp_bytes_peak": stats.dp_bytes_peak,
        "dp_bytes_read": stats.dp_bytes_read,
        "dp_bytes_written": stats.dp_bytes_written,
        "hot_bytes": stats.hot_bytes,
        "tiles": stats.tiles,
    }


def _canonical_result(result) -> dict:
    """AlignmentResult as a deterministic JSON-ready dict."""
    return {
        "score": result.score,
        "cigar": result.cigar,
        "exact": result.exact,
        "text_start": result.text_start,
        "text_end": result.text_end,
        "stats": _canonical_stats(result.stats),
    }


def result_digest(result) -> str:
    """sha256 content digest of one alignment result."""
    payload = json.dumps(
        _canonical_result(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def results_digest(results: Sequence) -> str:
    """sha256 content digest of an ordered result sequence."""
    digest = hashlib.sha256()
    for result in results:
        digest.update(result_digest(result).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class ShadowMismatch:
    """One shard whose parallel and shadow digests diverged.

    Attributes:
        shard_index: position of the shard in input order.
        parallel_digest / shadow_digest: the diverging content digests.
        minimal_pairs: ddmin-shrunk pair list still reproducing the
            divergence (the smallest repro).
        backend / workers: execution context needed to reproduce.
    """

    shard_index: int
    parallel_digest: str
    shadow_digest: str
    minimal_pairs: Tuple[Pair, ...]
    backend: Optional[str]
    workers: int

    def render(self) -> str:
        pairs = ", ".join(f"({p!r}, {t!r})" for p, t in self.minimal_pairs)
        return (
            f"shard {self.shard_index}: parallel {self.parallel_digest[:12]} "
            f"!= shadow {self.shadow_digest[:12]} "
            f"[backend={self.backend or 'n/a'} workers={self.workers}] "
            f"minimal repro: [{pairs}]"
        )


@dataclass
class ShadowReport:
    """Outcome of one shadow-execution verification.

    Attributes:
        pairs / shards: batch size as executed.
        sampled: shard indices re-executed serially (seeded sample).
        seed: sample seed (replays the exact same selection).
        workers / backend: parallel execution context.
        batch_digest: content digest of the full parallel result list.
        mismatches: diverging shards, each with a minimal repro.
    """

    pairs: int = 0
    shards: int = 0
    sampled: List[int] = field(default_factory=list)
    seed: int = 0
    workers: int = 1
    backend: Optional[str] = None
    batch_digest: str = ""
    mismatches: List[ShadowMismatch] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "pairs": self.pairs,
            "shards": self.shards,
            "sampled": list(self.sampled),
            "seed": self.seed,
            "workers": self.workers,
            "backend": self.backend,
            "batch_digest": self.batch_digest,
            "mismatches": [
                {
                    "shard_index": m.shard_index,
                    "parallel_digest": m.parallel_digest,
                    "shadow_digest": m.shadow_digest,
                    "minimal_pairs": [list(p) for p in m.minimal_pairs],
                    "backend": m.backend,
                    "workers": m.workers,
                }
                for m in self.mismatches
            ],
        }


def shrink_shard(
    pairs: Sequence[Pair], still_fails: Callable[[Sequence[Pair]], bool]
) -> List[Pair]:
    """ddmin over a pair list: smallest sublist where ``still_fails`` holds.

    The list analogue of the conformance oracle's string shrinker —
    repeatedly try dropping chunks (halves, quarters, ... single pairs)
    and keep any reduction that still reproduces the failure.
    """
    current = list(pairs)
    if not still_fails(current):
        return current
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        reduced = False
        start = 0
        while start < len(current):
            candidate = current[:start] + current[start + chunk:]
            if candidate and still_fails(candidate):
                current = candidate
                reduced = True
            else:
                start += chunk
        if not reduced:
            if chunk == 1:
                break
            chunk = max(1, chunk // 2)
    return current


def _worker_copy(aligner):
    """The aligner a pool worker would see: a pickle round-trip.

    Falls back to the original instance when it is not picklable — which
    is exactly the case where the engine itself runs inline.
    """
    try:
        return pickle.loads(pickle.dumps(aligner))
    except Exception:
        return aligner


def _serial_shard(aligner, shard: Sequence[Pair], traceback: bool) -> List:
    return [
        aligner.align(pattern, text, traceback=traceback)
        for pattern, text in shard
    ]


def shadow_execute(
    aligner,
    pairs: Sequence[Pair],
    *,
    workers: int = 2,
    shard_size: Optional[int] = None,
    sample: int = 4,
    seed: int = 0,
    traceback: bool = True,
) -> ShadowReport:
    """Run a batch in parallel and shadow-verify a sample of shards.

    Args:
        aligner: any :class:`~repro.align.base.Aligner`.
        pairs: the batch, as ``(pattern, text)`` tuples (materialised —
            shadowing needs to re-read shards).
        workers / shard_size: forwarded to
            :func:`~repro.align.batch.align_batch`.
        sample: maximum number of shards to re-execute serially (all of
            them when the batch has fewer).
        seed: sample-selection seed; the same seed re-checks the same
            shards.
        traceback: forwarded to the aligner (CIGARs need it).

    Returns:
        A :class:`ShadowReport`; ``report.clean`` is the verdict.
    """
    from ...align.batch import align_batch
    from ...align.parallel import DEFAULT_SHARD_SIZE

    pair_list: List[Pair] = [(str(p), str(t)) for p, t in pairs]
    size = shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
    batch = align_batch(
        aligner,
        pair_list,
        workers=workers,
        shard_size=size,
        traceback=traceback,
    )
    shards = [
        pair_list[start:start + size]
        for start in range(0, len(pair_list), size)
    ]
    report = ShadowReport(
        pairs=len(pair_list),
        shards=len(shards),
        seed=seed,
        workers=workers,
        backend=batch.telemetry.backend if batch.telemetry else None,
        batch_digest=results_digest(batch.results),
    )
    if not shards:
        return report
    rng = random.Random(seed)
    count = min(sample, len(shards))
    report.sampled = sorted(rng.sample(range(len(shards)), count))

    shadow_aligner = _worker_copy(aligner)
    for index in report.sampled:
        shard = shards[index]
        parallel_results = batch.results[index * size:index * size + len(shard)]
        shadow_results = _serial_shard(shadow_aligner, shard, traceback)
        parallel_digest = results_digest(parallel_results)
        shadow_digest = results_digest(shadow_results)
        if parallel_digest == shadow_digest:
            continue

        def diverges(candidate: Sequence[Pair]) -> bool:
            serial = _serial_shard(shadow_aligner, candidate, traceback)
            rerun = align_batch(
                aligner,
                list(candidate),
                workers=workers,
                shard_size=size,
                traceback=traceback,
            )
            return results_digest(serial) != results_digest(rerun.results)

        minimal = shrink_shard(shard, diverges)
        report.mismatches.append(
            ShadowMismatch(
                shard_index=index,
                parallel_digest=parallel_digest,
                shadow_digest=shadow_digest,
                minimal_pairs=tuple(minimal),
                backend=report.backend,
                workers=workers,
            )
        )
    return report
