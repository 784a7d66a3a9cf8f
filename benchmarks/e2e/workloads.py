"""The benchmark's four workloads: inputs, timed runs, correctness checks.

A workload is fixed by counts and rates (the class constants below).  A
run repeats its unit of work — a batch job, a traffic mix, a chromosome
scan — until the time budget is spent, so the budget sets how many units
are measured and never what one unit is.  Every input comes from the
seed; the program only ever sees generated sequences.

Each workload loads some layers and bypasses others, so that a change to
one layer has a workload that should move and one that should not:

* ``short-tb`` — traceback-heavy short reads through the sharded pool;
* ``long-dist`` — fill-only long reads through the resilient engine;
* ``serve-mix`` — the alignment service: arrivals, cache, coalescer, HTTP;
* ``stream-chrom`` — seqio, the sketch filter and the stitcher; no GMX
  kernel and no pool.

Spans named ``bench.*`` wrap every public call, so a traced run shows the
benchmark's own view of the call path above the program's spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field
from concurrent.futures import wait
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.align import FullGmxAligner, align_batch
from repro.align.base import Aligner
from repro.baselines.bpm import BpmAligner
from repro.baselines.edlib_like import EdlibAligner
from repro.core.cigar import Alignment, AlignmentError, cigar_to_ops
from repro.resilience import align_batch_resilient
from repro.serve import AlignmentService, ServeConfig, ServeError, running_server
from repro.stream import stream_align, stream_align_fasta, verify_windows
from repro.workloads.datasets import (
    LONG_ERROR,
    LONG_LENGTHS,
    SHORT_ERROR,
    SHORT_LENGTHS,
    long_suite,
    short_suite,
)
from repro.workloads.generator import generate_pair, mutate, random_sequence
from repro.workloads.seqio import iter_fasta_blocks

from common import ROOT, percentile

#: Worker processes of every pool the benchmark starts (the host's cores).
WORKERS = 2

#: Where generated reference FASTA files are kept between runs, and how
#: many of the most recently used ones are kept.
CACHE_DIR = ROOT / ".bench" / "cache"
CACHE_KEEP = 4

Pair = Tuple[str, str]


def gmx_aligner() -> FullGmxAligner:
    """The pinned GMX aligner every pair workload uses."""
    return FullGmxAligner(tile_size=32, backend="bitpar")


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """``count`` shrunk by ``scale`` (the smoke test runs at 0.02)."""
    return max(minimum, round(count * scale))


def interleave(pair_sets) -> List[Pair]:
    """Round-robin over datasets, so every shard mixes every length."""
    pairs: List[Pair] = []
    for row in zip(*(pair_set.pairs for pair_set in pair_sets)):
        pairs.extend((pair.pattern, pair.text) for pair in row)
    return pairs


def digest(lines: Sequence[str]) -> str:
    """SHA-256 over canonical output lines."""
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


@dataclass
class LayerSample:
    """A fixed seeded sample of a workload for the per-layer probes.

    ``tb_pairs`` leading pairs (the shortest) are also aligned with
    traceback, to split fill from traceback time.
    """

    aligner: Aligner
    pairs: List[Pair]
    traceback: bool
    tb_pairs: int


@dataclass
class Measurement:
    """What one timed run of a workload produced.

    Each timed round adds its bases and seconds, and each latency round
    its request latencies.  Both figures take the fast quartile over
    rounds — the third quartile of the per-round rates, the first
    quartile of the per-round median latencies — because the host's slow
    spells only ever slow a round down: a slow spell covering up to three
    rounds in four does not move them, while a slower program moves every
    round.  Which phases of a workload count as rounds is the workload's
    choice.

    ``oracle`` holds ``(where, pattern, text, reported score)`` rows for
    the independent BPM check that runs after timing.
    """

    attempted: int = 0
    failed: int = 0
    bases: int = 0
    busy_seconds: float = 0.0
    rates: List[float] = field(default_factory=list)
    latency_rounds: List[List[float]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    extras: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    oracle: List[Tuple[str, str, str, int]] = field(default_factory=list)
    stitched: Optional[object] = None  # first stream scan, for verify_windows
    digest: Optional[str] = None
    _wrong: set = field(default_factory=set)

    def wrong(self, where: str, message: str, count: int = 1) -> None:
        """Record a failed or wrong operation ``where`` (``count`` pairs).

        Several checks may catch the same operation; it counts once.
        """
        self.problems.append(f"{where}: {message}")
        if where not in self._wrong:
            self._wrong.add(where)
            self.failed += count

    def add_round(self, bases: int, seconds: float) -> None:
        self.bases += bases
        self.busy_seconds += seconds
        self.rates.append(bases / seconds)

    @property
    def bases_per_s(self) -> float:
        return percentile(self.rates, 75) if self.rates else 0.0

    @property
    def p50_ms(self) -> float:
        return percentile(
            [percentile(latencies, 50) for latencies in self.latency_rounds], 25
        )


def another_round(spent: float, rounds: int, budget: float) -> bool:
    """Whether to start another round: at least half of one must fit.

    Stopping at the nearest round boundary keeps a run's measured time
    within half a round of its budget instead of up to a whole round over.
    """
    return rounds == 0 or spent + 0.5 * spent / rounds < budget


def check_alignment(
    m: Measurement,
    where: str,
    pattern: str,
    text: str,
    score: int,
    cigar: str,
    text_start: int = 0,
    text_end: Optional[int] = None,
) -> None:
    """Replay a reported alignment against its pair (cheap; every output)."""
    try:
        ops = tuple(cigar_to_ops(cigar))
        Alignment(pattern, text[text_start:text_end], ops, score).validate()
    except AlignmentError as exc:
        m.wrong(where, str(exc))


def run_oracle(m: Measurement) -> None:
    """BPM distance for every sampled pair must equal the reported score."""
    bpm = BpmAligner()
    for where, pattern, text, score in m.oracle:
        expected = bpm.align(pattern, text, traceback=False).score
        if expected != score:
            m.wrong(where, f"score {score} != BPM {expected}")


class Workload:
    """One benchmark workload.

    Subclasses define the inputs (:meth:`prepare`), the timed unit of
    work (:meth:`run`), the post-run oracles (:meth:`check`), the set-up
    users pay before the first result (:meth:`warm_inputs` +
    :meth:`warm`), and the per-layer sample (:meth:`layer_sample`).
    """

    name = "?"

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale

    def rng(self, *tags) -> random.Random:
        """An independent seeded stream per purpose."""
        label = ":".join(str(tag) for tag in (self.name, self.seed) + tags)
        return random.Random(label)

    def job_seed(self, index: int) -> int:
        return self.rng("job", index).randrange(1 << 31)

    def counts(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build inputs shared by every run (outside any timing)."""

    def run(self, budget: float) -> Measurement:
        raise NotImplementedError

    def check(self, m: Measurement) -> None:
        run_oracle(m)

    def warm_inputs(self):
        raise NotImplementedError

    def warm(self, inputs) -> Callable[[], None]:
        """Construct and warm up to the first result; returns a closer."""
        raise NotImplementedError

    def layer_sample(self) -> LayerSample:
        raise NotImplementedError


class BatchWorkload(Workload):
    """Repeated batch jobs through one entry point, timed per job."""

    def job(self, index: int) -> List[Pair]:
        raise NotImplementedError

    def align_job(self, aligner: Aligner, pairs: List[Pair]):
        raise NotImplementedError

    def check_job(self, m: Measurement, index: int, pairs, batch) -> None:
        raise NotImplementedError

    def run(self, budget: float) -> Measurement:
        aligner = gmx_aligner()
        m = Measurement()
        index = 0
        while another_round(m.busy_seconds, index, budget):
            pairs = self.job(index)
            with obs.span("bench.job", index=index, pairs=len(pairs)):
                start = time.perf_counter()
                try:
                    batch = self.align_job(aligner, pairs)
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    batch = None
                    m.wrong(
                        f"job {index}", f"{type(exc).__name__}: {exc}",
                        len(pairs),
                    )
                elapsed = time.perf_counter() - start
            m.attempted += len(pairs)
            m.add_round(sum(len(p) + len(t) for p, t in pairs), elapsed)
            m.latency_rounds.append([elapsed * 1e3])
            if batch is not None:
                missing = len(pairs) - len(batch.results)
                if missing:
                    m.wrong(
                        f"job {index}",
                        f"{len(batch.results)} results for {len(pairs)} pairs",
                        max(1, missing),
                    )
                else:
                    self.check_job(m, index, pairs, batch)
            index += 1
        m.extras["jobs"] = index
        return m


class ShortTb(BatchWorkload):
    """Short reads (100–300 bp, 5% error) with traceback on 2 workers.

    The path behind ``repro align --pairs --workers 2``: traceback-heavy
    kernel work, many small shards, CIGAR-sized results over pool IPC.
    """

    name = "short-tb"
    PAIRS_PER_LENGTH = 40  # 200 pairs per job: 13 shards of the default 16
    ORACLE_PAIRS = 64
    LADDER_PER_LENGTH = 6

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.per_length = scaled(self.PAIRS_PER_LENGTH, scale)

    def counts(self) -> dict:
        return {
            "lengths": list(SHORT_LENGTHS),
            "error": SHORT_ERROR,
            "pairs_per_job": self.per_length * len(SHORT_LENGTHS),
            "workers": WORKERS,
            "oracle_pairs": self.ORACLE_PAIRS,
        }

    def job(self, index: int) -> List[Pair]:
        return interleave(
            short_suite(count=self.per_length, seed=self.job_seed(index))
        )

    def align_job(self, aligner, pairs):
        return align_batch(aligner, pairs, traceback=True, workers=WORKERS)

    def check_job(self, m, index, pairs, batch) -> None:
        lines = []
        for k, ((pattern, text), result) in enumerate(zip(pairs, batch.results)):
            check_alignment(
                m, f"job {index} pair {k}", pattern, text, result.score,
                result.cigar,
            )
            lines.append(f"{result.score} {result.cigar}")
        if index == 0:
            m.digest = digest(lines)
            picks = self.rng("oracle").sample(
                range(len(pairs)), min(self.ORACLE_PAIRS, len(pairs))
            )
            m.oracle.extend(
                (f"job 0 pair {k}",) + pairs[k] + (batch.results[k].score,)
                for k in sorted(picks)
            )

    def warm_inputs(self):
        rng = self.rng("warm")
        return [
            (pair.pattern, pair.text)
            for pair in (generate_pair(150, SHORT_ERROR, rng) for _ in range(4))
        ]

    def warm(self, inputs):
        align_batch(gmx_aligner(), inputs, traceback=True, workers=WORKERS)
        return lambda: None

    def layer_sample(self) -> LayerSample:
        per_length = scaled(self.LADDER_PER_LENGTH, self.scale)
        pairs = [
            (pair.pattern, pair.text)
            for pair_set in short_suite(
                count=per_length, seed=self.rng("ladder").randrange(1 << 31)
            )
            for pair in pair_set
        ]
        return LayerSample(gmx_aligner(), pairs, True, len(pairs))


class LongDist(BatchWorkload):
    """Long reads (1–10 kbp, 15% error), distance only, resilient engine.

    Entirely DP fill with tiny results, through the per-shard supervisor
    (deadlines, retry): predicts no change from traceback work.
    """

    name = "long-dist"
    PAIRS_PER_LENGTH = 6  # 60 pairs per job: 4 shards of the default 16
    MAX_RETRIES = 2
    ORACLE_LENGTH = 1_000  # BPM is pure Python: check the 1 kbp pairs
    LADDER_MAX_LENGTH = 5_000  # the ladder repeats every step: keep it short
    LADDER_TB_LENGTH = 2_000

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.per_length = scaled(self.PAIRS_PER_LENGTH, scale)

    def counts(self) -> dict:
        return {
            "lengths": list(LONG_LENGTHS),
            "error": LONG_ERROR,
            "pairs_per_job": self.per_length * len(LONG_LENGTHS),
            "workers": WORKERS,
            "max_retries": self.MAX_RETRIES,
            "oracle_length": self.ORACLE_LENGTH,
        }

    def job(self, index: int) -> List[Pair]:
        return interleave(
            long_suite(count=self.per_length, seed=self.job_seed(index))
        )

    def align_job(self, aligner, pairs):
        return align_batch_resilient(
            aligner, pairs, traceback=False, workers=WORKERS,
            max_retries=self.MAX_RETRIES,
        )

    def check_job(self, m, index, pairs, batch) -> None:
        retries = batch.telemetry.resilience.retries
        m.extras["retries"] = m.extras.get("retries", 0) + retries
        for k, ((pattern, text), result) in enumerate(zip(pairs, batch.results)):
            if not 0 <= result.score <= max(len(pattern), len(text)):
                m.wrong(f"job {index} pair {k}", f"impossible score {result.score}")
        if index == 0:
            m.digest = digest([str(score) for score in batch.scores])
            m.oracle.extend(
                (f"job 0 pair {k}", pattern, text, result.score)
                for k, ((pattern, text), result) in enumerate(
                    zip(pairs, batch.results)
                )
                if len(pattern) == self.ORACLE_LENGTH
            )

    def warm_inputs(self):
        rng = self.rng("warm")
        return [
            (pair.pattern, pair.text)
            for pair in (generate_pair(1_000, LONG_ERROR, rng) for _ in range(2))
        ]

    def warm(self, inputs):
        align_batch_resilient(
            gmx_aligner(), inputs, traceback=False, workers=WORKERS,
            max_retries=self.MAX_RETRIES,
        )
        return lambda: None

    def layer_sample(self) -> LayerSample:
        longest = scaled(self.LADDER_MAX_LENGTH, self.scale, LONG_LENGTHS[0])
        pairs = [
            (pair.pattern, pair.text)
            for pair_set in long_suite(
                count=1, seed=self.rng("ladder").randrange(1 << 31)
            )
            for pair in pair_set
            if pair_set.length <= longest
        ]
        tb_pairs = sum(
            1 for pattern, _ in pairs if len(pattern) <= self.LADDER_TB_LENGTH
        )
        return LayerSample(gmx_aligner(), pairs, False, tb_pairs)


def _stamp(stamps: List[Optional[float]], index: int, _future) -> None:
    stamps[index] = time.perf_counter()


class ServeMix(Workload):
    """The alignment service under a seeded traffic mix.

    150 bp pairs at 5% error; 30% come from a 64-pair hot set (cache hits
    and in-flight dedup), 70% are fresh.  The run cycles five times
    through: an open loop of Poisson arrivals at 80 and then 160 pairs/s
    from one thread calling ``submit`` (latency from each request's due
    time), then saturation rounds of fresh pairs kept 32 deep.  Cycling
    lets a slow spell of the host touch every phase a little rather than
    one phase entirely.  A closed loop over HTTP on 2 keep-alive
    connections ends the run.

    Throughput comes from the saturation rounds and latency from the
    160 pairs/s slices; the other phases are reported as extras.
    """

    name = "serve-mix"
    LENGTH = 150
    ERROR = 0.05
    HOT_SET = 64
    HOT_SHARE = 0.3
    PRIME_FRESH = 256  # fresh pairs through the service before timing
    CYCLES = 5
    OPEN_LOOP = (("r80", 80.0, 0.1), ("r160", 160.0, 0.5))
    SATURATION_WINDOW = 32
    SATURATION_ROUND = 160
    SATURATION_SHARE = 0.3
    SATURATION_CEILING = 800.0  # pairs/s; sizes the pre-generated pool
    HTTP_CONNECTIONS = 2
    HTTP_SHARE = 0.1
    HTTP_CEILING = 400.0  # requests/s per connection; sizes the pool
    DIGEST_REQUESTS = 100
    ORACLE_FRESH = 64
    LADDER_PAIRS = 30
    TIMEOUT = 60.0

    def counts(self) -> dict:
        return {
            "length": self.LENGTH,
            "error": self.ERROR,
            "hot_set": self.HOT_SET,
            "hot_share": self.HOT_SHARE,
            "prime_fresh": self.PRIME_FRESH,
            "cycles": self.CYCLES,
            "open_loop": [
                {"phase": label, "pairs_per_s": rate, "budget_share": share}
                for label, rate, share in self.OPEN_LOOP
            ],
            "saturation": {
                "window": self.SATURATION_WINDOW,
                "pairs_per_round": self.SATURATION_ROUND,
                "budget_share": self.SATURATION_SHARE,
            },
            "http": {
                "connections": self.HTTP_CONNECTIONS,
                "budget_share": self.HTTP_SHARE,
            },
            "workers": WORKERS,
        }

    def _pair(self, rng: random.Random) -> Pair:
        pair = generate_pair(self.LENGTH, self.ERROR, rng)
        return pair.pattern, pair.text

    def prepare(self) -> None:
        rng = self.rng("hot")
        self.hot = [self._pair(rng) for _ in range(self.HOT_SET)]

    def _requests(self, tag: str, count: int):
        """``count`` requests of the mix: (pattern, text, hot index|None)."""
        rng = self.rng("requests", tag)
        out = []
        for _ in range(count):
            if rng.random() < self.HOT_SHARE:
                index = rng.randrange(self.HOT_SET)
                out.append(self.hot[index] + (index,))
            else:
                out.append(self._pair(rng) + (None,))
        return out

    def run(self, budget: float) -> Measurement:
        m = Measurement()
        self._answers: Dict[int, Tuple[int, str]] = {}
        self._fresh_checked = 0
        streams = {
            label: self._requests(
                label, max(self.CYCLES, round(rate * share * budget))
            )
            for label, rate, share in self.OPEN_LOOP
        }
        rng = self.rng("saturation")
        saturation = [
            self._pair(rng)
            for _ in range(max(self.SATURATION_ROUND, math.ceil(
                self.SATURATION_CEILING * self.SATURATION_SHARE * budget
            )))
        ]
        http_requests = [
            self._requests(f"http{k}", math.ceil(
                self.HTTP_CEILING * self.HTTP_SHARE * budget
            ))
            for k in range(self.HTTP_CONNECTIONS)
        ]
        rng = self.rng("prime")
        prime = self.hot + [
            self._pair(rng) for _ in range(scaled(self.PRIME_FRESH, self.scale))
        ]
        service = AlignmentService(
            gmx_aligner(), config=ServeConfig(workers=WORKERS)
        )
        service.start()
        try:
            # A long-running service has its hot set cached and its workers
            # warm: time the steady state, not the filling.
            for lo in range(0, len(prime), self.SATURATION_ROUND):
                service.align_pairs(prime[lo:lo + self.SATURATION_ROUND])
            slices: Dict[str, List[dict]] = {label: [] for label in streams}
            saturation_budget = self.SATURATION_SHARE * budget / self.CYCLES
            cursor = 0
            for cycle in range(self.CYCLES):
                for label, rate, _share in self.OPEN_LOOP:
                    requests = streams[label]
                    lo = cycle * len(requests) // self.CYCLES
                    hi = (cycle + 1) * len(requests) // self.CYCLES
                    slices[label].append(self._open_loop(
                        m, service, label, rate, cycle, lo, requests[lo:hi]
                    ))
                cursor = self._saturate(
                    m, service, saturation, cursor, saturation_budget
                )
            self._summarise(m, slices)
            self._http(m, service, http_requests, self.HTTP_SHARE * budget)
        finally:
            service.close()
        m.extras["saturation_pairs"] = cursor
        return m

    def _summarise(self, m: Measurement, slices: Dict[str, List[dict]]) -> None:
        """Per-phase extras; the 160 pairs/s slices are the latency rounds."""
        parts = [part for phase in slices.values() for part in phase]
        served = sum(part["requests"]["pairs"] for part in parts)
        for key, metric in (("cached", "hit"), ("deduped", "dedup")):
            m.layers[f"serve.{metric}_frac"] = sum(
                part["requests"][key] for part in parts
            ) / served
        for label, parts in slices.items():
            latencies = [x for part in parts for x in part["latencies"]]
            lateness = [x for part in parts for x in part["lateness"]]
            batches = sum(part["coalescing"]["batches"] for part in parts)
            pairs = sum(part["coalescing"]["pairs"] for part in parts)
            m.extras[f"p50_ms.{label}"] = percentile(latencies, 50)
            m.extras[f"p90_ms.{label}"] = percentile(latencies, 90)
            m.extras[f"p99_ms.{label}"] = percentile(latencies, 99)
            m.extras[f"gen_late_p99_ms.{label}"] = percentile(lateness, 99)
            m.extras[f"batch_pairs.{label}"] = pairs / batches if batches else 0.0
        m.latency_rounds.extend(part["latencies"] for part in slices["r160"])
        m.layers["serve.batch_pairs"] = m.extras["batch_pairs.r160"]
        # The digest covers the first requests of the first phase, which
        # are the same whatever the budget.
        first = [line for part in slices["r80"] for line in part["lines"]]
        if len(first) >= self.DIGEST_REQUESTS:
            m.digest = digest(first[: self.DIGEST_REQUESTS])

    def _verify(
        self, m: Measurement, where: str, pattern: str, text: str,
        hot: Optional[int], score: int, cigar: str, text_start: int,
        text_end: Optional[int],
    ) -> None:
        """Replay every answer; hot answers must agree; sample fresh ones."""
        check_alignment(m, where, pattern, text, score, cigar, text_start, text_end)
        if hot is not None:
            first = self._answers.get(hot)
            if first is None:
                self._answers[hot] = (score, cigar)
                m.oracle.append((where, pattern, text, score))
            elif first != (score, cigar):
                m.wrong(where, f"hot pair {hot} answered {first} then "
                        f"{(score, cigar)}")
        elif self._fresh_checked < self.ORACLE_FRESH:
            self._fresh_checked += 1
            m.oracle.append((where, pattern, text, score))

    def _open_loop(self, m, service, label, rate, cycle, first, requests) -> dict:
        """One slice of Poisson arrivals at ``rate``; its answers and times.

        ``first`` is the slice's offset in the phase's request stream.
        """
        arrivals = self.rng("arrivals", label, cycle)
        offsets = []
        clock = 0.0
        for _ in requests:
            clock += arrivals.expovariate(rate)
            offsets.append(clock)
        stamps: List[Optional[float]] = [None] * len(requests)
        futures: List[object] = []
        lateness = []
        before = service.metrics_snapshot()
        with obs.span("bench.open_loop", phase=label, requests=len(requests)):
            start = time.perf_counter()
            for index, (pattern, text, hot) in enumerate(requests):
                due = start + offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lateness.append((time.perf_counter() - due) * 1e3)
                try:
                    with obs.span("bench.submit", hot=hot is not None):
                        future = service.submit(pattern, text)
                except ServeError as exc:
                    futures.append(exc)
                    continue
                future.add_done_callback(partial(_stamp, stamps, index))
                futures.append(future)
            latencies = []
            lines = []
            for index, future in enumerate(futures):
                pattern, text, hot = requests[index]
                m.attempted += 1
                where = f"{label} request {first + index}"
                try:
                    if isinstance(future, Exception):
                        raise future
                    result = future.result(self.TIMEOUT)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    m.wrong(where, f"{type(exc).__name__}: {exc}")
                    latencies.append(math.inf)  # a failure misses any limit
                    lines.append("failed")
                    continue
                latencies.append((stamps[index] - start - offsets[index]) * 1e3)
                lines.append(f"{result.score} {result.cigar}")
                self._verify(
                    m, where, pattern, text, hot, result.score, result.cigar,
                    result.text_start, result.text_end,
                )
        after = service.metrics_snapshot()
        return {
            "latencies": latencies,
            "lateness": lateness,
            "lines": lines,
            # Counter deltas over the slice, e.g. requests served from cache.
            **{
                block: {
                    key: after[block][key] - before[block][key]
                    for key in keys
                }
                for block, keys in (
                    ("requests", ("pairs", "cached", "deduped")),
                    ("coalescing", ("batches", "pairs")),
                )
            },
        }

    def _saturate(self, m, service, pairs: List[Pair], cursor: int, seconds: float) -> int:
        """Saturation rounds from ``pairs[cursor:]`` for about ``seconds``.

        Returns the new cursor.
        """
        size = self.SATURATION_ROUND
        rounds = 0
        spent = 0.0
        with obs.span("bench.saturation", window=self.SATURATION_WINDOW):
            while (another_round(spent, rounds, seconds)
                   and cursor + size <= len(pairs)):
                spent += self._saturation_round(
                    m, service, pairs[cursor:cursor + size], cursor
                )
                cursor += size
                rounds += 1
        return cursor

    def _saturation_round(self, m, service, pairs: List[Pair], first: int) -> float:
        window = threading.Semaphore(self.SATURATION_WINDOW)
        submitted = []
        start = time.perf_counter()
        for pattern, text in pairs:
            window.acquire()
            try:
                future = service.submit(pattern, text)
            except ServeError as exc:
                window.release()
                submitted.append(exc)
                continue
            future.add_done_callback(lambda _f: window.release())
            submitted.append(future)
        wait([f for f in submitted if not isinstance(f, Exception)], self.TIMEOUT)
        seconds = time.perf_counter() - start
        bases = 0
        for k, ((pattern, text), future) in enumerate(zip(pairs, submitted)):
            where = f"saturation {first + k}"
            m.attempted += 1
            try:
                if isinstance(future, Exception):
                    raise future
                result = future.result(0)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                m.wrong(where, f"{type(exc).__name__}: {exc}")
                continue
            bases += len(pattern) + len(text)
            self._verify(
                m, where, pattern, text, None, result.score, result.cigar,
                result.text_start, result.text_end,
            )
        m.add_round(bases, seconds)
        return seconds

    def _http(self, m, service, streams, share: float) -> None:
        records: List[List[tuple]] = [[] for _ in streams]
        with running_server(service) as (_server, url):
            host, port = url.rsplit("/", 1)[-1].split(":")
            deadline = time.perf_counter() + share
            clients = [
                threading.Thread(
                    target=self._http_client,
                    args=(host, int(port), requests, deadline, records[k]),
                    name=f"bench-http-{k}",
                )
                for k, requests in enumerate(streams)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(self.TIMEOUT + share)
                if client.is_alive():
                    m.wrong(client.name, "did not finish")
        latencies = []
        for k, rows in enumerate(records):
            for index, (pattern, text, hot, status, body, seconds) in enumerate(rows):
                m.attempted += 1
                where = f"http{k} request {index}"
                if status != 200:
                    m.wrong(where, f"status {status}: {body[:200]!r}")
                    continue
                latencies.append(seconds * 1e3)
                row = json.loads(body)["results"][0]
                self._verify(
                    m, where, pattern, text, hot, row["score"], row["cigar"],
                    row["text_start"], row["text_end"],
                )
        m.extras["http_requests"] = sum(len(rows) for rows in records)
        m.extras["http_p50_ms"] = percentile(latencies, 50) if latencies else math.inf

    @staticmethod
    def _http_client(host, port, requests, deadline, out) -> None:
        """A closed-loop keep-alive client: next request after each reply."""
        connection = http.client.HTTPConnection(host, port, timeout=ServeMix.TIMEOUT)
        try:
            for pattern, text, hot in requests:
                if time.perf_counter() >= deadline:
                    break
                body = json.dumps({"pattern": pattern, "text": text})
                with obs.span("bench.http", hot=hot is not None):
                    start = time.perf_counter()
                    try:
                        connection.request(
                            "POST", "/align", body,
                            {"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        payload = response.read()
                        status = response.status
                    except (OSError, http.client.HTTPException) as exc:
                        payload = repr(exc).encode()
                        status = 0
                    seconds = time.perf_counter() - start
                out.append((pattern, text, hot, status, payload, seconds))
                if status == 0:
                    break
        finally:
            connection.close()

    def warm_inputs(self):
        return self._pair(self.rng("warm"))

    def warm(self, inputs):
        service = AlignmentService(
            gmx_aligner(), config=ServeConfig(workers=WORKERS)
        )
        service.start()
        service.align_pair(*inputs)
        return service.close

    def layer_sample(self) -> LayerSample:
        rng = self.rng("ladder")
        pairs = [self._pair(rng) for _ in range(scaled(self.LADDER_PAIRS, self.scale, 2))]
        return LayerSample(gmx_aligner(), pairs, True, len(pairs))


_BASES = bytes.maketrans(bytes(range(256)), b"ACGT" * 64)
_FASTA_BLOCK = 80 * 12_800  # bases per generated block, whole 80-column lines


def write_reference(
    path: Path, length: int, rng: random.Random, region: Tuple[int, int]
) -> str:
    """Write a random reference FASTA (unless cached) and return ``region``.

    The sequence is generated block by block from ``rng``, so it is the
    same whether or not the file already exists, and is never held whole
    in memory.
    """
    lo, hi = region
    pieces = []
    write = not path.exists()
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    if write:
        path.parent.mkdir(parents=True, exist_ok=True)
    with (tmp.open("w") if write else contextlib.nullcontext()) as handle:
        if handle is not None:
            handle.write(">chr1 seeded random reference\n")
        for start in range(0, length, _FASTA_BLOCK):
            size = min(_FASTA_BLOCK, length - start)
            block = rng.randbytes(size).translate(_BASES).decode("ascii")
            if handle is not None:
                handle.write(
                    "\n".join(block[k:k + 80] for k in range(0, size, 80)) + "\n"
                )
            if start < hi and start + size > lo:
                pieces.append(block[max(lo - start, 0):hi - start])
    if write:
        os.replace(tmp, path)
    return "".join(pieces)


def evict_cache() -> None:
    """Bound the reference cache to its most recently used files."""
    files = sorted(
        CACHE_DIR.glob("ref-*.fa"), key=lambda p: p.stat().st_mtime, reverse=True
    )
    for stale in files[CACHE_KEEP:]:
        stale.unlink(missing_ok=True)


class StreamChrom(Workload):
    """A chromosome-scale scan with ``repro stream align`` defaults.

    A seeded 12 Mbp reference FASTA (generated once into ``.bench/cache``)
    and a 20 kbp query at 2% divergence planted 5 kbp from the far end,
    so the scan cannot stop early.  Serial engine, default
    :class:`~repro.stream.StreamConfig` and default Edlib chunk aligner:
    seqio, the sketch filter and the stitcher, no GMX kernel, no pool.
    """

    name = "stream-chrom"
    REFERENCE = 12_000_000
    QUERY = 20_000
    FROM_END = 5_000
    DIVERGENCE = 0.02
    LOCUS_SLACK = 32  # bases the stitched span may differ from the plant
    VERIFY_WINDOWS = 25
    VERIFY_MAX_SPAN = 384  # Hirschberg is pure Python: keep windows short
    LADDER_PAIRS = 4
    LADDER_CHUNK = 2_048

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.reference_length = scaled(self.REFERENCE, scale, 65_536)
        self.query_length = scaled(self.QUERY, scale, 2_000)
        self.from_end = scaled(self.FROM_END, scale, 500)

    def counts(self) -> dict:
        return {
            "reference_bases": self.reference_length,
            "query_bases": self.query_length,
            "planted_from_end": self.from_end,
            "divergence": self.DIVERGENCE,
            "engine": "serial",
            "verify_windows": self.VERIFY_WINDOWS,
            "verify_max_span": self.VERIFY_MAX_SPAN,
        }

    @property
    def locus(self) -> Tuple[int, int]:
        end = self.reference_length - self.from_end
        return end - self.query_length, end

    def prepare(self) -> None:
        self.path = CACHE_DIR / f"ref-{self.seed}-{self.reference_length}.fa"
        self.source = write_reference(
            self.path, self.reference_length, self.rng("reference"), self.locus
        )
        self.path.touch()
        evict_cache()

    def query(self, index: int) -> str:
        return mutate(self.source, self.DIVERGENCE, self.rng("query", index))

    def run(self, budget: float) -> Measurement:
        m = Measurement()
        timings = {"filter": 0.0, "align": 0.0, "stitch": 0.0}
        chunks = candidates = 0
        index = 0
        while another_round(m.busy_seconds, index, budget):
            query = self.query(index)
            with obs.span("bench.stream_align_fasta", index=index):
                start = time.perf_counter()
                try:
                    result = stream_align_fasta(self.path, query, engine="serial")
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    result = None
                    m.wrong(f"scan {index}", f"{type(exc).__name__}: {exc}")
                elapsed = time.perf_counter() - start
            m.attempted += 1
            m.add_round(result.reference_length if result else 0, elapsed)
            m.latency_rounds.append([elapsed * 1e3])
            if result is not None:
                timings["filter"] += result.timings.filter_seconds
                timings["align"] += result.timings.align_seconds
                timings["stitch"] += result.timings.stitch_seconds
                chunks += result.counters.chunks
                candidates += result.counters.candidates
                self._check_scan(m, index, query, result)
            index += 1
        for stage, seconds in timings.items():
            m.layers[f"stream.{stage}_frac"] = seconds / m.busy_seconds
        m.layers["stream.candidate_frac"] = candidates / chunks if chunks else 0.0
        read_seconds = self._read_reference()
        m.extras["seqio.read_s"] = read_seconds
        m.layers["seqio.read_frac"] = read_seconds / (m.busy_seconds / index)
        m.extras["scans"] = index
        return m

    def _read_reference(self) -> float:
        """Time the FASTA block reader alone over the whole reference."""
        with obs.span("bench.iter_fasta_blocks"):
            start = time.perf_counter()
            for _block in iter_fasta_blocks(self.path):
                pass
            return time.perf_counter() - start

    def _check_scan(self, m, index, query, result) -> None:
        where = f"scan {index}"
        lo, hi = self.locus
        if (abs(result.text_start - lo) > self.LOCUS_SLACK
                or abs(result.text_end - hi) > self.LOCUS_SLACK):
            m.wrong(where, f"mapped to [{result.text_start}, "
                    f"{result.text_end}), planted at [{lo}, {hi})")
        edits = round(self.DIVERGENCE * self.query_length)
        if result.score > edits:
            m.wrong(where, f"score {result.score} above the {edits} "
                    "edits planted")
        try:
            result.stitched.to_alignment().validate()
        except AlignmentError as exc:
            m.wrong(where, str(exc))
        if index == 0:
            m.digest = digest([f"{result.score} {result.cigar}"])
            m.stitched = result.stitched

    def check(self, m: Measurement) -> None:
        """Hirschberg-verify seeded windows of the first scan."""
        if m.stitched is None:
            return
        windows = verify_windows(
            m.stitched, windows=self.VERIFY_WINDOWS, seed=self.seed,
            max_span=self.VERIFY_MAX_SPAN,
        )
        for window in windows:
            if not window.ok:
                m.wrong("scan 0", f"window {window} disagrees with the "
                        "Hirschberg oracle")

    def warm_inputs(self):
        rng = self.rng("warm")
        reference = random_sequence(65_536, rng)
        return reference, mutate(reference[-4_000:-2_000], self.DIVERGENCE, rng)

    def warm(self, inputs):
        reference, query = inputs
        stream_align(reference, query, engine="serial")
        return lambda: None

    def layer_sample(self) -> LayerSample:
        query = self.query(0)
        size = min(self.LADDER_CHUNK, len(query) // self.LADDER_PAIRS)
        pairs = [
            (query[k * size:(k + 1) * size], self.source[k * size:(k + 1) * size])
            for k in range(self.LADDER_PAIRS)
        ]
        return LayerSample(EdlibAligner(), pairs, True, len(pairs))


WORKLOADS = {cls.name: cls for cls in (ShortTb, LongDist, ServeMix, StreamChrom)}


def make(name: str, seed: int, scale: float) -> Workload:
    return WORKLOADS[name](seed, scale)
