"""Command-line interface: ``python -m repro <command>``.

Five commands cover the library's workflows:

* ``align``      — align a pair (or a ``.seq`` file of pairs) with any
  implemented aligner and print score/CIGAR/stats;
* ``generate``   — produce a synthetic dataset in the WFA ``.seq`` format;
* ``experiment`` — regenerate one of the paper's tables/figures as text;
* ``design``     — print the GMX hardware design point for a tile size;
* ``verify``     — run the built-in cross-validation self-check (no pytest
  needed): random pairs through every exact aligner, ISA gate-level
  equivalence, and model-consistency spot checks; ``--strict`` adds the
  static program verifier and the repo invariant lint;
* ``lint``       — static analysis: the GMX program verifier over aligner
  instruction streams (or a binary program file) plus the repo-wide
  invariant lint; ``--format json``/``--format sarif`` emit
  machine-readable diagnostics;
* ``sanitize``   — the concurrency & determinism sanitizer
  (:mod:`repro.analysis.sanitizer`): worker-reachability lint
  (REPRO006–009), guarded batch execution with hook-leak detection, and
  shadow execution diffing parallel-vs-serial content digests;
  ``--corpus`` runs the seeded violation corpus (exits non-zero);
* ``chaos``      — run a seeded fault-injection campaign through the
  resilient batch engine (:mod:`repro.resilience`): the batch must come
  out byte-identical to a fault-free serial run with every injected
  fault accounted for; exits non-zero otherwise; ``--serve`` runs the
  serving-path drill instead (kill a pool worker mid-request; the
  request must still complete with the correct result); ``--dist``
  runs the distributed drill (node kill/hang/slow/partition faults
  across real localhost worker processes with exactly-once
  accounting);
* ``dist``       — distributed shard execution (:mod:`repro.dist`):
  ``dist worker`` runs one worker node (a warm pool behind HTTP),
  ``dist coordinator`` leases a batch's shards across nodes with
  heartbeats, lease-epoch fencing, and journal-backed exactly-once
  accounting;
* ``serve``      — run the alignment service (:mod:`repro.serve`): an
  HTTP server with a warm worker pool, request coalescing, a
  content-addressed result cache, and admission control
  (``POST /align``, ``GET /health``, ``GET /metrics``);
* ``bench``      — load-test a serving configuration and print/write
  latency percentiles, throughput, cache hit rate, and the
  warm-vs-cold pool comparison (``repro bench serve``);
* ``profile``    — run any other command under the observability layer
  (:mod:`repro.obs`) and print its per-kernel hot-path table; exports
  Chrome-trace JSON (``--trace``), profile JSON (``--json``), span JSON
  lines (``--jsonl``), and diffs two profile JSONs (``--diff``).

``align`` grows resilience knobs (``--max-retries``, ``--shard-timeout``,
``--checkpoint``, ``--cross-check``) that route batches through the
supervised executor instead of the plain sharded pool.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from .align import (
    AlignmentMode,
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
)
from .baselines import (
    BitapAligner,
    BpmAligner,
    DarwinGactAligner,
    EdlibAligner,
    GenasmCpuAligner,
    NeedlemanWunschAligner,
)

#: CLI name → aligner factory (mode/tile-size applied where supported).
ALIGNER_FACTORIES: Dict[str, Callable] = {
    "auto": lambda args: AutoAligner(tile_size=args.tile_size),
    "full-gmx": lambda args: FullGmxAligner(
        tile_size=args.tile_size,
        mode=AlignmentMode(args.mode),
        fused=args.fused,
    ),
    "banded-gmx": lambda args: BandedGmxAligner(tile_size=args.tile_size),
    "windowed-gmx": lambda args: WindowedGmxAligner(tile_size=args.tile_size),
    "nw": lambda args: NeedlemanWunschAligner(mode=AlignmentMode(args.mode)),
    "bpm": lambda args: BpmAligner(),
    "edlib": lambda args: EdlibAligner(),
    "bitap": lambda args: BitapAligner(),
    "genasm": lambda args: GenasmCpuAligner(),
    "darwin": lambda args: DarwinGactAligner(),
}

#: Experiment name → harness callable (rows or dict of row lists).
def _experiments() -> Dict[str, Callable]:
    from . import eval as harness

    return {
        "fig3": harness.figure3,
        "fig10": harness.figure10,
        "fig11": harness.figure11,
        "fig12": harness.figure12,
        "fig12live": harness.figure12_functional,
        "fig13": harness.figure13,
        "fig14": harness.figure14,
        "fig15": harness.figure15,
        "table1": harness.table1,
        "table2": harness.table2,
        "1mbp": harness.scalability_1mbp,
        "memory": harness.memory_footprint_rows,
        "tilecost": harness.tile_cost_table,
        "energy": harness.energy_table,
    }


def _tile_size(value: str) -> int:
    """argparse type of every ``--tile-size``: the GMX tile dimension T."""
    try:
        size = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}"
        ) from None
    if size < 2:
        raise argparse.ArgumentTypeError(
            f"tile size must be at least 2, got {size}"
        )
    return size


def _aligner_options() -> argparse.ArgumentParser:
    """The options :data:`ALIGNER_FACTORIES` reads, shared as a parent by
    every command that hosts an aligner (align, serve, dist worker,
    dist coordinator)."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument(
        "--algorithm",
        choices=sorted(ALIGNER_FACTORIES),
        default="full-gmx",
    )
    options.add_argument(
        "--mode",
        choices=[mode.value for mode in AlignmentMode],
        default="global",
        help="anchoring mode (full-gmx and nw only)",
    )
    options.add_argument("--tile-size", type=_tile_size, default=32)
    options.add_argument(
        "--fused",
        action="store_true",
        help="use the dual-destination gmx.vh tile instruction (full-gmx)",
    )
    return options


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GMX (MICRO 2023) reproduction — alignment and models",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    aligner_options = _aligner_options()

    align = commands.add_parser(
        "align", help="align sequences", parents=[aligner_options]
    )
    align.add_argument("pattern", nargs="?", help="pattern sequence")
    align.add_argument("text", nargs="?", help="text sequence")
    align.add_argument(
        "--pairs", metavar="FILE", help="align every pair of a .seq file"
    )
    align.add_argument(
        "--no-traceback", action="store_true", help="distance only"
    )
    align.add_argument(
        "--stats", action="store_true", help="print kernel statistics"
    )
    align.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="align --pairs batches over N worker processes (0 = all CPUs)",
    )
    align.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="PAIRS",
        help="pairs per shard for parallel batches",
    )
    align.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retry failed shards up to N times (resilient executor)",
    )
    align.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard deadline; late shards are killed and retried",
    )
    align.add_argument(
        "--checkpoint",
        metavar="FILE",
        default=None,
        help="journal completed shards to FILE and resume from it",
    )
    align.add_argument(
        "--cross-check",
        action="store_true",
        help="independently verify every result (BPM score, alignment "
        "replay, program verifier)",
    )

    generate = commands.add_parser("generate", help="generate a dataset")
    generate.add_argument("--length", type=int, required=True)
    generate.add_argument("--error", type=float, default=0.05)
    generate.add_argument("--count", type=int, default=10)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", metavar="FILE", required=True)

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name", choices=sorted(_experiments()) + ["all"]
    )
    experiment.add_argument(
        "--json", metavar="FILE", help="write results as JSON (required for 'all')"
    )

    design = commands.add_parser("design", help="GMX hardware design point")
    design.add_argument("--tile-size", type=_tile_size, default=32)
    design.add_argument("--frequency", type=float, default=1.0, metavar="GHZ")

    verify = commands.add_parser(
        "verify", help="run the built-in correctness self-check"
    )
    verify.add_argument("--pairs", type=int, default=50, metavar="N")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--strict",
        action="store_true",
        help="also run the static program verifier and the repo lint",
    )

    lint = commands.add_parser(
        "lint", help="static analysis: program verifier + repo invariants"
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="diagnostic output format (sarif: GitHub code scanning)",
    )
    lint.add_argument(
        "--program",
        metavar="FILE",
        help="verify a binary GMX program (one hex word per line)",
    )
    lint.add_argument(
        "--corpus",
        action="store_true",
        help="verify the seeded malformed-program corpus (exits non-zero)",
    )
    lint.add_argument(
        "--skip-repo", action="store_true", help="skip the repo invariant lint"
    )
    lint.add_argument(
        "--skip-streams",
        action="store_true",
        help="skip verifying the aligners' retired instruction streams",
    )
    lint.add_argument("--seed", type=int, default=0)
    lint.add_argument(
        "--pairs",
        type=int,
        default=4,
        metavar="N",
        help="seeded pairs per aligner for the stream check",
    )
    lint.add_argument("--tile-size", type=_tile_size, default=32)
    lint.add_argument(
        "--single-port",
        action="store_true",
        help="verify against a single-register-write-port core (gmx.vh illegal)",
    )

    sanitize = commands.add_parser(
        "sanitize",
        help="concurrency & determinism sanitizer (dsan): reachability "
        "lint + guarded execution + shadow verification",
    )
    sanitize.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report output format (sarif: GitHub code scanning)",
    )
    sanitize.add_argument("--seed", type=int, default=0)
    sanitize.add_argument(
        "--corpus",
        action="store_true",
        help="run the seeded violation corpus (exits non-zero)",
    )
    sanitize.add_argument(
        "--skip-static",
        action="store_true",
        help="skip the worker-reachability scan",
    )
    sanitize.add_argument(
        "--skip-dynamic",
        action="store_true",
        help="skip guarded execution of the batch engines",
    )
    sanitize.add_argument(
        "--skip-shadow",
        action="store_true",
        help="skip shadow execution (serial re-run + digest diff)",
    )
    sanitize.add_argument(
        "--pairs", type=int, default=12, metavar="N",
        help="seeded pairs for the dynamic/shadow batches",
    )
    sanitize.add_argument("--workers", type=int, default=2)
    sanitize.add_argument(
        "--sample", type=int, default=3, metavar="N",
        help="shards re-executed serially by the shadow pass",
    )
    sanitize.add_argument("--tile-size", type=_tile_size, default=32)

    chaos = commands.add_parser(
        "chaos", help="seeded fault-injection campaign (must survive)"
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--faults", type=int, default=25, metavar="N",
        help="faults to inject across hardware/worker/data layers",
    )
    chaos.add_argument(
        "--pairs", type=int, default=None, metavar="N",
        help="batch size (default: max(16, faults))",
    )
    chaos.add_argument("--length", type=int, default=64)
    chaos.add_argument("--error", type=float, default=0.08)
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--shard-size", type=int, default=4)
    chaos.add_argument(
        "--shard-timeout", type=float, default=1.0, metavar="SECONDS"
    )
    chaos.add_argument("--max-retries", type=int, default=3)
    chaos.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="also exercise the checkpoint journal",
    )
    chaos.add_argument(
        "--json", metavar="FILE", help="write the campaign report as JSON"
    )
    chaos.add_argument(
        "--serve",
        action="store_true",
        help="serving-path drill: kill a warm-pool worker mid-request; "
        "every request must still complete with the correct result",
    )
    chaos.add_argument(
        "--dist",
        action="store_true",
        help="distributed drill: node kill/hang/slow/partition faults "
        "across real localhost worker processes; the batch must complete "
        "byte-identical to serial with exactly-once accounting",
    )
    chaos.add_argument(
        "--nodes", type=int, default=3, metavar="N",
        help="worker-node processes for the --dist drill",
    )
    chaos.add_argument(
        "--node-workers", type=int, default=1, metavar="N",
        help="warm pool size inside each --dist node",
    )
    chaos.add_argument(
        "--lease-timeout", type=float, default=1.2, metavar="SECONDS",
        help="shard lease deadline for the --dist drill",
    )

    dist = commands.add_parser(
        "dist",
        help="distributed shard execution (repro.dist): worker/coordinator",
    )
    dist_commands = dist.add_subparsers(dest="dist_command", required=True)
    dist_worker = dist_commands.add_parser(
        "worker",
        help="run one worker node (warm pool behind HTTP)",
        parents=[aligner_options],
    )
    dist_worker.add_argument("--host", default="127.0.0.1")
    dist_worker.add_argument("--port", type=int, default=8876)
    dist_worker.add_argument(
        "--node", default=None, metavar="NAME",
        help="node name reported to the coordinator (default host:port)",
    )
    dist_worker.add_argument(
        "--incarnation", type=int, default=1, metavar="N",
        help="restart counter; bump on every supervisor respawn",
    )
    dist_worker.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="warm worker-pool size inside the node",
    )
    dist_coord = dist_commands.add_parser(
        "coordinator",
        help="lease a batch's shards across worker nodes and collect "
        "results with exactly-once accounting",
        parents=[aligner_options],
    )
    dist_coord.add_argument(
        "--node", action="append", required=True, metavar="URL",
        dest="node_urls",
        help="worker node base URL (repeat per node), e.g. "
        "http://127.0.0.1:8876",
    )
    dist_coord.add_argument(
        "--pairs", metavar="FILE", required=True,
        help="align every pair of a .seq/FASTA/FASTQ file",
    )
    dist_coord.add_argument(
        "--no-traceback", action="store_true", help="distance only"
    )
    dist_coord.add_argument(
        "--shard-size", type=int, default=None, metavar="PAIRS",
        help="pairs per shard",
    )
    dist_coord.add_argument(
        "--lease-timeout", type=float, default=5.0, metavar="SECONDS",
        help="shard lease deadline before reassignment",
    )
    dist_coord.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="journal completed shards to FILE and resume from it",
    )
    dist_coord.add_argument(
        "--stats", action="store_true",
        help="print per-node and accounting statistics",
    )

    serve = commands.add_parser(
        "serve",
        help="run the alignment HTTP service (repro.serve)",
        parents=[aligner_options],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="warm worker-pool size (1 = inline execution)",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, metavar="ENTRIES",
        help="content-addressed result cache capacity (0 disables)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=256, metavar="PAIRS",
        help="admission limit; beyond it requests get 429 + Retry-After",
    )
    serve.add_argument(
        "--coalesce-max-pairs", type=int, default=16, metavar="PAIRS",
        help="the most pairs one coalesced shard holds",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="RPS",
        help="per-client token-bucket rate limit in requests/second "
        "(keyed on the X-Client-Id header; 0 disables)",
    )
    serve.add_argument(
        "--rate-limit-burst", type=float, default=0.0, metavar="TOKENS",
        help="token-bucket burst capacity (0 picks a default)",
    )

    bench = commands.add_parser(
        "bench", help="load-test a subsystem and report latency/throughput"
    )
    bench.add_argument("target", choices=("serve",))
    bench.add_argument("--requests", type=int, default=300, metavar="N")
    bench.add_argument("--clients", type=int, default=8, metavar="N")
    bench.add_argument(
        "--unique", type=int, default=48, metavar="PAIRS",
        help="unique pairs in the request pool (repeats become cache hits)",
    )
    bench.add_argument("--length", type=int, default=150)
    bench.add_argument("--error", type=float, default=0.05)
    bench.add_argument("--seed", type=int, default=23)
    bench.add_argument("--workers", type=int, default=2)
    bench.add_argument(
        "--cache-size", type=int, default=4096, metavar="ENTRIES"
    )
    bench.add_argument(
        "--json", metavar="FILE", help="write the bench report as JSON"
    )

    stream = commands.add_parser(
        "stream", help="chromosome-scale chunked alignment"
    )
    stream_commands = stream.add_subparsers(
        dest="stream_command", required=True
    )
    stream_align = stream_commands.add_parser(
        "align",
        help="align a query against a long reference, chunked and stitched",
    )
    stream_align.add_argument(
        "reference",
        help="reference: a literal sequence or a FASTA file path",
    )
    stream_align.add_argument(
        "query", help="query: a literal sequence or a FASTA file path"
    )
    stream_align.add_argument(
        "--record",
        metavar="NAME",
        default=None,
        help="FASTA record to stream from the reference (default: first)",
    )
    stream_align.add_argument("--chunk-size", type=int, default=4096)
    stream_align.add_argument("--overlap", type=int, default=512)
    stream_align.add_argument(
        "--engine",
        choices=("serial", "pool", "resilient"),
        default="serial",
        help="chunk-job execution engine",
    )
    stream_align.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (pool/resilient engines)",
    )
    stream_align.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="journal chunk shards to FILE and resume from it "
        "(resilient engine only)",
    )
    stream_align.add_argument(
        "--verify-windows", type=int, default=0, metavar="N",
        help="oracle-check N random sub-windows against Hirschberg",
    )
    stream_align.add_argument(
        "--seed", type=int, default=0, help="window-verification seed"
    )
    stream_align.add_argument(
        "--cigar", action="store_true", help="print the full CIGAR"
    )
    stream_align.add_argument(
        "--json", metavar="FILE", help="write the stream report as JSON"
    )

    profile = commands.add_parser(
        "profile",
        help="run another command under tracing and print the hot-path table",
    )
    profile.add_argument(
        "--trace", metavar="FILE",
        help="write the merged Chrome-trace JSON (chrome://tracing, Perfetto)",
    )
    profile.add_argument(
        "--json", metavar="FILE",
        help="write the profile as JSON (input of --diff)",
    )
    profile.add_argument(
        "--jsonl", metavar="FILE",
        help="write raw spans as JSON lines",
    )
    profile.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"),
        help="compare two --json profiles instead of running a command",
    )
    profile.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the printed table",
    )
    profile.add_argument(
        "wrapped", nargs=argparse.REMAINDER,
        help="the repro command to profile, after --",
    )

    return parser


def _cmd_align(args) -> int:
    import os

    from .align.batch import align_batch
    from .workloads.seqio import iter_pairs

    aligner = ALIGNER_FACTORIES[args.algorithm](args)
    workers = args.workers
    if workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        print(f"error: --workers must be >= 0, got {workers}", file=sys.stderr)
        return 2
    if args.shard_size is not None and args.shard_size < 1:
        print(
            f"error: --shard-size must be >= 1, got {args.shard_size}",
            file=sys.stderr,
        )
        return 2
    if args.pairs:
        source = iter_pairs(args.pairs)  # streamed; never materialised here
    elif args.pattern and args.text:
        source = iter([(args.pattern, args.text)])
    else:
        print("error: provide PATTERN TEXT or --pairs FILE", file=sys.stderr)
        return 2

    text_lengths = []

    def tracked():
        for item in source:
            pattern = getattr(item, "pattern", None)
            text = getattr(item, "text", None)
            if pattern is None:
                pattern, text = item
            text_lengths.append(len(text))
            yield pattern, text

    resilient = (
        args.max_retries is not None
        or args.shard_timeout is not None
        or args.checkpoint is not None
        or args.cross_check
    )
    if resilient:
        from .resilience import align_batch_resilient

        batch = align_batch_resilient(
            aligner,
            tracked(),
            traceback=not args.no_traceback,
            workers=workers,
            shard_size=args.shard_size,
            max_retries=args.max_retries,
            shard_timeout=args.shard_timeout,
            checkpoint=args.checkpoint,
            cross_check=args.cross_check,
        )
    else:
        batch = align_batch(
            aligner,
            tracked(),
            traceback=not args.no_traceback,
            workers=workers,
            shard_size=args.shard_size,
        )
    if args.pairs and batch.pairs == 0:
        print(f"error: {args.pairs}: no sequence pairs found", file=sys.stderr)
        return 2
    for result, text_length in zip(batch.results, text_lengths):
        line = f"score={result.score} exact={result.exact}"
        if result.alignment is not None:
            line += f" cigar={result.cigar}"
            if result.text_end is not None and (
                result.text_start, result.text_end
            ) != (0, text_length):
                line += f" span={result.text_start}:{result.text_end}"
        print(line)
        if args.stats:
            stats = result.stats
            print(
                f"  instructions={stats.total_instructions} "
                f"({dict(stats.instructions)})"
            )
            print(
                f"  dp_cells={stats.dp_cells} tiles={stats.tiles} "
                f"dp_state_bytes={stats.dp_bytes_peak}"
            )
    if args.pairs and (args.stats or workers > 1 or resilient):
        telemetry = batch.telemetry
        backend_note = (
            f" backend={telemetry.backend}" if telemetry.backend else ""
        )
        print(
            f"batch: pairs={telemetry.pairs} workers={telemetry.workers} "
            f"shards={telemetry.shard_count} executor={telemetry.executor} "
            f"wall={telemetry.wall_seconds:.3f}s "
            f"pairs/s={telemetry.pairs_per_second:.1f} "
            f"utilization={telemetry.worker_utilization:.0%}"
            f"{backend_note}"
        )
        if telemetry.resilience is not None:
            counters = telemetry.resilience
            print(
                f"resilience: retries={counters.retries} "
                f"timeouts={counters.timeouts} crashes={counters.crashes} "
                f"bisections={counters.bisections} "
                f"fallbacks={counters.fallbacks} "
                f"quarantined={counters.quarantined_pairs} "
                f"checkpoints={counters.checkpoints_written} "
                f"resumed={counters.shards_resumed}"
            )
            quarantined = getattr(batch, "quarantined", ())
            for entry in quarantined:
                print(
                    f"quarantined pair {entry.index}: {entry.reason}",
                    file=sys.stderr,
                )
            if quarantined:
                return 1
    return 0


def _cmd_generate(args) -> int:
    from .workloads.generator import generate_pair_set
    from .workloads.seqio import save_pairs

    pair_set = generate_pair_set(
        f"cli-{args.length}bp", args.length, args.error, args.count,
        seed=args.seed,
    )
    save_pairs(pair_set, args.out)
    print(
        f"wrote {args.count} pairs of {args.length} bp @ {args.error:.1%} "
        f"to {args.out}"
    )
    return 0


def _cmd_experiment(args) -> int:
    import json
    from pathlib import Path

    from .eval.reporting import render_table

    if args.name == "all":
        from .eval.export import export_json, run_all

        if args.json:
            path = export_json(args.json)
            print(f"wrote all experiment results to {path}")
        else:
            results = run_all()
            print(f"ran {len(results)} experiments; pass --json FILE to save")
            for stamp in (
                "lint", "sanitizer", "resilience", "observability",
                "backends", "serving",
            ):
                block = results.get(stamp)
                if isinstance(block, dict) and block.get("badge"):
                    print(block["badge"])
        return 0
    result = _experiments()[args.name]()
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=2, default=str))
        print(f"wrote {args.name} to {args.json}")
        return 0
    if isinstance(result, dict):
        for section, rows in result.items():
            print(render_table(rows, title=f"{args.name} — {section}"))
            print()
    else:
        print(render_table(result, title=args.name))
    return 0


def _cmd_design(args) -> int:
    from .hw import design_point, soc_report

    point = design_point(args.tile_size, args.frequency)
    report = soc_report(args.tile_size)
    print(f"GMX design point: T={point.tile_size} @ {point.frequency_ghz} GHz")
    print(f"  DP elements per instruction : {point.elements_per_instruction}")
    print(f"  GMX-AC latency              : {point.ac_stages} cycles")
    print(f"  GMX-TB latency              : {point.tb_stages} cycles")
    print(f"  area                        : {point.area_mm2:.4f} mm^2")
    print(f"  power                       : {point.power_mw:.2f} mW")
    print(f"  peak throughput             : {point.peak_gcups:.0f} GCUPS")
    print(
        f"  share of the RTL SoC        : "
        f"{report.gmx_area_fraction:.1%} area, "
        f"{report.gmx_power_fraction:.1%} power"
    )
    return 0


def _cmd_verify(args) -> int:
    import random

    from .align import AutoAligner, BandedGmxAligner, FullGmxAligner
    from .baselines import (
        BpmAligner,
        EdlibAligner,
        HirschbergAligner,
        NeedlemanWunschAligner,
        WfaAligner,
    )
    from .core.tile import boundary_deltas
    from .hw.rtl_sim import GmxAcArraySim
    from .workloads.generator import generate_pair

    rng = random.Random(args.seed)
    aligners = [
        FullGmxAligner(),
        BandedGmxAligner(),
        AutoAligner(),
        NeedlemanWunschAligner(),
        BpmAligner(),
        EdlibAligner(),
        HirschbergAligner(),
        WfaAligner(),
    ]
    checked = 0
    for index in range(args.pairs):
        length = rng.randint(20, 400)
        error = rng.choice((0.01, 0.05, 0.15, 0.30))
        pair = generate_pair(length, error, rng)
        scores = set()
        for aligner in aligners:
            result = aligner.align(pair.pattern, pair.text)
            if result.alignment is not None:
                result.alignment.validate()
            scores.add(result.score)
        if len(scores) != 1:
            print(f"FAIL: aligners disagree on pair {index}: {scores}")
            return 1
        checked += 1
    # Gate-level spot check: the executable array vs the tile kernel.
    sim = GmxAcArraySim(tile_size=8, stages=2)
    for _ in range(20):
        pair = generate_pair(8, 0.2, rng)
        chunk_p = pair.pattern[:8].ljust(8, "A")
        chunk_t = (pair.text[:8] or "A").ljust(8, "C")
        from .core.tile import compute_tile_reference

        simulated = sim.simulate(
            chunk_p, chunk_t, boundary_deltas(8), boundary_deltas(8)
        )
        reference = compute_tile_reference(
            chunk_p, chunk_t, boundary_deltas(8), boundary_deltas(8),
            tile_size=8,
        )
        if simulated.result != reference:
            print("FAIL: gate-level array disagrees with the tile kernel")
            return 1
    print(
        f"OK: {checked} random pairs agreed across {len(aligners)} exact "
        f"aligners; gate-level array matches the tile kernel"
    )
    if args.strict:
        from .analysis import run_lint

        report = run_lint(seed=args.seed, pairs=4)
        if report.diagnostics:
            print(report.render())
            print(f"FAIL: strict mode found {len(report.diagnostics)} diagnostics")
            return 1
        print(
            f"OK: strict mode — {report.programs_checked} instruction streams "
            f"verified clean, repo invariants hold"
        )
    return 0


def _cmd_lint(args) -> int:
    import json as json_module

    from .analysis import Program, run_lint, verify_program

    if args.program:
        from pathlib import Path

        try:
            listing = Path(args.program).read_text()
            program = Program.from_hex(
                listing, tile_size=args.tile_size, label=args.program
            )
        except OSError as exc:
            print(f"error: {args.program}: {exc.strerror}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(
                f"error: {args.program}: not a hex program listing ({exc})",
                file=sys.stderr,
            )
            return 2
        diagnostics = verify_program(
            program, ports=1 if args.single_port else 2
        )
        if args.format == "json":
            print(
                json_module.dumps(
                    {
                        "program": args.program,
                        "instructions": len(program),
                        "diagnostics": [d.to_dict() for d in diagnostics],
                        "clean": not diagnostics,
                    },
                    indent=2,
                )
            )
        else:
            for diagnostic in diagnostics:
                print(diagnostic)
            status = "clean" if not diagnostics else "dirty"
            print(
                f"{args.program}: {len(program)} instructions, "
                f"{len(diagnostics)} diagnostics ({status})"
            )
        return 1 if diagnostics else 0

    report = run_lint(
        seed=args.seed,
        pairs=args.pairs,
        tile_size=args.tile_size,
        corpus=args.corpus,
        repo=not args.skip_repo,
        streams=not args.skip_streams,
        ports=1 if args.single_port else 2,
    )
    if args.format == "json":
        print(json_module.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        from .analysis.sarif import render_sarif

        print(render_sarif(report.diagnostics, tool_name="repro-lint"))
    else:
        print(report.render())
    return 1 if report.diagnostics else 0


def _cmd_sanitize(args) -> int:
    import json as json_module

    from .analysis.sanitizer import run_sanitize

    report = run_sanitize(
        seed=args.seed,
        static=not args.skip_static,
        dynamic=not args.skip_dynamic,
        shadow=not args.skip_shadow,
        corpus=args.corpus,
        pairs=args.pairs,
        workers=args.workers,
        sample=args.sample,
        tile_size=args.tile_size,
    )
    if args.format == "json":
        print(json_module.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        from .analysis.sarif import render_sarif

        print(render_sarif(report.diagnostics, tool_name="repro-sanitize"))
    else:
        print(report.render())
    return 0 if report.clean else 1


def _cmd_serve(args) -> int:
    from .serve import AlignmentHTTPServer, AlignmentService, ServeConfig
    from .serve import ServeError

    aligner = ALIGNER_FACTORIES[args.algorithm](args)
    config = ServeConfig(
        workers=args.workers,
        coalesce_max_pairs=args.coalesce_max_pairs,
        cache_size=args.cache_size,
        max_inflight=args.max_inflight,
        rate_limit_rps=args.rate_limit,
        rate_limit_burst=args.rate_limit_burst,
    )
    try:
        service = AlignmentService(aligner, config=config)
    except (ServeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with service:
        try:
            server = AlignmentHTTPServer((args.host, args.port), service)
        except OSError as exc:
            print(
                f"error: cannot bind {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
        host, port = server.server_address[0], server.server_address[1]
        print(
            f"serving {args.algorithm} on http://{host}:{port} "
            f"(workers={service.pool.workers} executor={service.executor} "
            f"cache={args.cache_size} max_inflight={args.max_inflight})"
        )
        print("endpoints: POST /align, GET /health, GET /metrics — Ctrl-C stops")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            server.shutdown()
            server.server_close()
    return 0


def _cmd_bench(args) -> int:
    import json as json_module
    from pathlib import Path

    from .serve import ServeError
    from .serve.bench import run_serve_bench

    try:
        report = run_serve_bench(
            requests=args.requests,
            clients=args.clients,
            unique_pairs=args.unique,
            length=args.length,
            error_rate=args.error,
            seed=args.seed,
            workers=args.workers,
            cache_size=args.cache_size,
        )
    except (ServeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(report.to_dict(), indent=2) + "\n"
        )
        print(f"wrote bench report to {args.json}")
    return 0 if report.errors == 0 else 1


def _cmd_chaos(args) -> int:
    import json as json_module
    from pathlib import Path

    from .resilience import run_campaign

    if args.dist:
        from .dist import run_dist_campaign

        report = run_dist_campaign(
            seed=args.seed,
            faults=args.faults,
            nodes=args.nodes,
            node_workers=args.node_workers,
            length=args.length,
            error_rate=args.error,
            shard_size=args.shard_size,
            lease_timeout=args.lease_timeout,
            checkpoint=args.checkpoint,
        )
        print(report.render())
        if args.json:
            Path(args.json).write_text(
                json_module.dumps(report.to_dict(), indent=2)
            )
            print(f"wrote dist chaos report to {args.json}")
        return 0 if report.ok else 1

    if args.serve:
        from .serve.chaos import run_serve_chaos

        report = run_serve_chaos(
            seed=args.seed,
            pairs=args.pairs if args.pairs is not None else 32,
            workers=args.workers,
            length=args.length,
            error_rate=args.error,
        )
        print(report.render())
        if args.json:
            Path(args.json).write_text(
                json_module.dumps(report.to_dict(), indent=2)
            )
            print(f"wrote serve chaos report to {args.json}")
        return 0 if report.ok else 1

    report = run_campaign(
        seed=args.seed,
        faults=args.faults,
        pairs=args.pairs,
        length=args.length,
        error_rate=args.error,
        workers=args.workers,
        shard_size=args.shard_size,
        shard_timeout=args.shard_timeout,
        max_retries=args.max_retries,
        checkpoint=args.checkpoint,
    )
    print(report.render())
    if args.json:
        Path(args.json).write_text(
            json_module.dumps(report.to_dict(), indent=2)
        )
        print(f"wrote campaign report to {args.json}")
    return 0 if report.ok else 1


def _cmd_dist(args) -> int:
    if args.dist_command == "worker":
        return _cmd_dist_worker(args)
    return _cmd_dist_coordinator(args)


def _cmd_dist_worker(args) -> int:
    from .dist import run_worker

    aligner = ALIGNER_FACTORIES[args.algorithm](args)
    node = args.node or f"{args.host}:{args.port}"

    def _on_bound(host: str, port: int) -> None:
        print(
            f"dist worker {node!r} (incarnation {args.incarnation}) "
            f"serving {args.algorithm} on http://{host}:{port} "
            f"(pool workers={args.workers})"
        )
        print("endpoints: GET /health, POST /shard — Ctrl-C stops")

    try:
        run_worker(
            aligner,
            host=args.host,
            port=args.port,
            node=node,
            incarnation=args.incarnation,
            workers=args.workers,
            on_bound=_on_bound,
        )
    except OSError as exc:
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_dist_coordinator(args) -> int:
    from .dist import DistConfig, DistCoordinator, DistError, NodeHandle
    from .workloads.seqio import iter_pairs

    aligner = ALIGNER_FACTORIES[args.algorithm](args)
    nodes = [
        NodeHandle(name=f"node{index}", url=url.rstrip("/"))
        for index, url in enumerate(args.node_urls)
    ]
    if args.shard_size is not None and args.shard_size < 1:
        print(
            f"error: --shard-size must be >= 1, got {args.shard_size}",
            file=sys.stderr,
        )
        return 2
    pairs = list(iter_pairs(args.pairs))
    config = DistConfig(
        lease_timeout=args.lease_timeout,
        shard_size=args.shard_size,
    )
    coordinator = DistCoordinator(
        aligner,
        nodes,
        config=config,
        checkpoint=args.checkpoint,
    )
    try:
        outcome = coordinator.run(pairs, traceback=not args.no_traceback)
    except DistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counters = outcome.counters
    print(
        f"aligned {outcome.pairs} pairs across {counters.shards} shards "
        f"on {len(nodes)} node(s)"
    )
    print(
        f"leases: {counters.leases_granted} granted, "
        f"{counters.leases_expired} expired, "
        f"{counters.stale_discards} stale discarded, "
        f"{counters.retries} retries, "
        f"{counters.local_shards} local, "
        f"{counters.resumed_shards} resumed"
    )
    if args.stats:
        for name, state in sorted(outcome.nodes.items()):
            print(
                f"  {name}: completed={state['completed']} "
                f"failures={state['failures']} "
                f"stale={state['stale_replies']} "
                f"alive={state['alive']} "
                f"quarantined={state['quarantined']}"
            )
        stats = outcome.stats
        print(
            f"kernel: {stats.total_instructions} instructions, "
            f"{stats.dp_cells} DP cells"
        )
    return 0


def _cmd_stream(args) -> int:
    import json
    import os
    from dataclasses import asdict

    from .mapper.windows import DEFAULT_K
    from .resilience import CheckpointError
    from .stream import StreamConfig, StreamError, stream_align, verify_windows
    from .workloads.seqio import iter_fasta_blocks

    if args.chunk_size < 1 or args.overlap < 0:
        print(
            f"error: invalid geometry chunk_size={args.chunk_size} "
            f"overlap={args.overlap}",
            file=sys.stderr,
        )
        return 2
    if args.verify_windows < 0:
        print(
            f"error: --verify-windows must be >= 0, got {args.verify_windows}",
            file=sys.stderr,
        )
        return 2
    config = StreamConfig(chunk_size=args.chunk_size, overlap=args.overlap)

    def read(source: str, record=None):
        """A literal sequence, or a FASTA record's blocks; case folded."""
        if not os.path.exists(source):
            return source.upper()
        return (
            block.upper()
            for block in iter_fasta_blocks(source, record=record)
        )

    query = "".join(read(args.query))
    try:
        config.validate()
        result = stream_align(
            read(args.reference, args.record),
            query,
            config=config,
            engine=args.engine,
            workers=args.workers,
            checkpoint=args.checkpoint,
        )
    except (StreamError, CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stitched = result.stitched
    print(
        f"stream: score {result.score}, reference "
        f"[{result.text_start}, {result.text_end}) of "
        f"{result.reference_length}, query {result.query_length}, "
        f"engine {result.engine}"
    )
    counters = result.counters
    stitch = stitched.counters
    print(
        f"filter: {counters.chunks} windows -> {counters.candidates} "
        f"candidates, {counters.holes_promoted} holes promoted, "
        f"{counters.spurious_skipped} spurious skipped"
    )
    print(
        f"stitch: {stitch.anchor_seams} anchor seams, "
        f"{stitch.bridge_seams} bridge seams "
        f"({stitch.bridge_columns} bridged columns), "
        f"{stitch.head_unmapped}/{stitch.tail_unmapped} unmapped head/tail"
    )
    timings = result.timings
    print(
        f"timings: filter {timings.filter_seconds:.3f}s, align "
        f"{timings.align_seconds:.3f}s, stitch {timings.stitch_seconds:.3f}s"
    )
    if args.cigar:
        print(f"cigar: {stitched.cigar}")
    window_report = []
    if args.verify_windows:
        try:
            checks = verify_windows(
                stitched, windows=args.verify_windows, seed=args.seed
            )
        except StreamError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        good = sum(1 for check in checks if check.ok)
        print(
            f"conformance: {good}/{len(checks)} windows byte-identical "
            "to the Hirschberg oracle"
        )
        window_report = [
            {
                "query": [check.query_start, check.query_end],
                "reference": [check.ref_start, check.ref_end],
                "score": check.window_score,
                "oracle_score": check.oracle_score,
                "identical": check.identical,
            }
            for check in checks
        ]
        if good != len(checks):
            return 1
    if args.json:
        report = {
            "score": result.score,
            "cigar": stitched.cigar,
            "text_start": result.text_start,
            "text_end": result.text_end,
            "reference_length": result.reference_length,
            "query_length": result.query_length,
            "engine": result.engine,
            "config": {
                "chunk_size": config.chunk_size,
                "overlap": config.overlap,
                "k": DEFAULT_K,
                "span_pad": config.span_pad,
            },
            "counters": asdict(counters),
            "stitch": asdict(stitch),
            "timings": asdict(timings),
            "windows": window_report,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.json}")
    return 0


def _cmd_profile(args) -> int:
    from pathlib import Path
    from time import perf_counter_ns

    from .obs import runtime as obs
    from .obs.profiler import (
        ProfileError,
        build_profile,
        load_profile,
        render_profile,
        render_profile_diff,
    )

    if args.diff:
        before_path, after_path = args.diff
        try:
            before = load_profile(before_path)
            after = load_profile(after_path)
        except ProfileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_profile_diff(before, after, top=args.top))
        return 0

    inner = list(args.wrapped)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        print(
            "error: nothing to profile — use `repro profile -- align ...` "
            "or `repro profile --diff BEFORE AFTER`",
            file=sys.stderr,
        )
        return 2
    if inner[0] == "profile":
        print("error: cannot profile the profiler itself", file=sys.stderr)
        return 2
    if obs.enabled():
        print(
            "error: observability is already active in this process",
            file=sys.stderr,
        )
        return 2

    label = " ".join(inner)
    recorder, registry = obs.enable()
    start_ns = perf_counter_ns()
    try:
        with recorder.span(f"cli.{inner[0]}", argv=label):
            code = main(inner)
    finally:
        wall_ns = perf_counter_ns() - start_ns
        obs.disable()

    profile = build_profile(
        recorder,
        wall_ns=wall_ns,
        label=label,
        metrics=registry.snapshot(),
    )
    try:
        if args.trace:
            Path(args.trace).write_text(recorder.to_json() + "\n")
            print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
        if args.jsonl:
            Path(args.jsonl).write_text(recorder.to_jsonl() + "\n")
            print(f"wrote span lines to {args.jsonl}", file=sys.stderr)
        if args.json:
            Path(args.json).write_text(profile.to_json() + "\n")
            print(f"wrote profile to {args.json}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_profile(profile, top=args.top))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .workloads.seqio import SeqFormatError

    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help (0) and usage errors (2); fold its code
        # into the normal return path so embedding callers never unwind.
        return int(exc.code or 0)
    handlers = {
        "align": _cmd_align,
        "generate": _cmd_generate,
        "experiment": _cmd_experiment,
        "design": _cmd_design,
        "verify": _cmd_verify,
        "lint": _cmd_lint,
        "sanitize": _cmd_sanitize,
        "chaos": _cmd_chaos,
        "dist": _cmd_dist,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "stream": _cmd_stream,
        "profile": _cmd_profile,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        return 0
    except SeqFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = exc.strerror or str(exc)
        print(
            f"error: {name}: {detail}" if name else f"error: {detail}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
