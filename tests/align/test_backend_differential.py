"""Cross-backend differential fuzz: every backend is the same machine.

The backend contract is *bit-for-bit equivalence*: for any input, any
mode, and any aligner configuration, a non-pure backend must produce the
same score, the same CIGAR, the same exactness claim, the same text span,
and the same :class:`~repro.align.base.KernelStats` as the pure reference
loop — the backends differ only in how fast they get there.

The sweep is seeded (replayable) and mixes random pairs with adversarial
shapes: tile-boundary lengths, band-edge indel runs, tie-break-heavy
repeats, and single-character extremes.  A final test drives the
resilience engine's degradation chain to show the equivalence holds even
when a persistent fault forces the BPM fallback path.
"""

import random

import pytest

from repro.align import (
    AlignmentMode,
    AutoAligner,
    BandExceededError,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
)
from repro.align.backends import backend_names

TILE = 8
SEED = 0xD1FF
ALPHABET = "ACGT"

#: The reference every other backend is held to.
REFERENCE = "pure"

#: Backends under test: everything registered except the reference.
CHALLENGERS = tuple(name for name in backend_names() if name != REFERENCE)

#: Hand-picked adversarial pairs (pattern, text).
ADVERSARIAL = (
    # Tile-boundary lengths: exactly T, T±1, 2T, 4T±1.
    ("A" * TILE, "A" * TILE),
    ("A" * (TILE - 1), "A" * (TILE + 1)),
    ("ACGTACGTA" * 3, "ACGTACGTA" * 3 + "T"),
    ("C" * (4 * TILE - 1), "C" * (4 * TILE + 1)),
    # Band-edge shapes: long indel runs that ride the band boundary.
    ("ACGT" * 8, "ACGT" * 8 + "TTTTTTTT"),
    ("GGGGGGGG" + "ACGT" * 6, "ACGT" * 6),
    # Tie-break-heavy repeats: many co-optimal paths stress traceback
    # determinism (insert-vs-delete-vs-diagonal preference).
    ("ATATATATATATATAT", "TATATATATATATATA"),
    ("AAAAAAAAAAAAAAAA", "AAAAAAAATAAAAAAA"),
    ("ACACACAC", "CACACACA"),
    # Extremes: single characters, full mismatch.
    ("A", "T"),
    ("A", "T" * (2 * TILE)),
    ("ACGT" * TILE, "TGCA" * TILE),
)


def random_pairs(count, max_length=6 * TILE, seed=SEED):
    """Seeded random (pattern, text) pairs across the length/error range."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        n = rng.randint(1, max_length)
        pattern = "".join(rng.choice(ALPHABET) for _ in range(n))
        text = list(pattern)
        for _ in range(rng.randint(0, max(1, n // 3))):
            op = rng.choice("smid")  # skip/mutate/insert/delete
            pos = rng.randrange(len(text) + 1)
            if op == "m" and text:
                text[pos % len(text)] = rng.choice(ALPHABET)
            elif op == "i":
                text.insert(pos, rng.choice(ALPHABET))
            elif op == "d" and len(text) > 1:
                del text[pos % len(text)]
        pairs.append((pattern, "".join(text)))
    return pairs


def outcome(aligner, pattern, text):
    """Full observable signature of one alignment (or the raised error)."""
    try:
        result = aligner.align(pattern, text)
    except BandExceededError as exc:
        return ("BandExceededError", str(exc))
    return (
        result.score,
        result.cigar,
        result.exact,
        result.text_start,
        result.text_end,
        result.stats,
    )


def assert_identical(make_aligner, pairs):
    """Every challenger matches pure on every pair, field for field."""
    reference = make_aligner(REFERENCE)
    for backend in CHALLENGERS:
        challenger = make_aligner(backend)
        for pattern, text in pairs:
            expected = outcome(reference, pattern, text)
            got = outcome(challenger, pattern, text)
            assert got == expected, (
                f"backend {backend!r} diverged from {REFERENCE!r}\n"
                f"  aligner: {type(reference).__name__}\n"
                f"  pattern: {pattern!r}\n"
                f"  text   : {text!r}\n"
                f"  pure   : {expected[:2]}\n"
                f"  {backend:<7}: {got[:2]}"
            )


class TestFullGmx:
    MODES = (AlignmentMode.GLOBAL, AlignmentMode.PREFIX, AlignmentMode.INFIX)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
    def test_random_sweep(self, mode, fused):
        salt = 100 * self.MODES.index(mode) + int(fused)
        assert_identical(
            lambda b: FullGmxAligner(
                tile_size=TILE, mode=mode, fused=fused, backend=b
            ),
            random_pairs(40, seed=SEED + salt),
        )

    def test_adversarial(self):
        assert_identical(
            lambda b: FullGmxAligner(tile_size=TILE, backend=b), ADVERSARIAL
        )

    def test_distance_only(self):
        def check(backend):
            return FullGmxAligner(tile_size=TILE, backend=backend)

        reference = check(REFERENCE)
        for backend in CHALLENGERS:
            challenger = check(backend)
            for pattern, text in random_pairs(30, seed=SEED + 77):
                expected = reference.align(pattern, text, traceback=False)
                got = challenger.align(pattern, text, traceback=False)
                assert (got.score, got.stats) == (
                    expected.score,
                    expected.stats,
                ), f"{backend} diverged on {pattern!r}/{text!r}"
                assert got.alignment is None

    def test_odd_tile_sizes(self):
        for tile in (2, 3, 5, 13):
            assert_identical(
                lambda b, t=tile: FullGmxAligner(tile_size=t, backend=b),
                random_pairs(15, max_length=4 * tile, seed=SEED + tile),
            )


class TestBandedGmx:
    def test_auto_widen_sweep(self):
        assert_identical(
            lambda b: BandedGmxAligner(tile_size=TILE, backend=b),
            random_pairs(40, seed=SEED + 1) + list(ADVERSARIAL),
        )

    def test_fixed_band_including_matching_failures(self):
        # A tight fixed band must fail (BandExceededError) on exactly the
        # same pairs under every backend — outcome() folds the error into
        # the compared signature.
        assert_identical(
            lambda b: BandedGmxAligner(
                band=4, auto_widen=False, tile_size=TILE, backend=b
            ),
            random_pairs(40, seed=SEED + 2) + list(ADVERSARIAL),
        )

    def test_band_edge_indel_runs(self):
        # Deletions/insertions sized to land on the band boundary.
        cases = [
            ("ACGT" * 6, "ACGT" * 6 + "G" * k) for k in range(1, 2 * TILE)
        ]
        assert_identical(
            lambda b: BandedGmxAligner(tile_size=TILE, backend=b), cases
        )


class TestDrivers:
    def test_windowed(self):
        assert_identical(
            lambda b: WindowedGmxAligner(tile_size=TILE, backend=b),
            random_pairs(20, max_length=12 * TILE, seed=SEED + 3),
        )

    def test_auto(self):
        assert_identical(
            lambda b: AutoAligner(tile_size=TILE, backend=b),
            random_pairs(20, seed=SEED + 4) + list(ADVERSARIAL),
        )


class TestResilienceFallback:
    def test_persistent_fault_degrades_identically(self):
        # A persistent worker crash exhausts retries; the engine bisects
        # to the poison pair and answers it with the BPM fallback.  The
        # recovered batch must be identical whichever backend the primary
        # aligner was configured with.
        from repro.resilience import FaultPlan, FaultSpec, align_batch_resilient
        from repro.workloads import generate_pair_set

        pairs = list(
            generate_pair_set(
                "backend-chaos", length=48, error_rate=0.1, count=6, seed=21
            )
        )
        plan = FaultPlan(
            seed=0,
            pair_count=6,
            faults=(
                FaultSpec(
                    fault_id=0,
                    layer="worker",
                    kind="crash",
                    pair_index=2,
                    seed=9,
                    persistent=True,
                ),
            ),
        )

        def run(backend):
            return align_batch_resilient(
                FullGmxAligner(tile_size=TILE, backend=backend),
                pairs,
                shard_size=3,
                fault_plan=plan,
                max_retries=1,
            )

        reference = run(REFERENCE)
        assert reference.telemetry.resilience.fallbacks >= 1
        for backend in CHALLENGERS:
            batch = run(backend)
            counters = batch.telemetry.resilience
            assert counters.fallbacks >= 1
            assert counters.fallbacks == (
                reference.telemetry.resilience.fallbacks
            )
            assert batch.quarantined == reference.quarantined == []
            assert [r.score for r in batch.results] == [
                r.score for r in reference.results
            ]
            assert [r.cigar for r in batch.results] == [
                r.cigar for r in reference.results
            ]
            assert batch.telemetry.backend == backend

    def test_hardware_fault_hook_sees_real_instructions(self):
        # A persistent hardware bitflip is injected through the ISA fault
        # hook; a non-observing backend must degrade to pure so the hook
        # actually fires (detected by cross-check) instead of being
        # silently skipped.
        from repro.resilience import FaultPlan, FaultSpec, align_batch_resilient
        from repro.workloads import generate_pair_set

        pairs = list(
            generate_pair_set(
                "backend-hw", length=48, error_rate=0.1, count=4, seed=22
            )
        )
        plan = FaultPlan(
            seed=0,
            pair_count=4,
            faults=(
                FaultSpec(
                    fault_id=0,
                    layer="hardware",
                    kind="bitflip",
                    pair_index=1,
                    seed=17,
                ),
            ),
        )

        def run(backend):
            return align_batch_resilient(
                FullGmxAligner(tile_size=TILE, backend=backend),
                pairs,
                shard_size=2,
                fault_plan=plan,
                max_retries=2,
                cross_check=True,
            )

        reference = run(REFERENCE)
        for backend in CHALLENGERS:
            batch = run(backend)
            assert (
                batch.telemetry.resilience.faults_injected
                == reference.telemetry.resilience.faults_injected
                >= 1
            )
            assert [r.score for r in batch.results] == [
                r.score for r in reference.results
            ]
