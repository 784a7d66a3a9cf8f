"""Cross-backend differential fuzz: every backend is the same machine.

The backend contract is *bit-for-bit equivalence*: for any input, any
mode, and any aligner configuration, a non-pure backend must produce the
same score, the same CIGAR, the same exactness claim, the same text span,
and the same :class:`~repro.align.base.KernelStats` as the pure reference
loop — the backends differ only in how fast they get there.

The sweep is seeded (replayable) and mixes random pairs with adversarial
shapes: tile-boundary lengths, partial last tiles, band-edge indel runs,
tie-break-heavy repeats, anchored-mode end columns, and single-character
extremes.  ``bitpar`` tracebacks walk the fill's kept columns while
``pure`` runs ``gmx.tb`` per tile, so every traceback compared here is a
check of the one against the other.  A final test drives the resilience
engine's degradation chain to show the equivalence holds even when a
persistent fault forces the BPM fallback path.
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
from repro.core.isa import GmxIsa
from repro.core.tile import TRANSLATE_PEQ_MIN_LENGTH, build_peq

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
    # Partial last tile row (2T + 5 rows) and column (3T + 2 columns).
    ("GATTACA" * 3, "GATTACCA" * 3 + "GA"),
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

#: Pairs whose PREFIX/INFIX best end column lies inside a tile (columns
#: 6, 15 and 1 at T = 8) or is column 0 (an all-mismatch pattern: every
#: op is a deletion and the traceback starts outside the matrix).
MODE_ENDS = (
    ("ACGTAC", "ACGTAC" + "G" * 11),
    ("TTGCA", "C" * 10 + "TTGCA" + "C" * 7),
    ("AAAA", "T" * 12),
)

#: Pairs whose traceback leaves a 2-cell band at T = 2 after walking
#: tiles: upward out of the band's top (the first two, after 11 and 1
#: tiles) and leftward out of its bottom (the last, after 10 tiles).
BAND_EXITS = (
    ("CCTCTCATGAGTGA", "GGGCGTTCGTGTAGC"),
    ("AAAG", "CGCCCA"),
    ("CGTTCATGCTATA", "TTAGCGCCGATATC"),
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
    """Every challenger matches pure on every pair, field for field.

    Returns the reference outcomes.
    """
    reference = make_aligner(REFERENCE)
    expected_outcomes = [outcome(reference, p, t) for p, t in pairs]
    for backend in CHALLENGERS:
        challenger = make_aligner(backend)
        for (pattern, text), expected in zip(pairs, expected_outcomes):
            got = outcome(challenger, pattern, text)
            assert got == expected, (
                f"backend {backend!r} diverged from {REFERENCE!r}\n"
                f"  aligner: {type(reference).__name__}\n"
                f"  pattern: {pattern!r}\n"
                f"  text   : {text!r}\n"
                f"  pure   : {expected[:2]}\n"
                f"  {backend:<7}: {got[:2]}"
            )
    return expected_outcomes


class TestFullGmx:
    MODES = (AlignmentMode.GLOBAL, AlignmentMode.PREFIX, AlignmentMode.INFIX)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
    def test_random_sweep(self, mode, fused):
        salt = 100 * self.MODES.index(mode) + int(fused)
        pairs = (
            random_pairs(40, seed=SEED + salt)
            + list(ADVERSARIAL)
            + list(MODE_ENDS)
        )
        # T = 2 crosses a tile boundary on almost every traceback step.
        for tile in (TILE, 2):
            assert_identical(
                lambda b, t=tile: FullGmxAligner(
                    tile_size=t, mode=mode, fused=fused, backend=b
                ),
                pairs,
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


#: Characters the engines must compare by identity alone: ``N``, lower
#: case and non-ASCII (a Peq mask per distinct character, any code point).
ODD_CHARS = "Nnacgté中"


def odd_pairs(tile, seed):
    """Seeded pairs of lengths 1–300 (at most 30 tiles a side) for ``tile``.

    Lengths land on and around tile multiples, so last tiles are full and
    partial; texts run both shorter and longer than their patterns; and
    both sides carry :data:`ODD_CHARS` as well as ``ACGT``.
    """
    rng = random.Random(seed)
    top = min(300, 30 * tile)
    lengths = [1, tile - 1, tile, tile + 1, 2 * tile + 1, top]
    lengths += [rng.randint(1, top) for _ in range(4)]
    pairs = []
    for n in lengths:
        pattern = "".join(
            rng.choice(ODD_CHARS) if rng.random() < 0.1 else rng.choice(ALPHABET)
            for _ in range(n)
        )
        text = list(pattern)
        for _ in range(rng.randint(0, max(1, n // 4))):
            pos = rng.randrange(len(text) + 1)
            kind = rng.choice("mid")
            if kind == "m" and text:
                text[pos % len(text)] = rng.choice(ALPHABET + ODD_CHARS)
            elif kind == "i":
                text.insert(pos, rng.choice(ALPHABET + ODD_CHARS))
            elif len(text) > 1:
                del text[pos % len(text)]
        text = "".join(text)
        cut = rng.randint(1, len(text))
        pairs.append((pattern, text))
        pairs.append((pattern, text[:cut]))  # text shorter than the pattern
        pairs.append((pattern, text + text[: rng.randint(1, 2 * tile)]))
    return pairs


def full_signature(backend, pattern, text, *, tile, mode, fused, traceback):
    """Score, CIGAR, span, ordered stats and ordered ISA retired counts."""
    aligner = FullGmxAligner(
        tile_size=tile, mode=mode, fused=fused, backend=backend
    )
    isas = []
    fresh_isa = aligner._fresh_isa

    def recording_isa():
        isa = fresh_isa()
        isas.append(isa)
        return isa

    aligner._fresh_isa = recording_isa
    result = aligner.align(pattern, text, traceback=traceback)
    (isa,) = isas
    return (
        result.score,
        result.cigar,
        result.text_start,
        result.text_end,
        list(result.stats.instructions.items()),
        result.stats,
        list(isa.retired.items()),
    )


class TestInlinedFullLoop:
    """``bitpar``'s inlined Full fill against ``pure``, field by field."""

    @pytest.mark.parametrize("tile", (2, 3, 8, 32))
    @pytest.mark.parametrize("traceback", (True, False), ids=("tb", "dist"))
    @pytest.mark.parametrize("fused", (False, True), ids=("plain", "fused"))
    @pytest.mark.parametrize("mode", TestFullGmx.MODES, ids=lambda m: m.name)
    def test_matches_pure(self, mode, fused, traceback, tile):
        options = dict(tile=tile, mode=mode, fused=fused, traceback=traceback)
        for pattern, text in odd_pairs(tile, SEED + tile):
            expected = full_signature(REFERENCE, pattern, text, **options)
            for backend in CHALLENGERS:
                got = full_signature(backend, pattern, text, **options)
                assert got == expected, (
                    f"{backend} diverged from {REFERENCE} on "
                    f"{pattern!r} / {text!r}: {got[:4]} != {expected[:4]}"
                )

    def test_build_peq_equals_one_or_per_base(self):
        def oracle(pattern):
            peq = {}
            for i, char in enumerate(pattern):
                peq[char] = peq.get(char, 0) | (1 << i)
            return peq

        rng = random.Random(SEED)
        edge = TRANSLATE_PEQ_MIN_LENGTH
        lengths = [0, 1, edge - 1, edge, edge + 1]
        lengths += [rng.randint(1, 300) for _ in range(2000)]
        for length in lengths:
            pattern = "".join(
                rng.choice(ALPHABET + ODD_CHARS) for _ in range(length)
            )
            assert build_peq(pattern) == oracle(pattern), pattern


class TestBandedGmx:
    def test_auto_widen_sweep(self):
        assert_identical(
            lambda b: BandedGmxAligner(tile_size=TILE, backend=b),
            random_pairs(40, seed=SEED + 1) + list(ADVERSARIAL),
        )
        # A 2-cell band at T = 2: passes fail mid-traceback and widen, and
        # the failed passes' stats carry into the result.
        assert_identical(
            lambda b: BandedGmxAligner(band=2, tile_size=2, backend=b),
            random_pairs(40, seed=SEED + 6) + list(BAND_EXITS),
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
        # At T = 2 a 2-cell band also fails after the traceback has
        # walked some tiles.
        outcomes = assert_identical(
            lambda b: BandedGmxAligner(
                band=2, auto_widen=False, tile_size=2, backend=b
            ),
            random_pairs(40, seed=SEED + 6) + list(BAND_EXITS),
        )
        assert outcomes[-len(BAND_EXITS):] == [
            ("BandExceededError",
             f"traceback left the computed band at tile {tile}")
            for tile in ((0, 2), (0, 2), (2, 0))
        ]

    def test_band_edge_indel_runs(self):
        # Deletions/insertions sized to land on the band boundary.
        cases = [
            ("ACGT" * 6, "ACGT" * 6 + "G" * k) for k in range(1, 2 * TILE)
        ]
        assert_identical(
            lambda b: BandedGmxAligner(tile_size=TILE, backend=b), cases
        )


def banded_signature(backend, pattern, text, isas, *, tile, band, auto_widen,
                     traceback):
    """Score, CIGAR, exactness and ordered stats (or the error), plus the
    ordered ISA retired counts of every band pass."""
    isas.clear()
    aligner = BandedGmxAligner(
        band=band, auto_widen=auto_widen, tile_size=tile, backend=backend
    )
    try:
        result = aligner.align(pattern, text, traceback=traceback)
    except BandExceededError as exc:
        answer = ("BandExceededError", str(exc))
    else:
        answer = (
            result.score,
            result.exact,
            result.cigar,
            list(result.stats.instructions.items()),
            result.stats,
        )
    return answer, [list(isa.retired.items()) for isa in isas]


class TestInlinedBandedLoop:
    """``bitpar``'s inlined Banded fill against ``pure``, field by field.

    Ordered, because ``resilience/checkpoint.py`` journals the stats'
    instruction counts in the order they were first charged.
    """

    #: (band, auto_widen): the default start, a 1-cell start widened pass
    #: by pass, a tight fixed band that fails on some pairs, a wide one.
    BANDS = ((None, True), (1, True), (5, False), (64, False))

    @pytest.fixture
    def isas(self, monkeypatch):
        """Every band pass's ISA, in pass order."""
        from repro.align import banded_gmx

        made = []

        def recording_isa(*args, **kwargs):
            isa = GmxIsa(*args, **kwargs)
            made.append(isa)
            return isa

        monkeypatch.setattr(banded_gmx, "GmxIsa", recording_isa)
        return made

    @pytest.mark.parametrize("tile", (2, 3, 8, 32))
    @pytest.mark.parametrize("traceback", (True, False), ids=("tb", "dist"))
    @pytest.mark.parametrize(
        "band, auto_widen", BANDS, ids=("auto", "widen-1", "fixed-5", "fixed-64")
    )
    def test_matches_pure(self, band, auto_widen, traceback, tile, isas):
        options = dict(
            tile=tile, band=band, auto_widen=auto_widen, traceback=traceback
        )
        pairs = odd_pairs(tile, SEED + 7 * tile) + list(BAND_EXITS)
        for pattern, text in pairs:
            expected = banded_signature(
                REFERENCE, pattern, text, isas, **options
            )
            for backend in CHALLENGERS:
                got = banded_signature(backend, pattern, text, isas, **options)
                assert got == expected, (
                    f"{backend} diverged from {REFERENCE} on "
                    f"{pattern!r} / {text!r}: {got[0][:3]} != {expected[0][:3]}"
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


class TestTracebackEngine:
    """``bitpar`` walks its kept columns; only ``pure`` runs ``gmx.tb``."""

    @pytest.mark.parametrize(
        "cls",
        (FullGmxAligner, BandedGmxAligner, WindowedGmxAligner, AutoAligner),
        ids=lambda c: c.__name__,
    )
    def test_default_engine_never_runs_gmx_tb(self, cls, monkeypatch):
        pairs = random_pairs(10, seed=SEED + 9) + list(ADVERSARIAL)
        reference = cls(tile_size=TILE, backend=REFERENCE)
        expected = [outcome(reference, p, t) for p, t in pairs]

        def no_tile_recompute(self, rs1, rs2):
            raise AssertionError("gmx.tb ran")

        monkeypatch.setattr(GmxIsa, "gmx_tb", no_tile_recompute)
        default = cls(tile_size=TILE)
        assert [outcome(default, p, t) for p, t in pairs] == expected
        with pytest.raises(AssertionError, match="gmx.tb ran"):
            reference.align("A" * TILE, "A" * TILE)


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
