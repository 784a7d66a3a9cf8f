"""Property-based conformance suite: every kernel vs the scalar oracle.

Each kernel is driven over a seeded sweep of random tiles — lengths from
1 up to 4x the tile size, error rates 0–40%, plus adversarial specials —
and its score is checked against the independent Wagner–Fischer oracle in
:mod:`tests.conformance.oracle` (and, transitively, against the BPM and
Edlib baselines, which run as kernels of the same sweep).  On a mismatch
the failing pair is shrunk to a minimal reproducer and the assertion
message prints everything needed to replay it: pattern, text, kernel,
backend, and case seed.

Backend-capable kernels (the GMX aligners) run the whole sweep once per
registered kernel backend (pure loop, bit-parallel);
the per-case seed depends only on the kernel name, so every backend sees
byte-identical inputs and the sweep doubles as a cross-backend
differential check against the oracle.
"""

from __future__ import annotations

import pytest

from repro.align import (
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
)
from repro.align.backends import backend_names
from repro.baselines import (
    BpmAligner,
    EdlibAligner,
    HirschbergAligner,
    NeedlemanWunschAligner,
    WfaAligner,
)

from .oracle import edit_distance, generate_case, shrink_case

TILE_SIZE = 8
MIN_LENGTH = 1
MAX_LENGTH = 4 * TILE_SIZE
MAX_ERROR = 0.40
CASES_PER_KERNEL = 64
SEED_BASE = 0x5EED

#: Every registered kernel backend (pure is always first).
BACKENDS = tuple(backend_names())

#: name -> (factory(backend) -> aligner, kernel is exact for every input).
#: Baseline factories ignore the backend argument — they have no tile
#: kernel to swap — and run once, under the ``pure`` id.
KERNELS = {
    "full-gmx": (
        lambda backend: FullGmxAligner(tile_size=TILE_SIZE, backend=backend),
        True,
    ),
    "full-gmx-fused": (
        lambda backend: FullGmxAligner(
            tile_size=TILE_SIZE, fused=True, backend=backend
        ),
        True,
    ),
    "banded-gmx": (
        lambda backend: BandedGmxAligner(tile_size=TILE_SIZE, backend=backend),
        True,
    ),
    "windowed-gmx": (
        lambda backend: WindowedGmxAligner(
            tile_size=TILE_SIZE, backend=backend
        ),
        False,
    ),
    "auto": (
        lambda backend: AutoAligner(tile_size=TILE_SIZE, backend=backend),
        True,
    ),
    "nw": (lambda backend: NeedlemanWunschAligner(), True),
    "bpm": (lambda backend: BpmAligner(), True),
    "edlib": (lambda backend: EdlibAligner(), True),
    "hirschberg": (lambda backend: HirschbergAligner(), True),
    "wfa": (lambda backend: WfaAligner(), True),
}

#: Kernels whose factory actually honours the backend argument.
BACKEND_CAPABLE = frozenset(
    {"full-gmx", "full-gmx-fused", "banded-gmx", "windowed-gmx", "auto"}
)


def sweep_params():
    """(kernel, backend) matrix: GMX kernels x all backends, rest x pure."""
    params = []
    for kernel in sorted(KERNELS):
        backends = BACKENDS if kernel in BACKEND_CAPABLE else ("pure",)
        for backend in backends:
            params.append(pytest.param(kernel, backend, id=f"{kernel}-{backend}"))
    return params


def case_seed(kernel: str, index: int) -> int:
    """Stable per-case seed (printed in failure repros).

    Depends only on the kernel name — every backend replays the exact
    same pair set, so a backend-specific failure is directly diffable
    against the pure run of the same case.
    """
    return SEED_BASE + 10_000 * sorted(KERNELS).index(kernel) + index


def check_pair(kernel: str, pattern: str, text: str, backend: str) -> str:
    """Run one pair through ``kernel``; returns "" or a defect description."""
    factory, always_exact = KERNELS[kernel]
    aligner = factory(backend)
    expected = edit_distance(pattern, text)
    try:
        result = aligner.align(pattern, text)
    except Exception as exc:  # crash is a conformance failure too
        return f"raised {type(exc).__name__}: {exc}"
    if always_exact and result.score != expected:
        return f"score {result.score} != oracle {expected}"
    if not always_exact:
        if result.score < expected:
            return f"score {result.score} below oracle {expected}"
        if result.exact and result.score != expected:
            return (
                f"claims exact but score {result.score} != oracle {expected}"
            )
    if result.alignment is not None:
        try:
            result.alignment.validate()
        except Exception as exc:
            return f"alignment failed validation: {exc}"
        if always_exact and result.alignment.score != result.score:
            return (
                f"alignment scores {result.alignment.score}, "
                f"result says {result.score}"
            )
    return ""


@pytest.mark.parametrize("kernel,backend", sweep_params())
def test_kernel_conforms_to_oracle(kernel, backend):
    for index in range(CASES_PER_KERNEL):
        seed = case_seed(kernel, index)
        pattern, text = generate_case(
            seed,
            min_length=MIN_LENGTH,
            max_length=MAX_LENGTH,
            max_error=MAX_ERROR,
        )
        defect = check_pair(kernel, pattern, text, backend)
        if defect:
            small_pattern, small_text = shrink_case(
                pattern,
                text,
                lambda p, t: bool(check_pair(kernel, p, t, backend)),
            )
            small_defect = check_pair(kernel, small_pattern, small_text, backend)
            pytest.fail(
                "conformance failure\n"
                f"  kernel : {kernel}\n"
                f"  backend: {backend}\n"
                f"  seed   : {seed} (case {index})\n"
                f"  defect : {small_defect or defect}\n"
                f"  pattern: {small_pattern!r}\n"
                f"  text   : {small_text!r}\n"
                f"  (original pair: {pattern!r} / {text!r})"
            )


def test_sweep_is_large_and_diverse():
    """The sweep meets the coverage floor: >=500 cases, full length range."""
    total = CASES_PER_KERNEL * len(sweep_params())
    assert total >= 500
    lengths = set()
    for index in range(CASES_PER_KERNEL):
        pattern, text = generate_case(
            case_seed("full-gmx", index),
            min_length=MIN_LENGTH,
            max_length=MAX_LENGTH,
            max_error=MAX_ERROR,
        )
        lengths.add(len(pattern))
        assert 1 <= len(pattern) <= 2 * MAX_LENGTH
        assert len(text) >= 1
    assert len(lengths) > 10  # the generator sweeps lengths, not one point


def test_shrinker_minimises_a_planted_defect():
    """The shrinker itself: a planted predicate shrinks to a 1-base repro."""

    def fails(pattern, text):
        return "G" in pattern and len(text) >= 1

    pattern, text = shrink_case("ACGTACGT", "TTTT", fails)
    assert pattern == "G"
    assert text == "T"


def test_oracle_matches_known_distances():
    """Spot-check the oracle against hand-computed distances."""
    assert edit_distance("", "") == 0
    assert edit_distance("ACGT", "ACGT") == 0
    assert edit_distance("ACGT", "") == 4
    assert edit_distance("", "ACGT") == 4
    assert edit_distance("ACGT", "AGT") == 1
    assert edit_distance("ACGT", "ACCT") == 1
    assert edit_distance("AAAA", "TTTT") == 4
    assert edit_distance("kitten", "sitting") == 3
