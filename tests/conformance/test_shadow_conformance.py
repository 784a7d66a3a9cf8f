"""Shadow-execution conformance: parallel and serial must agree per shard.

Every backend-capable GMX kernel runs a seeded batch through the sharded
parallel engine while :func:`repro.analysis.sanitizer.shadow_execute`
re-executes sampled shards serially and diffs content digests of scores,
CIGARs, and kernel stats.  The digests must match bit-for-bit on every
backend; when they do not, the diverging shard is shrunk (ddmin, see
:func:`tests.conformance.oracle.shrink_shard`) to a minimal reproducer
whose assertion message names the backend and worker count.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.align import BandedGmxAligner, FullGmxAligner, WindowedGmxAligner
from repro.align.backends import backend_names
from repro.analysis.sanitizer import sanitize, shadow_execute
from repro.workloads.generator import generate_pair

from .oracle import edit_distance, shrink_shard

TILE_SIZE = 8
PAIRS = 12
SHARD_SIZE = 3
WORKERS = 2
SAMPLE = 4  # == number of shards: every shard is shadow-verified

BACKENDS = tuple(backend_names())

KERNELS = {
    "full-gmx": lambda backend: FullGmxAligner(
        tile_size=TILE_SIZE, backend=backend
    ),
    "banded-gmx": lambda backend: BandedGmxAligner(
        tile_size=TILE_SIZE, backend=backend
    ),
    "windowed-gmx": lambda backend: WindowedGmxAligner(
        tile_size=TILE_SIZE, backend=backend
    ),
}


class DriftingAligner(FullGmxAligner):
    """Rigged kernel for the shrink test: misbehaves on one poisoned
    pattern, but only after a pickle round-trip (the shadow copy), so the
    serial re-execution diverges from the inline parallel pass.
    Module-level because ``_worker_copy`` pickles it.
    """

    def align(self, pattern, text, *, traceback=True):
        result = super().align(pattern, text, traceback=traceback)
        if pattern.startswith("AAAA") and getattr(self, "_copied", False):
            result.score += 1
        return result

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._copied = True


def _case_seed(kernel, backend):
    """Stable per-(kernel, backend) seed (``hash()`` is randomized)."""
    return zlib.crc32(f"{kernel}:{backend}".encode())


def _pairs(seed, count=PAIRS, length=40):
    rng = random.Random(seed)
    return [
        (pair.pattern, pair.text)
        for pair in (generate_pair(length, 0.12, rng) for _ in range(count))
    ]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_shadow_digests_identical(kernel, backend):
    aligner = KERNELS[kernel](backend)
    report = shadow_execute(
        aligner,
        _pairs(seed=_case_seed(kernel, backend)),
        workers=WORKERS,
        shard_size=SHARD_SIZE,
        sample=SAMPLE,
        seed=17,
    )
    assert report.sampled, "shadow pass must sample at least one shard"
    for mismatch in report.mismatches:
        # shadow_execute already shrank the shard; fail with the replay
        # recipe (backend + workers + minimal pairs) spelled out.
        pytest.fail(mismatch.render())
    assert report.clean


@pytest.mark.parametrize("backend", BACKENDS)
def test_shadow_under_armed_session(backend):
    """Shadowing composes with the batch-boundary leak checks (the CI configuration)."""
    aligner = FullGmxAligner(tile_size=TILE_SIZE, backend=backend)
    with sanitize():
        report = shadow_execute(
            aligner,
            _pairs(seed=101),
            workers=WORKERS,
            shard_size=SHARD_SIZE,
            sample=2,
            seed=3,
        )
    assert report.clean, "\n".join(m.render() for m in report.mismatches)


def test_shadow_scores_agree_with_oracle():
    """The shadowed batch is also right, not just self-consistent."""
    pairs = _pairs(seed=55, count=8)
    aligner = FullGmxAligner(tile_size=TILE_SIZE)
    report = shadow_execute(
        aligner, pairs, workers=WORKERS, shard_size=2, sample=4, seed=0
    )
    assert report.clean
    for pattern, text in pairs:
        assert aligner.align(pattern, text).score == edit_distance(
            pattern, text
        )


def test_diverging_shard_shrinks_to_named_reproducer():
    """A rigged mismatch must shrink and name backend + worker count."""
    pairs = _pairs(seed=77, count=6, length=24)
    pairs[4] = ("AAAA" + pairs[4][0], pairs[4][1])
    report = shadow_execute(
        DriftingAligner(tile_size=TILE_SIZE),
        pairs,
        workers=1,  # inline parallel pass: live instance, no pickle copy
        shard_size=3,
        sample=2,
        seed=0,
    )
    assert not report.clean
    (mismatch,) = report.mismatches
    assert len(mismatch.minimal_pairs) == 1
    assert mismatch.minimal_pairs[0][0].startswith("AAAA")
    rendered = mismatch.render()
    assert "backend" in rendered and "worker" in rendered


def test_oracle_shrink_shard_minimises():
    trace = []

    def still_fails(shard):
        trace.append(tuple(shard))
        return "poison" in shard

    minimal = shrink_shard(["a", "b", "poison", "c", "d", "e"], still_fails)
    assert minimal == ["poison"]
    assert all("poison" in shard for shard in trace if shard == ("poison",))
