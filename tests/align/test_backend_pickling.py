"""Backend objects and backend-configured aligners survive pickling.

:mod:`repro.align.parallel` ships whole aligners to pool workers, so a
backend choice made in the parent must ride along: the backend singleton
itself pickles, every (aligner x backend) combination round-trips with
the choice intact, and a real worker pool run under a non-pure backend
produces results byte-identical to the serial pure reference.
"""

import pickle

import pytest

from repro.align import (
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
    align_batch,
)
from repro.align.backends import backend_names, get_backend
from repro.workloads import generate_pair_set

BACKENDS = tuple(backend_names())
GMX_ALIGNERS = (
    FullGmxAligner,
    BandedGmxAligner,
    WindowedGmxAligner,
    AutoAligner,
)


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_backend_singleton_round_trips(backend_name):
    backend = get_backend(backend_name)
    restored = pickle.loads(pickle.dumps(backend))
    assert type(restored) is type(backend)
    assert restored.name == backend_name


@pytest.mark.parametrize("cls", GMX_ALIGNERS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_configured_aligner_round_trips(cls, backend_name):
    aligner = cls(tile_size=8, backend=backend_name)
    restored = pickle.loads(pickle.dumps(aligner))
    assert type(restored) is cls
    assert restored.backend.name == backend_name
    pattern, text = "ACGTACGTACGT", "ACGTACCTACGT"
    original = aligner.align(pattern, text)
    replayed = restored.align(pattern, text)
    assert (replayed.score, replayed.cigar, replayed.stats) == (
        original.score,
        original.cigar,
        original.stats,
    )


def test_pool_run_with_bitpar_matches_serial_pure():
    pairs = generate_pair_set("pickle-pool", 90, 0.08, 8, seed=19)
    reference = align_batch(FullGmxAligner(backend="pure"), list(pairs))
    batch = align_batch(FullGmxAligner(), list(pairs), workers=2, shard_size=3)
    # The run must have used a real pool — a silent inline fallback would
    # mean the backend broke picklability.
    assert batch.telemetry.executor != "inline"
    assert batch.telemetry.fallback_reason is None
    assert batch.telemetry.backend == "bitpar"
    assert [r.score for r in batch.results] == [
        r.score for r in reference.results
    ]
    assert [r.cigar for r in batch.results] == [
        r.cigar for r in reference.results
    ]
    assert batch.stats == reference.stats


def test_repro004_lint_covers_backend_objects():
    # The repo invariant lint's picklability probe walks backends and
    # every aligner built with each backend; a clean run is the standing
    # proof.
    from repro.analysis.repolint import check_aligner_picklability

    assert check_aligner_picklability() == []
