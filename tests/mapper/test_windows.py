"""Tests for the streaming filter's query sketch (repro.mapper.windows).

Every query k-mer is indexed; a reference chunk is probed only at the
positions whose absolute coordinate is a multiple of the stride.  These
tests pin the exact-run guarantee (a shared run of ``stride + k - 1``
bases always hits, one base shorter can miss), the geometry
independence of the probe grid, the repeat cap, and the alphabet rule.
"""

import random

import pytest

from conftest import mutate_dna, random_dna
from repro.mapper import QuerySketch

K = 16
STRIDE = 8


def other_base(base: str, rng: random.Random) -> str:
    return rng.choice([b for b in "ACGT" if b != base])


def planted_run(rng, run_length, chunk_start, phase, *, stride=STRIDE, k=K):
    """A query and a chunk sharing exactly one run of ``run_length`` bases.

    The run starts at absolute reference position ``r`` with
    ``r % stride == phase``; the bases on either side of it differ in
    query and chunk, so the shared run is exactly ``run_length`` long.
    Returns ``(query, chunk, diagonal)``.
    """
    query = random_dna(400, rng)
    query_position = 150
    run = query[query_position:query_position + run_length]
    offset = (phase - chunk_start) % stride + 4 * stride
    chunk = random_dna(offset - 1, rng)
    chunk += other_base(query[query_position - 1], rng)
    chunk += run
    chunk += other_base(query[query_position + run_length], rng)
    chunk += random_dna(200, rng)
    reference_position = chunk_start + offset
    assert reference_position % stride == phase
    return query, chunk, reference_position - query_position


class TestExactRunGuarantee:
    @pytest.mark.parametrize("stride", [1, 3, STRIDE])
    @pytest.mark.parametrize("chunk_start", [0, 1_000_003])
    def test_run_of_stride_plus_k_minus_1_hits_at_every_phase(
        self, stride, chunk_start
    ):
        rng = random.Random(stride * 7919 + chunk_start)
        for phase in range(stride):
            query, chunk, diagonal = planted_run(
                rng, stride + K - 1, chunk_start, phase, stride=stride
            )
            sketch = QuerySketch(query, k=K, stride=stride)
            vote = sketch.scan_window(chunk, chunk_start, bucket=1)
            assert vote is not None, f"phase {phase} missed the run"
            assert vote.diagonal == diagonal

    @pytest.mark.parametrize("stride", [3, STRIDE])
    def test_one_base_shorter_misses_at_some_phase(self, stride):
        rng = random.Random(stride)
        chunk_start = 4_096 + 5
        missed = []
        for phase in range(stride):
            query, chunk, _ = planted_run(
                rng, stride + K - 2, chunk_start, phase, stride=stride
            )
            sketch = QuerySketch(query, k=K, stride=stride)
            if sketch.scan_window(chunk, chunk_start) is None:
                missed.append(phase)
        assert missed, "a run of stride + k - 2 bases hit at every phase"


class TestProbeGrid:
    def test_split_windows_yield_the_same_hits(self):
        rng = random.Random(0x51)
        query = random_dna(1500, rng)
        chunk = random_dna(300, rng) + mutate_dna(query, 15, rng)
        chunk += random_dna(300, rng)
        sketch = QuerySketch(query)
        for chunk_start in (0, 77, 4_096):
            whole = list(sketch.hits(chunk, chunk_start))
            assert len(whole) > 100
            for split in (1, 8, 64, 333, 1000, 1001, 1003, len(chunk) - K):
                left = chunk[:split + K - 1]
                right = chunk[split:]
                pieces = list(sketch.hits(left, chunk_start))
                pieces += list(sketch.hits(right, chunk_start + split))
                assert pieces == whole, (chunk_start, split)

    def test_probes_only_absolute_multiples_of_the_stride(self):
        rng = random.Random(0x52)
        query = random_dna(600, rng)
        sketch = QuerySketch(query, stride=5)
        for chunk_start in (0, 3, 12_346):
            hits = list(sketch.hits(query, chunk_start))
            assert hits
            assert all(r % 5 == 0 for r, _ in hits)
            assert all(r - q == chunk_start for r, q in hits)


def plain_hits(query, chunk, chunk_start, *, k, stride, max_occurrences):
    """The sketch's hits by the plain per-probe loop: slice, look up, yield."""
    offsets = {}
    dropped = set()
    for position in range(len(query) - k + 1):
        kmer = query[position:position + k]
        if not set(kmer) <= set("ACGT") or kmer in dropped:
            continue
        offsets.setdefault(kmer, []).append(position)
        if len(offsets[kmer]) > max_occurrences:
            del offsets[kmer]
            dropped.add(kmer)
    hits = []
    for index in range((-chunk_start) % stride, len(chunk) - k + 1, stride):
        for query_position in offsets.get(chunk[index:index + k], ()):
            hits.append((chunk_start + index, query_position))
    return hits


class TestProbeOracle:
    def test_struct_probe_matches_the_plain_loop(self):
        # k 4/8/16 against every stride 1-16, so strides below, at and
        # above k, dividing it or not; N, lower case and non-ASCII bases
        # on both sides; small repeat caps as well as the default.
        rng = random.Random(0x55)
        odd = "NNacgté"
        for case in range(2000):
            k = rng.choice((4, 8, 16))
            stride = rng.randint(1, 16)
            cap = rng.choice((1, 3, 512))
            query = "".join(
                rng.choice(odd) if rng.random() < 0.05 else rng.choice("ACGT")
                for _ in range(rng.randint(0, 300))
            )
            lo = rng.randint(0, len(query))
            hi = rng.randint(lo, len(query))
            chunk = random_dna(rng.randint(0, 40), rng)
            chunk += mutate_dna(query[lo:hi], rng.randint(0, 4), rng)
            chunk += "".join(rng.choice("ACGT" + odd) for _ in range(20))
            chunk_start = rng.randint(0, 1_000_000)
            sketch = QuerySketch(query, k=k, stride=stride, max_occurrences=cap)
            expected = plain_hits(
                query, chunk, chunk_start, k=k, stride=stride,
                max_occurrences=cap,
            )
            assert list(sketch.hits(chunk, chunk_start)) == expected, case

    def test_non_ascii_bases_never_hit_or_raise(self):
        query = "ACGTACGTACGTACGTAé"
        sketch = QuerySketch(query, k=4, stride=1)
        assert sketch.lookup("ACGT") == (0, 4, 8, 12)
        assert sketch.lookup("GTAé") == ()
        assert list(sketch.hits("éééé", 0)) == []
        assert [r for r, _ in sketch.hits("TAéACGT", 0)] == [3] * 4


class TestIndex:
    def test_every_query_kmer_is_indexed(self):
        rng = random.Random(0x53)
        query = random_dna(700, rng)
        sketch = QuerySketch(query)
        for position in range(len(query) - K + 1):
            assert position in sketch.lookup(query[position:position + K])

    @pytest.mark.parametrize("length", [0, K - 1, K, 300])
    def test_size_is_at_most_the_kmer_count(self, length):
        rng = random.Random(length)
        query = random_dna(length, rng) + "A" * (length // 3)
        sketch = QuerySketch(query)
        assert len(sketch) <= max(0, len(query) - K + 1)

    @pytest.mark.parametrize("cap", [1, 4, 512])
    def test_repeat_cap_keeps_cap_occurrences_and_drops_one_more(self, cap):
        kmer = "A" * K
        at_cap = QuerySketch(kmer + "A" * (cap - 1), max_occurrences=cap)
        assert at_cap.lookup(kmer) == tuple(range(cap))
        over = QuerySketch(kmer + "A" * cap, max_occurrences=cap)
        assert over.lookup(kmer) == ()
        far_over = QuerySketch(kmer + "A" * (cap + 5), max_occurrences=cap)
        assert far_over.lookup(kmer) == ()

    def test_default_cap_matches_the_stream_config(self):
        assert QuerySketch("ACGT" * 8).max_occurrences == 512

    def test_n_and_lowercase_kmers_never_index_or_vote(self):
        rng = random.Random(0x54)
        clean = random_dna(400, rng)
        query = clean[:100] + "N" + clean[101:200] + clean[200:300].lower()
        query += clean[300:]
        sketch = QuerySketch(query, stride=1)
        kmers = [query[r:r + K] for r in range(len(query) - K + 1)]
        dirty = {
            r for r, kmer in enumerate(kmers)
            if "N" in kmer or not kmer.isupper()
        }
        assert dirty
        assert len(sketch) == len(kmers) - len(dirty)
        assert all(sketch.lookup(kmers[r]) == () for r in dirty)
        # The reference carries the same N and lowercase stretches: only
        # the clean probes vote, each on its own diagonal.
        hits = list(sketch.hits(query, 0))
        assert hits == [
            (r, r) for r in range(len(kmers)) if r not in dirty
        ]

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            QuerySketch("ACGT", k=3)
        with pytest.raises(ValueError, match="stride must be"):
            QuerySketch("ACGT", stride=0)
        with pytest.raises(ValueError, match="max_occurrences must be"):
            QuerySketch("ACGT", max_occurrences=0)
        with pytest.raises(ValueError, match="bucket must be"):
            QuerySketch("ACGT" * 8).scan_window("ACGT" * 8, 0, bucket=0)
