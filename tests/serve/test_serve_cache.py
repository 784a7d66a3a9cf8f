"""Content-addressed cache: key identity, LRU determinism, counters."""

import pytest

from repro.align import (
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedAligner,
    WindowedGmxAligner,
)
from repro.serve import (
    AlignmentCache,
    CachedAlignment,
    CacheError,
    aligner_fingerprint,
    pair_key,
)


def _entry(score=3, cigar="4M1X"):
    result = FullGmxAligner().align("ACGTA", "ACGTT")
    return CachedAlignment.from_result(result)


class TestFingerprint:
    def test_same_configuration_same_fingerprint(self):
        a = FullGmxAligner(tile_size=16)
        b = FullGmxAligner(tile_size=16)
        assert aligner_fingerprint(a) == aligner_fingerprint(b)

    def test_tile_size_changes_fingerprint(self):
        assert aligner_fingerprint(FullGmxAligner(tile_size=16)) != (
            aligner_fingerprint(FullGmxAligner(tile_size=32))
        )

    def test_class_changes_fingerprint(self):
        assert aligner_fingerprint(FullGmxAligner()) != (
            aligner_fingerprint(BandedGmxAligner())
        )

    def test_full_and_banded_fingerprints_are_pinned(self):
        # Journal headers (docs/resilience.md) and dist nodes compare
        # these strings byte for byte.
        assert aligner_fingerprint(FullGmxAligner()) == (
            "FullGmxAligner|backend='bitpar'|fused=False|mode='global'"
            "|tile_size=32|trace_sink=None"
        )
        assert aligner_fingerprint(BandedGmxAligner(tile_size=8)) == (
            "BandedGmxAligner|auto_widen=True|backend='bitpar'|band=None"
            "|tile_size=8|trace_sink=None"
        )

    def test_nested_aligner_folded_in_by_its_fingerprint(self):
        def windowed(tile_size):
            inner = FullGmxAligner(tile_size=tile_size)
            return WindowedAligner(inner, window=32, overlap=8)

        assert aligner_fingerprint(windowed(8)) != (
            aligner_fingerprint(windowed(16))
        )
        assert aligner_fingerprint(WindowedGmxAligner()) != (
            aligner_fingerprint(WindowedGmxAligner(backend="pure"))
        )

    def test_per_call_state_left_out(self):
        aligner = AutoAligner(tile_size=8)
        before = aligner_fingerprint(aligner)
        aligner.align("ACGTACGT", "ACGAACGT")
        assert aligner.last_choice == "Banded(GMX)"
        assert aligner_fingerprint(aligner) == before
        with pytest.raises(AttributeError):
            aligner.last_choice = "Windowed(GMX)"


class TestPairKey:
    def test_stable(self):
        fp = aligner_fingerprint(FullGmxAligner())
        assert pair_key("ACGT", "ACGA", fingerprint=fp) == pair_key(
            "ACGT", "ACGA", fingerprint=fp
        )

    def test_sequences_distinguish(self):
        fp = aligner_fingerprint(FullGmxAligner())
        base = pair_key("ACGT", "ACGA", fingerprint=fp)
        assert pair_key("ACGA", "ACGT", fingerprint=fp) != base
        assert pair_key("ACGT", "ACGAA", fingerprint=fp) != base

    def test_traceback_mode_distinguishes(self):
        fp = aligner_fingerprint(FullGmxAligner())
        assert pair_key("ACGT", "ACGA", fingerprint=fp, traceback=True) != (
            pair_key("ACGT", "ACGA", fingerprint=fp, traceback=False)
        )

    def test_fingerprint_distinguishes(self):
        fp_a = aligner_fingerprint(FullGmxAligner(tile_size=8))
        fp_b = aligner_fingerprint(FullGmxAligner(tile_size=16))
        assert pair_key("ACGT", "ACGA", fingerprint=fp_a) != (
            pair_key("ACGT", "ACGA", fingerprint=fp_b)
        )


class TestCache:
    def test_hit_returns_stored_entry(self):
        cache = AlignmentCache(4)
        entry = _entry()
        cache.store("k1", entry)
        assert cache.lookup("k1") is entry
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = AlignmentCache(4)
        assert cache.lookup("absent") is None
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_deterministic_lru_eviction_order(self):
        cache = AlignmentCache(3)
        entry = _entry()
        for key in ("a", "b", "c"):
            cache.store(key, entry)
        cache.lookup("a")  # a becomes most-recently-used
        cache.store("d", entry)  # evicts b (the least recently used)
        assert cache.keys() == ["c", "a", "d"]
        assert cache.evictions == 1
        cache.store("e", entry)  # evicts c
        assert cache.keys() == ["a", "d", "e"]
        assert cache.evictions == 2

    def test_replayed_sequence_evicts_identically(self):
        def replay():
            cache = AlignmentCache(2)
            entry = _entry()
            operations = [
                ("store", "x"), ("store", "y"), ("lookup", "x"),
                ("store", "z"), ("lookup", "y"), ("store", "w"),
            ]
            for op, key in operations:
                if op == "store":
                    cache.store(key, entry)
                else:
                    cache.lookup(key)
            return cache.keys(), cache.hits, cache.misses, cache.evictions

        assert replay() == replay()

    def test_capacity_zero_disables(self):
        cache = AlignmentCache(0)
        cache.store("k", _entry())
        assert len(cache) == 0
        assert cache.lookup("k") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(CacheError):
            AlignmentCache(-1)

    def test_stats_copy_is_independent(self):
        entry = _entry()
        copy = entry.stats_copy()
        copy.dp_cells += 1000
        assert entry.stats.dp_cells != copy.dp_cells
        assert entry.stats_copy() == entry.stats

    def test_hit_rate(self):
        cache = AlignmentCache(4)
        cache.store("k", _entry())
        cache.lookup("k")
        cache.lookup("k")
        cache.lookup("missing")
        assert cache.hit_rate == pytest.approx(2 / 3)
        snapshot = cache.snapshot()
        assert snapshot["hits"] == 2 and snapshot["misses"] == 1
        assert snapshot["size"] == 1 and snapshot["capacity"] == 4
