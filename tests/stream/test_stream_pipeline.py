"""End-to-end pipeline tests: engines, streaming inputs, filtering, and
error contracts of :func:`repro.stream.stream_align`."""

from __future__ import annotations

import random
import time
from dataclasses import fields

import pytest

from repro.baselines import EdlibAligner
from repro.mapper import QuerySketch
from repro.obs import runtime as obs
from repro.resilience import CheckpointError
from repro.stream import (
    ENGINES,
    StreamConfig,
    StreamCounters,
    StreamError,
    stream_align,
    stream_align_fasta,
)

from .cases import blocks_of, planted_case
from conftest import random_dna, scalar_edit_distance

CONFIG = StreamConfig(chunk_size=1024, overlap=192)


@pytest.fixture(scope="module")
def case():
    return planted_case(
        random.Random(0xBEEF),
        query_len=1500,
        left_flank=2500,
        right_flank=2500,
        edits=16,
    )


@pytest.fixture(scope="module")
def serial_result(case):
    return stream_align(case.reference, case.query, config=CONFIG)


class TestSerial:
    def test_score_is_optimal_for_covered_span(self, case, serial_result):
        stitched = serial_result.stitched
        assert serial_result.score == scalar_edit_distance(
            case.query, stitched.text
        )
        assert serial_result.score <= case.edits

    def test_span_covers_planted_locus(self, case, serial_result):
        # Free-entry/exit trimming may shave edit-consumed flank bases,
        # but the bulk of the locus must be covered.
        assert abs(serial_result.text_start - case.locus_start) <= case.edits
        assert abs(serial_result.text_end - case.locus_end) <= case.edits

    def test_result_mirrors_stitched(self, serial_result):
        stitched = serial_result.stitched
        assert serial_result.cigar == stitched.cigar
        assert serial_result.text_start == stitched.text_start
        assert serial_result.text_end == stitched.text_end
        assert serial_result.engine == "serial"

    def test_counters_and_timings_account_for_work(self, case, serial_result):
        counters = serial_result.counters
        assert counters.chunks >= 5
        assert 1 <= counters.jobs <= counters.chunks
        assert counters.candidates >= counters.jobs
        assert serial_result.timings.align_seconds > 0
        assert serial_result.timings.filter_seconds > 0
        # The scan may stop early once the locus (plus the hole budget)
        # is covered, but never reads past the reference.
        assert case.locus_end <= serial_result.reference_length
        assert serial_result.reference_length <= len(case.reference)
        assert serial_result.query_length == len(case.query)

    def test_block_stream_equals_string_reference(self, case, serial_result):
        for block_size in (137, 4096, 1 << 16):
            result = stream_align(
                blocks_of(case.reference, block_size),
                case.query,
                config=CONFIG,
            )
            assert result.stitched.runs == serial_result.stitched.runs
            assert result.stitched.text == serial_result.stitched.text


class TestEngines:
    def test_pool_engine_is_byte_identical(self, case, serial_result):
        result = stream_align(
            case.reference,
            case.query,
            config=CONFIG,
            engine="pool",
            workers=2,
        )
        assert result.stitched.runs == serial_result.stitched.runs
        assert result.stitched.text == serial_result.stitched.text
        assert result.score == serial_result.score

    def test_resilient_engine_is_byte_identical(
        self, case, serial_result, tmp_path
    ):
        result = stream_align(
            case.reference,
            case.query,
            config=CONFIG,
            engine="resilient",
            checkpoint=str(tmp_path / "stream.journal"),
        )
        assert result.stitched.runs == serial_result.stitched.runs
        assert result.stitched.text == serial_result.stitched.text

    def test_checkpoint_rejects_different_geometry(self, case, tmp_path):
        journal = str(tmp_path / "stream.journal")
        stream_align(
            case.reference,
            case.query,
            config=CONFIG,
            engine="resilient",
            checkpoint=journal,
        )
        with pytest.raises(CheckpointError, match="different run"):
            stream_align(
                case.reference,
                case.query,
                config=StreamConfig(chunk_size=2048, overlap=192),
                engine="resilient",
                checkpoint=journal,
            )

    @pytest.mark.parametrize("engine", ("serial", "pool"))
    def test_checkpoint_off_the_resilient_engine_rejected(
        self, case, engine, tmp_path
    ):
        journal = tmp_path / "stream.journal"

        def unread_reference():
            raise AssertionError("the reference was scanned")
            yield

        with pytest.raises(
            ValueError, match=f"engine '{engine}' keeps no journal"
        ):
            stream_align(
                unread_reference(),
                case.query,
                config=CONFIG,
                engine=engine,
                workers=2,
                checkpoint=str(journal),
            )
        assert not journal.exists()

    def test_unknown_engine_rejected(self, case):
        with pytest.raises(ValueError, match="unknown engine"):
            stream_align(case.reference, case.query, engine="quantum")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stage_timings_fit_inside_the_call(
        self, case, engine, monkeypatch
    ):
        # The engines pull chunk jobs lazily, so the filter runs inside
        # the engine call; it must be counted once, not again as align.
        scan_window = QuerySketch.scan_window

        def slow_scan_window(self, *args, **kwargs):
            time.sleep(0.02)
            return scan_window(self, *args, **kwargs)

        monkeypatch.setattr(QuerySketch, "scan_window", slow_scan_window)
        start = time.perf_counter()
        result = stream_align(
            case.reference, case.query, config=CONFIG, engine=engine,
            workers=2,
        )
        wall = time.perf_counter() - start
        timings = result.timings
        assert timings.filter_seconds >= 0.02 * result.counters.chunks
        assert timings.align_seconds > 0
        assert (
            timings.filter_seconds + timings.align_seconds
            + timings.stitch_seconds
        ) <= wall


class TestChunkAligner:
    def test_default_runs_the_gmx_kernel_not_edlib(self, case, monkeypatch):
        def refuse(self, pattern, text, *, traceback=True):
            raise AssertionError("the default chunk aligner ran Edlib")

        monkeypatch.setattr(EdlibAligner, "align", refuse)
        result = stream_align(case.reference, case.query, config=CONFIG)
        assert result.stats.tiles > 0

    @pytest.mark.parametrize("seed", [0xBEEF, 0xA1, 0xA2, 0xA3])
    def test_edlib_baseline_stitches_the_same_alignment(self, seed):
        planted = planted_case(
            random.Random(seed),
            query_len=1500,
            left_flank=2500,
            right_flank=2500,
            edits=16,
        )
        default = stream_align(planted.reference, planted.query, config=CONFIG)
        edlib = stream_align(
            planted.reference,
            planted.query,
            config=CONFIG,
            aligner=EdlibAligner(),
        )
        assert edlib.score == default.score
        assert edlib.cigar == default.cigar
        assert (edlib.text_start, edlib.text_end) == (
            default.text_start,
            default.text_end,
        )


class TestFasta:
    def test_fasta_reference_equals_in_memory(
        self, case, serial_result, tmp_path
    ):
        path = tmp_path / "ref.fasta"
        wrapped = "\n".join(
            case.reference[lo:lo + 60]
            for lo in range(0, len(case.reference), 60)
        )
        decoy = "ACGT" * 30
        path.write_text(
            f">decoy first record\n{decoy}\n>chr1 planted locus\n{wrapped}\n"
        )
        result = stream_align_fasta(
            path, case.query, record="chr1", config=CONFIG, block_size=4096
        )
        assert result.stitched.runs == serial_result.stitched.runs
        assert result.stitched.text == serial_result.stitched.text


class TestFiltering:
    def test_n_desert_is_bridged(self):
        rng = random.Random(0xD0)
        query = random_dna(1200, rng)
        # The reference locus carries a 200-base N desert the query does
        # not have; the filter sees voteless windows yet the stitcher
        # must bridge them as one insertion run.
        locus = query[:600] + "N" * 200 + query[600:]
        reference = (
            random_dna(2000, rng) + locus + random_dna(2000, rng)
        )
        result = stream_align(reference, query, config=CONFIG)
        assert result.score == 200
        assert "200I" in result.cigar

    def test_n_run_straddling_chunk_boundary_is_bridged(self):
        rng = random.Random(0xD3)
        query = random_dna(1200, rng)
        locus = query[:600] + "N" * 200 + query[600:]
        # Window step is chunk_size - overlap = 832; a 1800-base left
        # flank puts the N run at absolute [2400, 2600), straddling the
        # window boundary at 3 * 832 = 2496.  Neither adjacent window
        # can match through it — the stitcher must still bridge it as
        # one insertion at the committed locus.
        reference = (
            random_dna(1800, rng) + locus + random_dna(2000, rng)
        )
        result = stream_align(reference, query, config=CONFIG)
        assert result.score == 200
        assert "200I" in result.cigar
        assert result.text_start == 1800

    def test_spurious_repeat_hit_is_skipped(self):
        rng = random.Random(0xD1)
        query = random_dna(1200, rng)
        # A second copy of the locus far downstream draws sketch votes on
        # a diagonal ~3k away from the committed one; those candidates
        # must be dropped as spurious, not stitched.
        reference = (
            random_dna(1500, rng)
            + query
            + random_dna(1500, rng)
            + query
            + random_dna(1500, rng)
        )
        result = stream_align(reference, query, config=CONFIG)
        assert result.score == 0
        assert result.text_start == 1500
        assert result.counters.spurious_skipped >= 1


class TestErrors:
    def test_empty_query_rejected(self):
        with pytest.raises(StreamError, match="query must be non-empty"):
            stream_align("ACGT" * 100, "")

    def test_empty_reference_rejected(self):
        with pytest.raises(StreamError, match="reference must be non-empty"):
            stream_align("", "ACGTACGTACGT")

    def test_alien_query_rejected(self, case):
        rng = random.Random(0xD2)
        with pytest.raises(StreamError, match="anchored nowhere"):
            stream_align(case.reference, random_dna(800, rng), config=CONFIG)

    def test_overlap_below_min_anchor_rejected(self, case):
        with pytest.raises(ValueError, match="min_anchor"):
            stream_align(
                case.reference,
                case.query,
                config=StreamConfig(chunk_size=256, overlap=8),
            )


class TestObservability:
    def test_registry_mirrors_every_counter_under_its_field_name(self, case):
        with obs.capture() as (_recorder, registry):
            result = stream_align(case.reference, case.query, config=CONFIG)
        mirrored = {
            name: value
            for name, value in registry.snapshot().counters.items()
            if name.startswith("stream.") and name != "stream.runs"
        }
        assert mirrored == {
            f"stream.{item.name}": getattr(result.counters, item.name)
            for item in fields(StreamCounters)
        }
        assert result.counters.jobs >= 1

    def test_spans_cover_all_stages(self, case):
        with obs.capture() as (recorder, _registry):
            stream_align(case.reference, case.query, config=CONFIG)
            names = {span.name for span in recorder.spans}
        assert "stream.align" in names
        assert "stream.align_chunk" in names
        assert "stream.stitch" in names
