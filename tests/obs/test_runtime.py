"""Tests for the ambient observability switch (repro.obs.runtime)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional

import pytest

from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import NOOP_SPAN, SpanRecorder


@dataclass
class Record:
    hits: int = 0
    misses: int = 0
    label: str = ""


@pytest.fixture(autouse=True)
def obs_disabled_around_each_test():
    """Every test starts and ends with observability off."""
    obs.disable()
    yield
    obs.disable()


class TestSwitch:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.recorder() is None
        assert obs.metrics() is None

    def test_disabled_span_is_the_shared_noop(self):
        assert obs.span("anything", k=1) is NOOP_SPAN

    def test_disabled_metric_calls_are_noops(self):
        obs.inc("c")
        obs.inc_record("r", Record())
        obs.observe_ns("h", 10)  # must not raise with no registry armed

    def test_inc_record_adds_every_int_field_under_its_name(self):
        _, registry = obs.enable()
        obs.inc_record("r", Record(hits=3, label="skipped"))
        obs.inc_record("r", Record(hits=2, misses=5))
        assert registry.snapshot().counters == {
            "r.hits": 5, "r.misses": 5,
        }

    def test_enable_returns_live_pair(self):
        recorder, registry = obs.enable()
        assert obs.enabled()
        assert obs.recorder() is recorder
        assert obs.metrics() is registry
        with obs.span("work"):
            obs.inc("c", 2)
        assert len(recorder) == 1
        assert registry.counter("c") == 2

    def test_enable_accepts_existing_state(self):
        recorder = SpanRecorder()
        registry = MetricsRegistry()
        registry.inc("carried", 5)
        got_recorder, got_registry = obs.enable(recorder, registry)
        assert got_recorder is recorder
        assert got_registry is registry
        assert obs.metrics().counter("carried") == 5

    def test_capture_restores_previous_state(self):
        outer_recorder, _ = obs.enable()
        with obs.span("outer"):
            pass
        with obs.capture() as (inner_recorder, inner_registry):
            assert obs.recorder() is inner_recorder
            with obs.span("inner"):
                obs.inc("inner-only")
        assert obs.recorder() is outer_recorder
        assert [s.name for s in outer_recorder.spans] == ["outer"]
        assert [s.name for s in inner_recorder.spans] == ["inner"]
        assert inner_registry.counter("inner-only") == 1

    def test_capture_restores_disabled_state(self):
        with obs.capture():
            assert obs.enabled()
        assert not obs.enabled()

    def test_capture_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert not obs.enabled()


class TestOwnsRecorder:
    def test_false_while_disabled(self):
        assert not obs.owns_recorder()

    def test_true_for_the_creating_process(self):
        obs.enable()
        assert obs.owns_recorder()

    def test_false_for_an_inherited_recorder(self):
        recorder, _ = obs.enable()
        # Simulate the fork-started worker: ENABLED and a recorder exist,
        # but the recorder was created by a different process.
        recorder._pid = os.getpid() + 1
        assert obs.enabled()
        assert not obs.owns_recorder()


@dataclass
class FakeStats:
    tiles: int = 3


@dataclass
class FakeResult:
    stats: FakeStats = field(default_factory=FakeStats)
    alignment: Optional[object] = "an-alignment"


class FakeAligner:
    """Minimal stand-in exposing the Aligner.align shape."""

    calls: List[tuple] = []

    @obs.instrument_align("fake")
    def align(self, pattern, text, *, traceback=True):
        self.calls.append((pattern, text, traceback))
        return FakeResult(
            alignment="an-alignment" if traceback else None
        )


class TestInstrumentAlign:
    def test_disabled_path_is_a_tail_call(self):
        FakeAligner.calls = []
        result = FakeAligner().align("AC", "AG", traceback=False)
        assert FakeAligner.calls == [("AC", "AG", False)]
        assert result.alignment is None

    def test_enabled_path_records_everything(self):
        FakeAligner.calls = []
        recorder, registry = obs.enable()
        FakeAligner().align("ACGT", "ACG")
        FakeAligner().align("AA", "AA", traceback=False)
        spans = recorder.spans
        assert [s.name for s in spans] == ["align.fake", "align.fake"]
        assert spans[0].tags == {"m": 4, "n": 3, "traceback": True}
        assert registry.counter("align.fake.pairs") == 2
        assert registry.counter("align.fake.tiles") == 6
        assert registry.counter("align.fake.tracebacks") == 1  # one traceback
        hist = registry.snapshot().histograms["kernel.fake.align_ns"]
        assert hist.count == 2
