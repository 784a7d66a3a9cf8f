"""Unit tests for the kernel backends (repro.align.backends).

Covers the closed engine table (names, descriptions, one object per
engine from every thread), backend selection (a name, ``None`` meaning
``bitpar``; never an instance), the ``bitpar`` default of every GMX
aligner, baselines having no backend, and the observer-degradation rule:
a non-observing backend silently yields to the pure engine whenever an
ISA trace or fault hook is armed.
"""

import threading

import pytest

from repro.align import (
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
)
from repro.align.backends import (
    DEFAULT_BACKEND,
    BackendError,
    BitparTileBackend,
    PureTileBackend,
    backend_names,
    effective_backend,
    get_backend,
)
from repro.baselines import BpmAligner, NeedlemanWunschAligner
from repro.core.isa import GmxIsa, fault_injection

GMX_ALIGNERS = (
    FullGmxAligner,
    BandedGmxAligner,
    WindowedGmxAligner,
    AutoAligner,
)


class TestRegistry:
    def test_default_backend_is_registered_and_first(self):
        # The reference comes first; the default is the fast engine.
        names = backend_names()
        assert names == ("pure", "bitpar")
        assert DEFAULT_BACKEND == "bitpar"

    def test_every_engine_describes_itself_in_the_stamp(self):
        from repro.eval.export import _backend_status

        classes = (PureTileBackend, BitparTileBackend)
        assert tuple(cls.name for cls in classes) == backend_names()
        stamp = _backend_status(quick=True)
        assert stamp["registered"] == [
            {"name": cls.name, "description": cls.description}
            for cls in classes
        ]
        assert all(cls.description for cls in classes)

    def test_singletons_are_cached(self):
        assert get_backend("bitpar") is get_backend("bitpar")

    def test_fresh_thread_sees_the_same_engines(self):
        seen = {}

        def look_up():
            seen.update((name, get_backend(name)) for name in backend_names())

        thread = threading.Thread(target=look_up)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert tuple(seen) == backend_names()
        assert all(seen[name] is get_backend(name) for name in seen)


class TestSelection:
    def test_none_resolves_to_default(self):
        assert get_backend(None).name == DEFAULT_BACKEND == "bitpar"

    def test_unknown_name_errors_with_roster(self):
        with pytest.raises(BackendError, match="pure"):
            get_backend("warp-drive")

    def test_removed_numpy_backend_errors_with_roster(self):
        # ``numpy`` only rebuilt bitpar's Peq table and measured slower.
        with pytest.raises(BackendError, match=r"registered: pure, bitpar\)"):
            get_backend("numpy")

    def test_engine_instance_is_not_a_selector(self):
        # Engines are chosen by name, so no third engine can be plugged in.
        with pytest.raises(BackendError, match=r"registered: pure, bitpar\)"):
            get_backend(BitparTileBackend())
        with pytest.raises(BackendError):
            FullGmxAligner(backend=get_backend("pure"))


class TestWithBackend:
    """Which engine an aligner is built with."""

    @pytest.mark.parametrize("cls", GMX_ALIGNERS, ids=lambda c: c.__name__)
    def test_default_constructed_aligner_runs_bitpar(self, cls):
        assert cls().backend.name == "bitpar"

    @pytest.mark.parametrize("cls", GMX_ALIGNERS, ids=lambda c: c.__name__)
    def test_pure_is_selected_by_name(self, cls):
        assert cls(tile_size=8, backend="pure").backend.name == "pure"

    @pytest.mark.parametrize(
        "baseline", (BpmAligner, NeedlemanWunschAligner), ids=lambda c: c.__name__
    )
    def test_baselines_reject_backends(self, baseline):
        # A baseline has no tile kernel to swap: no backend attribute, and
        # its constructor refuses one.
        assert getattr(baseline(), "backend", None) is None
        with pytest.raises(TypeError):
            baseline(backend="bitpar")

    def test_windowed_backend_property_never_raises(self):
        # batch telemetry probes `aligner.backend` with getattr(..., None);
        # a generic windowed driver over a backend-less inner aligner must
        # answer None, not raise.
        from repro.align import WindowedAligner

        wrapped = WindowedAligner(BpmAligner(), window=32, overlap=8)
        assert wrapped.backend is None
        assert WindowedAligner(
            FullGmxAligner(tile_size=8), window=32, overlap=8
        ).backend.name == "bitpar"


class TestObserverDegradation:
    def test_pure_always_sticks(self):
        isa = GmxIsa(tile_size=8)
        pure = get_backend("pure")
        assert effective_backend(pure, isa) is pure

    def test_bitpar_sticks_on_plain_isa(self):
        isa = GmxIsa(tile_size=8)
        bitpar = get_backend("bitpar")
        assert effective_backend(bitpar, isa) is bitpar

    def test_trace_forces_pure(self):
        isa = GmxIsa(tile_size=8)
        isa.trace = []
        assert effective_backend(get_backend("bitpar"), isa).name == "pure"

    def test_fault_hook_forces_pure(self):
        class _Hook:
            def on_tile_output(self, op, value, tile_size):
                return value

            def on_csr_write(self, csr, value):
                return value

        isa = GmxIsa(tile_size=8)
        with fault_injection(_Hook()):
            assert effective_backend(get_backend("bitpar"), isa).name == "pure"
        assert effective_backend(get_backend("bitpar"), isa).name == "bitpar"

    def test_trace_sink_aligner_still_exact_under_bitpar(self):
        # End-to-end: a tracing aligner configured with bitpar silently
        # runs pure, so the verifier-visible event stream stays complete
        # and the answer is unchanged.
        sink = []
        aligner = FullGmxAligner(tile_size=8, trace_sink=sink, backend="bitpar")
        reference = FullGmxAligner(tile_size=8, backend="pure").align(
            "ACGTACGT", "ACGAACGT"
        )
        result = aligner.align("ACGTACGT", "ACGAACGT")
        assert result.score == reference.score
        assert sink  # the retired stream was recorded despite the backend
