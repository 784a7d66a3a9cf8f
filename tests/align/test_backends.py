"""Unit tests for the kernel backend registry (repro.align.backends).

Covers the registry surface (names, specs, availability probes), the
selection order (explicit instance > name > ``$REPRO_BACKEND`` > default),
``with_backend`` cloning semantics on every backend-capable aligner, the
documented ``AlignerError`` on baselines, and the observer-degradation
rule: a non-observing backend silently yields to the pure engine whenever
an ISA trace or fault hook is armed.
"""

import pytest

from repro.align import (
    AlignerError,
    AutoAligner,
    BandedGmxAligner,
    FullGmxAligner,
    WindowedGmxAligner,
)
from repro.align.backends import (
    BACKEND_ENV,
    DEFAULT_BACKEND,
    BackendError,
    BitparTileBackend,
    KernelBackend,
    PureTileBackend,
    backend_names,
    backend_specs,
    effective_backend,
    get_backend,
    is_available,
    register_backend,
)
from repro.baselines import BpmAligner, NeedlemanWunschAligner
from repro.core.isa import GmxIsa, fault_injection

GMX_ALIGNERS = (
    FullGmxAligner,
    BandedGmxAligner,
    WindowedGmxAligner,
    AutoAligner,
)


@pytest.fixture(autouse=True)
def _no_ambient_backend(monkeypatch):
    """These tests probe the selection machinery itself; an ambient
    ``$REPRO_BACKEND`` (e.g. the CI backend matrix) must not leak in."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)


class TestRegistry:
    def test_default_backend_is_registered_and_first(self):
        names = backend_names()
        assert names[0] == DEFAULT_BACKEND == "pure"
        assert "bitpar" in names

    def test_specs_align_with_names(self):
        specs = backend_specs()
        assert tuple(s.name for s in specs) == backend_names(
            available_only=False
        )
        for spec in specs:
            assert spec.description  # every backend documents itself

    def test_available_only_filter_is_a_subset(self):
        available = set(backend_names())
        registered = set(backend_names(available_only=False))
        assert available <= registered
        assert all(is_available(name) for name in available)

    def test_is_available_on_unknown_name(self):
        assert not is_available("definitely-not-a-backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("pure", PureTileBackend)

    def test_singletons_are_cached(self):
        assert get_backend("bitpar") is get_backend("bitpar")


class TestSelection:
    def test_none_resolves_to_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert get_backend(None).name == DEFAULT_BACKEND

    def test_env_variable_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bitpar")
        assert get_backend(None).name == "bitpar"
        # An explicit name still wins over the environment.
        assert get_backend("pure").name == "pure"

    def test_env_variable_with_unknown_name_errors(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "warp-drive")
        with pytest.raises(BackendError):
            get_backend(None)

    def test_unknown_name_errors_with_roster(self):
        with pytest.raises(BackendError, match="pure"):
            get_backend("warp-drive")

    def test_removed_numpy_backend_errors_with_roster(self, monkeypatch):
        # ``numpy`` only rebuilt bitpar's Peq table and measured slower.
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        with pytest.raises(BackendError, match=r"registered: pure, bitpar\)"):
            get_backend(None)

    def test_instance_passes_through(self):
        backend = BitparTileBackend()
        assert get_backend(backend) is backend

    def test_aligner_ctor_accepts_all_selector_forms(self):
        for selector in (None, "bitpar", BitparTileBackend()):
            aligner = FullGmxAligner(backend=selector)
            assert isinstance(aligner.backend, KernelBackend)


class TestWithBackend:
    @pytest.mark.parametrize("cls", GMX_ALIGNERS, ids=lambda c: c.__name__)
    def test_clone_preserves_type_and_sets_backend(self, cls):
        original = cls(tile_size=8)
        clone = original.with_backend("bitpar")
        assert type(clone) is type(original)
        assert clone is not original
        assert clone.backend.name == "bitpar"
        assert original.backend.name == DEFAULT_BACKEND  # untouched

    @pytest.mark.parametrize("cls", GMX_ALIGNERS, ids=lambda c: c.__name__)
    def test_supports_backend_flag(self, cls):
        assert cls(tile_size=8).supports_backend

    def test_clone_preserves_configuration(self):
        original = FullGmxAligner(tile_size=16, fused=True)
        clone = original.with_backend("bitpar")
        assert clone.tile_size == 16
        assert clone.fused is True
        result = clone.align("ACGTACGTAC", "ACGTACGGAC")
        assert result.score == original.align("ACGTACGTAC", "ACGTACGGAC").score

    @pytest.mark.parametrize(
        "baseline", (BpmAligner, NeedlemanWunschAligner), ids=lambda c: c.__name__
    )
    def test_baselines_reject_backends(self, baseline):
        aligner = baseline()
        assert not aligner.supports_backend
        with pytest.raises(AlignerError, match="does not support"):
            aligner.with_backend("bitpar")

    def test_windowed_backend_property_never_raises(self):
        # batch telemetry probes `aligner.backend` with getattr(..., None);
        # a generic windowed driver over a backend-less inner aligner must
        # answer None, not raise.
        from repro.align import WindowedAligner

        wrapped = WindowedAligner(BpmAligner(), window=32, overlap=8)
        assert wrapped.backend is None
        assert not wrapped.supports_backend
        with pytest.raises(AlignerError):
            wrapped.with_backend("bitpar")


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
        reference = FullGmxAligner(tile_size=8).align("ACGTACGT", "ACGAACGT")
        result = aligner.align("ACGTACGT", "ACGAACGT")
        assert result.score == reference.score
        assert sink  # the retired stream was recorded despite the backend
