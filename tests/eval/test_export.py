"""Tests for the JSON experiment export (repro.eval.export)."""

import json

import pytest

from repro.eval.export import export_json, run_all


@pytest.fixture(scope="module")
def all_results():
    return run_all(quick=True)


class TestRunAll:
    def test_covers_every_experiment(self, all_results):
        expected = {
            "figure3", "figure10", "figure11", "figure12", "figure13",
            "figure14", "figure15", "table1", "table2", "scalability_1mbp",
            "memory_footprint", "tile_costs", "energy", "speedup_summary",
            "lint", "sanitizer", "resilience", "observability", "backends",
            "serving",
        }
        assert set(all_results) == expected

    def test_rows_are_non_empty(self, all_results):
        for name, rows in all_results.items():
            if name in (
                "lint", "sanitizer", "resilience", "observability",
                "backends", "serving",
            ):
                continue  # checked structurally below
            if isinstance(rows, dict):
                assert all(rows.values()), name
            else:
                assert rows, name

    def test_headline_summary_present(self, all_results):
        families = {row["family"] for row in all_results["speedup_summary"]}
        assert "Full(GMX) vs Full(BPM)" in families

    def test_lint_badge_embedded(self, all_results):
        lint = all_results["lint"]
        assert lint["clean"] is True
        assert lint["badge"] == "lint: clean (0 diagnostics)"
        assert lint["diagnostics"] == []
        assert lint["programs_checked"] == lint["programs_clean"] > 0

    def test_sanitizer_badge_embedded(self, all_results):
        status = all_results["sanitizer"]
        assert status["clean"] is True
        assert status["badge"].startswith("sanitizer: clean")
        assert status["worker_reachable"] > 0
        assert status["batches_checked"] >= 1
        assert status["shadow_clean"] is True
        assert status["findings"] == 0
        assert status["dynamic_errors"] == 0
        assert status["shadow_mismatches"] == 0

    def test_resilience_badge_embedded(self, all_results):
        resilience = all_results["resilience"]
        assert resilience["ok"] is True
        assert resilience["identical"] is True
        assert resilience["unaccounted"] == []
        assert resilience["badge"].startswith("resilience: OK")
        assert resilience["counters"]["faults_injected"] > 0

    def test_observability_stamp_embedded(self, all_results):
        status = all_results["observability"]
        assert status["badge"].startswith("observability: 3 kernels")
        assert status["spans"] > 0
        kernels = status["kernels"]
        assert set(kernels) == {"full_gmx", "banded_gmx", "windowed"}
        for name, entry in kernels.items():
            assert entry["pairs"] > 0, name
            assert entry["tiles"] > 0, name
            assert entry["align_ns"]["count"] == entry["pairs"], name

    def test_backends_stamp_embedded(self, all_results):
        from repro.align.backends import backend_names

        status = all_results["backends"]
        assert status["identical"] is True
        assert status["default"] == "bitpar"
        assert "ambient" not in status
        assert status["badge"].startswith("backends:")
        roster = {entry["name"] for entry in status["registered"]}
        assert {"pure", "bitpar"} <= roster
        # Every backend but the pure reference was differentially checked.
        assert set(status["checked"]) == set(backend_names()) - {"pure"}
        assert status["checked_pairs"] > 0

    def test_serving_stamp_embedded(self, all_results):
        status = all_results["serving"]
        assert status["identical"] is True
        assert status["cache_identical"] is True
        assert status["badge"].startswith("serving: OK")
        assert status["pairs"] > 0
        # Replay pass: every pair answered from the cache, none recomputed.
        assert status["cache"]["hits"] == status["pairs"]
        assert status["requests"]["cached"] == status["pairs"]
        assert status["requests"]["failed"] == 0

    def test_observability_stamp_leaves_obs_disabled(self, all_results):
        from repro.obs import runtime as obs

        assert not obs.enabled()


class TestExportJson:
    def test_roundtrip(self, tmp_path):
        path = export_json(tmp_path / "results.json")
        loaded = json.loads(path.read_text())
        assert "figure10" in loaded
        assert loaded["memory_footprint"][0]["algorithm"] == "Classical DP"
        # The JSON is self-contained: figures carry numbers, not objects.
        row = loaded["figure10"][0]
        assert isinstance(row["alignments_per_second"], (int, float))
