"""Tests for the command-line interface (repro.cli)."""

import json
import random

import pytest

from conftest import mutate_dna, random_dna
from repro.cli import main


class TestAlign:
    def test_paper_example(self, capsys):
        assert main(["align", "GCAT", "GATT", "--tile-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "score=2" in out
        assert "cigar=" in out

    @pytest.mark.parametrize(
        "algorithm",
        ["full-gmx", "banded-gmx", "windowed-gmx", "nw", "bpm", "edlib",
         "bitap", "genasm", "darwin"],
    )
    def test_every_algorithm_runs(self, algorithm, capsys):
        assert main(["align", "ACGTACGT", "ACGAACGT", "--algorithm", algorithm]) == 0
        assert "score=" in capsys.readouterr().out

    def test_infix_mode_reports_span(self, capsys):
        assert (
            main(["align", "AACGT", "TTTTAACGTTTTT", "--mode", "infix"]) == 0
        )
        out = capsys.readouterr().out
        assert "score=0" in out
        assert "span=4:9" in out

    def test_stats_flag(self, capsys):
        assert main(["align", "ACGT", "ACGT", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "instructions=" in out
        assert "dp_cells=" in out

    def test_no_traceback(self, capsys):
        assert main(["align", "ACGT", "ACGA", "--no-traceback"]) == 0
        assert "cigar" not in capsys.readouterr().out

    def test_missing_operands_fails(self, capsys):
        assert main(["align"]) == 2
        assert "error" in capsys.readouterr().err


class TestGenerateAndPairs:
    def test_generate_then_align_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "pairs.seq")
        assert (
            main(
                ["generate", "--length", "80", "--count", "4", "--out", path]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["align", "--pairs", path, "--algorithm", "edlib"]) == 0
        out = capsys.readouterr().out
        assert out.count("score=") == 4

    def test_batch_stats_name_the_bitpar_engine(self, tmp_path, capsys):
        path = str(tmp_path / "pairs.seq")
        assert (
            main(["generate", "--length", "40", "--count", "3", "--out", path])
            == 0
        )
        capsys.readouterr()
        assert main(["align", "--pairs", path, "--stats"]) == 0
        assert " backend=bitpar" in capsys.readouterr().out


class TestExperiment:
    @pytest.mark.parametrize("name", ["memory", "tilecost", "table1", "table2",
                                      "fig13", "energy"])
    def test_cheap_experiments_render(self, name, capsys):
        assert main(["experiment", name]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 3

    def test_fig12_renders_both_panels(self, capsys):
        assert main(["experiment", "fig12"]) == 0
        out = capsys.readouterr().out
        assert "scaling" in out
        assert "bandwidth" in out


class TestDesign:
    def test_paper_design_point(self, capsys):
        assert main(["design", "--tile-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "1024 GCUPS" in out
        assert "0.0216" in out
        assert "2 cycles" in out


class TestVerify:
    def test_self_check_passes(self, capsys):
        assert main(["verify", "--pairs", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "8 random pairs" in out

    def test_seeded_determinism(self, capsys):
        assert main(["verify", "--pairs", "5", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--pairs", "5", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_strict_mode_runs_static_analysis(self, capsys):
        assert main(["verify", "--pairs", "3", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "strict mode" in out
        assert "verified clean" in out


class TestLint:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint", "--pairs", "1", "--tile-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "[program-verifier] clean" in out
        assert "[repo-lint] clean" in out

    def test_corpus_exits_nonzero(self, capsys):
        code = main(["lint", "--corpus", "--skip-streams", "--skip-repo"])
        assert code == 1
        out = capsys.readouterr().out
        assert "malformed corpus:" in out
        assert "GMX00" in out

    def test_corpus_cases_all_match_annotations(self, capsys):
        main(["lint", "--corpus", "--skip-streams", "--skip-repo",
              "--format", "json"])
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["corpus_cases"] >= 10
        assert payload["corpus_matched"] == payload["corpus_cases"]

    def test_json_format_clean(self, capsys):
        assert main(
            ["lint", "--pairs", "1", "--tile-size", "8", "--format", "json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["summary"]["total"] == 0
        assert payload["programs_checked"] == payload["programs_clean"] > 0

    def test_program_file_clean(self, tmp_path, capsys):
        from repro.core.encoding import encode, encode_csr

        listing = "\n".join(
            f"{word:08x}"
            for word in [
                encode_csr("csrrw", "gmx_pattern", 0, 1),
                encode_csr("csrrw", "gmx_text", 0, 2),
                encode("gmx.v", 5, 0, 0),
            ]
        )
        path = tmp_path / "prog.hex"
        path.write_text(listing + "\n")
        assert main(["lint", "--program", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_program_file_single_port_vh(self, tmp_path, capsys):
        from repro.core.encoding import encode, encode_csr

        listing = "\n".join(
            f"{word:08x}"
            for word in [
                encode_csr("csrrw", "gmx_pattern", 0, 1),
                encode_csr("csrrw", "gmx_text", 0, 2),
                encode("gmx.vh", 4, 0, 0),
            ]
        )
        path = tmp_path / "vh.hex"
        path.write_text(listing + "\n")
        assert main(["lint", "--program", str(path), "--single-port"]) == 1
        assert "GMX007" in capsys.readouterr().out


class TestFusedAlign:
    def test_fused_matches_unfused(self, capsys):
        assert main(["align", "GCATGCAT", "GATTGCAT", "--fused"]) == 0
        fused = capsys.readouterr().out
        assert main(["align", "GCATGCAT", "GATTGCAT"]) == 0
        assert capsys.readouterr().out == fused


class TestResilientAlign:
    def _write_pairs(self, tmp_path):
        path = str(tmp_path / "pairs.seq")
        assert (
            main(["generate", "--length", "40", "--count", "4", "--out", path])
            == 0
        )
        return path

    def test_resilience_flags_route_through_resilient_engine(
        self, tmp_path, capsys
    ):
        path = self._write_pairs(tmp_path)
        capsys.readouterr()
        assert main(["align", "--pairs", path, "--max-retries", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("score=") == 4
        assert "resilience:" in out

    def test_checkpoint_flag_writes_journal(self, tmp_path, capsys):
        path = self._write_pairs(tmp_path)
        journal = tmp_path / "run.journal"
        capsys.readouterr()
        assert main(["align", "--pairs", path, "--checkpoint", str(journal)]) == 0
        assert journal.exists()
        assert "repro-batch-journal" in journal.read_text()

    def test_plain_align_stays_on_plain_engine(self, tmp_path, capsys):
        path = self._write_pairs(tmp_path)
        capsys.readouterr()
        assert main(["align", "--pairs", path, "--stats"]) == 0
        assert "resilience:" not in capsys.readouterr().out


class TestChaos:
    def test_small_campaign_passes(self, capsys):
        assert (
            main(
                ["chaos", "--seed", "7", "--faults", "4", "--pairs", "6",
                 "--length", "32", "--workers", "1", "--shard-size", "3"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "verdict: OK" in out
        assert "identical to fault-free serial run: yes" in out

    def test_json_report(self, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        assert (
            main(
                ["chaos", "--seed", "7", "--faults", "3", "--pairs", "6",
                 "--length", "32", "--workers", "1", "--shard-size", "3",
                 "--json", str(report_path)]
            )
            == 0
        )
        data = json.loads(report_path.read_text())
        assert data["ok"] is True
        assert data["counters"]["faults_injected"] == 3


class TestStreamAlign:
    @pytest.fixture(scope="class")
    def planted(self):
        rng = random.Random(0x50F7)
        query = random_dna(3000, rng)
        reference = (
            random_dna(30_000, rng) + mutate_dna(query, 30, rng)
            + random_dna(27_000, rng)
        )
        return reference, query

    @staticmethod
    def report(tmp_path, reference, query, tag):
        paths = []
        for name, sequence in (("chr1", reference), ("query", query)):
            path = tmp_path / f"{tag}-{name}.fasta"
            lines = [sequence[lo:lo + 60] for lo in range(0, len(sequence), 60)]
            path.write_text(f">{name}\n" + "\n".join(lines) + "\n")
            paths.append(str(path))
        out = tmp_path / f"{tag}.json"
        assert main(["stream", "align", *paths, "--json", str(out)]) == 0
        return json.loads(out.read_text())

    def test_lowercase_fasta_maps_like_uppercase(
        self, planted, tmp_path, capsys
    ):
        reference, query = planted
        upper = self.report(tmp_path, reference, query, "upper")
        lower = self.report(
            tmp_path, reference.lower(), query.lower(), "lower"
        )
        for key in ("score", "text_start", "text_end", "cigar"):
            assert lower[key] == upper[key], key
        assert upper["score"] <= 30

    def test_json_blocks_carry_what_the_text_prints(
        self, planted, tmp_path, capsys
    ):
        reference, query = planted
        report = self.report(tmp_path, reference, query, "json")
        out = capsys.readouterr().out
        stitch = report["stitch"]
        assert "max_heap_depth" not in stitch
        assert (
            f"{stitch['head_unmapped']}/{stitch['tail_unmapped']} "
            "unmapped head/tail"
        ) in out
        assert stitch["chunks"] >= 1
        assert report["counters"]["jobs"] >= stitch["chunks"]
        assert set(report["timings"]) == {
            "filter_seconds", "align_seconds", "stitch_seconds"
        }
