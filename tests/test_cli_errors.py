"""CLI error-path contract: bad input exits 2 with a message on stderr.

Every failure mode a user can hit from the shell — bad flags, missing
files, malformed datasets, unknown names — must (a) return exit code 2,
(b) say what went wrong on stderr, and (c) never dump a traceback.
``main`` is called in-process so the tests assert on the real return
value and captured streams.
"""

from __future__ import annotations

import random

import pytest

from conftest import mutate_dna, random_dna
from repro.cli import main


def run(argv, capsys):
    """Invoke the CLI; returns (exit_code, stdout, stderr)."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBadFlags:
    def test_negative_workers(self, capsys):
        code, _, err = run(["align", "A", "C", "--workers", "-3"], capsys)
        assert code == 2
        assert "--workers" in err

    def test_zero_shard_size(self, capsys):
        code, _, err = run(
            ["align", "A", "C", "--shard-size", "0", "--workers", "2"], capsys
        )
        assert code == 2
        assert "--shard-size" in err

    def test_missing_operands(self, capsys):
        code, _, err = run(["align"], capsys)
        assert code == 2
        assert "PATTERN TEXT or --pairs" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 2
        assert "invalid choice" in err

    def test_unknown_experiment_name(self, capsys):
        code, _, err = run(["experiment", "no-such-figure"], capsys)
        assert code == 2
        assert "invalid choice" in err

    def test_unknown_algorithm(self, capsys):
        code, _, err = run(["align", "A", "C", "--algorithm", "magic"], capsys)
        assert code == 2
        assert "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(["--help"], capsys)
        assert code == 0
        assert "align" in out

    @pytest.mark.parametrize("size", ["0", "1", "-3"])
    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["align", "ACGTAC", "ACGAAC"], id="align"),
            pytest.param(
                ["align", "ACGTAC", "ACGAAC", "--algorithm", "banded-gmx"],
                id="align-banded",
            ),
            pytest.param(["serve"], id="serve"),
            pytest.param(["dist", "worker"], id="dist-worker"),
            pytest.param(
                ["dist", "coordinator", "--node", "http://127.0.0.1:1",
                 "--pairs", "pairs.seq"],
                id="dist-coordinator",
            ),
            pytest.param(["design"], id="design"),
            pytest.param(["lint"], id="lint"),
            pytest.param(["sanitize"], id="sanitize"),
        ],
    )
    def test_tile_size_below_two(self, command, size, capsys):
        code, out, err = run(command + ["--tile-size", size], capsys)
        assert code == 2
        assert not out
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert f"tile size must be at least 2, got {size}" in line

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["serve", "--coalesce-max-pairs", "0"],
                id="serve-coalesce-max-pairs",
            ),
            pytest.param(["bench", "serve", "--clients", "0"], id="bench-clients"),
            pytest.param(["bench", "serve", "--unique", "0"], id="bench-unique"),
            pytest.param(["bench", "serve", "--workers", "0"], id="bench-workers"),
        ],
    )
    def test_serve_count_below_one(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert "must be >= 1, got 0" in line

    def test_negative_verify_windows_rejected_before_the_scan(self, capsys):
        code, out, err = run(
            ["stream", "align", "ACGT" * 100, "ACGT" * 10,
             "--verify-windows", "-3"],
            capsys,
        )
        assert code == 2
        assert not out
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert "--verify-windows must be >= 0, got -3" in line

    @pytest.mark.parametrize("engine", ["serial", "pool"])
    def test_checkpoint_off_the_resilient_engine_rejected_before_the_scan(
        self, engine, capsys, tmp_path
    ):
        journal = tmp_path / "ck.journal"
        code, out, err = run(
            ["stream", "align", "ACGT" * 100, "ACGT" * 10,
             "--engine", engine, "--workers", "2",
             "--checkpoint", str(journal)],
            capsys,
        )
        assert code == 2
        assert not out
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert f"checkpoint needs the resilient engine; engine '{engine}'" in line
        assert not journal.exists()

    def test_verify_windows_with_nothing_to_cut(self, capsys):
        # A 150 bp query maps, but its anchors sit too close together
        # for any 128-base window: "0/0 windows" must not read as a pass.
        rng = random.Random(0xA6)
        query = random_dna(150, rng)
        reference = (
            random_dna(1500, rng) + mutate_dna(query, 2, rng)
            + random_dna(1500, rng)
        )
        code, out, err = run(
            ["stream", "align", reference, query, "--verify-windows", "5"],
            capsys,
        )
        assert code == 2
        assert "conformance:" not in out
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error:" in line]
        assert "no verification window" in line


class TestBadFiles:
    def test_missing_pairs_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.seq"
        code, _, err = run(["align", "--pairs", str(missing)], capsys)
        assert code == 2
        assert "nope.seq" in err
        assert "Traceback" not in err

    def test_malformed_pairs_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.seq"
        bad.write_text("this is not a sequence record\n")
        code, _, err = run(["align", "--pairs", str(bad)], capsys)
        assert code == 2
        assert "line must start with" in err

    def test_empty_pairs_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.seq"
        empty.write_text("")
        code, _, err = run(["align", "--pairs", str(empty)], capsys)
        assert code == 2
        assert "no sequence pairs" in err

    def test_unwritable_checkpoint_path(self, capsys, tmp_path):
        pairs = tmp_path / "ok.seq"
        pairs.write_text(">ACGT\n<ACGA\n")
        checkpoint = tmp_path / "no-such-dir" / "x.journal"
        code, _, err = run(
            ["align", "--pairs", str(pairs), "--checkpoint", str(checkpoint)],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_missing_lint_program_file(self, capsys, tmp_path):
        code, _, err = run(
            ["lint", "--program", str(tmp_path / "ghost.hex")], capsys
        )
        assert code == 2
        assert "ghost.hex" in err

    def test_non_hex_lint_program_file(self, capsys, tmp_path):
        listing = tmp_path / "garbage.hex"
        listing.write_text("zz not hex zz\n")
        code, _, err = run(["lint", "--program", str(listing)], capsys)
        assert code == 2
        assert "not a hex program listing" in err


class TestProfileErrors:
    def test_profile_without_command(self, capsys):
        code, _, err = run(["profile"], capsys)
        assert code == 2
        assert "nothing to profile" in err

    def test_profile_of_profile_rejected(self, capsys):
        code, _, err = run(
            ["profile", "--", "profile", "--", "align", "A", "A"], capsys
        )
        assert code == 2
        assert "cannot profile the profiler" in err

    def test_diff_with_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            [
                "profile",
                "--diff",
                str(tmp_path / "a.json"),
                str(tmp_path / "b.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "a.json" in err

    def test_diff_with_malformed_profile(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run(
            ["profile", "--diff", str(broken), str(broken)], capsys
        )
        assert code == 2
        assert "broken.json" in err

    def test_inner_command_error_propagates(self, capsys):
        code, _, err = run(["profile", "--", "align"], capsys)
        assert code == 2
        assert "PATTERN TEXT or --pairs" in err


class TestErrorHygiene:
    """Errors never leak tracebacks or leave observability armed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["align", "--pairs", "/definitely/not/here.seq"],
            ["align", "A", "C", "--workers", "-1"],
            ["profile"],
        ],
    )
    def test_no_traceback_on_stderr(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        assert "Traceback" not in err

    def test_profile_failure_leaves_obs_disabled(self, capsys):
        from repro.obs import runtime as obs

        run(["profile", "--", "align"], capsys)
        assert not obs.enabled()
