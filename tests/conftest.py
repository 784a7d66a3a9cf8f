"""Shared test fixtures and reference implementations.

The reference edit-distance DP here is deliberately independent of the
library code (no imports from :mod:`repro`), so every kernel is checked
against a second implementation rather than against itself.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import List

import pytest

DNA = "ACGT"

#: Directory of committed golden snapshots (see the ``golden`` fixture).
GOLDEN_DIR = Path(__file__).parent / "golden"

#: Keys whose values vary run to run (timings) and are scrubbed before
#: golden comparison.  Matched by suffix or exact name.
VOLATILE_SUFFIXES = ("_seconds", "_ns", "_per_second")
VOLATILE_KEYS = {"elapsed", "utilization", "wall", "badge_runtime"}


def sanitize_volatile(payload):
    """Replace timing-dependent values with a stable placeholder.

    Recurses through dicts/lists; a key is volatile when it matches
    ``VOLATILE_KEYS`` exactly or ends with one of ``VOLATILE_SUFFIXES``.
    The key itself stays (so schema drift is still caught) — only the
    value is masked.
    """
    if isinstance(payload, dict):
        return {
            key: (
                "<volatile>"
                if key in VOLATILE_KEYS
                or any(key.endswith(s) for s in VOLATILE_SUFFIXES)
                else sanitize_volatile(value)
            )
            for key, value in payload.items()
        }
    if isinstance(payload, list):
        return [sanitize_volatile(item) for item in payload]
    return payload


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ snapshots from the current output",
    )
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help="run every test under the concurrency & determinism "
        "sanitizer (batch-boundary and session-exit hook-leak checks)",
    )


@pytest.fixture(autouse=True)
def _dsan(request):
    """Arm the sanitizer around each test when ``--sanitize`` is given.

    Off by default (one flag check per test).  With the flag, the test
    body runs inside :func:`repro.analysis.sanitizer.sanitize`: every
    ``align_batch*`` boundary, and the test's own end, verifies that no
    ambient hook, trace sink, or obs recorder leaked — exactly how CI
    runs the conformance suite.
    """
    if not request.config.getoption("--sanitize"):
        yield
        return
    from repro.analysis.sanitizer import sanitize

    with sanitize():
        yield


@pytest.fixture(autouse=True)
def _close_shared_pool():
    """Close the warm pool a test left in the shared table when it ends.

    ``align_batch(workers=N)`` keeps one warm pool for the life of the
    process.  Closing it after each test makes every test start and end
    with no pool worker alive: a test asserting an empty
    ``multiprocessing.active_children()`` does not see an earlier test's
    pool, and a test that patches module state before its first pooled
    batch gets workers forked after the patch.
    """
    yield
    from repro.align.parallel import close_shared_pool

    close_shared_pool()


@pytest.fixture
def golden(request):
    """Compare a JSON-safe payload against a committed snapshot.

    Usage: ``golden("lint_json", payload)`` — sanitizes timing keys,
    serialises with sorted keys, and diffs against
    ``tests/golden/lint_json.json``.  Run ``pytest --update-golden`` to
    (re)write the snapshots after an intentional schema change.
    """
    update = request.config.getoption("--update-golden")

    def check(name: str, payload) -> None:
        rendered = (
            json.dumps(sanitize_volatile(payload), indent=2, sort_keys=True)
            + "\n"
        )
        path = GOLDEN_DIR / f"{name}.json"
        if update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(rendered)
            return
        assert path.exists(), (
            f"missing golden snapshot {path} — "
            f"run `pytest --update-golden` to create it"
        )
        expected = path.read_text()
        assert rendered == expected, (
            f"golden snapshot {name!r} drifted from {path}.\n"
            f"If the change is intentional, rerun with --update-golden "
            f"and commit the diff.\n--- expected ---\n{expected}\n"
            f"--- actual ---\n{rendered}"
        )

    return check


def scalar_edit_matrix(pattern: str, text: str) -> List[List[int]]:
    """Reference (n+1)×(m+1) unit-cost edit-distance matrix."""
    n = len(pattern)
    m = len(text)
    matrix = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        matrix[i][0] = i
    for j in range(m + 1):
        matrix[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            matrix[i][j] = min(
                matrix[i - 1][j] + 1,
                matrix[i][j - 1] + 1,
                matrix[i - 1][j - 1] + (pattern[i - 1] != text[j - 1]),
            )
    return matrix


def scalar_edit_distance(pattern: str, text: str) -> int:
    """Reference unit-cost edit distance."""
    return scalar_edit_matrix(pattern, text)[len(pattern)][len(text)]


def random_dna(length: int, rng: random.Random) -> str:
    """Uniform random DNA string."""
    return "".join(rng.choice(DNA) for _ in range(length))


def mutate_dna(sequence: str, edits: int, rng: random.Random) -> str:
    """Apply ``edits`` random single-character edits."""
    chars = list(sequence)
    for _ in range(edits):
        kind = rng.choice("mid")
        if not chars:
            kind = "i"
        if kind == "m":
            position = rng.randrange(len(chars))
            chars[position] = rng.choice(DNA)
        elif kind == "i":
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(DNA))
        elif len(chars) > 1:
            del chars[rng.randrange(len(chars))]
    return "".join(chars)


@pytest.fixture
def rng() -> random.Random:
    """Deterministic per-test RNG."""
    return random.Random(0xC0FFEE)
