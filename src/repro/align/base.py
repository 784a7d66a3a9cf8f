"""Aligner interface, results, and kernel instrumentation.

Every aligner in :mod:`repro.align` (GMX co-designed) and
:mod:`repro.baselines` (software state of the art) implements
:class:`Aligner` and returns an :class:`AlignmentResult` carrying both the
functional output (score, optional alignment) and a :class:`KernelStats`
record of the dynamic work performed.

The stats are *trace-derived*: aligners count the loop iterations, DP
elements, tiles, and memory traffic they actually execute, and translate
them into a retired-instruction mix using fixed per-iteration instruction
recipes (documented per aligner).  The cycle models in :mod:`repro.sim`
consume these records; Python wall-clock never enters any reported figure.
"""

from __future__ import annotations

import abc
import enum
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Iterable, List, Optional

from ..core.cigar import Alignment


class AlignmentMode(enum.Enum):
    """Where an alignment is anchored in the DP matrix.

    * ``GLOBAL`` — Needleman–Wunsch: both sequences consumed end to end.
    * ``PREFIX`` — the whole pattern against a *prefix* of the text (free
      text suffix; Edlib's SHW).  Used when the text is a reference window
      longer than the read.
    * ``INFIX`` — the whole pattern against a *substring* of the text (free
      text prefix and suffix; Edlib's HW).  The mapping-verification mode:
      locate the read anywhere inside a candidate window.

    In difference terms the modes only change the DP boundary and where the
    score is read: INFIX zeroes the top-row differences (D[0][j] = 0), and
    both free-suffix modes take ``min_j D[n][j]`` over the bottom row.
    """

    GLOBAL = "global"
    PREFIX = "prefix"
    INFIX = "infix"

#: Instruction categories used by the cycle models.
INSTR_CLASSES = (
    "int_alu",   # scalar integer / bitwise ops
    "load",      # memory loads
    "store",     # memory stores
    "branch",    # conditional branches
    "csr",       # csrr/csrw to GMX architectural state
    "gmx",       # gmx.v / gmx.h (2-cycle pipelined tile computation)
    "gmx_tb",    # gmx.tb (6-cycle multicycle tile traceback)
)


@dataclass
class KernelStats:
    """Dynamic execution profile of one alignment kernel invocation.

    Attributes:
        instructions: retired instructions by class (see INSTR_CLASSES).
        dp_cells: DP-matrix elements the kernel evaluated.
        dp_bytes_peak: peak bytes of DP state the kernel keeps live
            (the paper's memory-footprint axis).
        dp_bytes_read / dp_bytes_written: DP-state memory traffic in bytes
            (drives the cache/bandwidth models).
        hot_bytes: the *hot* working set — state with short reuse distance
            (e.g. one column of tile edges), as opposed to write-once
            traceback state streamed through the hierarchy.  ``None`` means
            "everything is hot" and the timing models fall back to
            ``dp_bytes_peak``.
        tiles: GMX tiles computed (zero for non-GMX kernels).
    """

    instructions: Counter = field(default_factory=Counter)
    dp_cells: int = 0
    dp_bytes_peak: int = 0
    dp_bytes_read: int = 0
    dp_bytes_written: int = 0
    hot_bytes: Optional[int] = None
    tiles: int = 0

    def add_instr(self, klass: str, count: int = 1) -> None:
        """Retire ``count`` instructions of class ``klass``.

        Zero counts are skipped so that Counter comparisons between
        measured and predicted stats are not polluted by empty entries.
        """
        if klass not in INSTR_CLASSES:
            raise ValueError(f"unknown instruction class {klass!r}")
        if count:
            self.instructions[klass] += count

    @property
    def total_instructions(self) -> int:
        """Total retired instructions across all classes."""
        return sum(self.instructions.values())

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another invocation's stats into this record.

        Every reduction here is commutative and associative (sums and
        maxes over integers), so merging per-shard partial stats in any
        grouping reproduces the serial accumulation exactly — the property
        the parallel batch engine relies on.
        """
        self.instructions.update(other.instructions)
        self.dp_cells += other.dp_cells
        self.dp_bytes_peak = max(self.dp_bytes_peak, other.dp_bytes_peak)
        self.dp_bytes_read += other.dp_bytes_read
        self.dp_bytes_written += other.dp_bytes_written
        if other.hot_bytes is not None:
            self.hot_bytes = max(self.hot_bytes or 0, other.hot_bytes)
        self.tiles += other.tiles

    def copy(self) -> "KernelStats":
        """Independent deep copy (the Counter is not shared)."""
        return KernelStats(
            instructions=Counter(self.instructions),
            dp_cells=self.dp_cells,
            dp_bytes_peak=self.dp_bytes_peak,
            dp_bytes_read=self.dp_bytes_read,
            dp_bytes_written=self.dp_bytes_written,
            hot_bytes=self.hot_bytes,
            tiles=self.tiles,
        )

    @classmethod
    def merged(cls, parts: Iterable["KernelStats"]) -> "KernelStats":
        """Merge any number of stat records into a fresh one.

        The shard-reduction entry point: ``merged(merged(a, b), c)`` equals
        ``merged(a, b, c)`` equals the serial accumulation, whatever the
        grouping.
        """
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    @property
    def effective_hot_bytes(self) -> int:
        """Hot working set, falling back to the full DP footprint."""
        return self.hot_bytes if self.hot_bytes is not None else self.dp_bytes_peak


@dataclass
class AlignmentResult:
    """Outcome of aligning one (pattern, text) pair.

    Attributes:
        score: the edit distance (or heuristic distance for windowed/banded
            aligners whose band was exceeded).
        alignment: the full alignment, when traceback was requested.
        stats: dynamic execution profile.
        exact: True when the reported score is guaranteed optimal (full
            algorithms always; banded/windowed only when their heuristic
            region provably contained the optimal path).
        text_start / text_end: the text span the alignment covers.  For
            GLOBAL alignments this is the whole text; for PREFIX/INFIX
            modes the embedded :class:`Alignment` holds (and validates
            against) exactly ``text[text_start:text_end]``.
    """

    score: int
    alignment: Optional[Alignment]
    stats: KernelStats
    exact: bool = True
    text_start: int = 0
    text_end: Optional[int] = None

    @property
    def cigar(self) -> str:
        """CIGAR string of the alignment ('' when traceback was off)."""
        return self.alignment.cigar if self.alignment else ""


class Aligner(abc.ABC):
    """A pairwise sequence aligner.

    Subclasses set :attr:`name` to the label used in the paper's figures
    (e.g. ``"Full(GMX)"`` or ``"Banded(Edlib)"``).
    """

    #: Figure label of this aligner.
    name: str = "?"

    @abc.abstractmethod
    def align(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> AlignmentResult:
        """Align ``pattern`` (rows) against ``text`` (columns).

        Args:
            traceback: when False, only the distance is computed, which for
                most kernels reduces memory footprint dramatically.
        """

    def distance(self, pattern: str, text: str) -> int:
        """Convenience wrapper returning only the score."""
        return self.align(pattern, text, traceback=False).score


def aligner_fingerprint(aligner: Aligner) -> str:
    """Stable identity of an aligner configuration.

    Two aligners with the same fingerprint are interchangeable: same
    class, same scalar configuration (tile size, mode, fusion, windows…),
    same kernel backend, same nested aligners.  Result caches key on it,
    checkpoint journals record it, and dist nodes check it against their
    coordinator's.  The fingerprint folds in the class name and every
    public scalar/enum instance attribute (sorted by name).  A nested
    aligner (a windowed driver's ``inner``) is folded in by its own
    fingerprint, and other complex attributes (the backend object) by
    their ``name``, or they are skipped, so the fingerprint never depends
    on object identity.  Attributes whose names start with ``_`` hold
    per-call or derived state, not configuration, and are left out.
    """
    parts: List[str] = [type(aligner).__name__]
    for key in sorted(vars(aligner)):
        if key.startswith("_"):
            continue
        value = vars(aligner)[key]
        if isinstance(value, Aligner):
            parts.append(f"{key}=({aligner_fingerprint(value)})")
        elif isinstance(value, (bool, int, str)) or value is None:
            parts.append(f"{key}={value!r}")
        elif hasattr(value, "value") and not callable(value):
            # Enum-like (AlignmentMode): identified by its value.
            parts.append(f"{key}={getattr(value, 'value')!r}")
        elif hasattr(value, "name") and isinstance(
            getattr(value, "name"), str
        ):
            # Backend-like: identified by its engine name.
            parts.append(f"{key}={getattr(value, 'name')!r}")
    return "|".join(parts)


class AlignerError(RuntimeError):
    """Raised when an aligner cannot produce a result (e.g. band exceeded)."""


class BandExceededError(AlignerError):
    """A banded kernel's traceback left the computed band; retry wider.

    Shared by every banded aligner (``Banded(GMX)`` and ``Banded(Edlib)``)
    so retry policy — the resilience engine's, or a caller's — can match
    band overflow with a single ``except`` clause regardless of which
    kernel raised it.
    """


@dataclass
class ResilienceCounters:
    """Fault/recovery accounting of one batch run.

    Populated by :mod:`repro.resilience`, whose batch feeds it to a
    recording :mod:`repro.obs` registry once, at its end, as
    ``resilience.<field>`` counters.  Every counter is a simple sum, so
    merging campaign shards or reading a checkpoint journal can
    accumulate records without ordering concerns.

    Attributes:
        faults_injected: faults armed by a :class:`~repro.resilience.FaultPlan`.
        faults_detected: injected or organic faults the engine observed
            (crash, timeout, cross-check mismatch, verifier diagnostic,
            checksum mismatch, malformed data).
        retries: shard attempts re-executed after a detected fault.
        timeouts: shard attempts cancelled at their deadline.
        crashes: shard attempts that died (worker exception or exit).
        cross_check_mismatches: pairs where the baseline cross-check or the
            program verifier disagreed with the primary aligner.
        data_faults: pairs whose in-flight records failed the checksum or
            were structurally malformed.
        slow_shards: shards that finished but breached the slow threshold.
        bisections: shards split in half to isolate a poison pair.
        fallbacks: pairs answered by the degraded baseline aligner.
        quarantined_pairs: pairs excluded from the result after the whole
            degradation chain failed.
        checkpoints_written: journal flushes performed.
        shards_resumed: shards restored from a checkpoint journal.
    """

    faults_injected: int = 0
    faults_detected: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    cross_check_mismatches: int = 0
    data_faults: int = 0
    slow_shards: int = 0
    bisections: int = 0
    fallbacks: int = 0
    quarantined_pairs: int = 0
    checkpoints_written: int = 0
    shards_resumed: int = 0

    def to_dict(self) -> dict:
        """Plain-dict form for JSON artifacts and journal headers."""
        return asdict(self)
