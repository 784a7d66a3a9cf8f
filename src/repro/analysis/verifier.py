"""GMX program verifier: abstract dataflow analysis over instruction streams.

The verifier replays a :class:`~repro.analysis.program.Program` through an
abstract machine that tracks, per instruction:

* which CSRs have been written (uninitialized-read detection, GMX001);
* which (pattern, text) chunk pairs earlier tile instructions computed
  (``gmx.tb`` must trace a computed tile, GMX002);
* the concrete values flowing through ``gmx_pos`` and the ΔV/ΔH operands,
  when the program is a retired trace (GMX003 / GMX004);
* the set of edge images prior tiles produced, so a tile consuming an edge
  that is neither a boundary fill nor a prior output is caught (GMX006);
* pending CSR writes with no consumer yet (dead writes and truncated
  programs, GMX005);
* for binary programs, register def-use over the GMX/CSR instructions
  (an operand register no prior instruction defined is a GMX006 at the
  register level) and undecodable words (GMX008).

``ports=1`` models a core with a single register write port, on which the
dual-destination ``gmx.vh`` cannot retire — it is flagged as GMX007 instead
of silently accepted (see ``docs/analysis.md``).

The pass is linear in the stream length and allocates O(distinct edges).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..core.bitvec import pack_deltas
from ..core.isa import CSR_NAMES, IsaEvent
from .diagnostics import Diagnostic, Severity
from .program import TILE_OPS, Instr, Program

#: CSRs a tile computation consumes.
_TILE_READS = ("gmx_pattern", "gmx_text")
#: CSRs gmx.tb consumes / produces.
_TB_READS = ("gmx_pattern", "gmx_text", "gmx_pos")
_TB_WRITES = ("gmx_lo", "gmx_hi", "gmx_pos")


class _State:
    """Mutable abstract machine state while walking one program."""

    def __init__(self) -> None:
        self.written: Set[str] = set()
        self.pending: Dict[str, int] = {}  # csr -> index of unconsumed write
        self.computed_pairs: Set[Tuple[str, str]] = set()
        self.tile_ops_seen = 0
        self.produced_edges: Set[int] = set()
        self.pattern: Optional[str] = None
        self.text: Optional[str] = None
        self.defined_regs: Set[int] = {0}  # binary mode: x0 always defined


def verify_program(program: Program, *, ports: int = 2) -> List[Diagnostic]:
    """Run the dataflow analysis; returns the diagnostics, in stream order.

    Args:
        program: the stream to verify (trace or binary).
        ports: register-file write ports of the target core; ``gmx.vh``
            needs two, so ``ports=1`` flags every use as GMX007.
    """
    checker = _Checker(program, ports=ports)
    for index, instr in enumerate(program.instrs):
        checker.step(index, instr)
    checker.finish()
    return checker.diagnostics


def verify_trace(
    events,
    *,
    tile_size: int,
    label: str = "trace",
    ports: int = 2,
) -> List[Diagnostic]:
    """Verify a retired :class:`~repro.core.isa.IsaEvent` stream."""
    program = Program.from_trace(events, tile_size=tile_size, label=label)
    return verify_program(program, ports=ports)


def verify_words(
    words,
    *,
    tile_size: int = 32,
    label: str = "binary",
    ports: int = 2,
) -> List[Diagnostic]:
    """Verify a raw binary program (sequence of 32-bit words)."""
    program = Program.from_words(words, tile_size=tile_size, label=label)
    return verify_program(program, ports=ports)


class _Checker:
    """One verification walk; collects diagnostics into :attr:`diagnostics`."""

    def __init__(self, program: Program, *, ports: int) -> None:
        self.program = program
        self.ports = ports
        self.state = _State()
        self.diagnostics: List[Diagnostic] = []

    # -- reporting helpers ---------------------------------------------------

    def _report(
        self,
        code: str,
        index: Optional[int],
        message: str,
        hint: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        where = (
            f"{self.program.label}[{index}]"
            if index is not None
            else self.program.label
        )
        self.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                hint=hint,
                where=where,
                index=index,
            )
        )

    # -- per-instruction dispatch --------------------------------------------

    def step(self, index: int, instr: Instr) -> None:
        if instr.op == "csrw":
            self._check_csrw(index, instr)
        elif instr.op == "csrr":
            self._check_csrr(index, instr)
        elif instr.op in TILE_OPS:
            self._check_tile(index, instr)
        elif instr.op == "gmx.tb":
            self._check_tb(index, instr)
        else:
            word = f" {instr.word:#010x}" if instr.word is not None else ""
            self._report(
                "GMX008",
                index,
                f"undecodable instruction word{word}: {instr.note or instr.op}",
                "assemble GMX programs from the custom-0 and csrrw/csrrs "
                "encodings in repro.core.encoding",
            )

    def finish(self) -> None:
        """End-of-program: every still-pending write went unconsumed."""
        for csr, write_index in sorted(
            self.state.pending.items(), key=lambda item: item[1]
        ):
            self._report(
                "GMX005",
                write_index,
                f"write to {csr} is never consumed before the program ends "
                f"(truncated program?)",
                "drop the write or finish the compute/traceback sequence "
                "that should consume it",
                severity=Severity.WARNING,
            )

    # -- CSR accesses ---------------------------------------------------------

    def _check_csrw(self, index: int, instr: Instr) -> None:
        state = self.state
        csr = instr.csr
        if csr not in CSR_NAMES:
            self._report(
                "GMX008",
                index,
                f"CSR access targets {csr!r}, not a GMX CSR",
                f"use one of {', '.join(CSR_NAMES)}",
            )
            return
        if csr in state.pending:
            self._report(
                "GMX005",
                state.pending[csr],
                f"dead write: {csr} written here is overwritten at "
                f"instruction {index} with no consumer in between",
                "remove the dead write or reorder the CSR setup so every "
                "write reaches a gmx.{v,h,vh,tb} or csrr",
            )
        state.written.add(csr)
        state.pending[csr] = index
        if self.program.concrete:
            if csr == "gmx_pattern":
                state.pattern = instr.value if isinstance(instr.value, str) else None
            elif csr == "gmx_text":
                state.text = instr.value if isinstance(instr.value, str) else None
            elif csr == "gmx_pos":
                self._check_pos_image(index, instr.value)
        if not self.program.concrete and instr.rd is not None:
            state.defined_regs.add(instr.rd)

    def _check_csrr(self, index: int, instr: Instr) -> None:
        state = self.state
        csr = instr.csr
        if csr not in CSR_NAMES:
            self._report(
                "GMX008",
                index,
                f"CSR access targets {csr!r}, not a GMX CSR",
                f"use one of {', '.join(CSR_NAMES)}",
            )
            return
        if csr not in state.written:
            self._report(
                "GMX001",
                index,
                f"{csr} is read before any write initialises it",
                f"csrw {csr} before reading it",
            )
        state.pending.pop(csr, None)
        if not self.program.concrete and instr.rd is not None:
            state.defined_regs.add(instr.rd)

    def _check_pos_image(self, index: int, value: object) -> None:
        if not isinstance(value, int):
            return
        tile_size = self.program.tile_size
        one_hot = value > 0 and not (value & (value - 1))
        in_range = one_hot and value.bit_length() - 1 < 2 * tile_size
        if not one_hot:
            self._report(
                "GMX003",
                index,
                f"gmx_pos image {value:#x} is not one-hot",
                "encode the start cell with repro.core.isa.encode_pos",
            )
        elif not in_range:
            self._report(
                "GMX003",
                index,
                f"gmx_pos slot {value.bit_length() - 1} is outside the "
                f"2T = {2 * tile_size} edge slots",
                "the one-hot bit must index a bottom-row or right-column cell",
            )

    # -- tile computation ------------------------------------------------------

    def _require_csrs(self, index: int, op: str, names) -> None:
        for csr in names:
            if csr not in self.state.written:
                self._report(
                    "GMX001",
                    index,
                    f"{op} consumes {csr}, which no instruction has written",
                    f"csrw {csr} before issuing {op}",
                )

    def _consume(self, names) -> None:
        for csr in names:
            self.state.pending.pop(csr, None)

    def _check_tile(self, index: int, instr: Instr) -> None:
        state = self.state
        if instr.op == "gmx.vh" and self.ports < 2:
            self._report(
                "GMX007",
                index,
                "gmx.vh needs two register write ports; this target has "
                f"{self.ports}",
                "recompile with the gmx.v/gmx.h pair, or verify against a "
                "2-port configuration",
            )
        self._require_csrs(index, instr.op, _TILE_READS)
        self._consume(_TILE_READS)
        if self.program.concrete:
            self._check_operands(index, instr)
            for image in instr.out:
                state.produced_edges.add(image)
            if state.pattern is not None and state.text is not None:
                state.computed_pairs.add((state.pattern, state.text))
        else:
            self._check_register_uses(index, instr)
            if instr.rd:
                state.defined_regs.add(instr.rd)
                if instr.op == "gmx.vh" and instr.rd < 31:
                    state.defined_regs.add(instr.rd + 1)
        state.tile_ops_seen += 1

    def _check_tb(self, index: int, instr: Instr) -> None:
        state = self.state
        self._require_csrs(index, "gmx.tb", _TB_READS)
        if self.program.concrete:
            pair = (state.pattern, state.text)
            if None not in pair and pair not in state.computed_pairs:
                self._report(
                    "GMX002",
                    index,
                    "gmx.tb traces the tile "
                    f"(pattern={pair[0]!r}, text={pair[1]!r}) that no prior "
                    "gmx.v/gmx.h/gmx.vh computed",
                    "compute the tile before tracing it back (Algorithm 1 "
                    "before Algorithm 2)",
                )
            self._check_operands(index, instr)
        else:
            if state.tile_ops_seen == 0:
                self._report(
                    "GMX002",
                    index,
                    "gmx.tb issued before any tile computation instruction",
                    "compute the tile before tracing it back (Algorithm 1 "
                    "before Algorithm 2)",
                )
            self._check_register_uses(index, instr)
        self._consume(_TB_READS)
        for csr in _TB_WRITES:
            if csr in state.pending:
                self._report(
                    "GMX005",
                    state.pending[csr],
                    f"dead write: {csr} written here is overwritten by the "
                    f"gmx.tb at instruction {index} with no consumer in "
                    "between",
                    "read gmx_lo/gmx_hi/gmx_pos after each gmx.tb before the "
                    "next one replaces them",
                )
            state.written.add(csr)
            state.pending[csr] = index

    # -- operand-value checks (concrete programs) ------------------------------

    def _operand_lengths(self) -> Tuple[Optional[int], Optional[int]]:
        pattern = self.state.pattern
        text = self.state.text
        return (
            len(pattern) if pattern is not None else None,
            len(text) if text is not None else None,
        )

    def _check_operands(self, index: int, instr: Instr) -> None:
        pattern_len, text_len = self._operand_lengths()
        for name, image, count in (
            ("rs1 (ΔV_in)", instr.rs1, pattern_len),
            ("rs2 (ΔH_in)", instr.rs2, text_len),
        ):
            if image is None or count is None:
                continue
            if self._check_delta_image(index, instr.op, name, image, count):
                self._check_edge_provenance(index, instr.op, name, image, count)

    def _check_delta_image(
        self, index: int, op: str, name: str, image: int, count: int
    ) -> bool:
        """Validate the 2-bit Δ fields; True when the image is well-formed."""
        for position in range(count):
            if (image >> (2 * position)) & 0b11 == 0b11:
                self._report(
                    "GMX004",
                    index,
                    f"{op} {name} holds the illegal Δ bit pattern 0b11 "
                    f"at element {position} (image {image:#x})",
                    "pack operands with repro.core.bitvec.pack_deltas; "
                    "0b11 encodes no Δ value",
                )
                return False
        if image >> (2 * count):
            self._report(
                "GMX004",
                index,
                f"{op} {name} has non-zero bits above the {count}-element "
                f"chunk (image {image:#x})",
                "mask operand registers to 2 bits per chunk element",
                severity=Severity.WARNING,
            )
            return False
        return True

    def _check_edge_provenance(
        self, index: int, op: str, name: str, image: int, count: int
    ) -> None:
        boundary_fills = (0, pack_deltas([1] * count))
        if image in boundary_fills or image in self.state.produced_edges:
            return
        self._report(
            "GMX006",
            index,
            f"{op} {name} consumes edge image {image:#x}, which is neither "
            "a boundary fill (all +1 / all 0) nor an edge a prior tile "
            "produced",
            "feed tile inputs from DP boundary fills or stored gmx.v/gmx.h "
            "outputs",
        )

    # -- register def-use (binary programs) ------------------------------------

    def _check_register_uses(self, index: int, instr: Instr) -> None:
        for name, reg in (("rs1", instr.rs1), ("rs2", instr.rs2)):
            if reg is None or reg in self.state.defined_regs:
                continue
            self._report(
                "GMX006",
                index,
                f"{instr.op} {name} reads x{reg}, which no prior GMX/CSR "
                "instruction in this program defined",
                "produce the edge with an earlier gmx.v/gmx.h/csrr, or use "
                "x0 for an all-zero boundary",
            )
