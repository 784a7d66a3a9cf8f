"""Functional model of the GMX ISA extension (paper §5).

The model executes GMX instructions over explicit architectural state:

* three R-type instructions — :meth:`GmxIsa.gmx_v`, :meth:`GmxIsa.gmx_h`,
  :meth:`GmxIsa.gmx_tb`;
* five architectural state registers accessed with :meth:`GmxIsa.csrw` /
  :meth:`GmxIsa.csrr` — ``gmx_pattern``, ``gmx_text``, ``gmx_pos``,
  ``gmx_lo``, ``gmx_hi``.

ΔV/ΔH vectors travel through general-purpose registers as 2T-bit images
(2 bits per Δ value, see :mod:`repro.core.bitvec`).  ``gmx_pos`` one-hot
encodes a cell on the tile's bottom row (slots 0..T−1, by column) or right
column (slots T..2T−1, by row).  ``gmx_lo``/``gmx_hi`` hold the 2-bit-encoded
traceback ops indexed by antidiagonal, with the next-tile code in gmx_hi's
top two bits (see :mod:`repro.core.traceback`).

Partial tiles: the architectural pattern/text registers record the chunk
*contents*; chunks shorter than T model the masking a hardware
implementation applies at sequence boundaries.  All distances stay exact.

Every executed instruction is retired into :attr:`GmxIsa.retired`, which the
cycle-level models in :mod:`repro.sim` consume.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs import runtime as obs
from .bitvec import pack_deltas, unpack_deltas, unpack_plus_minus
from .tile import DEFAULT_TILE_SIZE, build_peq, compute_tile
from .traceback import TileTraceback, pack_tile_ops, traceback_tile_masks

#: CSR names, as in the paper.
CSR_NAMES = ("gmx_pattern", "gmx_text", "gmx_pos", "gmx_lo", "gmx_hi")


class IsaError(RuntimeError):
    """Raised on illegal ISA-level usage (bad CSR, malformed position, ...)."""


#: Ambient fault hook: applied to every :class:`GmxIsa` created while a
#: :func:`fault_injection` context is active (unless the instance carries
#: its own hook).  This is how the resilience framework corrupts the ISA
#: state of aligners that construct their ISA instances internally — the
#: software under test runs unmodified on a "faulty core".
_AMBIENT_FAULT_HOOK: Optional[object] = None


@contextlib.contextmanager
def fault_injection(hook: object) -> Iterator[None]:
    """Run a block with ``hook`` injected into every GMX ISA instance.

    The hook observes ``on_tile_output(op, value, tile_size)`` and
    ``on_csr_write(csr, value)`` and returns the (possibly corrupted)
    value.  Nesting restores the previous hook on exit; the hook is
    process-local (each chaos worker arms its own).
    """
    global _AMBIENT_FAULT_HOOK
    previous = _AMBIENT_FAULT_HOOK
    _AMBIENT_FAULT_HOOK = hook
    try:
        yield
    finally:
        _AMBIENT_FAULT_HOOK = previous


@dataclass(frozen=True)
class IsaEvent:
    """One retired instruction in a recorded GMX instruction stream.

    Events carry the concrete architectural values in flight, which is what
    lets :mod:`repro.analysis.verifier` run value-level dataflow checks
    (Δ-encoding domains, gmx_pos well-formedness, tile-edge provenance) that
    a register-number-only binary decoding cannot.

    Attributes:
        op: mnemonic — ``csrw``, ``csrr``, ``gmx.v``, ``gmx.h``, ``gmx.vh``
            or ``gmx.tb``.
        csr: CSR name for ``csrw``/``csrr`` events.
        value: value written (``csrw``) or read (``csrr``).
        rs1 / rs2: packed ΔV_in / ΔH_in operand images of a tile instruction.
        out: produced values — ``(ΔV_out,)``, ``(ΔH_out,)``,
            ``(ΔV_out, ΔH_out)``, or ``(gmx_lo, gmx_hi, gmx_pos')``.
    """

    op: str
    csr: Optional[str] = None
    value: object = None
    rs1: Optional[int] = None
    rs2: Optional[int] = None
    out: Tuple = ()


def encode_pos(row: int, col: int, tile_size: int = DEFAULT_TILE_SIZE) -> int:
    """One-hot encode a traceback start cell into a gmx_pos image.

    Cells on the bottom row use slots 0..T−1 (indexed by column); remaining
    cells on the right column use slots T..2T−1 (indexed by row).  The
    bottom-right corner encodes through its bottom-row slot.
    """
    if not (0 <= row < tile_size and 0 <= col < tile_size):
        raise IsaError(f"position {(row, col)!r} outside a {tile_size}-tile")
    if row == tile_size - 1:
        return 1 << col
    if col == tile_size - 1:
        return 1 << (tile_size + row)
    raise IsaError(
        f"position {(row, col)!r} is not on the bottom or right tile edge"
    )


def decode_pos(image: int, tile_size: int = DEFAULT_TILE_SIZE) -> Tuple[int, int]:
    """Decode a one-hot gmx_pos image back to a (row, col) cell."""
    if image <= 0 or image & (image - 1):
        raise IsaError(f"gmx_pos image {image:#x} is not one-hot")
    slot = image.bit_length() - 1
    if slot < tile_size:
        return tile_size - 1, slot
    if slot < 2 * tile_size:
        return slot - tile_size, tile_size - 1
    raise IsaError(f"gmx_pos slot {slot} outside 2T = {2 * tile_size}")


def clamp_pos(row: int, col: int, rows: int, cols: int) -> Tuple[int, int]:
    """Clamp a full-tile entry position onto a partial tile's edge.

    When the neighbouring tile is partial (sequence tail), the entry cell
    reported by the previous ``gmx.tb`` — expressed for a full T×T tile —
    maps onto the partial tile's actual bottom row / right column.
    """
    return min(row, rows - 1), min(col, cols - 1)


@dataclass
class GmxIsa:
    """Architectural state and instruction semantics of the GMX extension.

    Attributes:
        tile_size: T, the number of Δ values per vector register.
        gmx_pattern: current pattern chunk (rows of the active tile).
        gmx_text: current text chunk (columns of the active tile).
        gmx_pos: one-hot traceback position image.
        gmx_lo: low half of the 2-bit-encoded tile alignment.
        gmx_hi: high half plus the 2-bit next-tile code.
        retired: executed-instruction counter, by mnemonic.
        trace: when set to a list, every retired instruction is appended to
            it as an :class:`IsaEvent` — the ordered stream the static
            program verifier (:mod:`repro.analysis`) consumes.  ``None``
            (the default) disables recording.
        fault_hook: optional fault-injection hook (see
            :mod:`repro.resilience.injectors`).  When set, every tile
            instruction's output register image passes through
            ``fault_hook.on_tile_output(op, value, tile_size)`` and every
            CSR write through ``fault_hook.on_csr_write(csr, value)`` —
            the model's analogue of transient upsets on the GMX-AC output
            latches and the CSR write bus.  Corrupted values flow into the
            retired trace exactly as the software would observe them, so
            the program verifier sees what a real core would.  ``None``
            (the default) executes fault-free.
    """

    tile_size: int = DEFAULT_TILE_SIZE
    gmx_pattern: str = ""
    gmx_text: str = ""
    gmx_pos: int = 0
    gmx_lo: int = 0
    gmx_hi: int = 0
    retired: Counter = field(default_factory=Counter)
    trace: Optional[List[IsaEvent]] = None
    fault_hook: Optional[object] = field(default=None, repr=False)
    _peq_cache_key: str = field(default="", repr=False)
    _peq_cache: dict = field(default_factory=dict, repr=False)

    def _active_fault_hook(self) -> Optional[object]:
        """This core's fault hook: the instance's own, else the ambient one."""
        if self.fault_hook is not None:
            return self.fault_hook
        return _AMBIENT_FAULT_HOOK

    def _retire(self, op: str, **fields) -> None:
        """Append an event to the retired stream (when tracing is on).

        The event is only built while a trace is being recorded: the
        untraced instruction path never pays for it.
        """
        if self.trace is not None:
            self.trace.append(IsaEvent(op, **fields))

    # -- CSR access ---------------------------------------------------------

    def csrw(self, csr: str, value) -> None:
        """Write an architectural state register (one retired instruction)."""
        if csr not in CSR_NAMES:
            raise IsaError(f"unknown GMX CSR {csr!r}")
        if csr in ("gmx_pattern", "gmx_text"):
            if not isinstance(value, str):
                raise IsaError(f"{csr} expects a character chunk, got {type(value)}")
            if len(value) > self.tile_size:
                raise IsaError(
                    f"{csr} chunk of {len(value)} exceeds tile size {self.tile_size}"
                )
        hook = self._active_fault_hook()
        if hook is not None:
            value = hook.on_csr_write(csr, value)
        setattr(self, csr, value)
        self.retired["csrw"] += 1
        self._retire("csrw", csr=csr, value=value)

    def csrr(self, csr: str):
        """Read an architectural state register (one retired instruction)."""
        if csr not in CSR_NAMES:
            raise IsaError(f"unknown GMX CSR {csr!r}")
        self.retired["csrr"] += 1
        value = getattr(self, csr)
        self._retire("csrr", csr=csr, value=value)
        return value

    # -- tile computation instructions ---------------------------------------

    def _tile_chunks(self) -> Tuple[str, str]:
        pattern = self.gmx_pattern
        text = self.gmx_text
        if not pattern or not text:
            raise IsaError("gmx_pattern/gmx_text must be written before gmx.{v,h,tb}")
        return pattern, text

    def _tile_inputs(self, rs1: int, rs2: int):
        pattern, text = self._tile_chunks()
        dv_in = unpack_deltas(rs1, len(pattern))
        dh_in = unpack_deltas(rs2, len(text))
        return pattern, text, dv_in, dh_in

    def _peq(self, pattern: str):
        if pattern != self._peq_cache_key:
            self._peq_cache = build_peq(pattern)
            self._peq_cache_key = pattern
        return self._peq_cache

    def gmx_v(self, rs1: int, rs2: int) -> int:
        """``gmx.v rd, rs1, rs2`` — compute the tile and return ΔV_out.

        ``rs1`` holds the packed ΔV_in (left edge), ``rs2`` ΔH_in (top edge).
        """
        pattern, text, dv_in, dh_in = self._tile_inputs(rs1, rs2)
        result = compute_tile(
            pattern, text, dv_in, dh_in,
            tile_size=self.tile_size, peq=self._peq(pattern),
        )
        self.retired["gmx.v"] += 1
        dv_out = pack_deltas(result.dv_out)
        hook = self._active_fault_hook()
        if hook is not None:
            dv_out = hook.on_tile_output("gmx.v", dv_out, self.tile_size)
        self._retire("gmx.v", rs1=rs1, rs2=rs2, out=(dv_out,))
        return dv_out

    def gmx_h(self, rs1: int, rs2: int) -> int:
        """``gmx.h rd, rs1, rs2`` — compute the tile and return ΔH_out."""
        pattern, text, dv_in, dh_in = self._tile_inputs(rs1, rs2)
        result = compute_tile(
            pattern, text, dv_in, dh_in,
            tile_size=self.tile_size, peq=self._peq(pattern),
        )
        self.retired["gmx.h"] += 1
        dh_out = pack_deltas(result.dh_out)
        hook = self._active_fault_hook()
        if hook is not None:
            dh_out = hook.on_tile_output("gmx.h", dh_out, self.tile_size)
        self._retire("gmx.h", rs1=rs1, rs2=rs2, out=(dh_out,))
        return dh_out

    def gmx_vh(self, rs1: int, rs2: int) -> Tuple[int, int]:
        """Fused tile computation returning (ΔV_out, ΔH_out) in one call.

        Models the dual-destination variant the paper describes for cores
        with two register write ports (§5); retires a single ``gmx.vh``.
        """
        pattern, text, dv_in, dh_in = self._tile_inputs(rs1, rs2)
        result = compute_tile(
            pattern, text, dv_in, dh_in,
            tile_size=self.tile_size, peq=self._peq(pattern),
        )
        self.retired["gmx.vh"] += 1
        dv_out = pack_deltas(result.dv_out)
        dh_out = pack_deltas(result.dh_out)
        hook = self._active_fault_hook()
        if hook is not None:
            dv_out = hook.on_tile_output("gmx.vh", dv_out, self.tile_size)
            dh_out = hook.on_tile_output("gmx.vh", dh_out, self.tile_size)
        self._retire("gmx.vh", rs1=rs1, rs2=rs2, out=(dv_out, dh_out))
        return dv_out, dh_out

    # -- traceback instruction -----------------------------------------------

    def gmx_tb(self, rs1: int, rs2: int) -> TileTraceback:
        """``gmx.tb rs1, rs2`` — tile traceback from the gmx_pos cell.

        Consumes ΔV_in/ΔH_in from ``rs1``/``rs2`` and the start position from
        ``gmx_pos``; deposits the encoded alignment into ``gmx_lo``/``gmx_hi``
        and the next tile's entry position into ``gmx_pos``.

        Returns the decoded :class:`TileTraceback` for convenience — the
        information content is identical to the CSR state.
        """
        pattern, text = self._tile_chunks()
        pv, mv = unpack_plus_minus(rs1, len(pattern))
        ph, mh = unpack_plus_minus(rs2, len(text))
        row, col = decode_pos(self.gmx_pos, self.tile_size)
        row, col = clamp_pos(row, col, len(pattern), len(text))
        result = traceback_tile_masks(
            pattern, text, pv, mv, ph, mh, (row, col),
            tile_size=self.tile_size, peq=self._peq(pattern),
        )
        self.gmx_lo, self.gmx_hi = pack_tile_ops(
            result.ops, (row, col), result.next_tile, tile_size=self.tile_size
        )
        next_row, next_col = result.next_pos
        self.gmx_pos = encode_pos(next_row, next_col, self.tile_size)
        self.retired["gmx.tb"] += 1
        self._retire(
            "gmx.tb",
            rs1=rs1,
            rs2=rs2,
            out=(self.gmx_lo, self.gmx_hi, self.gmx_pos),
        )
        return result

    # -- decoded-instruction execution ---------------------------------------

    def execute(self, instruction, registers: Dict[int, int]) -> None:
        """Execute one decoded GMX instruction against a register file.

        ``instruction`` is a :class:`repro.core.encoding.GmxInstruction`;
        ``registers`` maps register numbers to values (x0 is hard-wired to
        zero and never written).  All four mnemonics execute, including the
        dual-destination ``gmx.vh``, whose second result (ΔH_out) lands in
        the odd register of the rd-aligned pair — the 2-port convention of
        §5: ``rd`` must be even so rd/rd+1 share a write port pair.

        Raises:
            IsaError: on an unknown mnemonic or an rd ``gmx.vh`` cannot use.
        """
        def read(reg: int) -> int:
            return registers.get(reg, 0) if reg else 0

        rs1 = read(instruction.rs1)
        rs2 = read(instruction.rs2)

        def write(reg: int, value: int) -> None:
            if reg != 0:
                registers[reg] = value

        with obs.span("isa.execute", op=instruction.mnemonic):
            if instruction.mnemonic == "gmx.v":
                write(instruction.rd, self.gmx_v(rs1, rs2))
            elif instruction.mnemonic == "gmx.h":
                write(instruction.rd, self.gmx_h(rs1, rs2))
            elif instruction.mnemonic == "gmx.vh":
                if instruction.rd % 2 or instruction.rd == 0:
                    raise IsaError(
                        f"gmx.vh needs an even, non-zero rd for the rd/rd+1 "
                        f"destination pair, got x{instruction.rd}"
                    )
                dv_out, dh_out = self.gmx_vh(rs1, rs2)
                write(instruction.rd, dv_out)
                write(instruction.rd + 1, dh_out)
            elif instruction.mnemonic == "gmx.tb":
                self.gmx_tb(rs1, rs2)
            else:
                raise IsaError(
                    f"unsupported GMX mnemonic {instruction.mnemonic!r}"
                )
        obs.inc("isa.executed")

    # -- accounting -----------------------------------------------------------

    @property
    def retired_total(self) -> int:
        """Total retired GMX + CSR instructions."""
        return sum(self.retired.values())

    def reset_counters(self) -> None:
        """Clear the retired-instruction counter."""
        self.retired.clear()


def pack_vector(deltas: Sequence[int]) -> int:
    """Pack a Δ vector into a register image (alias of bitvec.pack_deltas)."""
    return pack_deltas(deltas)


def unpack_vector(image: int, count: int) -> list:
    """Unpack ``count`` Δ values from a register image."""
    return unpack_deltas(image, count)
