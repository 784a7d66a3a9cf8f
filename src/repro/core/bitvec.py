"""Fixed-width bit-vector helpers.

GMX packs vectors of 2-bit-encoded Δ values into general-purpose registers
(T = 32 values in a 64-bit register).  Python integers are arbitrary
precision, so these helpers impose explicit widths and provide the pack /
unpack conversions between Δ-value lists and register images.

Register layout (paper §5): a ΔV/ΔH register holds T two-bit fields; field
``i`` occupies bits ``[2i+1 : 2i]`` with bit ``2i`` = (Δ == +1) and bit
``2i+1`` = (Δ == -1), matching :mod:`repro.core.delta`'s encoding.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .delta import DeltaEncodingError, decode_delta, encode_delta


def mask(width: int) -> int:
    """Return a bit mask of ``width`` ones."""
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def get_bit(value: int, index: int) -> int:
    """Return bit ``index`` of ``value``."""
    return (value >> index) & 1


def set_bit(value: int, index: int, bit: int) -> int:
    """Return ``value`` with bit ``index`` set to ``bit``."""
    if bit:
        return value | (1 << index)
    return value & ~(1 << index)


def popcount(value: int) -> int:
    """Population count (number of set bits)."""
    return bin(value).count("1")


def bits_of(value: int, width: int) -> List[int]:
    """Return the ``width`` low bits of ``value``, LSB first."""
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: Iterable[int]) -> int:
    """Inverse of :func:`bits_of` (LSB first)."""
    value = 0
    for i, bit in enumerate(bits):
        if bit:
            value |= 1 << i
    return value


def pack_deltas(deltas: Sequence[int]) -> int:
    """Pack a sequence of Δ values into a register image (2 bits per value)."""
    register = 0
    for i, delta in enumerate(deltas):
        bit0, bit1 = encode_delta(delta)
        register |= (bit0 | (bit1 << 1)) << (2 * i)
    return register


def unpack_deltas(register: int, count: int) -> List[int]:
    """Unpack ``count`` Δ values from a register image.

    Raises:
        DeltaEncodingError: if any 2-bit field holds the illegal pattern 0b11.
    """
    deltas = []
    for i in range(count):
        field = (register >> (2 * i)) & 0b11
        deltas.append(decode_delta(field & 1, (field >> 1) & 1))
    return deltas


def pack_plus_minus(plus: int, minus: int) -> int:
    """Interleave (P, M) bitmasks into a packed 2-bit Δ register image.

    Bit ``i`` of ``plus`` lands on bit ``2i`` and bit ``i`` of ``minus`` on
    bit ``2i+1`` — the bitmask-level twin of :func:`pack_deltas`.  The
    spread is done on the binary string (a ``0`` between every digit moves
    bit ``k`` to bit ``2k``), which keeps the work in C.
    """
    spread_plus = int("0".join(format(plus, "b")), 2)
    spread_minus = int("0".join(format(minus, "b")), 2)
    return spread_plus | (spread_minus << 1)


def unpack_plus_minus(register: int, count: int) -> tuple[int, int]:
    """Split ``count`` packed Δ fields straight into (P, M) bitmasks.

    The bitmask-level twin of :func:`unpack_deltas`: bit ``i`` of P / M is
    set iff field ``i`` holds +1 / −1.  Fields above ``count`` are ignored.

    Raises:
        DeltaEncodingError: if any of the ``count`` fields holds 0b11.
    """
    if count <= 0:
        return 0, 0
    # Fixed-width digits behind a sentinel bit: digit 2k (from the right)
    # is field k's plus bit, digit 2k+1 its minus bit.
    digits = bin((register & mask(2 * count)) | (1 << (2 * count)))[3:]
    plus = int(digits[1::2], 2)
    minus = int(digits[0::2], 2)
    if plus & minus:
        field = (plus & minus).bit_length() - 1
        raise DeltaEncodingError(f"illegal Δ bit pattern (1, 1) in field {field}")
    return plus, minus


def split_plus_minus(deltas: Sequence[int]) -> tuple[int, int]:
    """Split Δ values into (P, M) bitmasks: P bit i set iff Δ==+1, M iff Δ==-1.

    This is the representation the bit-parallel (Myers/Hyyrö) kernels use
    internally; element ``i`` of the vector maps to bit ``i``.
    """
    plus = 0
    minus = 0
    for i, delta in enumerate(deltas):
        if delta == 1:
            plus |= 1 << i
        elif delta == -1:
            minus |= 1 << i
        elif delta != 0:
            raise DeltaEncodingError(f"Δ value must be -1, 0 or +1, got {delta!r}")
    return plus, minus


def merge_plus_minus(plus: int, minus: int, count: int) -> List[int]:
    """Inverse of :func:`split_plus_minus`.

    Raises:
        DeltaEncodingError: if any position has both the plus and minus bit.
    """
    if plus & minus:
        raise DeltaEncodingError(
            f"plus and minus masks overlap at bits {bin(plus & minus)}"
        )
    return [((plus >> i) & 1) - ((minus >> i) & 1) for i in range(count)]
