"""Fault injectors: turn planned :class:`FaultSpec`\\ s into live corruption.

Three layers, three mechanisms:

* **hardware** — a :class:`HardwareFaultInjector` implements the GMX ISA
  fault-hook protocol (``on_tile_output`` / ``on_csr_write``, see
  :func:`repro.core.isa.fault_injection`) and corrupts the architectural
  values the aligner-under-test observes: a transient bit flip in one tile
  output register image, a stuck-at-1 output bit polluting every tile, or
  a corrupted CSR write (a silently substituted base in a sequence chunk,
  a perturbed traceback position).
* **worker** — :func:`apply_worker_fault` makes the executing worker
  misbehave: raise (crash), sleep past its deadline (hang), sleep just
  under it (slow), or poison its reply so it cannot be pickled back.
* **data** — :func:`corrupt_pair` mutates the in-flight copy of a shard's
  pair (truncation or a garbled character); the parent detects the
  corruption by comparing :func:`pair_checksum` values computed
  independently on both sides of the transport.

Every injector draws all its choices from the spec's private seed, so a
replayed plan corrupts the same bit of the same value every time.
"""

from __future__ import annotations

import random
import time
import zlib
from typing import List, Optional, Sequence, Tuple

from .faults import FaultSpec, InjectedCrashError

#: Alphabet used when substituting a corrupted character (the realistic
#: silent-corruption shape: still a valid base, just the wrong one).
_BASES = "ACGT"


def pair_checksum(pattern: str, text: str) -> int:
    """Order-sensitive checksum of one pair (CRC32 over both sequences)."""
    return zlib.crc32(pattern.encode() + b"\x00" + text.encode())


def shard_checksum(pairs: Sequence[Tuple[str, str]]) -> int:
    """Order-sensitive checksum of a shard's pairs (folded pair CRCs)."""
    checksum = 0
    for pattern, text in pairs:
        checksum = (
            checksum * 1000003 + pair_checksum(pattern, text)
        ) & 0xFFFFFFFF
    return checksum


class HardwareFaultInjector:
    """One armed hardware fault, in ISA fault-hook form.

    Args:
        spec: a ``hardware``-layer fault spec.

    Attributes:
        fired: True once the injector has actually changed a value —
            distinguishes an injected fault from one that was armed but
            masked (e.g. a stuck-at bit that already held the stuck level).
    """

    def __init__(self, spec: FaultSpec):
        if spec.layer != "hardware":
            raise ValueError(f"not a hardware fault: {spec.describe()}")
        self.spec = spec
        self.fired = False
        rng = random.Random(spec.seed)
        # bitflip: strike the k-th tile output; which bit is decided at
        # call time (the image width depends on the tile size).
        self._target_output = 1 + rng.randrange(4)
        # csr: strike the k-th CSR write.
        self._target_write = 1 + rng.randrange(3)
        self._draw = rng.getrandbits(32)
        self._outputs_seen = 0
        self._writes_seen = 0

    # -- ISA fault-hook protocol -------------------------------------------

    def on_tile_output(self, op: str, value: int, tile_size: int) -> int:
        """Corrupt a packed Δ register image leaving the array."""
        self._outputs_seen += 1
        bits = 2 * tile_size
        if self.spec.kind == "bitflip":
            if self._outputs_seen == self._target_output:
                value ^= 1 << (self._draw % bits)
                self.fired = True
        elif self.spec.kind == "stuck":
            # Stuck-at-1 on one output net: every image passing through
            # the faulty latch has that bit forced high.
            stuck = 1 << (self._draw % bits)
            if not value & stuck:
                self.fired = True
            value |= stuck
        return value

    def on_csr_write(self, csr: str, value):
        """Corrupt an architectural CSR write in flight."""
        if self.spec.kind != "csr":
            return value
        self._writes_seen += 1
        if self._writes_seen != self._target_write:
            return value
        if isinstance(value, str):
            if not value:
                return value
            index = self._draw % len(value)
            original = value[index]
            substitutes = [b for b in _BASES if b != original]
            swap = substitutes[self._draw % len(substitutes)]
            self.fired = True
            return value[:index] + swap + value[index + 1 :]
        if isinstance(value, int):
            self.fired = True
            return value ^ (1 << (self._draw % 8))
        return value


class FaultHookChain:
    """Compose several hardware injectors into one ISA fault hook."""

    def __init__(self, injectors: Sequence[HardwareFaultInjector]):
        self.injectors = list(injectors)

    def on_tile_output(self, op: str, value: int, tile_size: int) -> int:
        for injector in self.injectors:
            value = injector.on_tile_output(op, value, tile_size)
        return value

    def on_csr_write(self, csr: str, value):
        for injector in self.injectors:
            value = injector.on_csr_write(csr, value)
        return value


def apply_worker_fault(
    spec: FaultSpec,
    *,
    hang_seconds: float,
    slow_seconds: float,
) -> Optional[str]:
    """Enact a worker-layer fault inside the executing worker.

    Returns ``"unpicklable"`` when the worker should poison its reply
    (the caller owns the transport), ``None`` otherwise.  ``crash``
    raises; ``hang`` and ``slow`` sleep for the engine-chosen budgets.
    """
    if spec.layer != "worker":
        raise ValueError(f"not a worker fault: {spec.describe()}")
    if spec.kind == "crash":
        raise InjectedCrashError(spec.describe())
    if spec.kind == "hang":
        time.sleep(hang_seconds)
        return None
    if spec.kind == "slow":
        time.sleep(slow_seconds)
        return None
    return "unpicklable"


def corrupt_pair(spec: FaultSpec, pattern: str, text: str) -> Tuple[str, str]:
    """Enact a data-layer fault on the in-flight copy of one pair.

    ``truncate`` cuts one sequence short at a seeded point (possibly to
    empty — the classic short-read shape of a torn transfer); ``garble``
    substitutes one seeded character for a different base.  The pristine
    pair in the parent is untouched, which is what makes checksum
    comparison a detection mechanism rather than a tautology.
    """
    if spec.layer != "data":
        raise ValueError(f"not a data fault: {spec.describe()}")
    rng = random.Random(spec.seed)
    target_text = rng.random() < 0.5
    sequence = text if target_text else pattern
    if not sequence:
        return pattern, text
    if spec.kind == "truncate":
        cut = rng.randrange(len(sequence))
        mutated = sequence[:cut]
    else:  # garble
        index = rng.randrange(len(sequence))
        original = sequence[index]
        substitutes = [b for b in _BASES if b != original]
        mutated = (
            sequence[:index]
            + rng.choice(substitutes)
            + sequence[index + 1 :]
        )
    if target_text:
        return pattern, mutated
    return mutated, text


def corrupt_shard(
    specs: Sequence[FaultSpec],
    shard: Sequence[Tuple[str, str]],
    lo: int,
) -> List[Tuple[str, str]]:
    """Apply every data fault in ``specs`` to a copy of ``shard``.

    ``lo`` is the absolute pair index of the shard's first pair; specs
    target absolute indices.
    """
    mutated = list(shard)
    for spec in specs:
        offset = spec.pair_index - lo
        if 0 <= offset < len(mutated):
            pattern, text = mutated[offset]
            mutated[offset] = corrupt_pair(spec, pattern, text)
    return mutated
