"""Seeded retry/backoff policy shared across subsystems.

One :class:`RetryPolicy` definition serves three callers with identical
semantics:

* the resilience engine (:mod:`repro.resilience.engine`) — shard retry
  delays inside :func:`align_batch_resilient`;
* the serving client paths (:mod:`repro.serve.bench`) — retrying
  ``429 Retry-After`` responses against a saturated service;
* the distributed coordinator (:mod:`repro.dist.coordinator`) — lease
  reassignment backoff after a node crash/hang/partition.

Determinism contract: the jitter stream is a pure function of
``(seed, key, attempt)``, so a replayed campaign (same seed, same fault
plan) produces byte-identical delay schedules — no ambient RNG state is
read or written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


#: Multiplier of the delay per further retry.
BACKOFF_FACTOR = 2.0
#: Fractional jitter added on top of each delay (0.25 = up to +25%).
JITTER = 0.25


@dataclass
class RetryPolicy:
    """Seeded exponential backoff with deterministic jitter.

    Attributes:
        max_retries: retries per work item after its first attempt.
        backoff_base: delay before the first retry, in seconds; each
            further retry waits :data:`BACKOFF_FACTOR` times longer.
        seed: seed of the jitter stream (same seed → same delays).
    """

    max_retries: int = 2
    backoff_base: float = 0.02
    seed: int = 0

    def delay(self, key: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of item ``key``."""
        rng = random.Random(
            (self.seed << 24) ^ (key << 8) ^ attempt
        )
        base = self.backoff_base * BACKOFF_FACTOR ** (attempt - 1)
        return base * (1.0 + JITTER * rng.random())
