"""Automatic aligner selection — a convenience façade over the three
co-designed algorithms.

Downstream tools rarely want to pick Full/Banded/Windowed by hand; the
trade-offs are mechanical (§4.1):

* **Banded with auto-widening** is exact and cheap whenever the pair is
  similar — it is the default.
* **Full** is the fallback when exactness is required on arbitrarily
  divergent pairs and the matrix is small enough to afford.
* **Windowed** takes over when the full matrix would not fit the memory
  budget (the §7.3 regime: megabase reads on a 1 GB SoC).

:class:`AutoAligner` encodes exactly that policy and records which engine
it chose, so pipelines can audit the decisions.
"""

from __future__ import annotations

from typing import Optional

from .backends import get_backend
from .banded_gmx import BandedGmxAligner
from .base import Aligner, AlignmentResult
from .full_gmx import _edge_bytes
from .windowed_gmx import WindowedGmxAligner


class AutoAligner(Aligner):
    """Pick the cheapest GMX algorithm that satisfies the request.

    Args:
        memory_budget_bytes: ceiling for the DP edge state; pairs whose
            full-matrix edge storage would exceed it go to the windowed
            heuristic (default 64 MiB — comfortably inside a 1 GB SoC).
        require_exact: when True, never fall back to the windowed
            heuristic; raise instead if the budget cannot be met.
        tile_size: T for all engines.
        backend: name of the kernel backend shared by all engines;
            ``None`` is ``bitpar`` (see :mod:`repro.align.backends`).
    """

    name = "Auto(GMX)"

    def __init__(
        self,
        *,
        memory_budget_bytes: int = 64 * 1024 * 1024,
        require_exact: bool = False,
        tile_size: int = 32,
        backend: Optional[str] = None,
    ):
        if memory_budget_bytes < 1024:
            raise ValueError(
                f"memory budget of {memory_budget_bytes} bytes is unusable"
            )
        self.memory_budget_bytes = memory_budget_bytes
        self.require_exact = require_exact
        self.tile_size = tile_size
        self.backend = get_backend(backend)
        self._banded = BandedGmxAligner(tile_size=tile_size, backend=backend)
        self._windowed = WindowedGmxAligner(tile_size=tile_size, backend=backend)
        self._last_choice: Optional[str] = None

    @property
    def last_choice(self) -> Optional[str]:
        """Engine chosen by the most recent :meth:`align` call."""
        return self._last_choice

    def _edge_matrix_bytes(self, n: int, m: int) -> int:
        tiles = -(-n // self.tile_size) * -(-m // self.tile_size)
        return 2 * _edge_bytes(self.tile_size) * tiles

    def align(
        self, pattern: str, text: str, *, traceback: bool = True
    ) -> AlignmentResult:
        if not pattern or not text:
            raise ValueError("pattern and text must be non-empty")
        footprint = self._edge_matrix_bytes(len(pattern), len(text))
        if footprint <= self.memory_budget_bytes:
            # Banded auto-widening degenerates gracefully to Full: in the
            # worst case (band = max length) it computes the same tiles.
            self._last_choice = "Banded(GMX)"
            return self._banded.align(pattern, text, traceback=traceback)
        if self.require_exact:
            raise MemoryError(
                f"exact alignment needs {footprint} bytes of edge state, "
                f"over the {self.memory_budget_bytes}-byte budget"
            )
        self._last_choice = "Windowed(GMX)"
        return self._windowed.align(pattern, text, traceback=traceback)
