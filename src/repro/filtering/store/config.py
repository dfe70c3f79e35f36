"""Configuration of the packed-matrix backing store.

One :class:`StoreConfig` shapes how an :class:`~repro.filtering.AspeLibrary`
keeps its packed predicate rows: in row chunks of at most ``chunk_rows``
rows, held in RAM, or — when ``memory_budget_mb > 0`` — persisted
through ``numpy.memmap`` with an LRU-bounded resident set, so one M-slice
can serve subscription partitions far larger than its memory budget.

:meth:`StoreConfig.from_env` reads the ``REPRO_STORE_*`` environment
variables so an existing deployment or test run changes the store without
code changes — the same convention as every other knob group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...config import EnvConfig

__all__ = ["StoreConfig"]


@dataclass(frozen=True)
class StoreConfig(EnvConfig):
    """Validated knobs of the packed-row backing store.

    ``chunk_rows``
        Maximum rows per chunk.  At ciphertext width ``n`` a full chunk
        occupies ``chunk_rows × (n + 2) × 8`` bytes of row data (matrix
        columns plus the two tolerance columns).
    ``memory_budget_mb``
        Resident-set budget for chunk data, in MiB.  ``0`` keeps every
        chunk in RAM; any positive budget spills each chunk to a
        ``numpy.memmap`` file and evicts least-recently-used chunks past
        the budget.  The hottest chunk is never evicted, so the effective
        floor is one chunk.
    ``compact_dead_ratio``
        Compact once ``dead / (dead + live)`` exceeds this ratio (and
        dead rows exceed a fixed floor).  The default ``0.5`` is the
        "dead rows outnumber live ones" trigger; ``1.0`` disables
        compaction entirely.
    ``spill_dir``
        Parent directory for spilled chunk files (default: the system
        temporary directory).  Each store creates — and removes on
        garbage collection — its own subdirectory.
    """

    env_prefix = "REPRO_STORE_"

    chunk_rows: int = 65536
    memory_budget_mb: float = 0.0
    compact_dead_ratio: float = 0.5
    spill_dir: Optional[str] = None

    def __post_init__(self):
        if self.chunk_rows < 1:
            raise ValueError(
                f"store_chunk_rows must be >= 1, got {self.chunk_rows}"
            )
        if self.memory_budget_mb < 0:
            raise ValueError(
                f"store_memory_budget_mb must be >= 0 (0 keeps chunks in "
                f"RAM), got {self.memory_budget_mb}"
            )
        if not 0.0 < self.compact_dead_ratio <= 1.0:
            raise ValueError(
                f"store_compact_dead_ratio must be in (0, 1] (1 disables "
                f"compaction), got {self.compact_dead_ratio}"
            )

    @property
    def spills(self) -> bool:
        """Whether chunks live in ``numpy.memmap`` files under a budget."""
        return self.memory_budget_mb > 0

    @property
    def memory_budget_bytes(self) -> int:
        return int(self.memory_budget_mb * 1024 * 1024)
